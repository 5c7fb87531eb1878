"""Per-layer metrics of a traced run.

Per-step and per-evaluation figures come from the workload's own calls.
Where a workload never calls a boundary (the engine on scalar-suite, the
scalar laws off scalar-suite, export and report off wing-rock), the
probes below call it at seeded inputs, so every traced run reports every
metric.  The probe inputs are the wing-rock engine at seeded snapshots,
seeded scalar states, and the workload's own last trajectory for export
and report.
"""

from __future__ import annotations

import numpy as np

import sweep

PROBE_SNAPSHOTS = 5
PROBE_REPS = 3
PROBE_CALLS = 200


def _probe_engine(tracer, seed: int) -> None:
    import expstab.backstepping as bs
    import expstab.scenarios as scenarios
    import expstab.sim as sim

    tracer.active = False
    scn = scenarios.build_wing_rock("theorem1", horizon=0.25)
    tracer.active = True
    model = tracer.wrap_model(scn.model)
    for _ in range(PROBE_REPS):
        engine = bs.BacksteppingEngine(model, scn.gains)
    snaps = sweep.snapshots(2, model.q, scn.gains.lam, seed, PROBE_SNAPSHOTS)
    for _ in range(PROBE_REPS):
        for t, x, th, mu in snaps:
            for diagnostics in (True, False):
                ev = engine.evaluate(t, x, th, mu=mu, diagnostics=diagnostics)
                sim.control_theorem1(ev, -0.3, scn.gains)


def _probe_nussbaum(seed: int) -> None:
    import expstab.scalar as scalar
    from expstab.nussbaum import NussbaumSpec

    spec = NussbaumSpec(kind="sin-exp-square")
    for xi in np.random.default_rng([seed, 1]).uniform(0.0, 2.0, PROBE_CALLS):
        scalar.nussbaum_value(spec, float(xi))


def _probe_scalar(seed: int) -> None:
    import expstab.sim as sim
    from expstab.nussbaum import NussbaumSpec
    from expstab.scalar import ScalarGains, ScalarState

    gains = ScalarGains(k=1.0, lam=0.6, gamma_a=1.0, delta_a=0.5,
                        nussbaum=NussbaumSpec(kind="cos-exp-square", scale=0.25,
                                              xi_max=30.0))
    rng = np.random.default_rng([seed, 2])
    laws = (sim.scalar_A_law, sim.scalar_B_law, sim.scalar_C_law)
    for _ in range(PROBE_CALLS):
        st = ScalarState.at(x=float(rng.uniform(-2.0, 2.0)),
                            a_hat=float(rng.uniform(-3.0, 3.0)),
                            t=float(rng.uniform(0.0, 5.0)), lam=0.6,
                            xi=float(rng.uniform(0.0, 2.0)))
        for law in laws:
            law(st, gains)


def _report(tracer, traj) -> None:
    """The analysis calls ``expstab run`` makes for its report.txt."""
    from expstab import analysis

    lam = traj.meta["lam"]
    tracer.call("analysis.report", analysis.fit_envelope, traj, rate=lam)
    tracer.call("analysis.report", analysis.settling_time, traj, 0.05)
    if traj.theta_hat.shape[0] > 2:
        tracer.call("analysis.report", analysis.detect_limit,
                    traj.theta_hat[:, 0], traj.t, tail_start=2.0 * traj.t[-1] / 3.0,
                    epsilon=1e-3 * (1.0 + abs(traj.theta_hat[-1, 0])))
    if "V" in traj.diag:
        tracer.call("analysis.report", analysis.energy_descent_ok, traj)


def per_layer(tracer, rounds, seed: int, out_dir) -> dict:
    """Metric name -> (value, unit) from the spans and counters."""
    from expstab import sim

    ops = [op for r in rounds for op in r]
    counts = tracer.counts
    steps = counts["sim.steps"]
    simulate = tracer.spans["sim.simulate"]
    m = {
        "sim.self_us_per_step": (1e6 * simulate.self_total / steps, "us"),
        "trace.steps_per_s": (steps / simulate.total, "steps/s"),
        "backstepping.evaluate_calls_per_step": (
            counts["backstepping.evaluate_in_sim"] / steps, "count"),
        "nussbaum.calls_per_step": (counts["nussbaum.in_sim"] / steps, "count"),
    }

    if not tracer.has("backstepping.evaluate_full"):
        _probe_engine(tracer, seed)
    if not tracer.has("nussbaum.value"):
        _probe_nussbaum(seed)
    if not tracer.has("scalar.law"):
        _probe_scalar(seed)
    if tracer.has("analysis.report"):
        report_ops = len(ops)
    else:
        for _ in range(PROBE_REPS):
            _report(tracer, ops[-1].traj)
        report_ops = PROBE_REPS
    if not tracer.has("sim.export"):
        for _ in range(PROBE_REPS):
            tracer.call("sim.export", sim.export_csv, ops[-1].traj,
                        out_dir / "probe-trajectory.csv")

    evals = tracer.evals()
    m.update({
        "sim.export_s": (tracer.spans["sim.export"].median(), "s"),
        "backstepping.evaluate_full_us": (
            tracer.median_us("backstepping.evaluate_full"), "us"),
        "backstepping.evaluate_light_us": (
            tracer.median_us("backstepping.evaluate_light"), "us"),
        "backstepping.control_us": (tracer.median_us("backstepping.control"), "us"),
        "backstepping.engine_init_ms": (
            1e-3 * tracer.median_us("backstepping.engine_init"), "ms"),
        "duals.tags_per_eval": (counts["duals.tags"] / evals, "count"),
        "duals.allocs_per_eval": (counts["duals.allocs"] / evals, "count"),
        "duals.payload_elems_per_eval": (counts["duals.payload"] / evals, "count"),
        "nussbaum.value_us": (tracer.median_us("nussbaum.value"), "us"),
        "scalar.law_us": (tracer.median_us("scalar.law"), "us"),
        "model.signal_us": (tracer.median_us("model.signal"), "us"),
        "model.regressor_calls_per_eval": (
            counts["model.regressor_calls"] / evals, "count"),
        "analysis.report_s": (
            tracer.spans["analysis.report"].total / report_ops, "s"),
        "scenarios.build_ms": (1e-3 * tracer.median_us("scenarios.build"), "ms"),
    })
    return m


PER_LAYER = {
    "sim.self_us_per_step": ("us", "lower"),
    "sim.export_s": ("s", "lower"),
    "trace.steps_per_s": ("steps/s", "higher"),
    "backstepping.evaluate_full_us": ("us", "lower"),
    "backstepping.evaluate_light_us": ("us", "lower"),
    "backstepping.evaluate_calls_per_step": ("count", "lower"),
    "backstepping.control_us": ("us", "lower"),
    "backstepping.engine_init_ms": ("ms", "lower"),
    "duals.tags_per_eval": ("count", "lower"),
    "duals.allocs_per_eval": ("count", "lower"),
    "duals.payload_elems_per_eval": ("count", "lower"),
    "nussbaum.value_us": ("us", "lower"),
    "nussbaum.calls_per_step": ("count", "lower"),
    "scalar.law_us": ("us", "lower"),
    "model.signal_us": ("us", "lower"),
    "model.regressor_calls_per_eval": ("count", "lower"),
    "analysis.report_s": ("s", "lower"),
    "scenarios.build_ms": ("ms", "lower"),
}
PER_LAYER.update({
    name: (("abs" if ".resid." in name else "ms"), "lower")
    for name in sweep.metric_names()
})
