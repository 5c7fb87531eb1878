import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expstab import SystemModel, scenarios, sim
from expstab.scalar import ScalarGains
from expstab.scenarios import build_named, build_scalar, build_wing_rock, scenario_names
from expstab.sim import (
    Scenario,
    ScenarioError,
    build_grid,
    export_csv,
    export_npz,
    integrate_fixed,
    load_csv,
    load_npz,
    simulate,
)


def test_rk4_against_analytic_decay():
    grid = np.linspace(0.0, 1.0, 101)
    out = integrate_fixed(lambda t, y: (-y[0],), (1.0,), grid)
    assert abs(out[-1, 0] - math.exp(-1.0)) <= 1e-8


def test_rk4_fourth_order_convergence():
    def f(t, y):
        return (math.cos(t) * y[0],)

    exact = math.exp(math.sin(2.0))
    errs = []
    for npts in (21, 41):
        out = integrate_fixed(f, (1.0,), np.linspace(0.0, 2.0, npts))
        errs.append(abs(out[-1, 0] - exact))
    assert errs[1] < errs[0] / 12.0  # better than a factor 2^4 with slack


def test_grid_hits_breakpoints_exactly():
    bps = [math.pi / 3.0, 2.0 * math.pi / 3.0]
    segments, n_steps = build_grid(2.5, 1e-2, bps)
    nodes = np.concatenate(segments)
    for b in bps:
        assert b in nodes
    for seg in segments:
        assert np.all(np.diff(seg) > 0)
    assert segments[0][0] == 0.0 and segments[-1][-1] == 2.5


def test_wing_rock_trajectory_contains_breakpoints():
    traj = simulate(build_wing_rock("theorem1", horizon=1.5))
    for k in (1,):
        assert (k * math.pi / 3.0) in traj.t


def test_origin_is_a_fixed_point():
    scn = build_wing_rock("theorem1", horizon=0.2)
    scn = dataclasses.replace(scn, x0=np.zeros(2))
    traj = simulate(scn)
    assert traj.completed
    assert np.all(traj.x == 0.0)
    assert np.all(traj.u == 0.0)
    assert np.all(traj.theta_hat == 0.0)
    assert np.all(traj.aux == -0.3)  # the gain estimate never moves


def test_runs_are_deterministic():
    a = simulate(build_wing_rock("theorem1", horizon=0.5))
    b = simulate(build_wing_rock("theorem1", horizon=0.5))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.aux, b.aux)


def test_divergence_is_detected_and_stamped():
    # an understated deviation radius with a hot plant: the damping cannot
    # dominate and the loop blows up in finite time
    model = SystemModel(
        n=1, q=1,
        regressors=[lambda x: (x * x,)],
        theta_signal=lambda t: (6.0,),
        b_signal=lambda t: 1.0,
    )
    scn = Scenario(
        name="blowup",
        model=model,
        controller="scalar-A",
        gains=ScalarGains(k=0.1, lam=0.0, gamma_a=1e-9),
        x0=np.asarray([12.0]),
        horizon=5.0,
        step=1e-3,
        theta_hat0=np.zeros(1),
    )
    traj = simulate(scn)
    assert traj.status == "diverged"
    assert traj.failure_time is not None and traj.failure_time < 5.0
    assert np.all(np.isfinite(traj.x))  # recorded part stays finite


def test_violent_blowup_still_reports_diverged():
    # odd damping makes the stage arithmetic cubic: from a huge initial
    # state the Runge-Kutta stages overflow to inf within one step, which
    # must come back as a diverged run, not an exception
    scn = build_scalar("scalar-B", a_nominal=8.0, a_deviation=3.0, x0=1e6,
                       k=0.5, horizon=1.0, step=1e-3)
    traj = simulate(scn)
    assert traj.status == "diverged"


def test_nussbaum_overflow_marks_run():
    from expstab.nussbaum import NussbaumSpec

    scn = build_scalar("scalar-C", a_nominal=2.0, x0=1.5, a_deviation=0.4,
                       b_value=1.5, horizon=12.0, step=5e-4,
                       nussbaum=NussbaumSpec(kind="cos-exp-square", xi_max=0.2))
    traj = simulate(scn)
    assert traj.status == "overflow"


def test_record_every_decimates_but_keeps_final():
    full = simulate(build_wing_rock("theorem1", horizon=0.3))
    thin = simulate(build_wing_rock("theorem1", horizon=0.3, record_every=7))
    assert len(thin.t) < len(full.t)
    assert thin.t[-1] == full.t[-1]
    assert np.array_equal(thin.x[-1], full.x[-1])


def test_scenario_validation_errors():
    scn = build_wing_rock("theorem1", horizon=1.0)
    with pytest.raises(ScenarioError):
        dataclasses.replace(scn, step=-1.0).validate()
    with pytest.raises(ScenarioError):
        dataclasses.replace(scn, controller="nope").validate()
    with pytest.raises(ScenarioError):
        dataclasses.replace(scn, aux0=0.3).validate()  # wrong sign for b < 0
    with pytest.raises(ScenarioError):
        dataclasses.replace(scn, theta_hat0=np.asarray([-0.1, 0.0])).validate()
    t2 = build_wing_rock("theorem2", horizon=1.0)
    with pytest.raises(ScenarioError):
        dataclasses.replace(t2, aux0=-0.5).validate()
    # a fractional or boolean decimation would silently record other rows
    for bad in (2.5, True, 0):
        with pytest.raises(ScenarioError, match="record_every"):
            dataclasses.replace(scn, record_every=bad).validate()
    # the scalar laws estimate one parameter, recorded as theta_hat's only column
    scalar_a = build_scalar("scalar-A", a_nominal=1.0, x0=0.8, horizon=1.0)
    two = dataclasses.replace(scalar_a.model, q=2, theta_signal=lambda t: (1.0, 0.0),
                              regressors=[lambda x1: (x1 * x1, x1)])
    with pytest.raises(ScenarioError, match="q = 1"):
        dataclasses.replace(scalar_a, model=two).validate()
    # designs A and B carry no state beyond the estimate
    with pytest.raises(ScenarioError, match="has no aux state"):
        dataclasses.replace(scalar_a, aux0=0.0).validate()
    # non-finite configuration is rejected before a run starts
    scalar_c = build_scalar("scalar-C", a_nominal=1.0, x0=0.8, a_deviation=0.3,
                            b_value=-1.5, horizon=1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for change in (dict(x0=np.asarray([bad, 0.0])),
                       dict(theta_hat0=np.asarray([0.1, bad])),
                       dict(aux0=bad), dict(horizon=bad), dict(step=bad)):
            with pytest.raises(ScenarioError):
                dataclasses.replace(scn, **change).validate()
        with pytest.raises(ScenarioError):
            dataclasses.replace(t2, aux0=bad).validate()
        for field in ("lam", "delta_theta", "eps_psi", "gamma_rho", "k"):
            value = (bad, 1.0) if field == "k" else bad
            with pytest.raises(ValueError):
                dataclasses.replace(scn.gains, **{field: value})
        for change in (dict(x0=np.asarray([bad])), dict(theta_hat0=np.asarray([bad])),
                       dict(aux0=bad)):
            with pytest.raises(ScenarioError):
                dataclasses.replace(scalar_c, **change).validate()
        for field in ("k", "lam", "gamma_a", "delta_a"):
            with pytest.raises(ValueError):
                dataclasses.replace(scalar_c.gains, **{field: bad})


# -- persistence -------------------------------------------------------------


@pytest.fixture(scope="module")
def short_run():
    return simulate(build_wing_rock("theorem1", horizon=0.2, record_every=3))


def test_csv_round_trip_exact(tmp_path, short_run):
    path = tmp_path / "traj.csv"
    export_csv(short_run, path)
    data = load_csv(path)
    names = short_run.column_names()
    cols = short_run.column_data()
    assert list(data.keys()) == names
    for name, col in zip(names, cols):
        assert np.array_equal(data[name], col), name


def test_csv_column_count_schema(short_run):
    # t + x(n) + u + estimates(q) + aux + mu + diagnostics(n for s, rest)
    names = short_run.column_names()
    n, q = 2, 2
    n_diag = n + len(short_run.diag)
    assert len(names) == 1 + n + 1 + q + 1 + 1 + n_diag
    assert names[0] == "t" and "rho_hat" in names


def test_npz_round_trip_bit_exact(tmp_path, short_run):
    path = tmp_path / "traj.npz"
    export_npz(short_run, path)
    back = load_npz(path)
    assert back.status == short_run.status
    assert back.controller == short_run.controller
    assert back.scenario_name == short_run.scenario_name
    assert back.aux_name == short_run.aux_name
    assert back.failure_time == short_run.failure_time
    assert back.monitors == short_run.monitors
    assert np.array_equal(back.t, short_run.t)
    assert np.array_equal(back.x, short_run.x)
    assert np.array_equal(back.u, short_run.u)
    assert np.array_equal(back.theta_hat, short_run.theta_hat)
    assert np.array_equal(back.aux, short_run.aux)
    assert np.array_equal(back.mu, short_run.mu)
    assert np.array_equal(back.s, short_run.s)
    for k in short_run.diag:
        assert np.array_equal(back.diag[k], short_run.diag[k])
    assert back.meta["schema"] == "expstab-trajectory-v1"
    assert back.meta == short_run.meta  # timing included
    # one replay per stage and one on the final state
    steps = short_run.monitors["steps"]
    assert short_run.completed
    assert back.meta["program_calls"] == short_run.meta["program_calls"] == 4 * steps + 1
    # the length of the closed-loop program the run replayed
    assert back.meta["program_ops"] == short_run.meta["program_ops"] > 0


def test_run_timing_in_meta(short_run):
    wall = short_run.meta["wall_s"]
    assert wall > 0.0
    assert short_run.meta["steps_per_s"] == short_run.monitors["steps"] / wall


def test_csv_column_selection(tmp_path, short_run):
    path = tmp_path / "diag.csv"
    export_csv(short_run, path, columns=["t", "resid_psi", "kappa"])
    data = load_csv(path)
    assert list(data) == ["t", "resid_psi", "kappa"]
    assert np.array_equal(data["t"], short_run.t)
    assert np.array_equal(data["kappa"], short_run.diag["kappa"])
    assert np.array_equal(data["resid_psi"], short_run.diag["resid_psi"])


def test_step_halving_short_horizon_consistency():
    a = simulate(build_wing_rock("theorem1", horizon=1.0))
    b = simulate(build_wing_rock("theorem1", horizon=1.0, step=5e-5))
    assert np.max(np.abs(a.x[-1] - b.x[-1])) <= 1e-6


def test_empty_trajectory_exports_header_only(tmp_path, short_run):
    import dataclasses

    empty = dataclasses.replace(
        short_run,
        t=short_run.t[:0],
        x=short_run.x[:0],
        u=short_run.u[:0],
        theta_hat=short_run.theta_hat[:0],
        aux=short_run.aux[:0],
        mu=short_run.mu[:0],
        s=short_run.s[:0],
        diag={k: v[:0] for k, v in short_run.diag.items()},
    )
    path = tmp_path / "empty.csv"
    export_csv(empty, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1  # header only
    assert lines[0].split(",")[0] == "t"
    data = load_csv(path)
    assert all(len(col) == 0 for col in data.values())


# -- failure causes -----------------------------------------------------------


def _wing_rock_with(**model_changes):
    scn = build_wing_rock("theorem1", horizon=0.01)
    return dataclasses.replace(scn, model=dataclasses.replace(scn.model, **model_changes))


def test_completed_run_has_no_failure_reason():
    traj = simulate(build_wing_rock("theorem1", horizon=0.002))
    assert traj.completed and traj.monitors["failure_reason"] is None


def test_numerical_failure_keeps_its_cause(tmp_path):
    def theta_signal(t):
        return (math.log(t - 1.0), 0.0)

    traj = simulate(_wing_rock_with(theta_signal=theta_signal))
    assert traj.status == "diverged" and traj.failure_time == 0.0
    assert traj.monitors["failure_reason"] == "ValueError: math domain error"
    export_npz(traj, tmp_path / "failed.npz")
    assert load_npz(tmp_path / "failed.npz").monitors["failure_reason"] == (
        "ValueError: math domain error")


def test_residual_above_tolerance_at_the_initial_state_ends_the_run(tmp_path):
    # Q = 8 leaves this plant's factorization residual near 3e-8 at x0
    traj = simulate(scenarios.build_synthetic("theorem1", seed=2, horizon=0.01))
    assert traj.status == "residual-exceeded" and traj.failure_time == 0.0
    assert traj.monitors["steps"] == 0 and len(traj.t) == 0
    # an empty record keeps every column's width, and the energy column
    assert [a.shape for a in (traj.x, traj.theta_hat, traj.aux, traj.s)] == [
        (0, 3), (0, 2), (0, 1), (0, 3)]
    assert {k: v.shape for k, v in traj.diag.items()} == {
        "kappa": (0,), "resid_w": (0,), "resid_psi": (0,), "V": (0,)}
    tol = traj.monitors["residual_tol"]
    assert tol < traj.monitors["max_residual"] < 1e-6
    assert traj.monitors["failure_reason"] == (
        f"factorization residual {traj.monitors['max_residual']:.3e} "
        f"> tolerance {tol:g}")
    export_npz(traj, tmp_path / "failed.npz")
    back = load_npz(tmp_path / "failed.npz")
    assert back.failure_time == 0.0 and back.monitors == traj.monitors


def test_residual_above_tolerance_at_the_final_state_ends_the_run(monkeypatch):
    scn = build_wing_rock("theorem1", horizon=0.01)
    stage_of = sim._stage

    def late_miss(scn):
        stage, *rest = stage_of(scn)
        tol = rest[2]

        def missing(t, y, tp):
            dy, u, s, kappa, resid_w, resid_psi = stage(t, y, tp)
            # the last stage of the last step also runs at the horizon,
            # but only first stages at accepted states are gated
            return dy, u, s, kappa, resid_w, 10.0 * tol if t == scn.horizon else resid_psi

        return (missing, *rest)

    monkeypatch.setattr(sim, "_stage", late_miss)
    traj = simulate(scn)
    tol = scn.gains.resid_tol
    assert traj.status == "residual-exceeded"
    assert traj.failure_time == scn.horizon
    assert traj.monitors["steps"] == len(traj.t) > 0  # every step ran
    assert traj.monitors["failure_reason"] == (
        f"factorization residual {10.0 * tol:.3e} > tolerance {tol:g}")


def test_divergence_by_the_state_check_says_so():
    scn = build_scalar("scalar-B", a_nominal=8.0, a_deviation=3.0, x0=1e6,
                       k=0.5, horizon=1.0, step=1e-3)
    traj = simulate(scn)
    assert traj.status == "diverged"
    assert traj.monitors["failure_reason"]


@given(controller=st.sampled_from(["scalar-A", "scalar-B", "scalar-C"]),
       where=st.sampled_from(["x0", "a_hat0", "theta"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]),
       t_bad=st.floats(0.0, 0.02))
def test_non_finite_scalar_state_ends_run_as_diverged(controller, where, value, t_bad):
    scn = build_scalar(controller, a_nominal=1.0, a_deviation=0.3, x0=0.8,
                       b_value=-1.5 if controller == "scalar-C" else 1.0,
                       horizon=0.03, step=1e-3)
    if where != "theta":
        # a non-finite initial value is a configuration error, not a run
        change = (dict(x0=np.asarray([value])) if where == "x0"
                  else dict(theta_hat0=np.asarray([value])))
        with pytest.raises(ScenarioError, match="must be finite"):
            simulate(dataclasses.replace(scn, **change))
        return

    def theta_signal(t):
        return (value if t >= t_bad else 1.0,)

    scn = dataclasses.replace(
        scn, model=dataclasses.replace(scn.model, theta_signal=theta_signal))
    traj = simulate(scn)
    assert traj.status == "diverged"
    # a stage rejects the state, or the per-step check the accepted one
    assert traj.monitors["failure_reason"].startswith(
        ("ValueError: non-finite scalar state", "state not finite"))
    assert traj.failure_time <= t_bad + scn.step
    assert np.all(np.isfinite(traj.x))


@pytest.mark.parametrize("change,error", [
    (dict(b_signal=lambda t: None), TypeError),
    (dict(theta_signal=lambda t: (1.0,)), IndexError),
])
def test_program_errors_propagate(change, error):
    with pytest.raises(error):
        simulate(_wing_rock_with(**change))


def test_replay_fault_propagates(monkeypatch):
    from expstab.backstepping import BacksteppingEngine
    from expstab.duals import ReplayError

    def faulty(*inputs):
        raise ReplayError("recording does not fit")

    monkeypatch.setattr(BacksteppingEngine, "_record",
                        lambda self, inputs, law=None: faulty)
    with pytest.raises(ReplayError):
        simulate(build_wing_rock("theorem1", horizon=0.01))


def test_regressor_with_surplus_component_is_rejected():
    scn = build_wing_rock("theorem1", horizon=0.01)
    regs = list(scn.model.regressors)
    regs[1] = lambda x1, x2: (x1, x2, x1 * x2)
    with pytest.raises(ValueError, match="phi_2 returns 3 components"):
        simulate(dataclasses.replace(scn, model=dataclasses.replace(scn.model,
                                                                    regressors=regs)))


_SCALAR_DRAWS = {
    "scalar-A": dict(a_nominal=0.5, x0=0.8),
    "scalar-B": dict(a_nominal=0.5, a_deviation=0.3, x0=0.8),
    "scalar-C": dict(a_nominal=0.5, a_deviation=0.3, x0=0.8, b_value=-1.0),
}


def test_scalar_loop_evaluates_the_signals_once_per_signal_time(monkeypatch):
    times = []
    square_sign = scenarios.square_sign

    def counting(t, rate):
        times.append(t)
        return square_sign(t, rate)

    monkeypatch.setattr(scenarios, "square_sign", counting)
    scn = build_scalar("scalar-B", horizon=2.0, **_SCALAR_DRAWS["scalar-B"])
    traj = simulate(scn)
    steps = traj.monitors["steps"]
    segments, _ = build_grid(2.0, scn.step, scn.model.breakpoints(2.0))
    assert traj.completed and steps == 2001 and len(segments) == 2
    # the first step of each segment queries three signal times, a later
    # step two (its first stage shares the step before's last), and the
    # final state one
    assert len(times) == 2 * steps + len(segments) + 1


@pytest.mark.parametrize("controller", sorted(_SCALAR_DRAWS))
def test_scalar_runs_match_per_stage_signals(monkeypatch, controller):
    def run():
        return simulate(build_scalar(controller, horizon=2.0, **_SCALAR_DRAWS[controller]))

    cached = run()

    def per_stage(model):
        def signals(tp):
            theta = model.theta_signal(tp)
            return tuple(float(theta[c]) for c in range(model.q)) + (float(model.b_signal(tp)),)
        return signals

    monkeypatch.setattr(sim, "_signal_reader", per_stage)
    fresh = run()
    assert cached.status == fresh.status == "completed"
    for name in ("t", "x", "u", "theta_hat", "aux", "mu", "s"):
        assert np.array_equal(getattr(cached, name), getattr(fresh, name)), name
    assert cached.diag.keys() == fresh.diag.keys()
    for k in cached.diag:
        assert np.array_equal(cached.diag[k], fresh.diag[k], equal_nan=True), k


@pytest.mark.parametrize("name", scenario_names())
def test_every_controller_records_through_one_stage(name):
    scn = dataclasses.replace(build_named(name), horizon=0.02)
    traj = simulate(scn)
    engine = scn.controller in sim.ENGINE_CONTROLLERS
    steps = traj.monitors["steps"]
    rows = len(traj.t)
    assert traj.completed and steps > 0 and rows == steps + 1
    assert traj.theta_hat.shape == (rows, scn.model.q)
    assert traj.s.shape == (rows, scn.model.n)
    assert np.isnan(traj.diag["kappa"]).tolist() == [not engine] * rows
    resid = {"resid_w", "resid_psi"}
    assert resid & traj.diag.keys() == (resid if engine else set())
    assert traj.meta["program_calls"] == (4 * steps + 1 if engine else 0)
    if not engine:
        assert np.array_equal(traj.s[:, 0], traj.mu * traj.x[:, 0])
    # the first row is the initial state: x0, theta_hat0 and aux0
    assert traj.aux_name == sim.AUX_STATE[scn.controller]
    assert traj.x[0].tolist() == np.asarray(scn.x0, dtype=float).tolist()
    assert traj.theta_hat[0].tolist() == np.asarray(scn.theta_hat0, dtype=float).tolist()
    assert traj.aux[0].tolist() == ([] if scn.aux0 is None else [scn.aux0])
