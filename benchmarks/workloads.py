"""The three workloads: one round of closed-loop runs each, with output checks.

An operation is one closed-loop run together with its output checks.  A
round is the same fixed list of operations every time, so every run of
the benchmark attempts whole rounds.  The program is always called
through module attributes (``scenarios.build_*``, ``sim.simulate``,
``cli.main``), which is where the tracer attaches.

* ``wing-rock``: the paper's order-2 example through ``expstab run`` for
  theorem1, theorem2 and baseline-lambda0 at the canonical 1e-4 step over
  0.25 s, writing the CSV artifacts and ``report.txt``.
* ``synthetic-n3``: the registry order-3 plant (``build_synthetic``,
  seed 0) for theorem1 and theorem2 at its default 4e-4 step over 0.12 s.
* ``scalar-suite``: one draw each of designs A, B and C per round, drawn
  as acceptance criterion 5 draws them, decimated by 10.
"""

from __future__ import annotations

import contextlib
import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# paper's wing-rock constants, restated here so the closed-form check does
# not read them back from the program: k, lambda, delta_theta, eps_psi
WR_K = (1.0, 1.0)
WR_LAM = 0.6
WR_DELTA = 0.6
WR_EPS = 1.0
WR_HORIZON = 0.25
WR_VARIANTS = (
    ("theorem1", "wing-rock-theorem1", WR_LAM),
    ("theorem2", "wing-rock-theorem2", WR_LAM),
    ("baseline-lambda0", "wing-rock-baseline", 0.0),
)

# synthetic plant seeds 2 and 14 abort at step 0 (residual above 1e-8 at
# 8 nodes), so the workload keeps the registry plant; see the README
SYN_PLANT_SEED = 0
SYN_HORIZON = 0.12
SYN_LAM = 0.3
SYN_CHECK_ROWS = 2

SCALAR_LAM = 0.6


@dataclass
class OpResult:
    """One closed-loop run: program time, steps and check outcome."""

    name: str
    wall_s: float
    sim_s: float
    steps: int
    failed: bool = False
    problems: list = field(default_factory=list)
    traj: object = None


class Workload:
    """A workload: ``round()`` runs each of its operations once."""

    name = ""

    def __init__(self, seed: int, out_dir: Path, tracer=None):
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.rng = np.random.default_rng(seed)

    @contextlib.contextmanager
    def paused(self):
        """Checks run untraced: their engine calls are not the workload's."""
        if self.tracer is not None:
            self.tracer.active = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.active = True

    def close(self) -> None:
        pass

    def round(self) -> list:
        raise NotImplementedError

    @staticmethod
    def setup(seed: int) -> None:
        """Import, scenario builds and engine construction of one round."""
        raise NotImplementedError


def _read_csv(path: Path) -> dict:
    with open(path, newline="") as fh:
        names = next(csv.reader(fh))
    arr = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: arr[:, i] for i, name in enumerate(names)}


class WingRock(Workload):
    name = "wing-rock"

    def __init__(self, seed, out_dir, tracer=None):
        super().__init__(seed, out_dir, tracer)
        import expstab.cli as cli
        import expstab.sim as sim

        self.cli = cli
        self._last = None

        def simulate(scenario):
            # times simulate inside ``expstab run`` and keeps its result
            t0 = time.perf_counter()
            traj = sim.simulate(scenario)
            self._last = (traj, time.perf_counter() - t0)
            return traj

        self._orig_cli_simulate = cli.simulate
        cli.simulate = simulate

    def close(self):
        self.cli.simulate = self._orig_cli_simulate

    def round(self):
        results = []
        for variant, scenario, lam in WR_VARIANTS:
            out = self.out_dir / variant
            self._last = None
            t0 = time.perf_counter()
            rc = self.cli.main(["run", "--scenario", scenario, "--horizon",
                                repr(WR_HORIZON), "--out", str(out), "--quiet"])
            wall = time.perf_counter() - t0
            traj, sim_s = self._last
            res = OpResult(variant, wall, sim_s, traj.monitors["steps"], traj=traj)
            if rc != 0 or not traj.completed:
                res.failed = True
                res.problems.append(f"expstab run exited {rc}, status {traj.status}")
            else:
                with self.paused():
                    res.problems += self.check(out, variant, lam, traj)
            results.append(res)
        return results

    @staticmethod
    def check(out: Path, variant: str, lam: float, traj) -> list:
        problems = []
        report = (out / "report.txt").read_text()
        for line in ("status:     completed", "monitors:   all passed"):
            if line not in report:
                problems.append(f"report.txt lacks {line!r}")
        cols = _read_csv(out / "trajectory.csv")
        steps = int(round(WR_HORIZON / 1e-4))
        if len(cols["t"]) != steps + 1 or cols["t"][-1] != WR_HORIZON:
            problems.append(f"expected {steps + 1} rows ending at {WR_HORIZON}, got "
                            f"{len(cols['t'])} ending at {cols['t'][-1]}")
        problems += checks.check_wing_rock(cols, variant, WR_K, lam, WR_DELTA, WR_EPS)
        problems += checks.check_decay(cols["t"], np.c_[cols["x_1"], cols["x_2"]], lam)
        return problems

    @staticmethod
    def setup(seed):
        from expstab.backstepping import BacksteppingEngine
        from expstab.cli import apply_override
        from expstab.scenarios import build_named

        for _, scenario, _ in WR_VARIANTS:
            scn = apply_override(build_named(scenario), "horizon_s", WR_HORIZON)
            scn.validate()
            BacksteppingEngine(scn.model, scn.gains)


class SyntheticN3(Workload):
    name = "synthetic-n3"

    def round(self):
        import expstab.scenarios as scenarios
        import expstab.sim as sim

        results = []
        for variant in ("theorem1", "theorem2"):
            t0 = time.perf_counter()
            scn = scenarios.build_synthetic(variant, seed=SYN_PLANT_SEED,
                                            horizon=SYN_HORIZON)
            t1 = time.perf_counter()
            traj = sim.simulate(scn)
            t2 = time.perf_counter()
            res = OpResult(variant, t2 - t0, t2 - t1, traj.monitors["steps"], traj=traj)
            if not traj.completed:
                res.failed = True
                res.problems.append(f"status {traj.status} at t={traj.failure_time}")
            else:
                with self.paused():
                    res.problems += self.check(scn, traj, variant)
            results.append(res)
        return results

    def check(self, scn, traj, variant) -> list:
        from expstab.backstepping import BacksteppingEngine

        problems = []
        steps = int(round(SYN_HORIZON / scn.step))
        if traj.monitors["steps"] != steps or traj.t[-1] != SYN_HORIZON:
            problems.append(f"expected {steps} steps to {SYN_HORIZON}, got "
                            f"{traj.monitors['steps']} to {traj.t[-1]}")
        if not traj.monitors["max_residual"] <= checks.FACTOR_TOL:
            problems.append(f"max residual {traj.monitors['max_residual']:.3e}")
        problems += checks.check_decay(traj.t, traj.x, SYN_LAM)
        if variant == "theorem2":
            problems += checks.check_monotone(traj.aux[:, 0], "xi")
        elif np.max(traj.aux[:, 0]) > -0.5:
            problems.append(f"rho_hat rose to {np.max(traj.aux[:, 0]):.6g} > -0.5")

        engine = BacksteppingEngine(scn.model, scn.gains)
        rows = self.rng.choice(len(traj.t), size=SYN_CHECK_ROWS, replace=False)
        for r in rows:
            t = float(traj.t[r])
            x = [float(v) for v in traj.x[r]]
            th = [float(v) for v in traj.theta_hat[r]]
            mu = float(traj.mu[r])
            ev = engine.evaluate(t, x, th, mu=mu, diagnostics=True)
            problems += checks.check_factorization(ev)
            if ev.kappa != traj.diag["kappa"][r]:
                problems.append(f"kappa at t={t} does not reproduce: "
                                f"{ev.kappa!r} vs recorded {traj.diag['kappa'][r]!r}")
        r = int(rows[0])
        x = [float(v) for v in traj.x[r]]
        th = [float(v) for v in traj.theta_hat[r]]
        mu = float(traj.mu[r])
        q = len(th)
        for layer in (1, 2):
            _, g = engine.virtual_law_gradient(layer, x[:layer], th, mu)

            def value(p, layer=layer):
                return engine.virtual_law(layer, p[:layer], p[layer:layer + q],
                                          p[layer + q])

            problems += checks.check_gradient(value, x[:layer] + th + [mu],
                                              list(g.x) + list(g.th) + [g.mu],
                                              label=f"alpha_{layer}")
        return problems

    @staticmethod
    def setup(seed):
        from expstab.backstepping import BacksteppingEngine
        from expstab.scenarios import build_synthetic

        for variant in ("theorem1", "theorem2"):
            scn = build_synthetic(variant, seed=SYN_PLANT_SEED, horizon=SYN_HORIZON)
            scn.validate()
            BacksteppingEngine(scn.model, scn.gains)


def scalar_draws(rng):
    """One round of draws, as acceptance criterion 5 draws them."""
    a = float(rng.uniform(-3.0, 3.0))
    x0 = float(rng.uniform(-2.0, 2.0))
    draw_a = dict(controller="scalar-A", a_nominal=a, x0=x0, horizon=20.0,
                  step=1e-3, record_every=10)
    a = float(rng.uniform(-3.0, 3.0))
    dev = float(rng.uniform(0.0, 1.0))
    x0 = float(rng.uniform(-2.0, 2.0))
    draw_b = dict(controller="scalar-B", a_nominal=a, a_deviation=dev, x0=x0,
                  horizon=20.0, step=1e-3, record_every=10)
    a = float(rng.uniform(-3.0, 3.0))
    dev = float(rng.uniform(0.0, 1.0))
    x0 = float(rng.uniform(-2.0, 2.0))
    b = 1.5 if rng.random() < 0.5 else -1.5
    draw_c = dict(controller="scalar-C", a_nominal=a, a_deviation=dev, x0=x0,
                  b_value=b, horizon=12.0, step=5e-4, record_every=10)
    return [draw_a, draw_b, draw_c]


class ScalarSuite(Workload):
    name = "scalar-suite"

    def round(self):
        import expstab.scenarios as scenarios
        import expstab.sim as sim

        results = []
        for draw in scalar_draws(self.rng):
            t0 = time.perf_counter()
            scn = scenarios.build_scalar(**draw)
            t1 = time.perf_counter()
            traj = sim.simulate(scn)
            t2 = time.perf_counter()
            res = OpResult(draw["controller"], t2 - t0, t2 - t1,
                           traj.monitors["steps"], traj=traj)
            if not traj.completed:
                res.failed = True
                res.problems.append(f"{draw}: status {traj.status} at "
                                    f"t={traj.failure_time}")
            else:
                res.problems += [f"{draw}: {p}" for p in self.check(draw, scn, traj)]
            results.append(res)
        return results

    @staticmethod
    def check(draw, scn, traj) -> list:
        problems = []
        if traj.t[-1] != draw["horizon"]:
            problems.append(f"run ended at {traj.t[-1]}, not {draw['horizon']}")
        problems += checks.check_decay(traj.t, traj.x, SCALAR_LAM)
        if draw["controller"] == "scalar-A":
            problems += checks.check_energy_a(traj.s[:, 0], traj.theta_hat[:, 0],
                                              draw["a_nominal"], scn.gains.gamma_a)
        if draw["controller"] == "scalar-C":
            problems += checks.check_monotone(traj.aux[:, 0], "xi")
            if not traj.monitors["xi_min_increment"] >= 0.0:
                problems.append("xi decreased between steps")
        return problems

    @staticmethod
    def setup(seed):
        from expstab.scenarios import build_scalar

        for draw in scalar_draws(np.random.default_rng(seed)):
            build_scalar(**draw).validate()


WORKLOADS = {w.name: w for w in (WingRock, SyntheticN3, ScalarSuite)}
