"""The acceptance suite: every verifiable claim as one pass/fail check.

Each criterion is a function taking a shared :class:`AcceptanceCache`
(so the expensive closed-loop runs are simulated once and reused across
criteria) and returning a :class:`CriterionResult`.  The pytest module
``tests/test_acceptance.py`` asserts each criterion; the command line
exposes the same list under ``expstab acceptance``.  Tolerances are
fixed here, not in the callers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import (
    check_monotone,
    compare_runs,
    energy_descent_ok,
    fit_envelope,
)
from .backstepping import BacksteppingEngine, GainConfig, control_theorem1
from .nussbaum import NussbaumSpec, verify_enhanced
from .scalar import ScalarGains, ScalarState, scalar_A_law, scalar_B_law
from .scenarios import build_scalar, build_synthetic, build_wing_rock, wing_rock_model
from .sim import Trajectory, simulate

__all__ = ["CriterionResult", "RUNS", "AcceptanceCache", "CRITERIA", "run_all"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.number}: {self.name} -- {self.details}"


# the shared closed-loop runs: key -> scenario builder
RUNS = {
    "wr-t1": lambda: build_wing_rock("theorem1"),
    "wr-t2": lambda: build_wing_rock("theorem2"),
    "wr-base": lambda: build_wing_rock("baseline-lambda0"),
    "wr-t1-half": lambda: build_wing_rock("theorem1", step=5e-5),
    "syn-t1": lambda: build_synthetic("theorem1", seed=0),
    "syn-t2": lambda: build_synthetic("theorem2", seed=0),
}


class AcceptanceCache:
    """Lazily simulated shared runs with wall-time bookkeeping.

    ``run(key)`` simulates the :data:`RUNS` entry ``key`` on first use;
    ``wall`` maps each simulated key to its simulation wall time.
    ``draws`` maps each criterion-5 draw's name to its status and
    terminal ``(x, theta_hat, aux)``, filled when criterion 5 runs.
    """

    def __init__(self):
        self._store = {}
        self.wall = {}
        self.draws = {}

    def run(self, key: str) -> Trajectory:
        if key not in self._store:
            scn = RUNS[key]()
            t0 = time.perf_counter()
            traj = simulate(scn)
            self.wall[key] = time.perf_counter() - t0
            self._store[key] = traj
        return self._store[key]


def _terminal_state(tr: Trajectory) -> np.ndarray:
    """The last recorded ``(x, theta_hat, aux)``, empty for a run with no rows."""
    return np.concatenate([tr.x[-1:], tr.theta_hat[-1:], tr.aux[-1:]], axis=1).ravel()


def criterion_1(cache: AcceptanceCache) -> CriterionResult:
    """Benchmark known-direction run: decay, boundedness, estimates, wall time."""
    tr = cache.run("wr-t1")
    wall = cache.wall["wr-t1"]
    fit = fit_envelope(tr, rate=0.6)
    u_fit = fit_envelope(tr, rate=0.6, signal="u")
    rho = tr.aux[:, 0]
    tail = tr.theta_hat[tr.t >= 10.0]
    tail_var = float(np.max(np.abs(tail - tr.theta_hat[-1])))
    checks = {
        "completed": tr.status == "completed",
        "envelope holds": fit.holds and math.isfinite(fit.amplitude),
        "input decays with the state": u_fit.holds,
        "gain estimate stays <= -0.3": bool(np.max(rho) <= -0.3),
        "estimate tail variation < 1e-3": tail_var < 1e-3,
        "wall time <= 60 s": wall <= 60.0,
    }
    details = (
        f"status={tr.status}, N={fit.amplitude:.3f}, max|u|={np.max(np.abs(tr.u)):.2f}, "
        f"{_input_thirds(u_fit)}, "
        f"max rho={np.max(rho):.4f}, tail var={tail_var:.2e}, wall={wall:.1f}s"
    )
    return CriterionResult(1, "wing-rock known-direction run", all(checks.values()),
                           details + _failures(checks))


def criterion_2(cache: AcceptanceCache) -> CriterionResult:
    """Benchmark Nussbaum run: monotone bounded gain argument, decay to zero."""
    tr = cache.run("wr-t2")
    fit = fit_envelope(tr, rate=0.6)
    u_fit = fit_envelope(tr, rate=0.6, signal="u")
    xi = tr.aux[:, 0]
    mono = check_monotone(xi, tolerance=0.0)
    min_inc = tr.monitors["xi_min_increment"]
    xT = float(np.linalg.norm(tr.x[-1]))
    checks = {
        "completed (guard never fired)": tr.status == "completed",
        "xi non-decreasing (recorded)": mono.monotone,
        "xi non-decreasing (every step)": min_inc is not None and min_inc >= 0.0,
        "xi bounded": float(xi[-1]) < 6.0,
        "envelope holds": fit.holds and math.isfinite(fit.amplitude),
        "input decays with the state": u_fit.holds,
        "terminal state < 1e-3": xT < 1e-3,
    }
    details = (
        f"status={tr.status}, xi(T)={xi[-1]:.4f}, min step increment={min_inc:.2e}, "
        f"N={fit.amplitude:.3f}, {_input_thirds(u_fit)}, |x(T)|={xT:.2e}"
    )
    return CriterionResult(2, "wing-rock unknown-direction run", all(checks.values()),
                           details + _failures(checks))


def criterion_3(cache: AcceptanceCache) -> CriterionResult:
    """Exponential designs settle faster; the Nussbaum transient peaks harder."""
    t1 = cache.run("wr-t1")
    t2 = cache.run("wr-t2")
    base = cache.run("wr-base")
    table = compare_runs([t1, t2, base], threshold=0.05, rate=0.6)
    r1 = table.row("wing-rock-theorem1")
    r2 = table.row("wing-rock-theorem2")
    rb = table.row("wing-rock-baseline-lambda0")
    checks = {
        "settling strictly faster than baseline": r1.settling_time < rb.settling_time,
        "input peaking in the Nussbaum variant": r2.peak_u > r1.peak_u,
    }
    details = (
        f"settle: t1={r1.settling_time:.4f}s vs base={rb.settling_time:.4f}s; "
        f"peak|u|: t2={r2.peak_u:.2f} vs t1={r1.peak_u:.2f}"
    )
    return CriterionResult(3, "baseline comparison", all(checks.values()),
                           details + _failures(checks))


def criterion_4(cache: AcceptanceCache) -> CriterionResult:
    """Closed-loop energy non-increasing along the known-direction run."""
    tr = cache.run("wr-t1")
    ok, worst = energy_descent_ok(tr, scale=1e-6)
    details = f"worst step excess={worst:.3e} (<= 0 required)"
    return CriterionResult(4, "energy descent monitor", ok, details)


def criterion_5(cache: AcceptanceCache) -> CriterionResult:
    """Randomized scalar suites: 50 draws per design, zero failure budget."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    failures = []

    def run(scn):
        tr = simulate(scn)
        cache.draws[scn.name] = (tr.status, _terminal_state(tr))
        return tr

    for i in range(50):  # constant-parameter design
        a = float(rng.uniform(-3.0, 3.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        scn = build_scalar("scalar-A", a_nominal=a, x0=x0, horizon=20.0,
                           step=1e-3, record_every=10, name=f"A-{i}")
        tr = run(scn)
        fit = fit_envelope(tr, rate=0.6)
        if not (tr.completed and fit.holds):
            failures.append(f"A-{i}(a={a:.2f},x0={x0:.2f})")

    for i in range(50):  # time-varying parameter design
        a = float(rng.uniform(-3.0, 3.0))
        dev = float(rng.uniform(0.0, 1.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        scn = build_scalar("scalar-B", a_nominal=a, a_deviation=dev, x0=x0,
                           horizon=20.0, step=1e-3, record_every=10, name=f"B-{i}")
        tr = run(scn)
        fit = fit_envelope(tr, rate=0.6)
        if not (tr.completed and fit.holds):
            failures.append(f"B-{i}(a={a:.2f},dev={dev:.2f},x0={x0:.2f})")

    for i in range(50):  # unknown-coefficient design
        a = float(rng.uniform(-3.0, 3.0))
        dev = float(rng.uniform(0.0, 1.0))
        x0 = float(rng.uniform(-2.0, 2.0))
        b = 1.5 if rng.random() < 0.5 else -1.5
        scn = build_scalar("scalar-C", a_nominal=a, a_deviation=dev, x0=x0,
                           b_value=b, horizon=12.0, step=5e-4, record_every=10,
                           name=f"C-{i}")
        tr = run(scn)
        fit = fit_envelope(tr, rate=0.6)
        mono_ok = (
            tr.monitors["xi_min_increment"] is not None
            and tr.monitors["xi_min_increment"] >= 0.0
        )
        if not (tr.completed and fit.holds and mono_ok):
            failures.append(f"C-{i}(a={a:.2f},dev={dev:.2f},x0={x0:.2f},b={b})")

    wall = time.perf_counter() - t0
    checks = {
        "no failures in 150 runs": not failures,
        "wall time <= 120 s": wall <= 120.0,
    }
    details = f"150 runs in {wall:.1f}s"
    if failures:
        details += f"; failed: {', '.join(failures[:5])}"
    return CriterionResult(5, "randomized scalar suites", all(checks.values()),
                           details + _failures(checks))


def criterion_6(cache: AcceptanceCache) -> CriterionResult:
    """Reduction identities between independent code paths."""
    rng = np.random.default_rng(7)
    model = wing_rock_model()
    base_kwargs = dict(
        k=(1.0, 1.0), lam=0.0, delta_theta=0.6, eps_psi=1.0,
        Gamma=0.001 * np.eye(2), gamma_rho=1.0, sign_b=-1,
    )
    eng_scaled = BacksteppingEngine(model, GainConfig(scaled=True, **base_kwargs))
    eng_plain = BacksteppingEngine(model, GainConfig(scaled=False, **base_kwargs))
    worst_a = 0.0
    for _ in range(100):
        t = float(rng.uniform(0.0, 10.0))
        x = tuple(rng.uniform(-2.0, 2.0, size=2))
        th = tuple(rng.uniform(-1.0, 1.0, size=2))
        rho = float(rng.uniform(-2.0, -0.1))
        u_s = control_theorem1(eng_scaled.evaluate(t, x, th), rho,
                               eng_scaled.cfg)[0]
        u_p = control_theorem1(eng_plain.evaluate(t, x, th), rho,
                               eng_plain.cfg)[0]
        rel = abs(u_s - u_p) / max(1.0, abs(u_s))
        worst_a = max(worst_a, rel)

    worst_b = 0.0
    gains_b0 = ScalarGains(k=1.3, lam=0.4, gamma_a=0.8, delta_a=0.0)
    gains_a = ScalarGains(k=1.3, lam=0.4, gamma_a=0.8)
    for _ in range(100):
        st = ScalarState.at(
            x=float(rng.uniform(-3.0, 3.0)),
            a_hat=float(rng.uniform(-2.0, 2.0)),
            t=float(rng.uniform(0.0, 5.0)),
            lam=0.4,
        )
        uB, adB = scalar_B_law(st, gains_b0)
        uA, adA = scalar_A_law(st, gains_a)
        worst_b = max(worst_b, abs(uB - uA), abs(adB - adA))

    checks = {
        "lam=0 matches the unscaled path (rel <= 1e-12)": worst_a <= 1e-12,
        "zero-radius design B equals design A exactly": worst_b == 0.0,
    }
    details = f"worst rel diff (a)={worst_a:.2e}, worst abs diff (b)={worst_b:.2e}"
    return CriterionResult(6, "reduction identities", all(checks.values()),
                           details + _failures(checks))


def _fd_gradient_check(engine: BacksteppingEngine, layer: int, rng,
                       samples: int) -> float:
    """Worst relative error of propagated partials vs central differences."""
    n, q = engine.n, engine.q
    worst = 0.0
    for _ in range(samples):
        x = [float(v) for v in rng.uniform(-1.5, 1.5, size=layer)]
        th = [float(v) for v in rng.uniform(-1.0, 1.0, size=q)]
        mu = float(rng.uniform(0.5, 3.0))
        _, g = engine.virtual_law_gradient(layer, x, th, mu)
        ad = list(g.x) + list(g.th) + [g.mu]

        def value_at(args):
            return engine.virtual_law(
                layer, args[:layer], args[layer:layer + q], args[layer + q]
            )

        args0 = x + th + [mu]
        for j in range(len(args0)):
            step = 1e-6 * max(1.0, abs(args0[j]))
            up = list(args0)
            dn = list(args0)
            up[j] += step
            dn[j] -= step
            fd = (value_at(up) - value_at(dn)) / (2.0 * step)
            rel = abs(ad[j] - fd) / max(1.0, abs(ad[j]))
            worst = max(worst, rel)
    return worst


def criterion_7(cache: AcceptanceCache) -> CriterionResult:
    """Numerical kernels: sensitivities, residual monitors, step halving."""
    rng = np.random.default_rng(11)
    wr = build_wing_rock("theorem1")
    syn = build_synthetic("theorem1", seed=0)
    eng2 = BacksteppingEngine(wr.model, wr.gains)
    eng3 = BacksteppingEngine(syn.model, syn.gains)
    worst_fd = _fd_gradient_check(eng2, 1, rng, samples=100)
    for layer in (1, 2):
        worst_fd = max(worst_fd, _fd_gradient_check(eng3, layer, rng, samples=100))

    worst_resid = max(cache.run(key).monitors["max_residual"] for key in RUNS)
    t1, t1h = cache.run("wr-t1"), cache.run("wr-t1-half")
    halving = float(np.max(np.abs(_terminal_state(t1) - _terminal_state(t1h))))

    checks = {
        "sensitivities vs central differences (rel <= 1e-5)": worst_fd <= 1e-5,
        "factorization residuals <= 1e-8 on every accepted step": worst_resid <= 1e-8,
        "step halving shifts terminal state <= 1e-5": halving <= 1e-5,
    }
    details = (
        f"worst FD rel={worst_fd:.2e}, worst residual={worst_resid:.2e}, "
        f"halving shift={halving:.2e}"
    )
    return CriterionResult(7, "numerical kernels", all(checks.values()),
                           details + _failures(checks))


def criterion_8(cache: AcceptanceCache) -> CriterionResult:
    """Growth verifier separates a genuine gain from non-Nussbaum functions."""
    good = verify_enhanced(NussbaumSpec(kind="sin-exp-square", xi_max=6.0))
    flat = verify_enhanced(NussbaumSpec(kind="user", fn=lambda x: 1.0, xi_max=6.0))
    ramp = verify_enhanced(NussbaumSpec(kind="user", fn=lambda x: x, xi_max=6.0))
    checks = {
        "sin(xi) exp(xi^2) passes all four": good.passed,
        "constant 1 fails": not flat.passed,
        "identity fails": not ramp.passed,
    }
    details = (
        f"good={sum(c[4] for c in good.conditions)}/4 passed, "
        f"flat={sum(c[4] for c in flat.conditions)}/4, "
        f"ramp={sum(c[4] for c in ramp.conditions)}/4"
    )
    return CriterionResult(8, "Nussbaum growth verifier", all(checks.values()),
                           details + _failures(checks))


def criterion_9(cache: AcceptanceCache) -> CriterionResult:
    """Third-order synthetic runs exercise the full recursion depth."""
    t1 = cache.run("syn-t1")
    t2 = cache.run("syn-t2")
    fit1 = fit_envelope(t1, rate=0.3)
    fit2 = fit_envelope(t2, rate=0.3)
    rho = t1.aux[:, 0]
    min_inc = t2.monitors["xi_min_increment"]
    checks = {
        "theorem1 completed": t1.status == "completed",
        "theorem2 completed": t2.status == "completed",
        "theorem1 envelope holds": fit1.holds,
        "theorem2 envelope holds": fit2.holds,
        "residual monitors pass": max(
            t1.monitors["max_residual"], t2.monitors["max_residual"]
        ) <= 1e-8,
        "gain-estimate sign preserved": bool(np.max(rho) <= -0.5),
        "xi non-decreasing": min_inc is not None and min_inc >= 0.0,
    }
    details = (
        f"N1={fit1.amplitude:.3f}, N2={fit2.amplitude:.3f}, "
        f"resid={max(t1.monitors['max_residual'], t2.monitors['max_residual']):.2e}"
    )
    return CriterionResult(9, "third-order synthetic runs", all(checks.values()),
                           details + _failures(checks))


def _input_thirds(u_fit) -> str:
    return (f"sup|u|e^({u_fit.rate:g}t) last/first third="
            f"{u_fit.last_third:.2g}/{u_fit.first_third:.2g}")


def _failures(checks: dict) -> str:
    bad = [k for k, ok in checks.items() if not ok]
    return f"; FAILED: {', '.join(bad)}" if bad else ""


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
}


def run_all(cache: Optional[AcceptanceCache] = None, only=None):
    """Run the acceptance criteria, printing one pass/fail line each."""
    if cache is None:
        cache = AcceptanceCache()
    numbers = sorted(only) if only else sorted(CRITERIA)
    results = []
    for number in numbers:
        res = CRITERIA[number](cache)
        results.append(res)
        print(res.line())
    return results
