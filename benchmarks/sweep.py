"""Order sweep: cost and residual of one engine evaluation for n = 1..4.

Orders 2 and 3 use the program's own plants (the wing-rock model and the
synthetic order-3 model); orders 1 and 4 use the plants below, whose
regressors follow the synthetic plant's polynomial pattern.  Every plant
is evaluated at seeded snapshots with 5, 8 and 12 quadrature nodes, in a
full (diagnostics) and a light pass.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

ORDERS = (1, 2, 3, 4)
NODE_COUNTS = (5, 8, 12)
PASSES = ("full", "light")


def _phi1(x1):
    return (x1 * x1, 0.0)


def _phi1_n1(x1):
    return (x1 * x1, x1)


def _phi2(x1, x2):
    return (x1 * x2, x2 * x2)


def _phi3(x1, x2, x3):
    return (x3 * x3, x1 * x3)


def _phi4(x1, x2, x3, x4):
    return (x4 * x4, x2 * x4)


def _theta(t):
    return (0.1, -0.2)


def _b(t):
    return -1.0


def order_plant(n: int, quad_nodes: int):
    """(model, gains) of the sweep plant of order ``n``."""
    from expstab import GainConfig, SystemModel
    from expstab.scenarios import build_synthetic, build_wing_rock

    if n in (2, 3):
        scn = (build_wing_rock("theorem1", horizon=0.1) if n == 2
               else build_synthetic("theorem1", seed=0, horizon=0.1))
        return scn.model, dataclasses.replace(scn.gains, quad_nodes=quad_nodes)
    regs = {1: [_phi1_n1], 4: [_phi1, _phi2, _phi3, _phi4]}[n]
    model = SystemModel(n=n, q=2, regressors=regs, theta_signal=_theta,
                        b_signal=_b, name=f"sweep-n{n}")
    cfg = GainConfig(k=(1.0,) * n, lam=0.3, delta_theta=0.1, eps_psi=1.0,
                     Gamma=np.eye(2), sign_b=-1, quad_nodes=quad_nodes)
    return model, cfg


def snapshots(n: int, q: int, lam: float, seed: int, count: int):
    """Seeded (t, x, theta_hat, mu): |x| = 0.9 as in the synthetic plant's x0."""
    rng = np.random.default_rng([seed, n])
    out = []
    for _ in range(count):
        x = rng.normal(size=n)
        x *= 0.9 / np.linalg.norm(x)
        th = rng.uniform(0.0, 0.5, size=q)
        t = float(rng.uniform(0.0, 1.0))
        out.append((t, tuple(float(v) for v in x), tuple(float(v) for v in th),
                    float(np.exp(lam * t))))
    return out


def run_sweep(seed: int, count: int = 3, reps: int = 2) -> dict:
    """Per-layer metrics of the sweep: median ms per call and max residual."""
    from expstab import BacksteppingEngine

    metrics = {}
    for n in ORDERS:
        for Q in NODE_COUNTS:
            model, cfg = order_plant(n, Q)
            engine = BacksteppingEngine(model, cfg)
            snaps = snapshots(n, model.q, cfg.lam, seed, count)
            times = {p: [] for p in PASSES}
            resid = 0.0
            for _ in range(reps):
                for t, x, th, mu in snaps:
                    for p in PASSES:
                        t0 = time.perf_counter()
                        ev = engine.evaluate(t, x, th, mu=mu, diagnostics=p == "full")
                        times[p].append(time.perf_counter() - t0)
                        if p == "full":
                            resid = max(resid, ev.max_residual())
            for p in PASSES:
                metrics[f"backstepping.eval_ms.n{n}.q{Q}.{p}"] = (
                    1e3 * statistics.median(times[p]), "ms")
            metrics[f"backstepping.resid.n{n}.q{Q}"] = (resid, "abs")
    return metrics


def metric_names() -> list:
    names = []
    for n in ORDERS:
        for Q in NODE_COUNTS:
            names += [f"backstepping.eval_ms.n{n}.q{Q}.{p}" for p in PASSES]
            names.append(f"backstepping.resid.n{n}.q{Q}")
    return names
