"""Post-hoc verification of closed-loop claims on recorded trajectories.

Every check here consumes a finished :class:`~expstab.sim.Trajectory` and
never touches the controllers, so the claims are tested on the recorded
evidence alone: exponential decay envelopes, boundedness, monotonicity of
the Nussbaum argument, asymptotic constancy of the estimates, and the
qualitative cross-controller comparisons (settling time, overshoot,
input peaking).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .sim import Trajectory

__all__ = [
    "EnvelopeFit",
    "fit_envelope",
    "MonotoneReport",
    "check_monotone",
    "LimitReport",
    "detect_limit",
    "ComparisonRow",
    "ComparisonTable",
    "compare_runs",
    "settling_time",
    "energy_descent_ok",
]


@dataclass(frozen=True)
class EnvelopeFit:
    """The tightest exponential envelope |x(t)| <= N exp(-rate t).

    ``amplitude`` is the supremum of |x(t)| exp(rate t) over the recorded
    grid, so by construction the bound holds with equality at
    ``attained_t``; with rate = 0 the fit degenerates to the plain bound
    sup |x(t)|.  Such an N exists for every finite record, so the decay
    verdict compares thirds of the horizon instead: ``first_third`` and
    ``last_third`` are the suprema of |x(t)| exp(rate t) over the first
    and the last third, and ``holds`` is True only for a completed run
    whose last-third supremum does not exceed its first-third one.  A
    state decaying more slowly than ``rate`` grows in this scaling and
    fails.
    """

    rate: float
    amplitude: float
    holds: bool
    attained_t: float
    first_third: float
    last_third: float

    def margin(self, t: np.ndarray, norms: np.ndarray) -> np.ndarray:
        return self.amplitude * np.exp(-self.rate * t) - norms


def fit_envelope(traj: Trajectory, rate: float, signal: str = "x") -> EnvelopeFit:
    """Fit the decay envelope of the state norm at the given rate.

    ``signal="u"`` fits |u(t)| instead, by the same rule: an input that
    does not decay with the state fails ``holds``.
    """
    if signal not in ("x", "u"):
        raise ValueError(f"signal must be 'x' or 'u', got {signal!r}")
    if not traj.completed:
        return EnvelopeFit(rate=rate, amplitude=float("inf"), holds=False,
                           attained_t=float("nan"), first_third=float("nan"),
                           last_third=float("nan"))
    t = traj.t
    norms = np.linalg.norm(traj.x, axis=1) if signal == "x" else np.abs(traj.u)
    scaled = norms * np.exp(rate * t)
    idx = int(np.argmax(scaled))
    amplitude = float(scaled[idx])
    third = (t[-1] - t[0]) / 3.0
    first = float(np.max(scaled[t <= t[0] + third]))
    last = float(np.max(scaled[t >= t[-1] - third]))
    return EnvelopeFit(
        rate=rate,
        amplitude=amplitude,
        holds=bool(np.isfinite(amplitude) and last <= first),
        attained_t=float(t[idx]),
        first_third=first,
        last_third=last,
    )


@dataclass(frozen=True)
class MonotoneReport:
    monotone: bool
    first_violation_index: Optional[int]
    first_violation_t: Optional[float]
    min_increment: float


def check_monotone(signal, tolerance: float = 0.0, t=None) -> MonotoneReport:
    """Check s[k+1] >= s[k] - tolerance for every recorded step."""
    s = np.asarray(signal, dtype=float)
    if s.size < 2:
        return MonotoneReport(True, None, None, 0.0)
    inc = np.diff(s)
    bad = np.nonzero(inc < -tolerance)[0]
    min_inc = float(np.min(inc))
    if bad.size == 0:
        return MonotoneReport(True, None, None, min_inc)
    i = int(bad[0])
    return MonotoneReport(
        False, i, float(t[i]) if t is not None else None, min_inc
    )


@dataclass(frozen=True)
class LimitReport:
    converged: bool
    limit: float
    tail_variation: float


def detect_limit(signal, t, tail_start: float, epsilon: float) -> LimitReport:
    """Asymptotic-constancy surrogate: tail variation below epsilon.

    True iff sup over t >= tail_start of |s(t) - s(T_end)| < epsilon; the
    limit estimate is the terminal value.
    """
    s = np.asarray(signal, dtype=float)
    t = np.asarray(t, dtype=float)
    if t[-1] <= tail_start:
        raise ValueError(
            f"horizon {t[-1]} does not reach tail_start {tail_start}"
        )
    tail = s[t >= tail_start]
    var = float(np.max(np.abs(tail - s[-1])))
    return LimitReport(converged=var < epsilon, limit=float(s[-1]),
                       tail_variation=var)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    controller: str
    settling_time: float
    peak_x1: float
    peak_u: float
    envelope_amplitude: float


@dataclass(frozen=True)
class ComparisonTable:
    threshold: float
    rate: float
    rows: tuple

    def row(self, name: str) -> ComparisonRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)

    def __str__(self) -> str:
        hdr = (
            f"{'run':<28} {'settle[s]':>10} {'peak|x1|':>10} "
            f"{'peak|u|':>10} {'envelope N':>11}"
        )
        lines = [
            f"comparison (settling threshold |x1| < {self.threshold:g}, "
            f"envelope rate {self.rate:g})",
            hdr,
        ]
        for r in sorted(self.rows, key=lambda r: r.name):
            lines.append(
                f"{r.name:<28} {r.settling_time:>10.4f} {r.peak_x1:>10.4f} "
                f"{r.peak_u:>10.3f} {r.envelope_amplitude:>11.4f}"
            )
        return "\n".join(lines)


def settling_time(traj: Trajectory, threshold: float) -> float:
    """First recorded time after which |x1| stays below the threshold."""
    absx1 = np.abs(traj.x[:, 0])
    above = np.nonzero(absx1 >= threshold)[0]
    if above.size == 0:
        return 0.0
    last = int(above[-1])
    if last + 1 >= len(traj.t):
        return float("inf")  # never settles on the recorded horizon
    return float(traj.t[last + 1])


def compare_runs(
    trajectories: Sequence[Trajectory],
    threshold: float = 0.05,
    rate: float = 0.6,
) -> ComparisonTable:
    """Cross-controller comparison on a shared experiment.

    All runs must share the horizon and the initial state; the table is
    keyed by run name, so it is invariant under input permutation.
    """
    if not trajectories:
        raise ValueError("nothing to compare")
    t_end = trajectories[0].t[-1]
    x0 = trajectories[0].x[0]
    for tr in trajectories[1:]:
        if abs(tr.t[-1] - t_end) > 1e-12 or not np.array_equal(tr.x[0], x0):
            raise ValueError(
                "comparison requires a shared horizon and initial state: "
                f"{tr.scenario_name} differs from {trajectories[0].scenario_name}"
            )
    rows = []
    for tr in trajectories:
        fit = fit_envelope(tr, rate)
        rows.append(
            ComparisonRow(
                name=tr.scenario_name,
                controller=tr.controller,
                settling_time=settling_time(tr, threshold),
                peak_x1=float(np.max(np.abs(tr.x[:, 0]))),
                peak_u=float(np.max(np.abs(tr.u))),
                envelope_amplitude=fit.amplitude,
            )
        )
    return ComparisonTable(threshold=threshold, rate=rate, rows=tuple(rows))


def energy_descent_ok(traj: Trajectory, scale: float = 1e-6):
    """Check the recorded energy monitor for non-increase.

    Accepts V(t_{k+1}) <= V(t_k) + scale (1 + V(t_k)) between recorded
    steps; returns (ok, worst_excess).
    """
    if "V" not in traj.diag:
        raise ValueError("trajectory carries no energy monitor (no hints given)")
    V = traj.diag["V"]
    dV = np.diff(V)
    allowance = scale * (1.0 + V[:-1])
    excess = dV - allowance
    worst = float(np.max(excess)) if excess.size else 0.0
    return bool(np.all(excess <= 0.0)), worst
