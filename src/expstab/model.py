"""Strict-feedback plant descriptions with time-varying parameters.

A plant is

    dx_i/dt = phi_i(x_1..x_i)^T theta(t) + x_{i+1},    i = 1..n-1
    dx_n/dt = phi_n(x_1..x_n)^T theta(t) + b(t) u

with smooth regressors vanishing at the origin, a bounded piecewise
continuous parameter vector theta(t) and a control coefficient b(t) that is
bounded away from zero with fixed sign.  Parameter signals may jump; the
model records the jump times so the integrator can align its grid to them.

Regressor convention: ``regressors[i-1]`` is called with the i state
components as positional scalars and must return a sequence of q components
built from arithmetic only (so the controller can push dual numbers and
batched arrays through the same callables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "SystemModel",
    "ParameterBounds",
    "ValidationReport",
    "eval_regressor",
    "eval_parameters",
    "plant_rates",
    "validate_model",
]


@dataclass(frozen=True)
class SystemModel:
    """Immutable plant description.

    Parameters
    ----------
    n : int
        State dimension (>= 1).
    q : int
        Parameter dimension (>= 1).
    regressors : sequence of callables
        ``regressors[i-1](*xbar_i)`` returns the q components of phi_i.
    theta_signal : callable
        ``t -> ndarray(q)``; right-continuous at jumps.
    b_signal : callable
        ``t -> float``; right-continuous at jumps, never zero.
    breakpoints : callable
        ``horizon -> sorted array`` of jump times in ``(0, horizon)``.
        Defaults to no breakpoints.
    name : str
        Free-form label used in reports.
    """

    n: int
    q: int
    regressors: Sequence[Callable]
    theta_signal: Callable[[float], np.ndarray]
    b_signal: Callable[[float], float]
    breakpoints: Callable[[float], np.ndarray] = field(
        default=lambda horizon: np.empty(0)
    )
    name: str = "model"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state dimension must be >= 1, got {self.n}")
        if self.q < 1:
            raise ValueError(f"parameter dimension must be >= 1, got {self.q}")
        if len(self.regressors) != self.n:
            raise ValueError(
                f"expected {self.n} regressor functions, got {len(self.regressors)}"
            )


@dataclass(frozen=True)
class ParameterBounds:
    """Known deviation radius plus optional test-only nominal values.

    ``delta_theta`` bounds the distance of theta(t) from its congealed
    nominal value.  The hints are never used by the controllers; they feed
    test-side monitors (e.g. the descent check of the closed-loop energy
    function).
    """

    delta_theta: float
    ell_theta_hint: Optional[np.ndarray] = None
    ell_b_hint: Optional[float] = None

    def __post_init__(self):
        if not self.delta_theta > 0.0:
            raise ValueError("delta_theta must be positive")


@dataclass
class ValidationReport:
    """Outcome of the structural checks on a probe grid."""

    checks: list  # (name, passed, detail) triples

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def __str__(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            lines.append(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
        return "\n".join(lines)


def eval_regressor(model: SystemModel, i: int, x_prefix) -> np.ndarray:
    """Evaluate phi_i at ``x_prefix`` (length i), returning an ndarray(q).

    Rejects out-of-range indices and non-finite inputs.
    """
    if not 1 <= i <= model.n:
        raise IndexError(f"regressor index {i} out of range 1..{model.n}")
    x_prefix = np.asarray(x_prefix, dtype=float)
    if x_prefix.shape != (i,):
        raise ValueError(f"x_prefix must have length {i}, got shape {x_prefix.shape}")
    if not np.all(np.isfinite(x_prefix)):
        raise ValueError(f"non-finite state prefix passed to phi_{i}: {x_prefix}")
    out = np.asarray(model.regressors[i - 1](*x_prefix), dtype=float)
    if out.shape != (model.q,):
        raise ValueError(
            f"phi_{i} returned shape {out.shape}, expected ({model.q},)"
        )
    return out


def plant_rates(phi, x, theta, b, u) -> tuple:
    """dx/dt of the plant from its regressor values at the state.

    ``phi[i-1]`` holds the q components of phi_i at ``x``; ``theta`` and
    ``b`` are the parameter signals.  Runs in any algebra, so the closed
    loop records it with the controller; a literal zero regressor
    component costs nothing there.
    """
    n = len(x)
    dx = []
    for i, phi_i in enumerate(phi):
        acc = 0.0
        for pc, tc in zip(phi_i, theta):
            acc = acc + pc * tc
        dx.append(acc + (x[i + 1] if i + 1 < n else b * u))
    return tuple(dx)


def eval_parameters(model: SystemModel, t: float):
    """Return ``(theta(t), b(t))``; at a jump this is the right limit."""
    if t < 0.0:
        raise ValueError(f"parameter signals are defined for t >= 0, got t={t}")
    theta = np.asarray(model.theta_signal(t), dtype=float)
    b = float(model.b_signal(t))
    return theta, b


def validate_model(
    model: SystemModel,
    t_grid,
    bounds: Optional[ParameterBounds] = None,
) -> ValidationReport:
    """Check the structural assumptions on a probe grid.

    Verifies phi_i(0) = 0 for every layer, constant nonzero sign of b on
    the grid, and boundedness of theta on the grid (plus the deviation
    radius when hints are supplied).  Failures are report entries, never
    exceptions, and the model is not mutated.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0:
        raise ValueError("probe grid must be non-empty")

    checks = []

    for i in range(1, model.n + 1):
        val = eval_regressor(model, i, np.zeros(i))
        norm = float(np.linalg.norm(val))
        checks.append(
            (
                f"phi_{i}(0) = 0",
                norm == 0.0,
                f"|phi_{i}(0)| = {norm:.3e}",
            )
        )

    b_vals = np.array([model.b_signal(float(t)) for t in t_grid], dtype=float)
    nonzero = bool(np.all(b_vals != 0.0))
    same_sign = bool(np.all(np.sign(b_vals) == np.sign(b_vals[0]))) and nonzero
    checks.append(
        (
            "b(t) nonzero with constant sign",
            same_sign,
            f"min |b| = {np.min(np.abs(b_vals)):.3e}, "
            f"sign range [{np.min(np.sign(b_vals)):+.0f}, {np.max(np.sign(b_vals)):+.0f}]",
        )
    )

    theta_vals = np.array([model.theta_signal(float(t)) for t in t_grid], dtype=float)
    finite = bool(np.all(np.isfinite(theta_vals)))
    sup = float(np.max(np.abs(theta_vals))) if finite else float("inf")
    checks.append(
        (
            "theta(t) bounded on grid",
            finite,
            f"sup |theta_j| = {sup:.6g}",
        )
    )

    if bounds is not None and bounds.ell_theta_hint is not None:
        ell = np.asarray(bounds.ell_theta_hint, dtype=float)
        dev = float(np.max(np.linalg.norm(theta_vals - ell, axis=1)))
        checks.append(
            (
                "deviation radius covers |theta(t) - ell_theta|",
                dev <= bounds.delta_theta,
                f"sup deviation {dev:.6g} vs delta_theta {bounds.delta_theta:.6g}",
            )
        )

    return ValidationReport(checks)
