"""Nussbaum gain functions with safe evaluation and a growth verifier.

The controllers for unknown control direction use gains N(xi) whose
positive part N+ and negative part N- both accumulate unbounded average
area, and whose truncated-integral ratios swing unboundedly in both
directions.  Those four defining conditions are limits as xi -> infinity
and cannot be certified numerically; ``verify_enhanced`` instead checks
that all four running quantities clear a configurable threshold on a
finite window and labels the outcome finite-range evidence, never proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "NussbaumSpec",
    "NussbaumOverflowError",
    "NussbaumDomainError",
    "nussbaum_value",
    "RatioReport",
    "verify_enhanced",
]

KINDS = ("sin-exp-square", "cos-exp-square", "user")


class NussbaumOverflowError(RuntimeError):
    """Raised when the gain argument leaves the safe evaluation range."""


class NussbaumDomainError(ValueError):
    """Raised for negative arguments (the designs keep xi >= 0)."""


@dataclass(frozen=True)
class NussbaumSpec:
    """Descriptor for a gain function with a safe-evaluation bound.

    The gain is ``base(scale * xi)`` where ``base`` is the selected kind.
    An argument prefactor preserves all four defining growth conditions
    (they are limits of averaged truncated integrals, invariant under a
    linear change of the argument) while stretching the sign windows:
    slower sweeps buy the estimator time before the gain changes sign,
    which matters for fixed-step integration of hot loops.

    ``xi_max`` defaults to 6.0: exp(36) ~ 4.3e15 is still comfortably
    representable, while anything beyond signals that the closed loop has
    left the regime the boundedness lemma describes, and the run must fail
    loudly rather than saturate silently.
    """

    kind: str = "sin-exp-square"
    xi_max: float = 6.0
    fn: Optional[Callable] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown Nussbaum kind {self.kind!r}; choose from {KINDS}")
        if not self.xi_max > 0.0:
            raise ValueError("xi_max must be positive")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")
        if self.kind == "user" and self.fn is None:
            raise ValueError("kind 'user' requires fn")


def nussbaum_value(spec: NussbaumSpec, xi):
    """Evaluate N(xi) for scalar or array ``xi`` within [0, xi_max].

    A scalar (what the closed loops pass in every stage is a plain
    ``float``) is checked and evaluated with the math module, without
    numpy; a NaN passes both range checks and comes back as NaN.
    """
    if type(xi) is not float and np.ndim(xi) == 0:
        xi = float(xi)
    if type(xi) is float:
        if xi < 0.0:
            raise NussbaumDomainError(f"xi must be >= 0, got {xi}")
        if xi > spec.xi_max:
            raise NussbaumOverflowError(
                f"xi = {xi:.6g} exceeds the safe evaluation bound xi_max = {spec.xi_max:.6g}"
            )
        x = spec.scale * xi
        if spec.kind == "sin-exp-square":
            return math.sin(x) * math.exp(x * x)
        if spec.kind == "cos-exp-square":
            return math.cos(x) * math.exp(x * x)
        return float(spec.fn(x))
    arr = np.asarray(xi, dtype=float)
    lo = float(arr.min()) if arr.size else 0.0
    hi = float(arr.max()) if arr.size else 0.0
    if lo < 0.0:
        raise NussbaumDomainError(f"xi must be >= 0, got {lo}")
    if hi > spec.xi_max:
        raise NussbaumOverflowError(
            f"xi = {hi:.6g} exceeds the safe evaluation bound xi_max = {spec.xi_max:.6g}"
        )
    y = spec.scale * arr
    if spec.kind == "sin-exp-square":
        return np.sin(y) * np.exp(y * y)
    if spec.kind == "cos-exp-square":
        return np.cos(y) * np.exp(y * y)
    return np.asarray([spec.fn(float(v)) for v in y], dtype=float)


@dataclass
class RatioReport:
    """Finite-range growth evidence for the four defining conditions.

    Each entry records the running supremum of one quantity over the
    tested window, the threshold it was compared against, whether it
    passed, and the xi at which the supremum was last attained.  A ratio
    whose denominator stayed zero over the whole window is reported as
     not evaluable and counts as not passed.
    """

    xi_max: float
    threshold: float
    conditions: list  # (name, sup_value, attained_xi, evaluable, passed)

    @property
    def passed(self) -> bool:
        return all(c[4] for c in self.conditions)

    def __str__(self) -> str:
        lines = [
            f"enhanced-Nussbaum growth check on [0, {self.xi_max:g}] "
            f"(finite-range evidence, threshold {self.threshold:g})"
        ]
        for name, sup, at_xi, ok_eval, ok in self.conditions:
            if not ok_eval:
                lines.append(f"[FAIL] {name}: not evaluable (denominator stayed zero)")
            else:
                lines.append(
                    f"[{'pass' if ok else 'FAIL'}] {name}: running sup = {sup:.6g} "
                    f"at xi = {at_xi:.4g}"
                )
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _verification_grid(xi_max: float, base_step: float) -> np.ndarray:
    # Composite grid; refined beyond xi = 4 where exp(xi^2) steepens.
    pieces = []
    if xi_max <= 4.0:
        pieces.append(np.arange(0.0, xi_max, base_step))
    else:
        pieces.append(np.arange(0.0, 4.0, base_step))
        pieces.append(np.arange(4.0, xi_max, min(base_step, 1e-3)))
    pieces.append(np.asarray([xi_max]))
    return np.concatenate(pieces)


def verify_enhanced(
    spec: NussbaumSpec,
    xi_max: Optional[float] = None,
    threshold: float = 10.0,
    base_step: float = 0.01,
) -> RatioReport:
    """Check the four growth conditions on ``[0, xi_max]``.

    Uses the composite trapezoid rule for the truncated integrals of
    N+ = max(0, N) and N- = max(0, -N).  The four running quantities are

    * ``mean+``: (1/xi) * integral of N+,
    * ``mean-``: (1/xi) * integral of N-,
    * ``ratio+/-``: integral of N+ over integral of N-,
    * ``ratio-/+``: the reciprocal ratio,

    each summarized by its running supremum over the window.  Windows
    where a denominator is still identically zero are skipped as not yet
    evaluable; if that holds over the whole range the condition fails.

    Raises ``ValueError`` for grids coarser than 10 points per unit xi.
    """
    if xi_max is None:
        xi_max = spec.xi_max
    if base_step > 0.1:
        raise ValueError(
            f"grid too coarse: base_step {base_step:g} gives fewer than "
            "10 points per unit xi"
        )
    grid = _verification_grid(xi_max, base_step)
    n_vals = nussbaum_value(spec, grid)
    n_plus = np.maximum(0.0, n_vals)
    n_minus = np.maximum(0.0, -n_vals)

    dxi = np.diff(grid)
    int_plus = np.concatenate(
        [[0.0], np.cumsum(0.5 * dxi * (n_plus[1:] + n_plus[:-1]))]
    )
    int_minus = np.concatenate(
        [[0.0], np.cumsum(0.5 * dxi * (n_minus[1:] + n_minus[:-1]))]
    )

    with np.errstate(divide="ignore", invalid="ignore"):
        mean_plus = np.where(grid > 0.0, int_plus / grid, 0.0)
        mean_minus = np.where(grid > 0.0, int_minus / grid, 0.0)

    conditions = []
    for name, series, denom in (
        ("mean of N+ grows", mean_plus, None),
        ("mean of N- grows", mean_minus, None),
        ("ratio int(N+)/int(N-) swings up", int_plus, int_minus),
        ("ratio int(N-)/int(N+) swings up", int_minus, int_plus),
    ):
        if denom is None:
            sup_idx = int(np.argmax(series))
            sup = float(series[sup_idx])
            conditions.append(
                (name, sup, float(grid[sup_idx]), True, sup > threshold)
            )
        else:
            mask = denom > 0.0
            if not np.any(mask):
                conditions.append((name, 0.0, float("nan"), False, False))
                continue
            ratio = np.where(mask, series / np.where(mask, denom, 1.0), -np.inf)
            sup_idx = int(np.argmax(ratio))
            sup = float(ratio[sup_idx])
            conditions.append(
                (name, sup, float(grid[sup_idx]), True, sup > threshold)
            )

    return RatioReport(xi_max=float(xi_max), threshold=threshold, conditions=conditions)
