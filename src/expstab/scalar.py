"""The three first-order adaptive designs, as plain control laws.

These are the building blocks of the general recursion, kept standalone:

* controller A stabilizes ``dx = u + a x^2`` with constant unknown ``a``
  and drives ``x`` to zero at a prescribed exponential rate through the
  time-scaled coordinate ``s = exp(lambda t) x``;
* controller B extends A to time-varying ``a(t)`` by estimating only a
  congealed nominal value and dominating the bounded deviation with odd
  damping terms weighted by the known radius ``delta_a``;
* controller C additionally handles an unknown control coefficient
  ``b(t)`` (sign and magnitude) through a Nussbaum dynamic gain whose
  argument is kept non-decreasing by construction.

Each design is one pure function of plain floats and the gains,
``scalar_X_rates(x, a_hat, mu, s[, xi], gains)``, returning the input
together with the estimator (and gain-argument) rates; the closed-loop
simulator calls it in every Runge-Kutta stage.  ``scalar_X_law(state,
gains)`` evaluates the same function at a :class:`ScalarState` snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .nussbaum import NussbaumSpec, nussbaum_value

__all__ = [
    "ScalarState",
    "ScalarGains",
    "scalar_A_law",
    "scalar_B_law",
    "scalar_C_law",
    "scalar_A_rates",
    "scalar_B_rates",
    "scalar_C_rates",
]


@dataclass(frozen=True)
class ScalarState:
    """Snapshot of the scalar loop at time ``t``.

    ``mu`` and ``s`` are derived: mu = exp(lambda t), s = mu * x.
    """

    x: float
    a_hat: float
    t: float
    mu: float
    s: float
    xi: float = 0.0

    @staticmethod
    def at(x: float, a_hat: float, t: float, lam: float, xi: float = 0.0) -> "ScalarState":
        mu = math.exp(lam * t)
        return ScalarState(x=x, a_hat=a_hat, t=t, mu=mu, s=mu * x, xi=xi)


@dataclass(frozen=True)
class ScalarGains:
    k: float
    lam: float
    gamma_a: float
    delta_a: float = 0.0
    nussbaum: Optional[NussbaumSpec] = None

    def __post_init__(self):
        if not self.k > 0.0:
            raise ValueError("k must be positive")
        if self.lam < 0.0:
            raise ValueError("lambda must be nonnegative")
        if not self.gamma_a > 0.0:
            raise ValueError("gamma_a must be positive")
        if self.delta_a < 0.0:
            raise ValueError("delta_a must be nonnegative")


def _at(x: float, a_hat: float, s: float) -> str:
    return f"x={x!r}, a_hat={a_hat!r}, s={s!r}"


def _check_finite(x: float, a_hat: float, s: float) -> None:
    if not (math.isfinite(x) and math.isfinite(a_hat) and math.isfinite(s)):
        raise ValueError(f"non-finite scalar state: {_at(x, a_hat, s)}")


def scalar_A_rates(x: float, a_hat: float, mu: float, s: float, gains: ScalarGains):
    """Control and update rates for the constant-parameter design.

    u = -(k + lambda) x - a_hat x^2,  d(a_hat)/dt = gamma_a mu s x^2.
    """
    _check_finite(x, a_hat, s)
    u = -(gains.k + gains.lam) * x - a_hat * x * x
    a_hat_dot = gains.gamma_a * mu * s * x * x
    if not (math.isfinite(u) and math.isfinite(a_hat_dot)):
        raise ValueError(f"non-finite controller output at {_at(x, a_hat, s)}")
    return u, a_hat_dot


def scalar_B_rates(x: float, a_hat: float, mu: float, s: float, gains: ScalarGains):
    """Time-varying-parameter design: A plus odd damping in delta_a.

    u = -(k + lambda) x - a_hat x^2 - (delta_a/2) x^3 - (delta_a/2) x.
    With delta_a = 0 this reduces exactly to controller A.
    """
    _check_finite(x, a_hat, s)
    half_delta = 0.5 * gains.delta_a
    u = (
        -(gains.k + gains.lam) * x
        - a_hat * x * x
        - half_delta * x * x * x
        - half_delta * x
    )
    a_hat_dot = gains.gamma_a * mu * s * x * x
    if not (math.isfinite(u) and math.isfinite(a_hat_dot)):
        raise ValueError(f"non-finite controller output at {_at(x, a_hat, s)}")
    return u, a_hat_dot


def scalar_kappa(a_hat: float, x: float, delta_a: float) -> float:
    """Nonlinear damping gain of controller C (always >= 1/2)."""
    ax = a_hat * x
    return 0.5 * (ax * ax + 1.0) + 0.5 * delta_a * (x * x + 1.0)


def scalar_C_rates(x: float, a_hat: float, mu: float, s: float, xi: float,
                   gains: ScalarGains):
    """Unknown-control-coefficient design with a Nussbaum dynamic gain.

    ubar = (k + lambda) x + kappa(a_hat, x) x
    u    = N(xi) ubar
    dxi/dt = mu s ubar = (k + lambda + kappa) s^2  >= 0

    The gain argument rate is computed in the right-hand form, which is a
    product of nonnegative factors, so monotonicity of xi survives
    floating-point evaluation exactly.  Evaluating N outside its safe
    range raises, failing the run loudly.
    """
    _check_finite(x, a_hat, s)
    if gains.nussbaum is None:
        raise ValueError("controller C requires a NussbaumSpec in the gains")
    kap = scalar_kappa(a_hat, x, gains.delta_a)
    total_gain = gains.k + gains.lam + kap
    ubar = total_gain * x
    xi_dot = total_gain * s * s
    u = nussbaum_value(gains.nussbaum, xi) * ubar
    a_hat_dot = gains.gamma_a * mu * s * x * x
    if not (math.isfinite(u) and math.isfinite(a_hat_dot) and math.isfinite(xi_dot)):
        raise ValueError(f"non-finite controller output at {_at(x, a_hat, s)}")
    return u, a_hat_dot, xi_dot


def scalar_A_law(state: ScalarState, gains: ScalarGains):
    """:func:`scalar_A_rates` at a state snapshot."""
    return scalar_A_rates(state.x, state.a_hat, state.mu, state.s, gains)


def scalar_B_law(state: ScalarState, gains: ScalarGains):
    """:func:`scalar_B_rates` at a state snapshot."""
    return scalar_B_rates(state.x, state.a_hat, state.mu, state.s, gains)


def scalar_C_law(state: ScalarState, gains: ScalarGains):
    """:func:`scalar_C_rates` at a state snapshot."""
    return scalar_C_rates(state.x, state.a_hat, state.mu, state.s, state.xi, gains)
