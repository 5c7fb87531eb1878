import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expstab import NussbaumSpec, ScalarGains, ScalarState
from expstab.analysis import check_monotone, detect_limit, fit_envelope
from expstab.scalar import (
    scalar_A_law,
    scalar_A_rates,
    scalar_B_law,
    scalar_B_rates,
    scalar_C_law,
    scalar_C_rates,
    scalar_kappa,
)
from expstab.scenarios import build_scalar
from expstab.sim import simulate


def test_law_A_zero_state():
    st = ScalarState.at(x=0.0, a_hat=5.0, t=1.0, lam=0.6)
    u, a_dot = scalar_A_law(st, ScalarGains(k=1.0, lam=0.6, gamma_a=1.0))
    assert u == 0.0 and a_dot == 0.0


def test_law_A_direct_substitution():
    st = ScalarState.at(x=1.0, a_hat=2.0, t=0.0, lam=0.6)
    u, _ = scalar_A_law(st, ScalarGains(k=1.0, lam=0.6, gamma_a=1.0))
    assert abs(u - (-3.6)) < 1e-15


def test_law_A_update_forms_agree():
    # gamma mu s x^2 must equal gamma x s^2; evaluate both independently
    gains = ScalarGains(k=1.0, lam=0.5, gamma_a=1.0)
    st = ScalarState.at(x=0.5, a_hat=0.0, t=1.0, lam=0.5)
    _, a_dot = scalar_A_law(st, gains)
    alt = gains.gamma_a * st.x * st.s * st.s
    assert abs(a_dot - alt) <= 1e-12 * max(1.0, abs(a_dot))
    expected = math.exp(1.0) * 0.125  # mu * s * x^2 at this point
    assert abs(a_dot - expected) < 1e-14


def test_law_B_reduces_to_A_when_radius_zero():
    rng = np.random.default_rng(3)
    gains_b = ScalarGains(k=1.2, lam=0.3, gamma_a=0.7, delta_a=0.0)
    gains_a = ScalarGains(k=1.2, lam=0.3, gamma_a=0.7)
    for _ in range(100):
        st = ScalarState.at(
            x=float(rng.uniform(-3, 3)),
            a_hat=float(rng.uniform(-2, 2)),
            t=float(rng.uniform(0, 4)),
            lam=0.3,
        )
        assert scalar_B_law(st, gains_b) == scalar_A_law(st, gains_a)


def test_law_B_direct_substitution():
    st = ScalarState.at(x=1.0, a_hat=0.0, t=0.0, lam=0.0)
    u, _ = scalar_B_law(st, ScalarGains(k=1.0, lam=0.0, gamma_a=1.0, delta_a=2.0))
    assert u == -3.0  # -1 - 0 - 1 - 1


def test_law_B_zero_state():
    st = ScalarState.at(x=0.0, a_hat=1.0, t=2.0, lam=0.4)
    u, a_dot = scalar_B_law(st, ScalarGains(k=1.0, lam=0.4, gamma_a=1.0, delta_a=0.5))
    assert u == 0.0 and a_dot == 0.0


def test_law_C_zero_state():
    gains = ScalarGains(k=1.0, lam=0.6, gamma_a=1.0, delta_a=0.5,
                        nussbaum=NussbaumSpec())
    st = ScalarState.at(x=0.0, a_hat=1.0, t=0.0, lam=0.6, xi=0.2)
    u, a_dot, xi_dot = scalar_C_law(st, gains)
    assert u == 0.0 and a_dot == 0.0 and xi_dot == 0.0


def test_law_C_hand_point():
    # x=1, a_hat=1, k=1, lam=0, delta=1, xi=0: kappa = 2, ubar = 3, u = N(0) ubar = 0
    gains = ScalarGains(k=1.0, lam=0.0, gamma_a=1.0, delta_a=1.0,
                        nussbaum=NussbaumSpec(kind="sin-exp-square"))
    st = ScalarState.at(x=1.0, a_hat=1.0, t=0.0, lam=0.0, xi=0.0)
    kap = scalar_kappa(st.a_hat, st.x, gains.delta_a)
    assert kap == 2.0
    u, _, xi_dot = scalar_C_law(st, gains)
    assert u == 0.0
    assert abs(xi_dot - 3.0) < 1e-15  # (k + lam + kappa) s^2 with s = 1


def test_law_C_gain_argument_rate_nonnegative():
    rng = np.random.default_rng(5)
    gains = ScalarGains(k=1.0, lam=0.6, gamma_a=1.0, delta_a=0.7,
                        nussbaum=NussbaumSpec())
    for _ in range(200):
        st = ScalarState.at(
            x=float(rng.uniform(-4, 4)),
            a_hat=float(rng.uniform(-3, 3)),
            t=float(rng.uniform(0, 3)),
            lam=0.6,
            xi=float(rng.uniform(0, 2)),
        )
        _, _, xi_dot = scalar_C_law(st, gains)
        assert xi_dot >= 0.0


def test_law_C_sign_convention_against_A_structure():
    # with zero radius and N = -1 the input is exactly minus the damped form
    rng = np.random.default_rng(8)
    gains = ScalarGains(k=1.0, lam=0.6, gamma_a=1.0, delta_a=0.0,
                        nussbaum=NussbaumSpec(kind="user", fn=lambda xi: -1.0))
    for _ in range(50):
        st = ScalarState.at(
            x=float(rng.uniform(-3, 3)),
            a_hat=float(rng.uniform(-2, 2)),
            t=float(rng.uniform(0, 2)),
            lam=0.6,
            xi=0.5,
        )
        u, _, _ = scalar_C_law(st, gains)
        expected = -((gains.k + gains.lam) * st.x
                     + 0.5 * ((st.a_hat * st.x) ** 2 + 1.0) * st.x)
        assert abs(u - expected) < 1e-12 * max(1.0, abs(expected))


def test_law_C_requires_nussbaum_spec():
    st = ScalarState.at(x=1.0, a_hat=0.0, t=0.0, lam=0.0)
    with pytest.raises(ValueError):
        scalar_C_law(st, ScalarGains(k=1.0, lam=0.0, gamma_a=1.0))


def test_laws_reject_non_finite_state():
    gains = ScalarGains(k=1.0, lam=0.0, gamma_a=1.0)
    bad = ScalarState(x=math.inf, a_hat=0.0, t=0.0, mu=1.0, s=math.inf)
    with pytest.raises(ValueError):
        scalar_A_law(bad, gains)


def test_gain_validation():
    with pytest.raises(ValueError):
        ScalarGains(k=0.0, lam=0.0, gamma_a=1.0)
    with pytest.raises(ValueError):
        ScalarGains(k=1.0, lam=-0.1, gamma_a=1.0)
    with pytest.raises(ValueError):
        ScalarGains(k=1.0, lam=0.0, gamma_a=1.0, delta_a=-1.0)


# -- laws against their float kernels ----------------------------------


def _outcome(fn, *args):
    """Rates as exact bit patterns, or the exception type and message."""
    try:
        return tuple(float.hex(v) for v in fn(*args))
    except Exception as exc:  # the comparison is of the failure itself
        return type(exc), str(exc)


# exact zeros of both signs, moderate values and magnitudes whose powers
# overflow, so the finiteness checks fire on both sides too
_values = st.one_of(st.sampled_from([0.0, -0.0]),
                    st.floats(-10.0, 10.0),
                    st.floats(allow_nan=True, allow_infinity=True))
_GAINS = ScalarGains(k=1.3, lam=0.6, gamma_a=0.7, delta_a=0.45,
                     nussbaum=NussbaumSpec(kind="cos-exp-square", scale=0.25,
                                           xi_max=30.0))


@given(x=_values, a_hat=_values, mu=_values, s=_values,
       xi=st.one_of(st.floats(0.0, 30.0), _values))
def test_laws_equal_their_kernels_bit_for_bit(x, a_hat, mu, s, xi):
    state = ScalarState(x=x, a_hat=a_hat, t=0.0, mu=mu, s=s, xi=xi)
    assert _outcome(scalar_A_law, state, _GAINS) == _outcome(
        scalar_A_rates, x, a_hat, mu, s, _GAINS)
    assert _outcome(scalar_B_law, state, _GAINS) == _outcome(
        scalar_B_rates, x, a_hat, mu, s, _GAINS)
    assert _outcome(scalar_C_law, state, _GAINS) == _outcome(
        scalar_C_rates, x, a_hat, mu, s, xi, _GAINS)


# -- closed loops --------------------------------------------------------


def test_closed_loop_A_envelope_and_estimate_limit():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = float(rng.uniform(-3, 3))
        x0 = float(rng.uniform(-2, 2))
        traj = simulate(build_scalar("scalar-A", a_nominal=a, x0=x0,
                                     record_every=10))
        assert traj.completed
        fit = fit_envelope(traj, rate=0.6)
        assert fit.holds and math.isfinite(fit.amplitude)
        rep = detect_limit(traj.theta_hat[:, 0], traj.t, tail_start=15.0,
                           epsilon=1e-3)
        assert rep.converged, f"a={a}, x0={x0}, tail var {rep.tail_variation}"


def test_closed_loop_B_with_wobble():
    traj = simulate(build_scalar("scalar-B", a_nominal=2.0, a_deviation=0.8,
                                 x0=-1.5, record_every=10))
    assert traj.completed
    assert fit_envelope(traj, rate=0.6).holds
    assert abs(traj.x[-1, 0]) < 1e-6


@pytest.mark.parametrize("b", [1.5, -1.5])
def test_closed_loop_C_unknown_direction(b):
    scn = build_scalar("scalar-C", a_nominal=1.0, a_deviation=0.3,
                       x0=1.2, b_value=b, horizon=12.0, step=5e-4,
                       record_every=10)
    traj = simulate(scn)
    assert traj.completed
    assert abs(traj.x[-1, 0]) < 1e-4  # state regulated to zero
    xi = traj.aux[:, 0]
    assert check_monotone(xi, tolerance=0.0).monotone
    assert traj.monitors["xi_min_increment"] >= 0.0
    assert xi[-1] < scn.gains.nussbaum.xi_max  # bounded, guard never fired
