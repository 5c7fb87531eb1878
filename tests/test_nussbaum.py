import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expstab.nussbaum import (
    NussbaumDomainError,
    NussbaumOverflowError,
    NussbaumSpec,
    nussbaum_value,
    verify_enhanced,
)


def test_zero_at_origin():
    assert nussbaum_value(NussbaumSpec(), 0.0) == 0.0


def test_zero_at_pi_within_float_noise():
    val = nussbaum_value(NussbaumSpec(), math.pi)
    assert abs(val) < 1e-11  # sin(pi) is ~1.2e-16 in floats, times exp(pi^2)


def test_half_pi_value():
    val = nussbaum_value(NussbaumSpec(), math.pi / 2.0)
    exact = math.exp((math.pi / 2.0) ** 2)
    assert val == exact
    assert abs(val - 11.7919) < 1e-3


def test_cos_kind_at_origin():
    assert nussbaum_value(NussbaumSpec(kind="cos-exp-square"), 0.0) == 1.0


def test_domain_and_overflow_guards():
    spec = NussbaumSpec(xi_max=2.0)
    with pytest.raises(NussbaumDomainError):
        nussbaum_value(spec, -0.1)
    with pytest.raises(NussbaumOverflowError):
        nussbaum_value(spec, 2.5)
    # in-range evaluation still fine
    assert math.isfinite(nussbaum_value(spec, 1.9))


def test_vectorized_evaluation_matches_scalar():
    spec = NussbaumSpec()
    xs = np.linspace(0.0, 3.0, 7)
    vec = nussbaum_value(spec, xs)
    for x, v in zip(xs, vec):
        assert v == nussbaum_value(spec, float(x))


_SPECS = (
    NussbaumSpec(kind="sin-exp-square"),
    NussbaumSpec(kind="cos-exp-square", scale=0.25, xi_max=30.0),
    NussbaumSpec(kind="user", fn=lambda v: v * math.sin(3.0 * v) - 0.5, scale=1.7),
)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
@given(xi=st.floats(0.0, 30.0))
def test_float_path_matches_array_path_bit_for_bit(spec, xi):
    if xi > spec.xi_max:
        with pytest.raises(NussbaumOverflowError):
            nussbaum_value(spec, xi)
        with pytest.raises(NussbaumOverflowError):
            nussbaum_value(spec, np.asarray([xi]))
        return
    got = nussbaum_value(spec, xi)
    assert type(got) is float
    assert float.hex(got) == float.hex(float(nussbaum_value(spec, np.asarray([xi]))[0]))


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
@given(below=st.floats(-1e300, -1e-300), above=st.floats(1e-12, 1e300))
def test_float_path_raises_as_the_array_path(spec, below, above):
    for xi, error in ((below, NussbaumDomainError),
                      (spec.xi_max + above * spec.xi_max, NussbaumOverflowError)):
        with pytest.raises(error):
            nussbaum_value(spec, xi)
        with pytest.raises(error):
            nussbaum_value(spec, np.asarray([xi]))


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.kind)
def test_nan_passes_through_both_paths(spec):
    assert math.isnan(nussbaum_value(spec, math.nan))
    assert np.isnan(nussbaum_value(spec, np.asarray([math.nan]))[0])


def test_spec_validation():
    with pytest.raises(ValueError):
        NussbaumSpec(kind="nope")
    with pytest.raises(ValueError):
        NussbaumSpec(xi_max=0.0)
    with pytest.raises(ValueError):
        NussbaumSpec(kind="user")  # fn missing


def test_truncation_identities():
    spec = NussbaumSpec()
    xs = np.linspace(0.0, 6.0, 2001)
    n = nussbaum_value(spec, xs)
    n_plus = np.maximum(0.0, n)
    n_minus = np.maximum(0.0, -n)
    assert np.array_equal(n_plus - n_minus, n)
    assert np.all(n_plus * n_minus == 0.0)


def test_sin_exp_square_passes_all_four():
    report = verify_enhanced(NussbaumSpec(kind="sin-exp-square", xi_max=6.0))
    assert report.passed
    for name, sup, at_xi, evaluable, ok in report.conditions:
        assert evaluable and ok and sup > 10.0


def test_constant_and_ramp_fail():
    flat = verify_enhanced(NussbaumSpec(kind="user", fn=lambda x: 1.0, xi_max=6.0))
    assert not flat.passed
    # the negative-part conditions can never pass for a nonnegative function
    by_name = {c[0]: c for c in flat.conditions}
    assert not by_name["mean of N- grows"][4]
    assert not by_name["ratio int(N-)/int(N+) swings up"][4]
    # the +/- ratio is never evaluable: denominator stays zero
    assert not by_name["ratio int(N+)/int(N-) swings up"][3]

    ramp = verify_enhanced(NussbaumSpec(kind="user", fn=lambda x: x, xi_max=6.0))
    assert not ramp.passed


def test_grid_too_coarse_rejected():
    with pytest.raises(ValueError):
        verify_enhanced(NussbaumSpec(), base_step=0.2)


def test_refinement_does_not_flip_verdict():
    coarse = verify_enhanced(NussbaumSpec(), base_step=0.01)
    fine = verify_enhanced(NussbaumSpec(), base_step=0.002)
    assert coarse.passed == fine.passed
    for c, f in zip(coarse.conditions, fine.conditions):
        assert c[4] == f[4]


def test_report_renders():
    text = str(verify_enhanced(NussbaumSpec()))
    assert "finite-range evidence" in text
    assert "overall: pass" in text
