import math

import numpy as np
import pytest

from expstab.analysis import (
    check_monotone,
    compare_runs,
    detect_limit,
    fit_envelope,
    settling_time,
)
from expstab.sim import Trajectory


def _toy_trajectory(t, x, u=None, name="toy", controller="scalar-A"):
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[1]
    return Trajectory(
        scenario_name=name,
        controller=controller,
        status="completed",
        failure_time=None,
        t=t,
        x=x,
        u=np.zeros_like(t) if u is None else np.asarray(u, dtype=float),
        theta_hat=np.zeros((len(t), 1)),
        aux=np.zeros((len(t), 0)),
        aux_name=None,
        mu=np.exp(0.6 * t),
        s=x.copy(),
        diag={},
        monitors={"steps": len(t) - 1},
        meta={"horizon_s": float(t[-1]), "step_s": float(t[1] - t[0]),
              "record_every": 1, "lam": 0.6, "schema": "expstab-trajectory-v1"},
    )


def test_envelope_identity_case():
    t = np.linspace(0.0, 10.0, 1001)
    fit = fit_envelope(_toy_trajectory(t, np.exp(-0.6 * t)), rate=0.6)
    assert fit.holds
    assert abs(fit.amplitude - 1.0) < 1e-12


def test_envelope_constant_multiple():
    t = np.linspace(0.0, 10.0, 1001)
    fit = fit_envelope(_toy_trajectory(t, 2.0 * np.exp(-0.6 * t)), rate=0.6)
    assert abs(fit.amplitude - 2.0) < 1e-12


def test_envelope_zero_rate_is_sup_norm():
    t = np.linspace(0.0, 5.0, 501)
    x = np.sin(t) * 1.7
    fit = fit_envelope(_toy_trajectory(t, x), rate=0.0)
    assert abs(fit.amplitude - np.max(np.abs(x))) < 1e-14


def test_envelope_bound_is_tight_and_valid():
    t = np.linspace(0.0, 8.0, 801)
    x = np.exp(-0.9 * t) * (1.0 + 0.3 * np.sin(5 * t))
    traj = _toy_trajectory(t, x)
    fit = fit_envelope(traj, rate=0.6)
    norms = np.abs(x)
    margins = fit.margin(t, norms)
    assert np.all(margins >= -1e-12)
    assert np.min(margins) < 1e-12  # attained somewhere


def test_slower_decay_fails_the_faster_rate():
    t = np.linspace(0.0, 10.0, 1001)
    traj = _toy_trajectory(t, 1.5 * np.exp(-0.3 * t))
    fit = fit_envelope(traj, rate=0.6)
    assert not fit.holds
    assert fit.last_third > fit.first_third
    assert fit_envelope(traj, rate=0.25).holds


def test_envelope_invalid_for_failed_run():
    t = np.linspace(0.0, 1.0, 11)
    traj = _toy_trajectory(t, np.ones_like(t))
    traj.status = "diverged"
    fit = fit_envelope(traj, rate=0.6)
    assert not fit.holds


def test_monotone_detects_sine_violation():
    t = np.linspace(0.0, 4.0, 4001)
    rep = check_monotone(np.sin(t), tolerance=0.0, t=t)
    assert not rep.monotone
    assert abs(rep.first_violation_t - math.pi / 2.0) < 2e-3


def test_monotone_constant_and_tolerance():
    assert check_monotone(np.ones(100)).monotone
    noisy = np.linspace(0, 1, 100) + 1e-9 * np.sin(np.arange(100))
    assert check_monotone(noisy, tolerance=1e-8).monotone


def test_detect_limit_cases():
    t = np.linspace(0.0, 15.0, 1501)
    assert detect_limit(np.full_like(t, 3.3), t, 10.0, 1e-3).converged
    rep = detect_limit(np.exp(-t), t, 10.0, 1e-3)
    assert rep.converged and abs(rep.limit) < 1e-4
    rep2 = detect_limit(np.log1p(t), t, 10.0, 1e-3)
    assert not rep2.converged


def test_detect_limit_requires_horizon():
    t = np.linspace(0.0, 5.0, 51)
    with pytest.raises(ValueError):
        detect_limit(t, t, tail_start=10.0, epsilon=1e-3)


def test_settling_time_never_and_immediate():
    t = np.linspace(0.0, 10.0, 101)
    assert settling_time(_toy_trajectory(t, np.full_like(t, 0.001)), 0.05) == 0.0
    assert settling_time(_toy_trajectory(t, np.ones_like(t)), 0.05) == math.inf


def test_compare_identical_runs_identical_rows():
    t = np.linspace(0.0, 10.0, 1001)
    x = np.exp(-0.7 * t) * 2.0
    a = _toy_trajectory(t, x, u=np.exp(-t), name="one")
    b = _toy_trajectory(t, x, u=np.exp(-t), name="two")
    table = compare_runs([a, b])
    ra, rb = table.row("one"), table.row("two")
    assert (ra.settling_time, ra.peak_x1, ra.peak_u, ra.envelope_amplitude) == (
        rb.settling_time, rb.peak_x1, rb.peak_u, rb.envelope_amplitude
    )


def test_compare_is_permutation_invariant():
    t = np.linspace(0.0, 10.0, 1001)
    a = _toy_trajectory(t, np.exp(-0.7 * t), name="a")
    b = _toy_trajectory(t, np.exp(-0.9 * t), name="b")
    t1 = compare_runs([a, b])
    t2 = compare_runs([b, a])
    assert t1.row("a") == t2.row("a")
    assert t1.row("b") == t2.row("b")


def test_compare_rejects_mismatched_experiments():
    t1 = np.linspace(0.0, 10.0, 101)
    t2 = np.linspace(0.0, 12.0, 121)
    with pytest.raises(ValueError):
        compare_runs([_toy_trajectory(t1, np.exp(-t1)),
                      _toy_trajectory(t2, np.exp(-t2))])


def test_comparison_table_renders():
    t = np.linspace(0.0, 10.0, 101)
    table = compare_runs([_toy_trajectory(t, np.exp(-t), name="solo"),
                          _toy_trajectory(t, np.exp(-t), name="duo")])
    text = str(table)
    assert "solo" in text and "settle" in text
