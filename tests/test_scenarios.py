import math
import sys
import threading

import numpy as np
import pytest

from expstab import scenarios
from expstab.nussbaum import NussbaumSpec
from expstab.scenarios import (
    WING_ROCK_TABLE,
    build_named,
    build_scalar,
    build_synthetic,
    build_wing_rock,
    scenario_names,
    square_sign,
    wing_rock_model,
)


def test_benchmark_constants_match_table():
    tbl = WING_ROCK_TABLE
    scn = build_wing_rock("theorem1")
    assert tuple(scn.x0) == tbl["x0"]
    assert tuple(scn.theta_hat0) == tbl["theta_hat0"]
    assert scn.rho_hat0 == tbl["rho_hat0"]
    assert scn.gains.k == tbl["k"]
    assert scn.gains.lam == tbl["lam"]
    assert scn.gains.delta_theta == tbl["delta_theta"]
    assert np.array_equal(scn.gains.Gamma, tbl["gamma_diag"] * np.eye(2))
    assert scn.gains.sign_b == tbl["sign_b"]

    model = scn.model
    th0 = model.theta_signal(0.1)
    assert th0[0] == tbl["theta_nominal"][0] * (1.0 + tbl["theta_wobble_fraction"])
    assert th0[1] == tbl["theta_nominal"][1] * (1.0 + tbl["theta_wobble_fraction"])
    assert model.b_signal(0.0) == tbl["b_nominal"] + tbl["b_wobble_amplitude"]


def test_variant_wiring():
    t2 = build_wing_rock("theorem2")
    assert t2.xi0 == 0.0
    assert t2.rho_hat0 is None
    assert t2.gains.nussbaum.kind == "sin-exp-square"

    t1 = build_wing_rock("theorem1")
    assert t1.rho_hat0 == -0.3
    assert t1.gains.nussbaum is None

    base = build_wing_rock("baseline-lambda0")
    assert base.gains.lam == 0.0
    # identical to the known-direction variant except the rate
    assert base.gains.k == t1.gains.k
    assert base.gains.delta_theta == t1.gains.delta_theta
    assert base.rho_hat0 == t1.rho_hat0
    assert np.array_equal(base.x0, t1.x0)


def test_unknown_variants_rejected():
    with pytest.raises(ValueError):
        build_wing_rock("theorem3")
    with pytest.raises(ValueError):
        build_synthetic("asymptotic")
    with pytest.raises(ValueError):
        build_scalar("scalar-D", a_nominal=1.0, x0=1.0)
    with pytest.raises(ValueError):
        build_named("wing-rock")


def test_square_sign_right_continuity():
    rate = 3.0
    bp = math.pi / rate
    assert square_sign(0.0, rate) == 1.0
    assert square_sign(bp, rate) == -1.0  # right limit at the jump
    assert square_sign(bp - 1e-6, rate) == 1.0
    assert square_sign(bp + 1e-6, rate) == -1.0
    assert square_sign(2.0 * bp, rate) == 1.0


def test_wing_rock_breakpoints_cover_horizon():
    model = wing_rock_model()
    bps = model.breakpoints(15.0)
    assert len(bps) == 14  # floor(15 / (pi/3))
    assert np.all(np.diff(bps) > 0)
    assert bps[0] == pytest.approx(math.pi / 3.0)


def test_synthetic_is_deterministic_per_seed():
    a = build_synthetic("theorem1", seed=3)
    b = build_synthetic("theorem1", seed=3)
    c = build_synthetic("theorem1", seed=4)
    assert np.array_equal(a.x0, b.x0)
    assert a.gains.delta_theta == b.gains.delta_theta
    assert np.array_equal(a.model.theta_signal(1.0), b.model.theta_signal(1.0))
    assert not np.array_equal(a.x0, c.x0)


def test_synthetic_structural_assumptions():
    scn = build_synthetic("theorem1", seed=0)
    model = scn.model
    for i in range(1, 4):
        out = np.asarray(model.regressors[i - 1](*np.zeros(i)))
        assert np.all(out == 0.0)
    ts = np.arange(0.0, scn.horizon, 1e-2)
    bs = np.asarray([model.b_signal(float(t)) for t in ts])
    assert np.all(bs < 0.0)
    ell = np.asarray([-0.0, 0.0]) + np.mean(
        [model.theta_signal(float(t)) for t in ts], axis=0
    )
    devs = [np.linalg.norm(np.asarray(model.theta_signal(float(t))) - ell) for t in ts]
    assert max(devs) <= scn.gains.delta_theta + 1e-9


def test_synthetic_initial_state_inside_unit_ball():
    for seed in range(5):
        scn = build_synthetic("theorem1", seed=seed)
        assert np.linalg.norm(scn.x0) <= 1.0


def test_scalar_builder_defaults():
    c = build_scalar("scalar-C", a_nominal=1.0, x0=1.0, b_value=-1.5)
    assert isinstance(c.gains.nussbaum, NussbaumSpec)
    assert c.gains.nussbaum.kind == "cos-exp-square"
    assert c.xi0 == 0.0
    b = build_scalar("scalar-B", a_nominal=1.0, x0=1.0, a_deviation=0.4)
    assert b.gains.delta_a == 0.4


def test_registry_builds_every_name():
    for name in scenario_names():
        scn = build_named(name)
        scn.validate()


def _wing_rock_signals_per_call():
    """The wing-rock signals written out from the table, as reference values."""
    tbl = WING_ROCK_TABLE
    th_nom, frac, rate = tbl["theta_nominal"], tbl["theta_wobble_fraction"], tbl["wobble_rate"]

    def theta_signal(t):
        w = 1.0 + frac * scenarios.square_sign(t, rate)
        return (th_nom[0] * w, th_nom[1] * w)

    def b_signal(t):
        return tbl["b_nominal"] + tbl["b_wobble_amplitude"] * scenarios.square_sign(t, rate) * math.cos(t)

    return theta_signal, b_signal


def test_shared_epoch_signals_stay_pure_across_threads():
    model = wing_rock_model()
    theta_signal, b_signal = _wing_rock_signals_per_call()
    rate = WING_ROCK_TABLE["wobble_rate"]
    times = np.random.default_rng(0).uniform(0.0, 4.0, 200)
    times = np.concatenate([times, np.arange(1, 5) * math.pi / rate])  # jump instants
    expected = {t: (theta_signal(t), b_signal(t)) for t in times.tolist()}
    bad = []

    def worker(order):
        for t in order:
            if (model.theta_signal(t), model.b_signal(t)) != expected[t]:
                bad.append(t)

    rng = np.random.default_rng(1)
    threads = [threading.Thread(target=worker, args=(rng.choice(times, 20000).tolist(),))
               for _ in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the two signals' reads
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not bad
