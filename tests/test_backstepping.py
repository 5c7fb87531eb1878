import math

import numpy as np
import pytest

from expstab import (
    GainConfig,
    NussbaumSpec,
    ScalarGains,
    ScalarState,
    SystemModel,
    control_theorem1,
    control_theorem2,
    factorize_line_integral,
    propagate_sensitivities,
)
from expstab.backstepping import (
    BacksteppingEngine,
    FactorizationError,
    damping_gain,
    terminal_gain,
)
from expstab.scalar import scalar_C_law
from expstab.scenarios import build_synthetic


# -- sensitivity propagation ------------------------------------------------


def test_propagate_polynomial():
    assert propagate_sensitivities(lambda x: x**2, [3.0]) == (9.0, (6.0,))


def test_propagate_constant():
    val, grads = propagate_sensitivities(lambda x, y: 4.2, [1.0, 2.0])
    assert val == 4.2 and grads == (0.0, 0.0)


def test_propagate_rejects_non_finite_point():
    with pytest.raises(ValueError):
        propagate_sensitivities(lambda x: x, [math.nan])


def test_wing_rock_first_virtual_law_gradient_vs_fd(wr_engine):
    # alpha_1 at x1 = -1, estimates zero; the damping gain is constant for
    # this plant so d alpha_1/d x1 = -(k1 + zeta_1)
    val, g = wr_engine.virtual_law_gradient(1, [-1.0], [0.0, 0.0], 1.0)
    assert abs(val - 2.7) < 1e-14
    assert abs(g.x[0] - (-2.7)) < 1e-12
    h = 1e-6
    fd = (
        wr_engine.virtual_law(1, [-1.0 + h], [0.0, 0.0], 1.0)
        - wr_engine.virtual_law(1, [-1.0 - h], [0.0, 0.0], 1.0)
    ) / (2 * h)
    assert abs(g.x[0] - fd) <= 1e-6 * max(1.0, abs(g.x[0]))
    assert g.th == (0.0, 0.0) and g.mu == 0.0


# -- line-integral factorization ---------------------------------------------


def test_factorize_linear_recovers_matrix_exactly():
    A = np.array([[1.5, -2.0, 0.25], [0.0, 3.0, 1.0]])  # g: R^3 -> R^2

    def g(z1, z2, z3):
        z = (z1, z2, z3)
        return tuple(
            sum(A[c][l] * z[l] for l in range(3) if A[c][l] != 0.0) for c in range(2)
        )

    res = factorize_line_integral(g, [0.7, -1.2, 2.0])
    assert np.allclose(res.G.T, A, atol=1e-14)
    assert res.residual < 1e-14


def test_factorize_square_closed_form():
    res = factorize_line_integral(lambda z: (z * z,), [2.0])
    assert abs(res.G[0, 0] - 2.0) < 1e-13  # integral of 2 sigma z over [0,1] = z
    assert res.residual < 1e-13


def test_factorize_rejects_nonvanishing_g():
    with pytest.raises(FactorizationError):
        factorize_line_integral(lambda z: (z + 1.0,), [1.0])


def test_engine_matches_standalone_factorization(wr_engine):
    # the engine's fused in-ray factor must agree with the public routine
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = tuple(rng.uniform(-2, 2, size=2))
        th = tuple(rng.uniform(-1, 1, size=2))
        ev = wr_engine.evaluate(0.0, x, th, mu=1.0)
        z = ev.z

        def w2(z1, z2):
            # same map the engine factorizes: x1 = z1, x2 = z2 + alpha_1
            # (the layer walk works in any dual algebra)
            a1 = wr_engine._chain("x", 1, [z1], th, 1.0, want_alpha_m=True).alphas[0]
            return (z1, z2 + a1)

        res = factorize_line_integral(w2, z)
        assert np.allclose(np.asarray(ev.W[1]), res.G, atol=1e-12)
        assert max(ev.resid_w) <= 1e-8 and ev.resid_psi <= 1e-8


# -- regressor residual vectors ---------------------------------------------


def test_w1_is_phi1(syn_engine):
    ev = syn_engine.evaluate(0.0, (0.5, -0.3, 0.2), (0.1, -0.2))
    assert ev.w[0] == ev.phi[0] == (0.25, 0.0)


def test_wing_rock_w2_equals_phi2(wr_engine):
    # phi_1 = 0 empties the correction sum
    ev = wr_engine.evaluate(0.3, (-1.0, 2.5), (0.05, -0.1))
    assert ev.w[1] == ev.phi[1]
    assert ev.phi[1] == (-1.0, 2.5)


def test_w_vanishes_at_origin(wr_engine, syn_engine):
    for eng in (wr_engine, syn_engine):
        ev = eng.evaluate(0.0, np.zeros(eng.n), np.zeros(eng.q), mu=1.0)
        for w_i in ev.w:
            assert all(c == 0.0 for c in w_i)


# -- gain formulas -----------------------------------------------------------


def test_damping_gain_benchmark_value(wr_config):
    # n = 2, i = 1, delta = 0.6, eps = 1, |W1|^2 = 0:
    # 0.6 + (2*0.6 + 1 + 0)/2 = 1.7
    assert damping_gain(1, 2, wr_config, 0.0) == pytest.approx(1.7, abs=1e-15)


def test_damping_gain_zero_radius_reduction():
    cfg = GainConfig(k=(1.0,), lam=0.25, delta_theta=0.0, eps_psi=2.0,
                     Gamma=np.eye(1))
    for w2 in (0.0, 5.0, 123.4):
        assert damping_gain(1, 1, cfg, w2) == 0.25 + 0.5 / 2.0


def test_damping_gain_depends_on_frobenius_only():
    cfg = GainConfig(k=(1.0, 1.0), lam=0.1, delta_theta=0.3, eps_psi=1.0,
                     Gamma=np.eye(2))
    M = np.array([[1.0, -2.0], [0.5, 3.0]])
    fro = float(np.sum(M * M))
    fro_flipped = float(np.sum((-M) * (-M)))
    assert damping_gain(2, 2, cfg, fro) == damping_gain(2, 2, cfg, fro_flipped)


def test_terminal_gain_hand_value():
    cfg = GainConfig(k=(1.0,), lam=0.0, delta_theta=0.0, eps_psi=1.0,
                     Gamma=np.eye(1))
    assert terminal_gain(1, cfg, 0.0, 0.0) == 1.5


def test_terminal_gain_lower_bound():
    rng = np.random.default_rng(4)
    cfg = GainConfig(k=(1.0, 2.0), lam=0.7, delta_theta=0.4, eps_psi=0.8,
                     Gamma=np.eye(2))
    for _ in range(50):
        kap = terminal_gain(2, cfg, float(rng.uniform(0, 50)),
                            float(rng.uniform(0, 50)))
        assert kap >= cfg.k[-1] + cfg.lam


def test_wing_rock_terminal_gain_at_origin(wr_engine):
    # with zero estimates the benchmark cascade is linear, so the factors
    # at the origin match the hand computation at any state
    ev = wr_engine.evaluate(0.0, (0.0, 0.0), (0.0, 0.0))
    assert abs(np.asarray(ev.W[1])[0, 0] - 1.0) < 1e-12
    assert abs(np.asarray(ev.W[1])[0, 1] - (-2.7)) < 1e-12
    expected = 1.0 + 0.6 + 0.5 * (0.6 * (9.29 + 1.0) + 1.0 + (6.29**2 + 2.7**2))
    assert abs(ev.kappa - expected) < 1e-10


# -- the coupling scalar ------------------------------------------------------


def test_psi_zero_at_origin_with_finite_factor(wr_engine):
    ev = wr_engine.evaluate(0.0, (0.0, 0.0), (0.0, 0.0))
    assert ev.psi == 0.0
    assert all(math.isfinite(c) for c in ev.psi_bar)
    assert abs(ev.psi_bar[0] - (-6.29)) < 1e-12
    assert abs(ev.psi_bar[1] - 2.7) < 1e-12


def test_wing_rock_psi_term_by_term(wr_engine):
    # for this plant: psi = z1 + w2.theta_hat - (d alpha1/d x1) x2, the
    # estimator and scaling partials of alpha_1 being identically zero
    rng = np.random.default_rng(6)
    for _ in range(50):
        t = float(rng.uniform(0, 3))
        x = tuple(rng.uniform(-2, 2, size=2))
        th = tuple(rng.uniform(-1, 1, size=2))
        ev = wr_engine.evaluate(t, x, th)
        _, g = wr_engine.virtual_law_gradient(1, x[:1], th, ev.mu)
        expected = ev.z[0] + (x[0] * th[0] + x[1] * th[1]) - g.x[0] * x[1]
        assert abs(ev.psi - expected) <= 1e-10 * max(1.0, abs(expected))


def test_psi_reduction_for_zero_regressors():
    # with all phi = 0: w_n = 0, tau_n = 0, and psi collapses to
    # z_{n-1} - (d alpha_{n-1}/d x_1) x_2 (the damping gain is constant)
    model = SystemModel(
        n=2, q=1,
        regressors=[lambda x1: (0.0,), lambda x1, x2: (0.0,)],
        theta_signal=lambda t: (0.0,),
        b_signal=lambda t: 1.0,
    )
    cfg = GainConfig(k=(1.0, 1.0), lam=0.5, delta_theta=0.3, eps_psi=1.0,
                     Gamma=np.eye(1))
    eng = BacksteppingEngine(model, cfg)
    ev = eng.evaluate(0.2, (1.1, -0.7), (0.4,))
    zeta1 = damping_gain(1, 2, cfg, 0.0)
    expected = ev.z[0] + (cfg.k[0] + zeta1) * (-0.7)
    assert abs(ev.psi - expected) < 1e-12


# -- virtual laws -------------------------------------------------------------


def test_alpha1_zero_at_origin(wr_engine, syn_engine):
    for eng in (wr_engine, syn_engine):
        assert eng.virtual_law(1, [0.0], np.zeros(eng.q), 1.0) == 0.0


def test_wing_rock_alpha1_closed_form(wr_engine):
    rng = np.random.default_rng(9)
    for _ in range(30):
        x1 = float(rng.uniform(-3, 3))
        th = tuple(rng.uniform(-1, 1, size=2))
        # w1 = 0 drops the estimate term; zeta_1 = 1.7 is state-independent
        assert wr_engine.virtual_law(1, [x1], th, 1.0) == pytest.approx(
            -2.7 * x1, abs=1e-13
        )


def _oracle_synthetic_alpha2(x1, x2, th, mu, cfg):
    """Independent reimplementation of the layer-2 law for the synthetic
    plant (Gamma = I): analytic partials, dense-Simpson line integral."""
    lam, delta, eps = cfg.lam, cfg.delta_theta, cfg.eps_psi
    k1, k2 = cfg.k[0], cfg.k[1]
    th1, th2 = th

    z1 = x1
    zeta1 = lam + 0.5 * (3.0 * delta + 1.0 / eps + delta * z1 * z1)
    alpha1 = -(k1 + zeta1) * z1 - th1 * x1 * x1
    z2 = x2 - alpha1
    s1, s2 = mu * z1, mu * z2
    A = -(k1 + zeta1) - delta * z1 * z1 - 2.0 * th1 * z1  # d alpha1/d x1
    w2 = (x1 * x2 - A * x1 * x1, x2 * x2)
    tau2 = (mu * s1 * x1 * x1 + mu * s2 * w2[0], mu * s2 * w2[1])

    # W2^T = integral of the Jacobian of w2 along sigma * (z1, z2)
    sig = np.linspace(0.0, 1.0, 4097)
    sz1, sz2 = sig * z1, sig * z2
    zeta1_s = lam + 0.5 * (3.0 * delta + 1.0 / eps + delta * sz1 * sz1)
    alpha1_s = -(k1 + zeta1_s) * sz1 - th1 * sz1 * sz1
    x1_s = sz1
    x2_s = sz2 + alpha1_s
    A_s = -(k1 + zeta1_s) - delta * sz1 * sz1 - 2.0 * th1 * sz1
    Ap_s = -3.0 * delta * sz1 - 2.0 * th1
    J11 = x2_s + x1_s * A_s - Ap_s * x1_s * x1_s - 2.0 * A_s * x1_s
    J12 = x1_s
    J21 = 2.0 * x2_s * A_s
    J22 = 2.0 * x2_s

    def simpson(y):
        h = sig[1] - sig[0]
        return h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-2:2]))

    W_frob_sq = 0.0
    for J in (J11, J12, J21, J22):
        W_frob_sq += simpson(J) ** 2

    zeta2 = lam + 0.5 * (2.0 * delta + 1.0 / eps + delta * W_frob_sq)
    alpha2 = (
        -(k2 + zeta2) * z2
        - z1
        - (w2[0] * th1 + w2[1] * th2)
        + (-(x1 * x1) * tau2[0] + 0.0 * tau2[1])  # (d alpha1/d th) Gamma tau2
        + A * x2
        # d alpha1/d mu = 0 for this plant
    )
    return alpha2


def test_synthetic_alpha2_against_independent_oracle(syn_engine):
    rng = np.random.default_rng(12)
    cfg = syn_engine.cfg
    for _ in range(100):
        x1, x2 = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        th = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=2))
        mu = float(rng.uniform(0.5, 2.0))
        got = syn_engine.virtual_law(2, [x1, x2], th, mu)
        want = _oracle_synthetic_alpha2(x1, x2, th, mu, cfg)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (x1, x2, th, mu)


def test_virtual_law_layer_bounds(wr_engine):
    with pytest.raises(ValueError):
        wr_engine.virtual_law(2, [1.0, 2.0], [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        wr_engine.virtual_law(0, [], [0.0, 0.0], 1.0)


# -- sensitivities vs finite differences (both plants) -----------------------


@pytest.mark.parametrize("which,layer", [("wr", 1), ("syn", 1), ("syn", 2)])
def test_propagated_partials_match_central_differences(which, layer, wr_engine,
                                                       syn_engine):
    engine = wr_engine if which == "wr" else syn_engine
    rng = np.random.default_rng(layer + 40)
    n, q = engine.n, engine.q
    for _ in range(20):
        x = [float(v) for v in rng.uniform(-1.5, 1.5, size=layer)]
        th = [float(v) for v in rng.uniform(-1.0, 1.0, size=q)]
        mu = float(rng.uniform(0.5, 2.5))
        _, g = engine.virtual_law_gradient(layer, x, th, mu)
        ad = list(g.x) + list(g.th) + [g.mu]
        args0 = x + th + [mu]
        for j in range(len(args0)):
            h = 1e-6 * max(1.0, abs(args0[j]))
            up, dn = list(args0), list(args0)
            up[j] += h
            dn[j] -= h
            fd_up = engine.virtual_law(layer, up[:layer], up[layer:layer + q],
                                       up[layer + q])
            fd_dn = engine.virtual_law(layer, dn[:layer], dn[layer:layer + q],
                                       dn[layer + q])
            fd = (fd_up - fd_dn) / (2.0 * h)
            assert abs(ad[j] - fd) <= 1e-5 * max(1.0, abs(ad[j]))


# -- input laws ---------------------------------------------------------------


def test_theorem1_zero_state(wr_engine, wr_config):
    ev = wr_engine.evaluate(0.0, (0.0, 0.0), (0.0, 0.0))
    u, rho_dot, th_dot = control_theorem1(ev, -0.3, wr_config)
    assert u == 0.0 and rho_dot == 0.0 and th_dot == (0.0, 0.0)


@pytest.mark.parametrize("sign_b,expect", [(-1, -1.0), (1, 1.0)])
def test_theorem1_gain_estimate_rate_sign(sign_b, expect, wr_model):
    cfg = GainConfig(k=(1.0, 1.0), lam=0.6, delta_theta=0.6, eps_psi=1.0,
                     Gamma=0.001 * np.eye(2), gamma_rho=1.0, sign_b=sign_b)
    eng = BacksteppingEngine(wr_model, cfg)
    rng = np.random.default_rng(14)
    for _ in range(50):
        ev = eng.evaluate(float(rng.uniform(0, 2)),
                          tuple(rng.uniform(-2, 2, size=2)),
                          tuple(rng.uniform(-1, 1, size=2)))
        _, rho_dot, _ = control_theorem1(ev, expect * 0.5, cfg)
        assert expect * rho_dot >= 0.0
        # both algebraic forms of the rate agree
        alt = cfg.gamma_rho * cfg.sign_b * ev.kappa * ev.s[-1] * ev.s[-1]
        assert abs(rho_dot - alt) <= 1e-12 * max(1.0, abs(alt))


def test_theorem2_zero_state_and_rates(wr_model):
    cfg = GainConfig(k=(1.0, 1.0), lam=0.6, delta_theta=0.6, eps_psi=1.0,
                     Gamma=0.001 * np.eye(2), nussbaum=NussbaumSpec())
    eng = BacksteppingEngine(wr_model, cfg)
    ev = eng.evaluate(0.0, (0.0, 0.0), (0.0, 0.0))
    u, xi_dot, _ = control_theorem2(ev, 0.0, cfg)
    assert u == 0.0 and xi_dot == 0.0

    rng = np.random.default_rng(15)
    for _ in range(50):
        ev = eng.evaluate(float(rng.uniform(0, 2)),
                          tuple(rng.uniform(-2, 2, size=2)),
                          tuple(rng.uniform(-1, 1, size=2)))
        u, xi_dot, _ = control_theorem2(ev, 0.0, cfg)
        assert xi_dot >= 0.0
        assert u == 0.0  # N(0) = 0 for the sine kind kills the input


def test_theorem2_guards(wr_model):
    cfg = GainConfig(k=(1.0, 1.0), lam=0.6, delta_theta=0.6, eps_psi=1.0,
                     Gamma=0.001 * np.eye(2), nussbaum=NussbaumSpec(xi_max=1.0))
    eng = BacksteppingEngine(wr_model, cfg)
    ev = eng.evaluate(0.0, (-1.0, 2.5), (0.0, 0.0))
    from expstab.nussbaum import NussbaumOverflowError

    with pytest.raises(NussbaumOverflowError):
        control_theorem2(ev, 1.5, cfg)
    with pytest.raises(ValueError):
        control_theorem2(ev, -0.1, cfg)
    cfg_no = GainConfig(k=(1.0, 1.0), lam=0.6, delta_theta=0.6, eps_psi=1.0,
                        Gamma=0.001 * np.eye(2))
    with pytest.raises(ValueError):
        control_theorem2(ev, 0.5, cfg_no)


# -- reduction: scaling layer removed vs lam = 0 -------------------------------


def test_lambda_zero_matches_unscaled_path(wr_model):
    kwargs = dict(k=(1.0, 1.0), lam=0.0, delta_theta=0.6, eps_psi=1.0,
                  Gamma=0.001 * np.eye(2), gamma_rho=1.0, sign_b=-1)
    eng_scaled = BacksteppingEngine(wr_model, GainConfig(scaled=True, **kwargs))
    eng_plain = BacksteppingEngine(wr_model, GainConfig(scaled=False, **kwargs))
    rng = np.random.default_rng(16)
    for _ in range(30):
        t = float(rng.uniform(0, 10))
        x = tuple(rng.uniform(-2, 2, size=2))
        th = tuple(rng.uniform(-1, 1, size=2))
        ev_s = eng_scaled.evaluate(t, x, th)
        ev_p = eng_plain.evaluate(t, x, th)
        assert ev_s.mu == 1.0 and ev_p.mu == 1.0
        u_s = control_theorem1(ev_s, -0.4, eng_scaled.cfg)[0]
        u_p = control_theorem1(ev_p, -0.4, eng_plain.cfg)[0]
        assert abs(u_s - u_p) <= 1e-12 * max(1.0, abs(u_s))
        assert abs(ev_s.kappa - ev_p.kappa) <= 1e-12 * max(1.0, ev_s.kappa)


def test_unscaled_path_requires_zero_rate():
    with pytest.raises(ValueError):
        GainConfig(k=(1.0,), lam=0.5, Gamma=np.eye(1), scaled=False)


# -- first-order degeneracy matches the scalar design -------------------------


def test_order_one_engine_reduces_to_scalar_design_C():
    spec = NussbaumSpec(kind="sin-exp-square")
    model = SystemModel(
        n=1, q=1,
        regressors=[lambda x: (x * x,)],
        theta_signal=lambda t: (1.0,),
        b_signal=lambda t: -1.5,
    )
    k, lam, gamma_a, delta = 1.0, 0.6, 0.8, 0.5
    cfg = GainConfig(k=(k,), lam=lam, delta_theta=delta, eps_psi=1.0,
                     Gamma=np.asarray([[gamma_a]]), nussbaum=spec)
    eng = BacksteppingEngine(model, cfg)
    gains = ScalarGains(k=k, lam=lam, gamma_a=gamma_a, delta_a=delta,
                        nussbaum=spec)
    rng = np.random.default_rng(21)
    for _ in range(50):
        t = float(rng.uniform(0, 2))
        x = float(rng.uniform(-2, 2))
        a_hat = float(rng.uniform(-1, 1))
        xi = float(rng.uniform(0, 1.5))
        ev = eng.evaluate(t, (x,), (a_hat,))
        u_e, xi_dot_e, th_dot_e = control_theorem2(ev, xi, cfg)
        st = ScalarState.at(x=x, a_hat=a_hat, t=t, lam=lam, xi=xi)
        u_s, a_dot_s, xi_dot_s = scalar_C_law(st, gains)
        assert abs(u_e - u_s) <= 1e-12 * max(1.0, abs(u_s))
        assert abs(xi_dot_e - xi_dot_s) <= 1e-12 * max(1.0, abs(xi_dot_s))
        assert abs(th_dot_e[0] - a_dot_s) <= 1e-12 * max(1.0, abs(a_dot_s))


# -- trajectory-level invariants (short benchmark run) ------------------------


def test_short_run_energy_descent_and_sign_preservation(wr_short_t1):
    from expstab.analysis import energy_descent_ok

    ok, worst = energy_descent_ok(wr_short_t1, scale=1e-6)
    assert ok, f"energy increased by {worst}"
    assert np.max(wr_short_t1.aux[:, 0]) <= -0.3
    assert wr_short_t1.monitors["max_residual"] <= 1e-8


def test_tuning_functions_accumulate_recorded_ingredients(syn_engine):
    rng = np.random.default_rng(24)
    for _ in range(10):
        ev = syn_engine.evaluate(
            float(rng.uniform(0, 2)),
            tuple(rng.uniform(-1, 1, size=3)),
            tuple(rng.uniform(-1, 1, size=2)),
        )
        acc = np.zeros(2)
        for j in range(3):
            acc = acc + ev.mu * np.asarray(ev.w[j]) * ev.s[j]
            assert np.allclose(np.asarray(ev.tau[j]), acc, rtol=1e-12, atol=1e-14)


def test_config_validation():
    with pytest.raises(ValueError):
        GainConfig(k=(0.0,), lam=0.0, Gamma=np.eye(1))
    with pytest.raises(ValueError):
        GainConfig(k=(1.0,), lam=-0.1, Gamma=np.eye(1))
    with pytest.raises(ValueError):
        GainConfig(k=(1.0,), lam=0.0, eps_psi=0.0, Gamma=np.eye(1))
    with pytest.raises(ValueError):
        GainConfig(k=(1.0,), lam=0.0, Gamma=np.asarray([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GainConfig(k=(1.0,), lam=0.0, Gamma=-np.eye(1))
    with pytest.raises(ValueError):
        BacksteppingEngine(
            SystemModel(n=2, q=1, regressors=[lambda a: (0.0,), lambda a, b: (a,)],
                        theta_signal=lambda t: (0.0,), b_signal=lambda t: 1.0),
            GainConfig(k=(1.0,), lam=0.0, Gamma=np.eye(1)),
        )


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_config_rejects_a_residual_tolerance_not_positive_and_finite(tol):
    # -1 would end every run at its first state, NaN would switch the gate off
    with pytest.raises(ValueError, match="resid_tol must be positive and finite"):
        GainConfig(k=(1.0,), lam=0.0, resid_tol=tol)
    assert GainConfig(k=(1.0,), lam=0.0, resid_tol=1e-30).resid_tol == 1e-30
