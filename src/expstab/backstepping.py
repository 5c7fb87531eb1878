"""General-order adaptive backstepping with exponential state scaling.

One engine evaluation takes the snapshot (t, x, theta_hat) of an order-n
strict-feedback plant and produces the complete layer cascade:

* coordinate errors ``z_i`` and scaled errors ``s_i = mu z_i`` with
  ``mu = exp(lambda t)``;
* regressor residual vectors ``w_i = phi_i - sum_l (d alpha_{i-1}/d x_l) phi_l``
  and their cumulative tuning functions ``tau_i = tau_{i-1} + mu w_i s_i``;
* constructive factorizations ``w_i = W_i^T zbar_i`` realized as the line
  integral ``W_i^T = integral_0^1 J_{w_i}(sigma zbar) d sigma`` with fixed
  Gauss-Legendre quadrature, holding (theta_hat, mu) frozen; sigma = 1
  rides along as an extra zero-weight node so the base values and the
  factorization residual come out of the same pass;
* layer damping gains, virtual laws ``alpha_i``, the terminal coupling
  scalar ``psi`` with its factor ``psi_bar``, and the terminal gain
  ``kappa``;
* the estimator rate ``Gamma tau_n`` plus the variant-specific input law
  (inverse-gain estimate feedback for a known control direction, or a
  Nussbaum dynamic gain for an unknown one).

Every partial derivative of a virtual law is obtained by forward
sensitivity propagation through the same recursion that produces its
value (:mod:`expstab.duals`), never by symbolic differentiation and never
by finite differences.  The recursion is written to run in any dual
algebra; that one property is what lets the factorization rays, the
nested sensitivities they need, and the quadrature batching share a
single code path.

The recursion is the one definition of the law, and it is what the
simulator runs, but not through dual objects on every call.  An engine
records the whole cascade once, on its first evaluation, by pushing
traced leaves (:class:`expstab.duals.Traced`) for x, theta_hat and mu
through it; every later evaluation replays the recorded straight-line
float and array program.  Control flow in the recursion depends only on
types and shapes (dual numbers and traced leaves support no comparisons),
so the recording is valid at every state.  The recursion writes every
term of the laws, and tests none for zero: terms that are structurally
absent (a regressor component that is a literal ``0.0``, an off-diagonal
adaptation gain, a dead sensitivity direction) fold away in
:mod:`expstab.duals`, in the dual algebra and on the tape alike, and
cost neither arithmetic nor recorded operations.  A traced leaf is never
a literal zero, so no fold depends on the state.  The replay computes
each quantity the nested derivative contexts re-derive only once, keeps
only the operations an output depends on, and builds no dual at all.
For a closed-loop run the recording goes on to run the input law
(:func:`control_theorem1` or :func:`control_theorem2`, unchanged), the
estimator rates and the plant's right-hand side on the traced cascade,
with the parameter signals as further inputs, and compiles only the
closed loop's outputs; one replay of
:meth:`BacksteppingEngine.closed_loop_program` is then a whole stage,
diagnostics included.  Each recording compiles exactly one program.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .duals import (
    Dual,
    Tape,
    Traced,
    _is_zero,
    _unit_cache,
    fresh_tag,
    last_node,
    lift,
    partials_of,
    seed,
    strip_tag,
    to_float,
    value_and_gradient,
    value_of,
)
from .model import SystemModel, plant_rates
from .nussbaum import NussbaumSpec, nussbaum_value

__all__ = [
    "GainConfig",
    "EngineEval",
    "GradParts",
    "BacksteppingEngine",
    "FactorizationError",
    "FactorizationResult",
    "propagate_sensitivities",
    "factorize_line_integral",
    "damping_gain",
    "terminal_gain",
    "control_theorem1",
    "control_theorem2",
]


class FactorizationError(RuntimeError):
    """The mean-value factorization does not apply (g(0) != 0)."""


def _is_array(v) -> bool:
    return type(v) is np.ndarray or (type(v) is Traced and v.is_array())


def _plain(v) -> float:
    while type(v) is Dual:
        v = v.val
    if _is_array(v):
        return lift(last_node, v)  # the appended sigma = 1 node
    return to_float(v)


def _weighted_sum(weights, obj):
    # integral over sigma: weighted sum along the leading node axis
    if obj.ndim == 1:
        return float(weights @ obj)
    if obj.ndim == 2:
        return weights @ obj
    flat = weights @ obj.reshape(obj.shape[0], -1)
    return flat.reshape(obj.shape[1:])


def _gauss_legendre_01(nodes: int):
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    return 0.5 * (xs + 1.0), 0.5 * ws


@dataclass(frozen=True, eq=False)
class GainConfig:
    """Gains and numeric options for the layer recursion.

    ``k`` holds one positive feedback gain per layer; ``lam`` is the decay
    rate assigned to the closed loop; ``delta_theta`` the known radius of
    the parameter deviation; ``eps_psi`` the Young-inequality weight inside
    the terminal gain; ``Gamma`` the symmetric positive definite adaptation
    gain.  ``gamma_rho``/``sign_b`` configure the known-direction input
    law, ``nussbaum`` the unknown-direction one.  ``scaled=False`` removes
    the scaling layer structurally (legal only with lam = 0); it exists so
    the reduction to the plain asymptotic design can be checked against a
    genuinely different code path.
    """

    k: tuple
    lam: float
    delta_theta: float = 0.0
    eps_psi: float = 1.0
    Gamma: Optional[np.ndarray] = None
    gamma_rho: float = 1.0
    sign_b: int = -1
    nussbaum: Optional[NussbaumSpec] = None
    quad_nodes: int = 8
    resid_tol: float = 1e-8
    scaled: bool = True

    def __post_init__(self):
        # chained comparisons are false for NaN, so NaN fails every check
        if len(self.k) < 1 or any(not 0.0 < kk < math.inf for kk in self.k):
            raise ValueError(f"all layer gains must be positive and finite, got k={self.k}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if not 0.0 <= self.delta_theta < math.inf:
            raise ValueError(
                f"delta_theta must be finite and nonnegative, got {self.delta_theta}"
            )
        if not 0.0 < self.eps_psi < math.inf:
            raise ValueError(f"eps_psi must be positive and finite, got {self.eps_psi}")
        if self.sign_b not in (-1, 1):
            raise ValueError("sign_b must be -1 or +1")
        if not 0.0 < self.gamma_rho < math.inf:
            raise ValueError(
                f"gamma_rho must be positive and finite, got {self.gamma_rho}"
            )
        if self.quad_nodes < 1:
            raise ValueError("quad_nodes must be >= 1")
        if not 0.0 < self.resid_tol < math.inf:
            raise ValueError(f"resid_tol must be positive and finite, got {self.resid_tol}")
        if not self.scaled and self.lam != 0.0:
            raise ValueError("the unscaled code path requires lam = 0")
        if self.Gamma is not None:
            G = np.asarray(self.Gamma, dtype=float)
            if G.ndim != 2 or G.shape[0] != G.shape[1] or not np.allclose(G, G.T, atol=1e-12):
                raise ValueError("Gamma must be square and symmetric")
            if np.any(np.linalg.eigvalsh(G) <= 0.0):
                raise ValueError("Gamma must be positive definite")


class GradParts(NamedTuple):
    """Partials of one virtual law w.r.t. (xbar, theta_hat, mu)."""

    x: tuple
    th: tuple
    mu: object


class _Cascade:
    """Layer products of one chain walk, with memoized tuning functions.

    ``tau(j)`` is the cumulative tuning function of layers 1..j, formed
    when an expression first consumes it; ``ms[j-1]`` = mu^2 z_j, the
    factor it scales w_j by, is kept from that pass for the coupling
    terms.  Literal zeros (absent regressor components, dead sensitivity
    directions) fold in :mod:`expstab.duals`, so the terms they make
    absent cost no arithmetic here.
    """

    __slots__ = ("xs", "zs", "phis", "ws", "alphas", "galphas", "zetas",
                 "rays", "ms", "_mu2", "_tau")

    def __init__(self, q, mu2):
        self.xs = []
        self.zs = []
        self.phis = []
        self.ws = []
        self.alphas = []
        self.galphas = []
        self.zetas = []
        self.rays = []
        self.ms = []
        self._mu2 = mu2
        self._tau = [(0.0,) * q]

    def tau(self, j: int) -> tuple:
        taus = self._tau
        while len(taus) <= j:
            layer = len(taus)
            m = self._mu2 * self.zs[layer - 1]
            self.ms.append(m)
            taus.append(tuple([tp + wc * m for tp, wc in zip(taus[-1], self.ws[layer - 1])]))
        return taus[j]


class EngineEval(NamedTuple):
    """Everything one engine pass produces at a state snapshot.

    Per-layer sequences are 0-based (entry ``i-1`` for layer i).  ``W``
    holds the layer matrices as nested tuples, ``W[i-1][l][c]`` being the
    (l, c) element of the i x q matrix of layer i.  Every field is
    filled on every evaluation.
    """

    t: Optional[float]
    x: tuple
    theta_hat: tuple
    mu: object
    z: tuple
    s: tuple
    phi: tuple
    w: tuple
    tau: tuple
    alpha: tuple
    grad_alpha: tuple
    W: tuple
    W_frob_sq: tuple
    zeta: tuple
    psi: object
    psi_bar: tuple
    kappa: object
    resid_w: tuple
    resid_psi: object
    theta_hat_dot: tuple

    def max_residual(self) -> float:
        return max(max(self.resid_w), self.resid_psi)


def damping_gain(i: int, n: int, cfg: GainConfig, w_frob_sq):
    """Layer damping gain: lam + ((n+1-i) delta + 1/eps + delta |W_i|_F^2)/2."""
    return cfg.lam + 0.5 * (
        (n + 1 - i) * cfg.delta_theta
        + 1.0 / cfg.eps_psi
        + cfg.delta_theta * w_frob_sq
    )


def terminal_gain(n: int, cfg: GainConfig, w_frob_sq, psi_bar_sq):
    """Terminal gain: k_n + lam + (delta(|W_n|_F^2+1) + 1/eps + eps |psi_bar|^2)/2."""
    return (
        cfg.k[n - 1]
        + cfg.lam
        + 0.5
        * (
            cfg.delta_theta * (w_frob_sq + 1.0)
            + 1.0 / cfg.eps_psi
            + cfg.eps_psi * psi_bar_sq
        )
    )


# the EngineEval fields a recorded evaluation produces, in program order
_FULL_FIELDS = EngineEval._fields[4:]


class BacksteppingEngine:
    """Per-step evaluator for one plant/config pair.

    The first :meth:`evaluate` records the cascade into a program (under
    a lock); after that every call is a pure function of the snapshot, so
    one engine may serve many concurrent closed-loop runs.
    """

    def __init__(self, model: SystemModel, cfg: GainConfig):
        if len(cfg.k) != model.n:
            raise ValueError(
                f"need {model.n} layer gains for an order-{model.n} plant, got {len(cfg.k)}"
            )
        if cfg.Gamma is None:
            raise ValueError("GainConfig.Gamma is required by the engine")
        G = np.asarray(cfg.Gamma, dtype=float)
        if G.shape != (model.q, model.q):
            raise ValueError(f"Gamma must be {model.q}x{model.q}, got {G.shape}")
        for i, reg in enumerate(model.regressors, start=1):
            # the layer walk zips regressor components against q-vectors,
            # which would silently drop surplus components
            got = len(reg(*([0.0] * i)))
            if got != model.q:
                raise ValueError(
                    f"phi_{i} returns {got} components, the plant has q = {model.q}"
                )
        self.model = model
        self.cfg = cfg
        self.n = model.n
        self.q = model.q
        self._regs = tuple(model.regressors)
        self._gamma_rows = tuple(tuple(float(v) for v in row) for row in G)
        sig, wts = _gauss_legendre_01(cfg.quad_nodes)
        # sigma = 1 rides along as a zero-weight node: it yields the base
        # values and the factorization residual from the same pass.
        self._sigma = np.concatenate([sig, [1.0]])
        self._weights = np.concatenate([wts, [0.0]])
        self._lam = float(cfg.lam)
        self._k = tuple(float(v) for v in cfg.k)
        self._sigma_shapes = {0: self._sigma}
        # law -> its closed loop's program, None -> evaluate's; recorded
        # on first use
        self._programs = {}
        self._record_lock = threading.Lock()

    def _sigma_by_ndim(self, ndim: int) -> np.ndarray:
        got = self._sigma_shapes.get(ndim)
        if got is None:
            got = self._sigma.reshape((self._sigma.shape[0],) + (1,) * ndim)
            self._sigma_shapes[ndim] = got
        return got

    # -- dual-capable helpers ----------------------------------------------

    def _phi(self, j: int, xs: list):
        out = self._regs[j - 1](*xs[:j])
        if isinstance(out, np.ndarray):
            # plain constants: convert so exact zeros collapse downstream
            return tuple(float(v) for v in out)
        return tuple(out)

    @staticmethod
    def _dot(a, b):
        acc = 0.0
        for x, y in zip(a, b):
            acc = acc + x * y
        return acc

    def _gamma_vec(self, v) -> tuple:
        return tuple([self._dot(row, v) for row in self._gamma_rows])

    def _contract(self, obj):
        # integral over sigma of one sensitivity entry; constants along
        # the ray integrate to themselves
        if type(obj) is Dual:
            return Dual(
                obj.tag,
                self._contract(obj.val),
                tuple([self._contract(e) for e in obj.eps]),
            )
        if _is_array(obj):
            return lift(_weighted_sum, self._weights, obj)
        return obj

    # -- the layer recursion ---------------------------------------------

    def _chain(self, mode: str, m: int, vec, th, mu, want_alpha_m: bool) -> _Cascade:
        """Walk layers 1..m in whatever algebra ``vec``/``th``/``mu`` carry.

        ``vec`` holds x components (mode 'x') or z components (mode 'z').
        Virtual laws are produced up to min(m-1, n-1), or m with
        ``want_alpha_m``; their sensitivities up to m-1 (layer j < m feeds
        the j+1 expressions).  ``rays`` keeps the factorization of every
        layer that got a law, for the diagnostics read off at the top.
        """
        n = self.n
        q = self.q
        alpha_upto = min(m if want_alpha_m else m - 1, n - 1)
        cc = _Cascade(q, mu * mu)
        from_x = mode == "x"

        xs = cc.xs
        zs = cc.zs
        phis = cc.phis
        ws = cc.ws

        alpha_prev = 0.0
        galpha_prev: Optional[GradParts] = None

        for j in range(1, m + 1):
            comp = vec[j - 1]
            if from_x:
                x_j = comp
                z_j = comp - alpha_prev
            else:
                z_j = comp
                x_j = comp + alpha_prev
            xs.append(x_j)
            zs.append(z_j)

            phi_j = self._phi(j, xs)
            phis.append(phi_j)

            w_j = phi_j
            for l in range(j - 1):
                gxl = galpha_prev.x[l]
                w_j = tuple([wc - gxl * pc for wc, pc in zip(w_j, phis[l])])
            ws.append(w_j)

            if j <= alpha_upto:
                if j < m:
                    alpha_j, galpha_j, zeta_j, ray = self._alpha_with_grad(j, xs, th, mu)
                    cc.galphas.append(galpha_j)
                    galpha_prev = galpha_j
                else:
                    ray = self._factorize_ray(j, zs, th, mu, want_psi=False)
                    zeta_j = damping_gain(j, n, self.cfg, ray["W_frob_sq"])
                    alpha_j = self._alpha_expr(j, zeta_j, cc, th, mu,
                                               galpha_prev)
                cc.rays.append(ray)
                cc.zetas.append(zeta_j)
                cc.alphas.append(alpha_j)
                alpha_prev = alpha_j

        return cc

    def _alpha_expr(self, j, zeta_j, cc: _Cascade, th, mu, galpha_prev):
        """The virtual law of layer j from already-evaluated ingredients."""
        a = -(self._k[j - 1] + zeta_j) * cc.zs[j - 1] - self._dot(cc.ws[j - 1], th)
        if j >= 2:
            gp = galpha_prev
            a = a - cc.zs[j - 2] + self._dot(gp.th, self._gamma_vec(cc.tau(j)))
            w_j = cc.ws[j - 1]
            for l in range(2, j):  # coupling through the lower estimators
                gl = self._dot(cc.galphas[l - 2].th, self._gamma_vec(w_j))
                a = a + cc.ms[l - 1] * gl
            for l in range(1, j):
                a = a + gp.x[l - 1] * cc.xs[l]
            a = a + gp.mu * (self._lam * mu)
        return a

    def _alpha_with_grad(self, j, xs, th, mu):
        """Value and sensitivities of alpha_j at the current point.

        Re-runs layers 1..j with (xbar_j, theta_hat, mu) seeded, so the
        sensitivities propagate through exactly the recursion that defines
        the value, including the factorizations inside the damping gains.
        The current point may itself carry outer tags.  Also returns the
        damping gain and the factorization ray of layer j.
        """
        q = self.q
        scaled = self.cfg.scaled
        if scaled:
            args = (*xs[:j], *th, mu)
        else:
            args = (*xs[:j], *th)
        tag, seeded = seed(args)
        sx = seeded[:j]
        sth = tuple(seeded[j:j + q])
        smu = seeded[j + q] if scaled else 1.0

        cc = self._chain("x", j, sx, sth, smu, want_alpha_m=True)

        alpha_dual = cc.alphas[j - 1]
        val = strip_tag(alpha_dual, tag)
        eps = partials_of(alpha_dual, tag, len(args))
        gparts = GradParts(
            x=eps[:j],
            th=eps[j:j + q],
            mu=eps[j + q] if scaled else 0.0,
        )
        return val, gparts, strip_tag(cc.zetas[j - 1], tag), cc.rays[j - 1]

    def _factorize_ray(self, m, zs, th, mu, want_psi: bool) -> dict:
        """Line-integral factorization of layer m (plus psi when asked).

        Evaluates the cascade at sigma * zbar_m for every quadrature node
        in one batched pass (theta_hat, mu frozen), reads the Jacobian of
        w_m (and psi) off the seed sensitivities and contracts it with the
        weights.  The appended sigma = 1 node carries the base values.
        """
        q = self.q
        zbar = zs[:m]
        v0 = zbar[0]
        while type(v0) is Dual:
            v0 = v0.val
        sig = self._sigma if type(v0) is float else self._sigma_by_ndim(v0.ndim)
        tag = fresh_tag()
        units = _unit_cache(m)
        # each scaled point sigma*zbar is an independent variable, so the
        # downstream sensitivities are the Jacobian evaluated on the ray
        seeded = [Dual(tag, sig * zbar[l], units[l]) for l in range(m)]
        cc = self._chain("z", m, seeded, th, mu, want_alpha_m=False)
        w_m = cc.ws[m - 1]

        rows = [partials_of(comp, tag, m) for comp in w_m]
        W = tuple(
            tuple(self._contract(rows[c][l]) for c in range(q)) for l in range(m)
        )
        frob = 0.0
        for wrow in W:
            for e in wrow:
                frob = frob + e * e

        ray = {"W": W, "W_frob_sq": frob, "zbar": zbar, "w": w_m}
        if want_psi:
            psi = self._psi_expr(cc, th, mu)
            ray["cc"] = cc
            ray["psi"] = psi
            ray["psi_bar"] = tuple(
                self._contract(e) for e in partials_of(psi, tag, m)
            )
        return ray

    def _ray_diagnostics(self, ray: dict):
        """Plain W, |W|_F^2 and the residual |w - W^T zbar| of one ray."""
        W = tuple(tuple([to_float(value_of(e)) for e in row]) for row in ray["W"])
        zb = tuple(_plain(z) for z in ray["zbar"])
        w_base = tuple(_plain(c) for c in ray["w"])
        resid_sq = 0.0
        for c in range(self.q):
            pred = 0.0
            for l in range(len(zb)):
                pred += W[l][c] * zb[l]
            resid_sq += (w_base[c] - pred) ** 2
        return W, to_float(value_of(ray["W_frob_sq"])), lift(math.sqrt, resid_sq)

    def _psi_expr(self, cc: _Cascade, th, mu):
        """Terminal coupling scalar from an evaluated cascade."""
        n = self.n
        w_n = cc.ws[n - 1]
        p = self._dot(w_n, th)
        if n >= 2:
            p = p + cc.zs[n - 2]
            g = cc.galphas[n - 2]
            for i in range(1, n):
                p = p - g.x[i - 1] * cc.xs[i]
            p = p - self._dot(g.th, cc.tau(n)) - g.mu * (self._lam * mu)
            for i in range(2, n):
                gl = self._dot(cc.galphas[i - 2].th, self._gamma_vec(w_n))
                p = p - cc.ms[i - 1] * gl
        return p


    def _cascade(self, x: tuple, th: tuple, mu) -> tuple:
        """Every :class:`EngineEval` field at a snapshot, in ``_FULL_FIELDS`` order.

        Runs in any algebra; :meth:`evaluate` records it once with traced
        leaves and replays the recording.
        """
        n = self.n
        # layers 1..n-1 at the base point; z_n and w_n join them below, so
        # that top.tau yields the tuning functions of every layer
        top = self._chain("x", n - 1, x[: n - 1], th, mu, want_alpha_m=True)
        alphas = top.alphas
        z = top.zs
        z.append(x[n - 1] - alphas[n - 2] if n >= 2 else x[0])
        s = [mu * zj for zj in z]

        ray = self._factorize_ray(n, z, th, mu, want_psi=True)
        cc = ray["cc"]
        psi_bar = tuple([to_float(value_of(e)) for e in ray["psi_bar"]])
        psi_bar_sq = 0.0
        for e in psi_bar:
            psi_bar_sq += e * e
        w_frob_n = to_float(value_of(ray["W_frob_sq"]))
        kappa = terminal_gain(n, self.cfg, w_frob_n, psi_bar_sq)

        top.ws.append(tuple(_plain(c) for c in ray["w"]))
        taus = tuple([top.tau(j) for j in range(1, n + 1)])
        theta_hat_dot = self._gamma_vec(taus[-1])

        # diagnostics, read off the sigma = 1 node of each layer's ray
        W, W_frob_sq, resid_w = zip(
            *(self._ray_diagnostics(r) for r in top.rays + [ray])
        )
        grad_alpha = [(g.x, g.th, g.mu) for g in top.galphas]
        if n >= 2:
            g = cc.galphas[-1]
            grad_alpha.append((tuple(_plain(e) for e in g.x),
                               tuple(_plain(e) for e in g.th), _plain(g.mu)))
        psi = _plain(ray["psi"])
        pred = 0.0
        for pb, z_l in zip(psi_bar, ray["zbar"]):
            pred += pb * _plain(z_l)
        phi = tuple(top.phis) + (tuple(_plain(c) for c in cc.phis[n - 1]),)

        return (
            tuple(z), tuple(s), phi, tuple(top.ws), taus, tuple(alphas),
            tuple(grad_alpha), W, W_frob_sq, tuple(top.zetas), psi, psi_bar,
            to_float(kappa), resid_w, abs(psi - pred), theta_hat_dot,
        )

    def _closed_loop(self, law, fields: tuple, x, th, aux, mu, theta, b) -> tuple:
        """Outputs of the closed-loop right-hand side.

        ``fields`` is :meth:`_cascade` at the snapshot (x, th, mu); ``aux``
        is the law's own state, ``theta`` and ``b`` the parameter signals.
        The outputs are ``(dy, u, s, kappa, resid_w, resid_psi)``, ``dy``
        being the rates of ``x + theta_hat + (aux,)``.  Runs in any algebra.
        """
        ev = EngineEval(None, x, th, mu, *fields)
        u, aux_dot, th_dot = law(ev, aux, self.cfg)
        dy = plant_rates(ev.phi, x, theta, b, u) + th_dot + (aux_dot,)
        return dy, u, ev.s, ev.kappa, ev.resid_w, ev.resid_psi

    def _record(self, inputs: tuple, law=None):
        """Record the cascade once at ``inputs`` and compile its program.

        Without ``law``, ``inputs`` is ``x + theta_hat + (mu,)`` and the
        result is :meth:`evaluate`'s program, returning every
        ``_FULL_FIELDS`` entry.  With a law it is
        ``x + theta_hat + (aux, mu) + theta + (b,)``: the recording then
        runs the law, the estimator rates and the plant on the traced
        cascade (:meth:`_closed_loop`), and the result is the closed
        loop's program.
        """
        with self._record_lock:
            program = self._programs.get(law)
            if program is not None:
                return program
            n, q = self.n, self.q
            tape = Tape()
            leaves = tuple([tape.input(v) for v in inputs])
            x, th = leaves[:n], leaves[n:n + q]
            if law is None:
                outputs = self._cascade(x, th, leaves[n + q])
            else:
                mu = leaves[n + q + 1]
                outputs = self._closed_loop(
                    law, self._cascade(x, th, mu), x, th, leaves[n + q], mu,
                    leaves[n + q + 2:-1], leaves[-1])
            program = self._programs[law] = tape.compile(outputs)
            return program

    # -- public entry points -----------------------------------------------

    def evaluate(self, t: float, x, theta_hat, mu: Optional[float] = None,
                 diagnostics: bool = True) -> EngineEval:
        """Run the full cascade at a snapshot.

        Every call replays the engine's recording of :meth:`_cascade` and
        fills every field.  ``diagnostics`` is accepted and has no effect.
        """
        n, q = self.n, self.q
        x = tuple([float(v) for v in x])
        th = tuple([float(v) for v in theta_hat])
        if len(x) != n or len(th) != q:
            raise ValueError(f"expected state of length {n} and estimate of length {q}")
        if mu is None:
            mu = math.exp(self._lam * t) if self.cfg.scaled else 1.0
        mu = float(mu)
        inputs = x + th + (mu,)
        program = self._programs.get(None) or self._record(inputs)
        ev = EngineEval(t, x, th, mu, *program(inputs))
        return ev._replace(grad_alpha=tuple(GradParts(*g) for g in ev.grad_alpha))

    def closed_loop_program(self, law, inputs: tuple):
        """The closed loop's program under ``law``.

        ``law`` is :func:`control_theorem1` or :func:`control_theorem2`
        (or a stand-in with their signature).  The program maps
        ``x + theta_hat + (aux, mu) + theta + (b,)`` to ``(dy, u, s,
        kappa, resid_w, resid_psi)``; ``dy`` holds the rates of
        ``x + theta_hat + (aux,)``.  The first call records it at
        ``inputs``.
        """
        return self._record(inputs, law)

    def virtual_law(self, i: int, x, theta_hat, mu: float) -> float:
        """Value of alpha_i at a point (i <= n-1)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"virtual laws exist for layers 1..{self.n - 1}, got {i}")
        xs = [float(v) for v in x][:i]
        th = tuple(float(v) for v in theta_hat)
        cc = self._chain("x", i, xs, th, float(mu), want_alpha_m=True)
        return float(cc.alphas[i - 1])

    def virtual_law_gradient(self, i: int, x, theta_hat, mu: float):
        """alpha_i plus its partials w.r.t. (xbar_i, theta_hat, mu)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"virtual laws exist for layers 1..{self.n - 1}, got {i}")
        xs = [float(v) for v in x][:i]
        th = tuple(float(v) for v in theta_hat)
        val, g, _, _ = self._alpha_with_grad(i, xs, th, float(mu))
        return float(val), GradParts(
            x=tuple(float(v) for v in g.x),
            th=tuple(float(v) for v in g.th),
            mu=float(g.mu),
        )



def control_theorem1(ev: EngineEval, rho_hat: float, cfg: GainConfig):
    """Known-direction input law and estimator rates.

    ubar = -kappa z_n,  u = rho_hat ubar,
    d(rho_hat)/dt = -gamma_rho sign_b mu s_n ubar,
    d(theta_hat)/dt = Gamma tau_n.

    The rho_hat rate is a product whose sign is exact in floating point,
    so sign preservation of rho_hat holds bitwise along fixed-step
    trajectories.
    """
    z_n = ev.z[-1]
    s_n = ev.s[-1]
    ubar = -ev.kappa * z_n
    u = rho_hat * ubar
    rho_hat_dot = -cfg.gamma_rho * cfg.sign_b * ev.mu * s_n * ubar
    return u, rho_hat_dot, ev.theta_hat_dot


def control_theorem2(ev: EngineEval, xi: float, cfg: GainConfig):
    """Unknown-direction input law with a Nussbaum dynamic gain.

    ubar = kappa z_n,  u = N(xi) ubar,  dxi/dt = kappa s_n^2.

    The gain-argument rate is a product of nonnegative factors, so xi is
    non-decreasing along any trajectory with zero tolerance.  Evaluating
    N outside its safe range raises, failing the run loudly.
    """
    if cfg.nussbaum is None:
        raise ValueError("control_theorem2 requires a NussbaumSpec in the config")
    xi = lift(_nonnegative_xi, xi)  # a recorded check when xi is traced
    z_n = ev.z[-1]
    s_n = ev.s[-1]
    ubar = ev.kappa * z_n
    xi_dot = ev.kappa * (s_n * s_n)
    u = lift(nussbaum_value, cfg.nussbaum, xi) * ubar
    return u, xi_dot, ev.theta_hat_dot


def _nonnegative_xi(xi: float) -> float:
    if xi < 0.0:
        raise ValueError(f"the Nussbaum argument must stay >= 0, got {xi}")
    return xi


def propagate_sensitivities(f: Callable, point: Sequence[float]):
    """Value and exact first derivatives of ``f`` at ``point``.

    ``f`` takes ``len(point)`` scalar arguments composed of arithmetic the
    dual algebra supports.  Derivatives come from one forward pass; the
    value equals plain evaluation bit for bit.
    """
    pt = tuple(float(p) for p in point)
    if any(not math.isfinite(p) for p in pt):
        raise ValueError(f"non-finite evaluation point: {pt}")
    val, grads = value_and_gradient(f, pt)
    return val, tuple(float(g) for g in grads)


@dataclass(frozen=True)
class FactorizationResult:
    G: np.ndarray  # i x m with g(zbar) = G^T zbar
    residual: float
    g_value: np.ndarray


def factorize_line_integral(
    g: Callable,
    zbar: Sequence[float],
    nodes: int = 8,
    check_tol: float = 1e-10,
) -> FactorizationResult:
    """Constructive mean-value factorization g(zbar) = G^T zbar.

    ``g`` maps i scalars to a sequence of m components and must vanish at
    the origin (checked; violation raises :class:`FactorizationError`).
    G^T is the line integral of the Jacobian of ``g`` along sigma * zbar,
    sigma in [0, 1], by fixed Gauss-Legendre quadrature, the Jacobian
    coming from forward sensitivity propagation.  The result carries the
    achieved residual ``|g(zbar) - G^T zbar|`` so callers can enforce
    their own tolerance.
    """
    zb = tuple(float(v) for v in zbar)
    i = len(zb)
    g0 = np.asarray(g(*([0.0] * i)), dtype=float)
    if np.linalg.norm(g0) > check_tol:
        raise FactorizationError(
            f"factorization inapplicable: |g(0)| = {np.linalg.norm(g0):.3e} > {check_tol:g}"
        )
    m = g0.shape[0]

    sig_nodes, weights = _gauss_legendre_01(nodes)
    sig = np.concatenate([sig_nodes, [1.0]])
    wts = np.concatenate([weights, [0.0]])
    tag = fresh_tag()
    units = _unit_cache(i)
    seeded = [
        Dual(tag, sig * zb[l], units[l]) for l in range(i)
    ]
    out = g(*seeded)

    G = np.zeros((i, m))
    g_val = np.zeros(m)
    for c in range(m):
        comp = out[c]
        comp_val = value_of(comp)
        g_val[c] = comp_val[-1] if isinstance(comp_val, np.ndarray) else comp_val
        for l, e in enumerate(partials_of(comp, tag, i)):
            if _is_zero(e):
                continue
            if isinstance(e, np.ndarray):
                G[l, c] = float(np.dot(wts, e))
            else:
                G[l, c] = float(e)  # constant along the ray
    residual = float(np.linalg.norm(g_val - G.T @ np.asarray(zb)))
    return FactorizationResult(G=G, residual=residual, g_value=g_val)
