"""Canned experiment definitions.

The centerpiece is the wing-rock study: a single-degree-of-freedom roll
model of a slender-winged aircraft at high angle of attack, written in
strict-feedback form with the wind-tunnel coefficients as nominal
parameter values, a +-2% square-wave wobble on the parameters, and a
control coefficient of unknown (negative) sign.  Alongside it live a
third-order synthetic plant with polynomial regressors that exercises
every term of the general recursion (the estimator cross-coupling sums
are empty below order three), and first-order loops for the scalar
designs.

All constants of the wing-rock study are bound in ``WING_ROCK_TABLE`` so
tests can check the built scenarios against one canonical place.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .backstepping import GainConfig
from .model import ParameterBounds, SystemModel
from .nussbaum import NussbaumSpec
from .scalar import ScalarGains
from .sim import AUX_STATE, Scenario

__all__ = [
    "WING_ROCK_TABLE",
    "square_sign",
    "wing_rock_model",
    "build_wing_rock",
    "build_synthetic",
    "build_scalar",
    "scenario_names",
    "build_named",
]


# every constant of the benchmark study in one place
WING_ROCK_TABLE = {
    "theta_nominal": (-26.6667, 0.67485),
    "theta_wobble_fraction": 0.02,
    "wobble_rate": 3.0,  # sgn(sin(3 t)) schedule
    "b_nominal": -2.0,
    "b_wobble_amplitude": 0.2,
    "delta_theta": 0.6,
    "k": (1.0, 1.0),
    "lam": 0.6,
    "gamma_diag": 0.001,
    "x0": (-1.0, 2.5),
    "theta_hat0": (0.0, 0.0),
    "rho_hat0": -0.3,
    "xi0": 0.0,
    "nussbaum_kind": "sin-exp-square",
    "sign_b": -1,
}


def square_sign(t: float, rate: float) -> float:
    """Right-continuous sgn(sin(rate * t)) via its epoch index.

    Values at jump instants are the right limits.  Arguments within
    1e-12 epochs of a boundary snap to it, which makes the evaluation
    immune to the rounding of breakpoint grids built from multiples of
    pi/rate.
    """
    u = rate * t / math.pi
    r = round(u)
    k = r if abs(u - r) < 1e-12 else math.floor(u)
    return 1.0 if k % 2 == 0 else -1.0


def _square_breakpoints(rate: float):
    period = math.pi / rate

    def breakpoints(horizon: float) -> np.ndarray:
        count = int(math.floor(horizon / period + 1e-12))
        return np.asarray([(k + 1) * period for k in range(count)])

    return breakpoints


# -- wing rock -------------------------------------------------------------


def _wr_phi1(x1):
    return (0.0, 0.0)


def _wr_phi2(x1, x2):
    return (x1, x2)


def wing_rock_model() -> SystemModel:
    """Roll dynamics in strict-feedback form with wobbling parameters."""
    th_nom = WING_ROCK_TABLE["theta_nominal"]
    frac = WING_ROCK_TABLE["theta_wobble_fraction"]
    rate = WING_ROCK_TABLE["wobble_rate"]
    b_nom = WING_ROCK_TABLE["b_nominal"]
    b_amp = WING_ROCK_TABLE["b_wobble_amplitude"]

    def theta_signal(t: float):
        w = 1.0 + frac * square_sign(t, rate)
        return (th_nom[0] * w, th_nom[1] * w)

    def b_signal(t: float) -> float:
        return b_nom + b_amp * square_sign(t, rate) * math.cos(t)

    return SystemModel(
        n=2,
        q=2,
        regressors=[_wr_phi1, _wr_phi2],
        theta_signal=theta_signal,
        b_signal=b_signal,
        breakpoints=_square_breakpoints(rate),
        name="wing-rock",
    )


def _signal_means(model: SystemModel, horizon: float, n_probe: int = 3001):
    """Horizon means of the parameter signals (test-only nominal hints)."""
    ts = np.linspace(0.0, horizon, n_probe)
    th = np.mean([model.theta_signal(float(t)) for t in ts], axis=0)
    b = float(np.mean([model.b_signal(float(t)) for t in ts]))
    return th, b


def build_wing_rock(
    variant: str,
    horizon: float = 15.0,
    step: Optional[float] = None,
    record_every: Optional[int] = None,
) -> Scenario:
    """The benchmark study for one controller variant.

    ``variant`` is ``theorem1`` (known control direction, exponential
    rate), ``theorem2`` (unknown direction, Nussbaum gain) or
    ``baseline-lambda0`` (the same known-direction law with the scaling
    rate set to zero, i.e. the plain asymptotic design it reduces to).

    The factorization quadrature runs on 5 nodes here: the benchmark's
    regressors make every factorized integrand linear along the ray, so
    low-order Gauss-Legendre is already exact, and the per-step residual
    monitor aborts the run if that ever stopped holding.
    """
    if variant not in ("theorem1", "theorem2", "baseline-lambda0"):
        raise ValueError(f"unknown wing-rock variant {variant!r}")
    tbl = WING_ROCK_TABLE
    model = wing_rock_model()
    lam = 0.0 if variant == "baseline-lambda0" else tbl["lam"]
    if step is None:
        step = 1e-4
    if record_every is None:
        record_every = max(1, int(round(step_count_estimate(horizon, step) / 200000)))

    cfg = GainConfig(
        k=tbl["k"],
        lam=lam,
        delta_theta=tbl["delta_theta"],
        eps_psi=1.0,
        Gamma=tbl["gamma_diag"] * np.eye(2),
        sign_b=tbl["sign_b"],
        nussbaum=(
            NussbaumSpec(kind=tbl["nussbaum_kind"]) if variant == "theorem2" else None
        ),
        quad_nodes=5,
    )
    ell_theta, ell_b = _signal_means(model, horizon)
    return Scenario(
        name=f"wing-rock-{variant}",
        model=model,
        controller=variant,
        gains=cfg,
        x0=np.asarray(tbl["x0"]),
        horizon=horizon,
        step=step,
        theta_hat0=np.asarray(tbl["theta_hat0"]),
        aux0=tbl[f"{AUX_STATE[variant]}0"],  # rho_hat0 or xi0
        record_every=record_every,
        bounds=ParameterBounds(
            delta_theta=tbl["delta_theta"],
            ell_theta_hint=ell_theta,
            ell_b_hint=ell_b,
        ),
    )


def step_count_estimate(horizon: float, step: float) -> int:
    return int(math.ceil(horizon / step))


# -- synthetic third-order plant ----------------------------------------


def _syn_phi1(x1):
    return (x1 * x1, 0.0)


def _syn_phi2(x1, x2):
    return (x1 * x2, x2 * x2)


def _syn_phi3(x1, x2, x3):
    return (x3 * x3, x1 * x3)


def build_synthetic(
    variant: str = "theorem1",
    seed: int = 0,
    horizon: float = 6.0,
    step: float = 4e-4,
    record_every: Optional[int] = None,
) -> Scenario:
    """Order-3 stress plant with polynomial regressors, deterministic per seed.

    Exercises the estimator cross-coupling sums of the virtual laws and
    the coupling scalar, which are empty for second-order plants.  The
    parameter wobble stays inside the declared radius and the control
    coefficient keeps a fixed (negative) sign.
    """
    if variant not in ("theorem1", "theorem2"):
        raise ValueError(f"unknown synthetic variant {variant!r}")
    rng = np.random.default_rng(seed)
    th_nom = rng.uniform(-0.4, 0.4, size=2)
    direction = rng.normal(size=2)
    direction /= np.linalg.norm(direction)
    dev = float(rng.uniform(0.05, 0.10))
    delta_theta = 1.05 * dev
    rate = 2.0

    def theta_signal(t: float) -> np.ndarray:
        return th_nom + dev * square_sign(t, rate) * direction

    def b_signal(t: float) -> float:
        return -(1.0 + 0.25 * square_sign(t, rate) * math.sin(t))

    model = SystemModel(
        n=3,
        q=2,
        regressors=[_syn_phi1, _syn_phi2, _syn_phi3],
        theta_signal=theta_signal,
        b_signal=b_signal,
        breakpoints=_square_breakpoints(rate),
        name=f"synthetic-n3-seed{seed}",
    )

    x0 = rng.normal(size=3)
    x0 *= 0.9 / np.linalg.norm(x0)
    lam = 0.3
    # Gamma = I makes the damping of the coupling scalar exact for the
    # verbatim tuning-function term (see the decisions notes)
    cfg = GainConfig(
        k=(1.0, 1.0, 1.0),
        lam=lam,
        delta_theta=delta_theta,
        eps_psi=1.0,
        Gamma=np.eye(2),
        gamma_rho=1.0,
        sign_b=-1,
        nussbaum=NussbaumSpec(kind="sin-exp-square") if variant == "theorem2" else None,
        quad_nodes=8,
    )
    if record_every is None:
        record_every = max(1, int(round(step_count_estimate(horizon, step) / 100000)))
    ell_theta, ell_b = _signal_means(model, horizon)
    return Scenario(
        name=f"synthetic-n3-{variant}-seed{seed}",
        model=model,
        controller=variant,
        gains=cfg,
        x0=x0,
        horizon=horizon,
        step=step,
        theta_hat0=np.zeros(2),
        aux0={"rho_hat": -0.5, "xi": 0.0}[AUX_STATE[variant]],
        record_every=record_every,
        bounds=ParameterBounds(
            delta_theta=delta_theta,
            ell_theta_hint=ell_theta,
            ell_b_hint=ell_b,
        ),
    )


# -- first-order loops --------------------------------------------------


def _scalar_phi(x1):
    return (x1 * x1,)


def build_scalar(
    controller: str,
    a_nominal: float,
    x0: float,
    a_deviation: float = 0.0,
    b_value: float = 1.0,
    k: float = 1.0,
    lam: float = 0.6,
    gamma_a: float = 1.0,
    horizon: float = 20.0,
    step: float = 1e-3,
    nussbaum: Optional[NussbaumSpec] = None,
    name: Optional[str] = None,
    record_every: int = 1,
) -> Scenario:
    """First-order loop dx = b u + a(t) x^2 for one scalar design.

    ``a(t)`` is ``a_nominal`` plus a square-wave deviation of amplitude
    ``a_deviation`` (zero for the constant-parameter design).  ``b_value``
    is 1 for designs A and B; design C takes it with unknown sign and a
    Nussbaum spec.  The default gain is the argument-stretched cosine kind
    cos(0.25 xi) exp((0.25 xi)^2): sign discovery happens at moderate gain
    magnitudes and each sign window lasts four times longer, so hot draws
    settle inside a correct-sign window instead of being swept into a
    destabilizing lobe -- which keeps the loop integrable at a fixed step.
    """
    if controller not in ("scalar-A", "scalar-B", "scalar-C"):
        raise ValueError(f"unknown scalar controller {controller!r}")
    rate = 3.0
    if a_deviation:
        def theta_signal(t: float):
            return (a_nominal + a_deviation * square_sign(t, rate),)
        breakpoints = _square_breakpoints(rate)
    else:
        def theta_signal(t: float):
            return (a_nominal,)
        breakpoints = lambda horizon: np.empty(0)  # noqa: E731

    model = SystemModel(
        n=1,
        q=1,
        regressors=[_scalar_phi],
        theta_signal=theta_signal,
        b_signal=lambda t: b_value,
        breakpoints=breakpoints,
        name="scalar-plant",
    )
    if controller == "scalar-C" and nussbaum is None:
        nussbaum = NussbaumSpec(kind="cos-exp-square", scale=0.25, xi_max=30.0)
    gains = ScalarGains(
        k=k,
        lam=lam,
        gamma_a=gamma_a,
        delta_a=abs(a_deviation),
        nussbaum=nussbaum,
    )
    return Scenario(
        name=name or f"{controller}-loop",
        model=model,
        controller=controller,
        gains=gains,
        x0=np.asarray([x0]),
        horizon=horizon,
        step=step,
        theta_hat0=np.zeros(1),
        aux0=None if AUX_STATE[controller] is None else 0.0,
        record_every=record_every,
    )


# -- registry for the command-line tool ----------------------------------


# each builder looks its build_* function up when it runs, so the module
# attributes stay patchable
_REGISTRY = {
    "wing-rock-theorem1": lambda: build_wing_rock("theorem1"),
    "wing-rock-theorem2": lambda: build_wing_rock("theorem2"),
    "wing-rock-baseline": lambda: build_wing_rock("baseline-lambda0"),
    "synthetic-n3-theorem1": lambda: build_synthetic("theorem1"),
    "synthetic-n3-theorem2": lambda: build_synthetic("theorem2"),
    "scalar-A": lambda: build_scalar("scalar-A", a_nominal=1.5, x0=1.0),
    "scalar-B": lambda: build_scalar("scalar-B", a_nominal=1.5, x0=1.0,
                                     a_deviation=0.5),
    "scalar-C": lambda: build_scalar(
        "scalar-C", a_nominal=1.5, x0=1.0, a_deviation=0.5,
        b_value=-1.5, step=5e-4, horizon=12.0,
    ),
}


def scenario_names() -> tuple:
    return tuple(_REGISTRY)


def build_named(name: str) -> Scenario:
    """Construct a registry scenario with its canonical settings."""
    builder = _REGISTRY.get(name)
    if builder is None:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return builder()
