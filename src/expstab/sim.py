"""Closed-loop integration with breakpoint-aligned fixed-step RK4.

The plant and the controller estimators form one augmented ODE that is
integrated jointly with the classical fourth-order Runge-Kutta scheme on
a grid constructed so that every parameter jump of the model lands
exactly on a node (no step straddles a discontinuity).  Within the final
step of a segment the last stage queries the parameter signals a hair
before the segment end, so each step sees one smooth branch; the nudge
is far below integration accuracy.

The controller is evaluated inside every stage (continuous-time law, no
sample-and-hold).  Every controller supplies the same stage, a pure
function of one flat tuple ``y + (mu,) + theta(tp) + (b(tp),)`` that
returns ``(dy, u, s, kappa, resid_w, resid_psi)``, so one loop
integrates, records and monitors them all.  For the backstepping
controllers the stage is the recorded closed-loop program itself: the
engine records its cascade, the input law, the estimator rates and the
plant's right-hand side together once per run, at the first stage's
inputs.  The loop reads ``mu = exp(lam t)`` and the parameter signals
for each stage and hands them to one step function, generated for the
state's width and bound to the run's stage, which calls the stage four
times and keeps the RK4 arithmetic unrolled on locals;
:func:`integrate_fixed` takes its steps through the same generator.  The signals are evaluated once per
distinct signal time: both midpoint stages of a step share it, and a
step's first stage shares the previous step's last, so a step evaluates
them about twice instead of four times.  The first stage of each step
sits exactly on the accepted state, and its outputs feed the per-step
monitors:

* non-finite or exploding states mark the run diverged;
* a Nussbaum argument leaving its safe range marks it overflowed;
* a factorization residual above the configured tolerance at any
  accepted state, the final one included, aborts, since the damping gains
  would silently run on a degraded factor otherwise;
* the gain argument of the unknown-direction controllers is checked to
  be non-decreasing with zero tolerance.

A run that ends early keeps its cause in ``monitors["failure_reason"]``.
When a step fails after its first stage, that stage's residual gate and
record still come first, as they would stage by stage: the failure path
replays the first stage once to get them.
Only numerical failures end a run: floating-point errors
(``ArithmeticError``) and ``ValueError``, which the math module and the
scalar laws raise on non-finite values.  Program errors (``TypeError``,
``IndexError``, a fault replaying the engine's recording, ...) propagate.

Recording is decimated by ``record_every`` (the final state is always
recorded); monitors run on every accepted step regardless.  A run is
recorded as one table, one row per recorded state; the ``Trajectory``
arrays are its column slices, and the closed-loop energy ``V`` is
computed from the recorded columns after the run.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from array import array
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from itertools import pairwise
from types import FunctionType
from typing import Optional

import numpy as np

from .backstepping import (
    BacksteppingEngine,
    GainConfig,
    control_theorem1,
    control_theorem2,
)
from .model import ParameterBounds, SystemModel
from .nussbaum import NussbaumOverflowError
from .scalar import (  # noqa: F401  (the laws stay importable from here)
    ScalarGains,
    scalar_A_law,
    scalar_A_rates,
    scalar_B_law,
    scalar_B_rates,
    scalar_C_law,
    scalar_C_rates,
)

__all__ = [
    "AUX_STATE",
    "Scenario",
    "Trajectory",
    "ScenarioError",
    "simulate",
    "build_grid",
    "integrate_fixed",
    "export_csv",
    "export_csvs",
    "export_npz",
    "load_csv",
    "load_npz",
]

ENGINE_CONTROLLERS = ("theorem1", "theorem2", "baseline-lambda0")

# every controller and its state beyond theta_hat: the inverse-gain
# estimate when the control direction is known, the Nussbaum argument
# when it is not, nothing for the scalar designs A and B
AUX_STATE = {
    "theorem1": "rho_hat",
    "theorem2": "xi",
    "baseline-lambda0": "rho_hat",
    "scalar-A": None,
    "scalar-B": None,
    "scalar-C": "xi",
}


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass(eq=False)
class Scenario:
    """A fully specified closed-loop experiment.

    The controller starts from the parameter estimate ``theta_hat0``
    (shape (q,); the scalar designs' ``a_hat``) and from ``aux0``, the
    initial value of the state named ``AUX_STATE[controller]``: ``rho_hat``
    or ``xi``, and None for a controller without one.
    """

    name: str
    model: SystemModel
    controller: str
    gains: object  # GainConfig for engine controllers, ScalarGains for scalar ones
    x0: np.ndarray
    horizon: float
    step: float
    theta_hat0: np.ndarray
    aux0: Optional[float] = None
    record_every: int = 1
    bounds: Optional[ParameterBounds] = None  # enables the energy monitor

    def validate(self) -> None:
        controller = self.controller
        if controller not in AUX_STATE:
            raise ScenarioError(f"unknown controller {controller!r}")
        # chained comparisons are false for NaN, so NaN fails every check
        if not 0.0 < self.step < math.inf:
            raise ScenarioError(f"step must be positive and finite, got {self.step}")
        if not 0.0 < self.horizon < math.inf:
            raise ScenarioError(f"horizon must be positive and finite, got {self.horizon}")
        every = self.record_every
        if isinstance(every, bool) or not isinstance(every, numbers.Integral) or every < 1:
            raise ScenarioError(f"record_every must be an integer >= 1, got {every!r}")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.model.n,):
            raise ScenarioError(
                f"x0 must have shape ({self.model.n},), got {x0.shape}"
            )
        if not np.all(np.isfinite(x0)):
            raise ScenarioError(f"x0 must be finite, got {x0}")
        engine = controller in ENGINE_CONTROLLERS
        if engine:
            if not isinstance(self.gains, GainConfig):
                raise ScenarioError("engine controllers need a GainConfig")
            if controller == "baseline-lambda0" and self.gains.lam != 0.0:
                raise ScenarioError("baseline-lambda0 requires lam = 0")
        else:
            if not isinstance(self.gains, ScalarGains):
                raise ScenarioError("scalar controllers need ScalarGains")
            if self.model.n != 1:
                raise ScenarioError("scalar controllers require a first-order plant")
            if self.model.q != 1:
                raise ScenarioError("scalar controllers require one parameter (q = 1)")
        th0 = np.asarray(self.theta_hat0, dtype=float)
        if th0.shape != (self.model.q,):
            raise ScenarioError(
                f"theta_hat0 must have shape ({self.model.q},), got {th0.shape}"
            )
        if not np.all(np.isfinite(th0)) or (engine and np.any(th0 < 0.0)):
            sign = " and elementwise nonnegative" if engine else ""
            raise ScenarioError(f"theta_hat0 must be finite{sign}, got {th0}")
        aux_name = AUX_STATE[controller]
        if aux_name == "xi":
            if self.gains.nussbaum is None:
                raise ScenarioError(f"{controller} requires a Nussbaum spec")
            if self.aux0 is None or not 0.0 <= self.aux0 < math.inf:
                raise ScenarioError(
                    f"{controller} requires a finite xi0 >= 0, got {self.aux0}"
                )
        elif aux_name == "rho_hat":
            rho = self.aux0
            if rho is None or rho == 0.0 or not math.isfinite(rho):
                raise ScenarioError(
                    f"{controller} requires a finite nonzero rho_hat0, got {rho}"
                )
            if rho * self.gains.sign_b <= 0.0:
                raise ScenarioError(
                    "rho_hat0 must have the sign of the control direction: "
                    f"rho_hat0={rho}, sign_b={self.gains.sign_b}"
                )
        elif self.aux0 is not None:
            raise ScenarioError(f"{controller} has no aux state, got aux0={self.aux0}")


@dataclass(eq=False)
class Trajectory:
    """Recorded closed-loop run plus per-step monitor summaries."""

    scenario_name: str
    controller: str
    status: str  # completed | diverged | overflow | residual-exceeded
    failure_time: Optional[float]
    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    theta_hat: np.ndarray
    aux: np.ndarray  # (N, 0) when the controller carries no extra state
    aux_name: Optional[str]
    mu: np.ndarray
    s: np.ndarray
    diag: dict
    monitors: dict
    meta: dict

    def __post_init__(self):
        if np.any(np.diff(self.t) <= 0.0):
            raise ValueError("trajectory grid must be strictly increasing")

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def columns(self) -> dict:
        """The CSV schema's named columns, in order: name -> 1-d array."""
        cols = {"t": self.t}
        cols.update((f"x_{i+1}", c) for i, c in enumerate(self.x.T))
        cols["u"] = self.u
        cols.update((f"theta_hat_{i+1}", c) for i, c in enumerate(self.theta_hat.T))
        if self.aux_name is not None:
            cols[self.aux_name] = self.aux[:, 0]
        cols["mu"] = self.mu
        cols.update((f"s_{i+1}", c) for i, c in enumerate(self.s.T))
        cols.update(sorted(self.diag.items()))
        return cols


def build_grid(horizon: float, step: float, breakpoints) -> tuple:
    """Per-segment uniform grids landing exactly on every breakpoint.

    Returns ``(segments, n_steps)`` where each segment is the ndarray of
    its nodes (segment ends shared between neighbours).
    """
    bps = [float(b) for b in np.asarray(breakpoints, dtype=float) if 0.0 < b < horizon]
    edges = [0.0] + sorted(set(bps)) + [float(horizon)]
    segments = []
    n_steps = 0
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(1, math.ceil((b - a) / step - 1e-12))
        segments.append(np.linspace(a, b, m + 1))
        n_steps += m
    return segments, n_steps


# width of the state -> the generated RK4 step, compiled once per process
_RK4_STEPS = {}


def _rk4(stage, m: int):
    """The classical RK4 step of an ``m``-wide state through ``stage``.

    ``stage(inputs)`` is a pure function of ``y + (mu,) + sig`` whose
    first output is dy/dt as a tuple.  The generated
    ``step(y, h, h2, mu0, mu_m, mu1, sig0, sig_m, sig1)`` takes a step of
    length ``h`` (``h2`` is its half): it calls the stage at the start,
    twice at the midpoint and at the end, on the ``mu`` and ``sig`` of
    each, and returns ``(y_new, first-stage outputs)``.  The arithmetic
    is unrolled on locals in the forms ``a + h2 * b`` and
    ``a + h * (b + 2.0 * (c + d) + e) / 6.0``.  The code is compiled once
    per width; each call binds it to its own stage.
    """
    step = _RK4_STEPS.get(m)
    if step is None:
        def names(prefix):
            return "".join(f"{prefix}{i}, " for i in range(m))

        def stage_at(h, k, mu, sig):
            moved = "".join(f"y{i} + {h} * {k}{i}, " for i in range(m))
            return f"stage(({moved}{mu}) + {sig})[0]"

        new = "".join(f"y{i} + h * (a{i} + 2.0 * (b{i} + c{i}) + d{i}) / 6.0, "
                      for i in range(m))
        src = "\n".join([
            "def step(y, h, h2, mu0, mu_m, mu1, sig0, sig_m, sig1):",
            "    o = stage(y + (mu0,) + sig0)",
            f"    {names('y')}= y",
            f"    {names('a')}= o[0]",
            f"    {names('b')}= {stage_at('h2', 'a', 'mu_m', 'sig_m')}",
            f"    {names('c')}= {stage_at('h2', 'b', 'mu_m', 'sig_m')}",
            f"    {names('d')}= {stage_at('h', 'c', 'mu1', 'sig1')}",
            f"    return ({new}), o",
        ])
        namespace = {}
        exec(compile(src, "<rk4 step>", "exec"), namespace)
        step = _RK4_STEPS[m] = namespace["step"]
    return FunctionType(step.__code__, {"stage": stage})


def integrate_fixed(f, y0, grid):
    """Classical RK4 over an explicit node array, for plain ODE tests.

    ``f(t, y)`` maps a float and a tuple to a tuple.  Takes the steps of
    :func:`simulate`, with the time in the stage's ``mu`` place and no
    signals.  Returns the array of states at the nodes.
    """
    y = tuple(float(v) for v in y0)
    step = _rk4(lambda inputs: (f(inputs[-1], inputs[:-1]),), len(y))
    out = np.empty((len(grid), len(y)))
    out[0] = y
    for i in range(1, len(grid)):
        t0 = float(grid[i - 1])
        t1 = float(grid[i])
        h = t1 - t0
        h2 = 0.5 * h
        y = step(y, h, h2, t0, t0 + h2, t1, (), (), ())[0]
        out[i] = y
    return out


def _signal_reader(model: SystemModel):
    """``tp -> theta(tp) + (b(tp),)`` as floats, evaluated once per distinct ``tp``.

    Both midpoint stages of a step share a signal time, and a step's first
    stage shares the previous step's last.  A short theta raises
    IndexError.
    """
    theta_signal = model.theta_signal
    b_signal = model.b_signal
    components = range(model.q)
    last_tp = None
    values = None

    def signals(tp: float) -> tuple:
        nonlocal last_tp, values
        if tp != last_tp:
            theta = theta_signal(tp)
            got = ()
            for c in components:  # cheaper than a comprehension for a few
                got += (float(theta[c]),)
            values = got + (float(b_signal(tp)),)
            last_tp = tp
        return values

    return signals


_SCALAR_RATES = {
    "scalar-A": scalar_A_rates,
    "scalar-B": scalar_B_rates,
    "scalar-C": scalar_C_rates,
}


def _stage(scn: Scenario) -> tuple:
    """The run's RK4 stage and what the loop needs to know about it.

    Returns ``(build, y0, aux_name, resid_tol)``.  ``build(inputs)``
    returns the stage, given the first stage's inputs.  Every
    controller's stage is a pure function of one flat tuple,
    ``y + (mu,) + theta(tp) + (b(tp),)``, returning ``(dy, u, s, kappa,
    resid_w, resid_psi)``; the estimate is ``y[n:n+q]`` and the aux state
    ``AUX_STATE[controller]``, if any, is ``y[-1]``, so ``y0`` is
    ``x0 + theta_hat0 + (aux0,)``.  ``resid_tol`` is None when the stage
    reports no factorization residuals.

    A backstepping stage is the engine's closed-loop program, recorded at
    those inputs, with its ``n_ops``.  A scalar stage runs on plain floats
    through the design's rates function and returns ``s = (mu*x,)``,
    ``kappa = nan``, no residuals and ``resid_psi = 0.0``; its kernels
    replay no program.
    """
    gains = scn.gains
    aux_name = AUX_STATE[scn.controller]
    y0 = (
        tuple(float(v) for v in scn.x0)
        + tuple(float(v) for v in np.asarray(scn.theta_hat0, dtype=float))
        + (() if aux_name is None else (float(scn.aux0),))
    )

    if scn.controller in ENGINE_CONTROLLERS:
        engine = BacksteppingEngine(scn.model, gains)
        # looked up per run, so the module attributes stay patchable
        law = control_theorem2 if aux_name == "xi" else control_theorem1
        return partial(engine.closed_loop_program, law), y0, aux_name, gains.resid_tol

    rates = _SCALAR_RATES[scn.controller]
    regressor = scn.model.regressors[0]
    nan = math.nan

    # the plant, b u + phi(x) theta, on the one parameter of a scalar
    # design, skipping a literal zero regressor; kept apart from
    # model.plant_rates, which builds a list and zips per stage for any
    # order: routing the scalar stages through it cost about 10% of
    # scalar-suite steps/s on a 2-core x86-64 machine
    if aux_name == "xi":
        def stage(inputs):
            x, a_hat, xi, mu, theta, b = inputs
            s = mu * x
            u, a_dot, xi_dot = rates(x, a_hat, mu, s, xi, gains)
            acc = b * u
            phi = regressor(x)[0]
            if type(phi) is not float or phi != 0.0:
                acc += phi * theta
            return (acc, a_dot, xi_dot), u, (s,), nan, (), 0.0
    else:
        def stage(inputs):
            x, a_hat, mu, theta, b = inputs
            s = mu * x
            u, a_dot = rates(x, a_hat, mu, s, gains)
            acc = b * u
            phi = regressor(x)[0]
            if type(phi) is not float or phi != 0.0:
                acc += phi * theta
            return (acc, a_dot), u, (s,), nan, (), 0.0

    return (lambda inputs: stage), y0, aux_name, None


def _energy(scn: Scenario, s, theta_hat, aux):
    """Closed-loop energy of the recorded rows, when nominal hints are given.

    V = |s|^2/2 + (l_theta - th)^T Gamma^-1 (l_theta - th)/2
        + |l_b| (1/l_b - rho_hat)^2 / (2 gamma_rho)

    A function of the recorded ``s``, ``theta_hat`` and ``rho_hat`` (the
    ``aux`` column) of a known-direction run; None without the hints.
    """
    if scn.bounds is None or scn.bounds.ell_theta_hint is None:
        return None
    if AUX_STATE[scn.controller] != "rho_hat":
        return None
    ell = np.asarray(scn.bounds.ell_theta_hint, dtype=float)
    gamma_inv = np.linalg.inv(np.asarray(scn.gains.Gamma, dtype=float))
    # column by column into a few row vectors: (rows, q) temporaries set
    # the peak memory of a long run
    V, quad, row, col = (np.zeros(len(s)) for _ in range(4))
    for j in range(s.shape[1]):
        V += np.multiply(s[:, j], s[:, j], out=col)
    for i in range(len(ell)):
        row[:] = 0.0
        for j in range(len(ell)):  # entry i of (ell - theta_hat) Gamma^-T, per row
            np.subtract(ell[j], theta_hat[:, j], out=col)
            row += np.multiply(col, gamma_inv[i, j], out=col)
        quad += np.multiply(row, np.subtract(ell[i], theta_hat[:, i], out=col), out=row)
    V *= 0.5
    V += np.multiply(quad, 0.5, out=quad)
    ell_b = scn.bounds.ell_b_hint
    if ell_b is not None:
        np.subtract(1.0 / ell_b, aux[:, 0], out=col)
        col *= col
        V += np.multiply(col, abs(ell_b) / (2.0 * scn.gains.gamma_rho), out=col)
    return V


def simulate(scenario: Scenario) -> Trajectory:
    """Run a scenario to its horizon (or to a guard event) and record it.

    ``meta["wall_s"]`` is the wall time of the call,
    ``meta["steps_per_s"]`` the accepted steps per second of it, and
    ``meta["program_calls"]`` counts the replays of the closed-loop
    program, four per accepted step and one per first stage run alone
    (the final state, or the replayed first stage of a failed step), and
    ``meta["program_ops"]`` is its length in operations (both zero for
    the scalar controllers, whose kernels replay no program).
    """
    started = time.perf_counter()
    scenario.validate()
    model = scenario.model
    segments, _ = build_grid(
        scenario.horizon, scenario.step, model.breakpoints(scenario.horizon)
    )

    build_stage, y, aux_name, resid_tol = _stage(scenario)
    signals = _signal_reader(model)
    n = model.n
    lam = scenario.gains.lam
    exp = math.exp
    every = scenario.record_every
    track_xi = aux_name == "xi"
    table = array("d")  # the record, one row per recorded state

    status = "completed"
    failure_time = None
    failure_reason = None
    max_resid = 0.0
    xi_min_increment = math.inf
    xi_prev = None
    step_count = 0
    lone_stages = 0  # first stages run outside a step
    stage = None

    def accept(t, y, mu, out, keep):
        """The first stage at an accepted state: residual gate, then record."""
        nonlocal max_resid, status, failure_time, failure_reason
        if resid_tol is not None:
            r = max(max(out[4]), out[5])
            if r > max_resid:
                max_resid = r
            if r > resid_tol:
                status = "residual-exceeded"
                failure_time = t
                failure_reason = (
                    f"factorization residual {r:.3e} > tolerance {resid_tol:g}"
                )
                raise _Abort
        if keep:
            row = (t,) + y[:n] + (out[1],) + y[n:] + (mu,) + out[2] + (out[3],)
            table.extend(row if resid_tol is None else row + (max(out[4]), out[5]))

    t0 = 0.0
    try:
        mu0 = exp(lam * t0)
        stage = build_stage(y + (mu0,) + signals(t0))
        step = _rk4(stage, len(y))
        for seg in segments:
            seg_end = float(seg[-1])
            for t0, t1 in pairwise(map(float, seg)):
                h = t1 - t0
                h2 = 0.5 * h
                tm = t0 + h2
                # final stage of the last step in a segment queries the
                # signals just inside the segment, keeping one smooth
                # branch per step; the nudge must exceed the boundary
                # snap tolerance of the canned square-wave signals while
                # staying far below the integration error
                tp1 = t1 - h * 1e-6 if t1 == seg_end else t1
                sig0 = signals(t0)
                keep = step_count % every == 0
                try:
                    mu_m = exp(lam * tm)
                    sig_m = signals(tm)
                    mu1 = exp(lam * t1)
                    sig1 = signals(tp1)
                    y_new, out = step(y, h, h2, mu0, mu_m, mu1, sig0, sig_m, sig1)
                except _NUMERICAL:
                    # the step failed; stage by stage, its first stage's
                    # gate and row would have come first
                    lone_stages += 1
                    accept(t0, y, mu0, stage(y + (mu0,) + sig0), keep)
                    raise
                accept(t0, y, mu0, out, keep)
                y = y_new
                mu0 = mu1
                step_count += 1

                for v in y:
                    if not -1e12 <= v <= 1e12:  # false for NaN, too
                        status = "diverged"
                        failure_time = t1
                        failure_reason = "state not finite or beyond 1e12 in magnitude"
                        raise _Abort

                if track_xi:
                    xi_new = y[-1]
                    if xi_prev is not None:
                        inc = xi_new - xi_prev
                        if inc < xi_min_increment:
                            xi_min_increment = inc
                    xi_prev = xi_new
        # the final accepted state, always recorded
        t0 = float(segments[-1][-1])
        mu0 = exp(lam * t0)
        lone_stages += 1
        accept(t0, y, mu0, stage(y + (mu0,) + signals(t0 - 1e-12)), True)
    except _Abort:
        pass
    except _NUMERICAL as exc:
        # a violent blowup can overflow inside the stage arithmetic before
        # the per-step finiteness check sees it; same verdict either way
        status, failure_time, failure_reason = _failure(exc, t0)

    # a row is t, x, u, y[n:] (theta_hat, aux), mu, s, kappa[, resid_w, resid_psi]
    q = model.q
    diag_keys = ["kappa"] if resid_tol is None else ["kappa", "resid_w", "resid_psi"]
    rows = np.frombuffer(table).reshape(-1, len(y) + n + 3 + len(diag_keys))
    t, x, u, theta_hat, aux, mu, s, diag = np.split(
        rows, np.cumsum((1, n, 1, q, len(y) - n - q, 1, n)), axis=1
    )
    diag = dict(zip(diag_keys, diag.T))
    energy = _energy(scenario, s, theta_hat, aux)
    if energy is not None:
        diag["V"] = energy

    monitors = {
        "max_residual": max_resid if resid_tol is not None else None,
        "residual_tol": resid_tol,
        "xi_min_increment": xi_min_increment if track_xi else None,
        "steps": step_count,
        "failure_reason": failure_reason,
    }
    wall = time.perf_counter() - started
    # a stage that replays a recorded program carries its length
    program_ops = getattr(stage, "n_ops", 0)
    program_calls = 4 * step_count + lone_stages if program_ops else 0
    meta = {
        "horizon_s": scenario.horizon,
        "step_s": scenario.step,
        "record_every": every,
        "lam": lam,
        "schema": "expstab-trajectory-v1",
        "wall_s": wall,
        "steps_per_s": step_count / wall,
        "program_calls": program_calls,
        "program_ops": program_ops,
    }

    return Trajectory(
        scenario_name=scenario.name,
        controller=scenario.controller,
        status=status,
        failure_time=failure_time,
        t=t[:, 0],
        x=x,
        u=u[:, 0],
        theta_hat=theta_hat,
        aux=aux,
        aux_name=aux_name,
        mu=mu[:, 0],
        s=s,
        diag=diag,
        monitors=monitors,
        meta=meta,
    )


class _Abort(Exception):
    pass


# the exceptions that end a run with a failure status instead of propagating
_NUMERICAL = (NussbaumOverflowError, ArithmeticError, ValueError)


def _failure(exc: BaseException, t: float) -> tuple:
    """``(status, failure_time, failure_reason)`` of a run ``exc`` ended at ``t``."""
    status = "overflow" if isinstance(exc, NussbaumOverflowError) else "diverged"
    return status, t, f"{type(exc).__name__}: {exc}"


# -- persistence -----------------------------------------------------------


# rows per formatted block: on a run's two files of 2 501 rows (2-core x86-64,
# Python 3.11) 64 rows took within 4% of 128 to 1 024 rows and 16 rows 12%
# longer, while the tracemalloc peak grows with the block: 0.15 MiB at 64,
# 2.1 MiB at 1 024
_CSV_BLOCK = 64


def export_csvs(traj: Trajectory, targets) -> None:
    """Write CSV files of ``traj`` in one pass; ``targets`` is ``[(path, columns)]``.

    ``columns`` selects and orders named columns, None for all of
    :meth:`Trajectory.columns`; unknown names raise ValueError before any
    file is opened.  A file is a header row, then one row per recorded
    state, each float as its ``repr`` (reload is exact) and each line
    ended by ``\\r\\n``, as the ``csv`` module writes.  A column is
    formatted once per block of rows for all files, so memory stays flat.
    """
    data = traj.columns()
    picked = [list(data) if columns is None else list(columns) for _, columns in targets]
    for (path, _), names in zip(targets, picked):
        missing = [name for name in names if name not in data]
        if missing or not names:
            what = f"no column {missing[0]!r}" if missing else "no columns selected"
            raise ValueError(f"{path}: {what}; the columns are {', '.join(data)}")
    needed = {name: np.asarray(data[name], dtype=float) for names in picked for name in names}
    with ExitStack() as stack:
        files = [stack.enter_context(open(path, "w", newline="")) for path, _ in targets]
        for fh, names in zip(files, picked):
            fh.write(",".join(names) + "\r\n")
        for a in range(0, len(traj.t), _CSV_BLOCK):
            text = {name: list(map(repr, col[a:a + _CSV_BLOCK].tolist()))
                    for name, col in needed.items()}
            for fh, names in zip(files, picked):
                fh.write("\r\n".join(map(",".join, zip(*[text[n] for n in names]))) + "\r\n")


def export_csv(traj: Trajectory, path, columns=None) -> None:
    """One CSV file of ``traj``: :func:`export_csvs` with one target."""
    export_csvs(traj, [(path, columns)])


def load_csv(path) -> dict:
    """Reload an exported CSV as a dict of named float arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    arr = np.asarray(rows, dtype=float) if rows else np.empty((0, len(names)))
    return {name: arr[:, i] for i, name in enumerate(names)}


# what export_npz stores of a Trajectory: fields in its meta, arrays as arrays
_NPZ_FIELDS = ("scenario_name", "controller", "status", "failure_time", "aux_name")
_NPZ_ARRAYS = ("t", "x", "u", "theta_hat", "aux", "mu", "s")


def export_npz(traj: Trajectory, path) -> None:
    """Structured binary export; round-trips bit-exactly."""
    meta = dict(traj.meta)
    meta.update({k: getattr(traj, k) for k in _NPZ_FIELDS})
    meta["monitors"] = {k: (v if v is None or isinstance(v, str) else float(v))
                        for k, v in traj.monitors.items()}
    meta["diag_keys"] = sorted(traj.diag)
    np.savez(
        path,
        meta=json.dumps(meta),
        **{k: getattr(traj, k) for k in _NPZ_ARRAYS},
        **{f"diag_{k}": v for k, v in traj.diag.items()},
    )


def load_npz(path) -> Trajectory:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        return Trajectory(
            **{k: meta[k] for k in _NPZ_FIELDS},
            **{k: data[k] for k in _NPZ_ARRAYS},
            diag={k: data[f"diag_{k}"] for k in meta["diag_keys"]},
            monitors=meta["monitors"],
            meta={
                k: meta[k]
                for k in ("horizon_s", "step_s", "record_every", "lam", "schema",
                          "wall_s", "steps_per_s", "program_calls", "program_ops")
                if k in meta
            },
        )
