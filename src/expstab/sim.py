"""Closed-loop integration with breakpoint-aligned fixed-step RK4.

The plant and the controller estimators form one augmented ODE that is
integrated jointly with the classical fourth-order Runge-Kutta scheme on
a grid constructed so that every parameter jump of the model lands
exactly on a node (no step straddles a discontinuity).  Within the final
step of a segment the last stage queries the parameter signals a hair
before the segment end, so each step sees one smooth branch; the nudge
is far below integration accuracy.

The controller is evaluated inside every stage (continuous-time law, no
sample-and-hold).  The first stage of each step sits exactly on the
accepted state; its evaluation runs with full diagnostics and feeds the
per-step monitors:

* non-finite or exploding states mark the run diverged;
* a Nussbaum argument leaving its safe range marks it overflowed;
* a factorization residual above the configured tolerance aborts, since
  the damping gains would silently run on a degraded factor otherwise;
* the gain argument of the unknown-direction controllers is checked to
  be non-decreasing with zero tolerance.

A run that ends early keeps its cause in ``monitors["failure_reason"]``.
Only numerical failures end a run: floating-point errors
(``ArithmeticError``) and ``ValueError``, which the math module and the
scalar laws raise on non-finite values.  Program errors (``TypeError``,
``IndexError``, a fault replaying the engine's recording, ...) propagate.

Recording is decimated by ``record_every`` (the final state is always
recorded); monitors run on every accepted step regardless.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
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
    "Scenario",
    "Trajectory",
    "ScenarioError",
    "simulate",
    "build_grid",
    "rk4_step",
    "integrate_fixed",
    "export_csv",
    "export_npz",
    "load_csv",
    "load_npz",
]

ENGINE_CONTROLLERS = ("theorem1", "theorem2", "baseline-lambda0")
SCALAR_CONTROLLERS = ("scalar-A", "scalar-B", "scalar-C")


class ScenarioError(ValueError):
    """Invalid scenario configuration."""


@dataclass(eq=False)
class Scenario:
    """A fully specified closed-loop experiment."""

    name: str
    model: SystemModel
    controller: str
    gains: object  # GainConfig for engine controllers, ScalarGains for scalar ones
    x0: np.ndarray
    horizon: float
    step: float
    theta_hat0: Optional[np.ndarray] = None
    a_hat0: float = 0.0
    rho_hat0: Optional[float] = None
    xi0: Optional[float] = None
    record_every: int = 1
    bounds: Optional[ParameterBounds] = None  # enables the energy monitor

    def validate(self) -> None:
        if self.controller not in ENGINE_CONTROLLERS + SCALAR_CONTROLLERS:
            raise ScenarioError(f"unknown controller {self.controller!r}")
        if not self.step > 0.0:
            raise ScenarioError("step must be positive")
        if not self.horizon > 0.0:
            raise ScenarioError("horizon must be positive")
        if self.record_every < 1:
            raise ScenarioError("record_every must be >= 1")
        x0 = np.asarray(self.x0, dtype=float)
        if x0.shape != (self.model.n,):
            raise ScenarioError(
                f"x0 must have shape ({self.model.n},), got {x0.shape}"
            )
        if self.controller in ENGINE_CONTROLLERS:
            if not isinstance(self.gains, GainConfig):
                raise ScenarioError("engine controllers need a GainConfig")
            th0 = np.asarray(self.theta_hat0, dtype=float)
            if th0.shape != (self.model.q,):
                raise ScenarioError(
                    f"theta_hat0 must have shape ({self.model.q},), got {th0.shape}"
                )
            if np.any(th0 < 0.0):
                raise ScenarioError("theta_hat0 must be elementwise nonnegative")
            if self.controller == "theorem2":
                if self.gains.nussbaum is None:
                    raise ScenarioError("theorem2 requires a Nussbaum spec")
                if self.xi0 is None or self.xi0 < 0.0:
                    raise ScenarioError("theorem2 requires xi0 >= 0")
            else:
                if self.rho_hat0 is None or self.rho_hat0 == 0.0:
                    raise ScenarioError("theorem1 requires a nonzero rho_hat0")
                if self.rho_hat0 * self.gains.sign_b <= 0.0:
                    raise ScenarioError(
                        "rho_hat0 must have the sign of the control direction: "
                        f"rho_hat0={self.rho_hat0}, sign_b={self.gains.sign_b}"
                    )
            if self.controller == "baseline-lambda0" and self.gains.lam != 0.0:
                raise ScenarioError("baseline-lambda0 requires lam = 0")
        else:
            if not isinstance(self.gains, ScalarGains):
                raise ScenarioError("scalar controllers need ScalarGains")
            if self.model.n != 1:
                raise ScenarioError("scalar controllers require a first-order plant")
            if self.controller == "scalar-C":
                if self.gains.nussbaum is None:
                    raise ScenarioError("scalar-C requires a Nussbaum spec")
                if self.xi0 is None or self.xi0 < 0.0:
                    raise ScenarioError("scalar-C requires xi0 >= 0")


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

    def column_names(self) -> list:
        names = ["t"]
        names += [f"x_{i+1}" for i in range(self.x.shape[1])]
        names += ["u"]
        names += [f"theta_hat_{c+1}" for c in range(self.theta_hat.shape[1])]
        if self.aux_name is not None:
            names += [self.aux_name]
        names += ["mu"]
        names += [f"s_{i+1}" for i in range(self.s.shape[1])]
        names += sorted(self.diag.keys())
        return names

    def column_data(self) -> list:
        cols = [self.t]
        cols += [self.x[:, i] for i in range(self.x.shape[1])]
        cols += [self.u]
        cols += [self.theta_hat[:, c] for c in range(self.theta_hat.shape[1])]
        if self.aux_name is not None:
            cols += [self.aux[:, 0]]
        cols += [self.mu]
        cols += [self.s[:, i] for i in range(self.s.shape[1])]
        cols += [self.diag[k] for k in sorted(self.diag.keys())]
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


def rk4_step(f, t0: float, t1: float, y: tuple, k1: tuple, tp1: float) -> tuple:
    """One classical RK4 step of ``y`` from ``t0`` to ``t1``.

    ``f(t, y, tp)`` returns a tuple whose first item is dy/dt as a tuple;
    ``tp`` is the time at which it queries the parameter signals.  The
    caller passes the first stage ``k1`` (it evaluates it itself, with
    diagnostics) and ``tp1``, the signal time of the last stage.
    """
    h = t1 - t0
    h2 = 0.5 * h
    tm = t0 + h2
    k2 = f(tm, tuple([a + h2 * b for a, b in zip(y, k1)]), tm)[0]
    k3 = f(tm, tuple([a + h2 * b for a, b in zip(y, k2)]), tm)[0]
    k4 = f(t1, tuple([a + h * b for a, b in zip(y, k3)]), tp1)[0]
    return tuple([
        a + h * (b + 2.0 * (c + d) + e) / 6.0
        for a, b, c, d, e in zip(y, k1, k2, k3, k4)
    ])


def integrate_fixed(f, y0, grid):
    """Classical RK4 over an explicit node array, for plain ODE tests.

    ``f(t, y)`` maps a float and a tuple to a tuple.  Takes the same steps
    as :func:`simulate`.  Returns the array of states at the nodes.
    """
    def stage(t, y, tp):
        return (f(t, y),)

    y = tuple(float(v) for v in y0)
    out = np.empty((len(grid), len(y)))
    out[0] = y
    for i in range(1, len(grid)):
        t0 = float(grid[i - 1])
        t1 = float(grid[i])
        y = rk4_step(stage, t0, t1, y, f(t0, y), t1)
        out[i] = y
    return out


class _EngineLoop:
    """RHS assembly for the full backstepping controllers."""

    def __init__(self, scn: Scenario):
        self.model = scn.model
        self.cfg = scn.gains
        self.engine = BacksteppingEngine(scn.model, scn.gains)
        self.n = scn.model.n
        self.q = scn.model.q
        self.variant = scn.controller
        self.lam = self.cfg.lam if self.cfg.scaled else 0.0
        self.aux_name = "xi" if scn.controller == "theorem2" else "rho_hat"
        th0 = tuple(float(v) for v in np.asarray(scn.theta_hat0, dtype=float))
        aux0 = scn.xi0 if scn.controller == "theorem2" else scn.rho_hat0
        self.y0 = tuple(float(v) for v in scn.x0) + th0 + (float(aux0),)
        self.theorem2 = scn.controller == "theorem2"

    def rhs(self, t, y, tp, diagnostics=False):
        n, q = self.n, self.q
        x = y[:n]
        th = y[n : n + q]
        aux = y[-1]
        mu = math.exp(self.lam * t) if self.lam != 0.0 else 1.0
        ev = self.engine.evaluate(t, x, th, mu=mu, diagnostics=diagnostics)
        if self.theorem2:
            u, aux_dot, th_dot = control_theorem2(ev, aux, self.cfg)
        else:
            u, aux_dot, th_dot = control_theorem1(ev, aux, self.cfg)
        theta_t = self.model.theta_signal(tp)
        b_t = self.model.b_signal(tp)
        phi = ev.phi
        dx = []
        for i in range(n):
            acc = 0.0
            phi_i = phi[i]
            for c in range(q):
                pc = phi_i[c]
                if type(pc) is float and pc == 0.0:
                    continue
                acc += pc * theta_t[c]
            acc += x[i + 1] if i + 1 < n else b_t * u
            dx.append(acc)
        return tuple(dx) + th_dot + (aux_dot,), u, ev


_SCALAR_RATES = {
    "scalar-A": scalar_A_rates,
    "scalar-B": scalar_B_rates,
    "scalar-C": scalar_C_rates,
}


class _ScalarLoop:
    """RHS assembly for the first-order didactic controllers.

    Everything the right-hand side needs is bound once per run, and the
    stages run on plain floats through the design's rates function.
    """

    def __init__(self, scn: Scenario):
        gains = scn.gains
        lam = gains.lam
        self.lam = lam
        self.aux_name = "xi" if scn.controller == "scalar-C" else None
        y0 = (float(scn.x0[0]), float(scn.a_hat0))
        if scn.controller == "scalar-C":
            y0 += (float(scn.xi0),)
        self.y0 = y0

        rates = _SCALAR_RATES[scn.controller]
        theta_signal = scn.model.theta_signal
        b_signal = scn.model.b_signal
        regressor = scn.model.regressors[0]
        components = range(scn.model.q)
        exp = math.exp

        def plant(x, u, tp):
            theta_t = theta_signal(tp)
            acc = float(b_signal(tp)) * u
            phi = regressor(x)
            for c in components:
                pc = phi[c]
                if type(pc) is float and pc == 0.0:
                    continue
                acc += pc * float(theta_t[c])
            return acc

        if scn.controller == "scalar-C":
            def rhs(t, y, tp, diagnostics=False):
                x, a_hat, xi = y
                mu = exp(lam * t)
                u, a_dot, xi_dot = rates(x, a_hat, mu, mu * x, xi, gains)
                return (plant(x, u, tp), a_dot, xi_dot), u, None
        else:
            def rhs(t, y, tp, diagnostics=False):
                x, a_hat = y
                mu = exp(lam * t)
                u, a_dot = rates(x, a_hat, mu, mu * x, gains)
                return (plant(x, u, tp), a_dot), u, None

        self.rhs = rhs


def _energy_fn(scn: Scenario):
    """Closed-loop energy monitor, available when nominal hints are given.

    V = |s|^2/2 + (l_theta - th)^T Gamma^-1 (l_theta - th)/2
        + |l_b| (1/l_b - rho_hat)^2 / (2 gamma_rho)

    Runs once per recorded step, so it is written in plain floats.
    """
    if scn.bounds is None or scn.bounds.ell_theta_hint is None:
        return None
    if scn.controller not in ("theorem1", "baseline-lambda0"):
        return None
    ell_th = tuple(float(v) for v in np.asarray(scn.bounds.ell_theta_hint))
    ell_b = scn.bounds.ell_b_hint
    gi_rows = tuple(
        tuple(float(v) for v in row)
        for row in np.linalg.inv(np.asarray(scn.gains.Gamma, dtype=float))
    )
    gamma_rho = scn.gains.gamma_rho

    def V(s_vec, th, rho):
        acc = 0.0
        for sv in s_vec:
            acc += sv * sv
        val = 0.5 * acc
        err = tuple(e - t for e, t in zip(ell_th, th))
        quad = 0.0
        for row, e1 in zip(gi_rows, err):
            inner = 0.0
            for g, e2 in zip(row, err):
                if g != 0.0:
                    inner += g * e2
            quad += e1 * inner
        val += 0.5 * quad
        if ell_b is not None:
            val += abs(ell_b) / (2.0 * gamma_rho) * (1.0 / ell_b - rho) ** 2
        return val

    return V


def simulate(scenario: Scenario) -> Trajectory:
    """Run a scenario to its horizon (or to a guard event) and record it.

    ``meta["wall_s"]`` is the wall time of the call and
    ``meta["steps_per_s"]`` the accepted steps per second of it.
    """
    started = time.perf_counter()
    scenario.validate()
    model = scenario.model
    segments, n_steps = build_grid(
        scenario.horizon, scenario.step, model.breakpoints(scenario.horizon)
    )

    if scenario.controller in ENGINE_CONTROLLERS:
        loop = _EngineLoop(scenario)
        resid_tol = scenario.gains.resid_tol
        q = model.q
    else:
        loop = _ScalarLoop(scenario)
        resid_tol = None
        q = 1  # scalar estimate recorded in the theta_hat block
    rhs = loop.rhs
    diagnostics = resid_tol is not None
    n = model.n
    energy = _energy_fn(scenario)

    every = scenario.record_every
    n_rec = n_steps // every + 2
    t_rec = np.empty(n_rec)
    x_rec = np.empty((n_rec, n))
    u_rec = np.empty(n_rec)
    th_rec = np.empty((n_rec, q))
    has_aux = loop.aux_name is not None
    aux_rec = np.empty((n_rec, 1 if has_aux else 0))
    mu_rec = np.empty(n_rec)
    s_rec = np.empty((n_rec, n))
    diag_keys = ["kappa"]
    if resid_tol is not None:
        diag_keys += ["resid_w", "resid_psi"]
    if energy is not None:
        diag_keys += ["V"]
    diag_rec = {k: np.empty(n_rec) for k in diag_keys}

    status = "completed"
    failure_time = None
    failure_reason = None
    max_resid = 0.0
    xi_min_increment = math.inf
    xi_prev = None

    y = loop.y0
    lam = loop.lam
    idx = 0
    step_count = 0

    def record(t, y, u, ev):
        nonlocal idx
        t_rec[idx] = t
        x_rec[idx] = y[:n]
        u_rec[idx] = u
        if scenario.controller in ENGINE_CONTROLLERS:
            th_rec[idx] = y[n : n + q]
        else:
            th_rec[idx] = (y[1],)
        if has_aux:
            aux_rec[idx, 0] = y[-1]
        mu = math.exp(lam * t)
        mu_rec[idx] = mu
        if scenario.controller in ENGINE_CONTROLLERS:
            s_vec = ev.s
        else:
            s_vec = (mu * y[0],)
        s_rec[idx] = s_vec
        if "kappa" in diag_rec:
            diag_rec["kappa"][idx] = getattr(ev, "kappa", math.nan)
        if resid_tol is not None:
            diag_rec["resid_w"][idx] = max(ev.resid_w)
            diag_rec["resid_psi"][idx] = ev.resid_psi
        if energy is not None:
            diag_rec["V"][idx] = energy(s_vec, y[n : n + q], y[-1])
        idx += 1

    try:
        for seg in segments:
            seg_end = float(seg[-1])
            for i in range(1, len(seg)):
                t0 = float(seg[i - 1])
                t1 = float(seg[i])
                # final stage of the last step in a segment queries the
                # signals just inside the segment, keeping one smooth
                # branch per step; the nudge must exceed the boundary
                # snap tolerance of the canned square-wave signals while
                # staying far below the integration error
                tp1 = t1 - (t1 - t0) * 1e-6 if t1 == seg_end else t1

                k1, u1, ev1 = rhs(t0, y, t0, diagnostics=diagnostics)

                if resid_tol is not None:
                    r = ev1.max_residual()
                    if r > max_resid:
                        max_resid = r
                    if r > resid_tol:
                        status = "residual-exceeded"
                        failure_time = t0
                        failure_reason = (
                            f"factorization residual {r:.3e} > tolerance {resid_tol:g}"
                        )
                        raise _Abort
                if step_count % every == 0:
                    record(t0, y, u1, ev1)

                y = rk4_step(rhs, t0, t1, y, k1, tp1)
                step_count += 1

                ok = True
                for v in y:
                    if not math.isfinite(v) or abs(v) > 1e12:
                        ok = False
                        break
                if not ok:
                    status = "diverged"
                    failure_time = t1
                    failure_reason = "state not finite or beyond 1e12 in magnitude"
                    raise _Abort

                if has_aux and loop.aux_name == "xi":
                    xi_new = y[-1]
                    if xi_prev is not None:
                        inc = xi_new - xi_prev
                        if inc < xi_min_increment:
                            xi_min_increment = inc
                    xi_prev = xi_new
    except _Abort:
        pass
    except NussbaumOverflowError as exc:
        status = "overflow"
        failure_time = t0
        failure_reason = _cause(exc)
    except (ArithmeticError, ValueError) as exc:
        # a violent blowup can overflow inside the stage arithmetic before
        # the per-step finiteness check sees it; same verdict either way
        status = "diverged"
        failure_time = t0
        failure_reason = _cause(exc)
    else:
        # final accepted state
        t_end = float(segments[-1][-1])
        try:
            k_end, u_end, ev_end = rhs(t_end, y, t_end - 1e-12,
                                       diagnostics=diagnostics)
        except NussbaumOverflowError as exc:
            status = "overflow"
            failure_time = t_end
            failure_reason = _cause(exc)
        except (ArithmeticError, ValueError) as exc:
            status = "diverged"
            failure_time = t_end
            failure_reason = _cause(exc)
        else:
            if resid_tol is not None and ev_end.max_residual() > max_resid:
                max_resid = ev_end.max_residual()
            record(t_end, y, u_end, ev_end)

    monitors = {
        "max_residual": max_resid if resid_tol is not None else None,
        "residual_tol": resid_tol,
        "xi_min_increment": (
            xi_min_increment if (has_aux and loop.aux_name == "xi") else None
        ),
        "steps": step_count,
        "failure_reason": failure_reason,
    }
    wall = time.perf_counter() - started
    meta = {
        "horizon_s": scenario.horizon,
        "step_s": scenario.step,
        "record_every": every,
        "lam": lam,
        "schema": "expstab-trajectory-v1",
        "wall_s": wall,
        "steps_per_s": step_count / wall,
    }

    return Trajectory(
        scenario_name=scenario.name,
        controller=scenario.controller,
        status=status,
        failure_time=failure_time,
        t=t_rec[:idx],
        x=x_rec[:idx],
        u=u_rec[:idx],
        theta_hat=th_rec[:idx],
        aux=aux_rec[:idx],
        aux_name=loop.aux_name,
        mu=mu_rec[:idx],
        s=s_rec[:idx],
        diag={k: v[:idx] for k, v in diag_rec.items()},
        monitors=monitors,
        meta=meta,
    )


class _Abort(Exception):
    pass


def _cause(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- persistence -----------------------------------------------------------


def export_csv(traj: Trajectory, path, columns=None) -> None:
    """One row per recorded step; floats via repr so reload is exact.

    ``columns`` selects and orders named columns (default: all of
    :meth:`Trajectory.column_names`).
    """
    names = traj.column_names()
    cols = traj.column_data()
    if columns is not None:
        picked = [names.index(name) for name in columns]
        names = [names[i] for i in picked]
        cols = [cols[i] for i in picked]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        # one row of Python floats at a time; csv writes a float as its repr
        table = np.column_stack([np.asarray(c, dtype=float) for c in cols])
        writer.writerows(row.tolist() for row in table)


def load_csv(path) -> dict:
    """Reload an exported CSV as a dict of named float arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    arr = np.asarray(rows, dtype=float) if rows else np.empty((0, len(names)))
    return {name: arr[:, i] for i, name in enumerate(names)}


def export_npz(traj: Trajectory, path) -> None:
    """Structured binary export; round-trips bit-exactly."""
    meta = dict(traj.meta)
    meta.update(
        scenario_name=traj.scenario_name,
        controller=traj.controller,
        status=traj.status,
        failure_time=traj.failure_time,
        aux_name=traj.aux_name,
        monitors={
            k: (v if v is None or isinstance(v, str) else float(v))
            for k, v in traj.monitors.items()
        },
        diag_keys=sorted(traj.diag.keys()),
    )
    np.savez(
        path,
        meta=json.dumps(meta),
        t=traj.t,
        x=traj.x,
        u=traj.u,
        theta_hat=traj.theta_hat,
        aux=traj.aux,
        mu=traj.mu,
        s=traj.s,
        **{f"diag_{k}": v for k, v in traj.diag.items()},
    )


def load_npz(path) -> Trajectory:
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        diag = {k: data[f"diag_{k}"] for k in meta["diag_keys"]}
        return Trajectory(
            scenario_name=meta["scenario_name"],
            controller=meta["controller"],
            status=meta["status"],
            failure_time=meta["failure_time"],
            t=data["t"],
            x=data["x"],
            u=data["u"],
            theta_hat=data["theta_hat"],
            aux=data["aux"],
            aux_name=meta["aux_name"],
            mu=data["mu"],
            s=data["s"],
            diag=diag,
            monitors=meta["monitors"],
            meta={
                k: meta[k]
                for k in ("horizon_s", "step_s", "record_every", "lam", "schema",
                          "wall_s", "steps_per_s")
                if k in meta
            },
        )
