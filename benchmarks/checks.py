"""Output checks that are computed apart from the program.

Each check takes plain arrays (or the public fields of an engine
evaluation) and returns a list of problems; an empty list means the
output passed.  None of them calls into the code path that produced the
output it checks, so a wrong trajectory fails them.

* Wing rock: phi_1 = 0 and phi_2 = (x1, x2) make the whole law closed
  form, so every recorded row is recomputed from x, theta_hat and the
  controller state.
* Order 3: the factorizations w_i = W_i^T zbar_i and psi = psi_bar^T z
  must hold on the recorded states, and the propagated virtual-law
  partials must match central differences of the virtual law.
* First order: design A's energy may not rise beyond integration error,
  and every Nussbaum argument must be non-decreasing.
* Decay: the scaled norm |x| e^{lam t} over the last third of the horizon
  may not exceed its supremum over the first third.  This can fail, unlike
  ``fit_envelope(...).holds``, which is true for every finite run.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance for quantities the benchmark recomputes in closed
# form: the program and the formula round differently, so exact equality
# is not required, but a perturbation of 1e-6 is far outside it.
CLOSED_FORM_RTOL = 1e-12
FACTOR_TOL = 1e-8
FD_RTOL = 1e-5
# design A: V may rise by at most this share of V(0) between recorded
# rows (RK4 error at the 1e-3 step is many orders smaller)
ENERGY_RTOL = 1e-9


def _rel_excess(got, want, scale, rtol):
    """Indices where |got - want| exceeds rtol * scale."""
    err = np.abs(np.asarray(got) - np.asarray(want))
    return np.nonzero(err > rtol * np.maximum(scale, 1e-300))[0]


def wing_rock_constants(k, lam, delta, eps):
    """c of alpha_1 = -c x1, given the layer gains and the damping weights."""
    return k[0] + lam + 0.5 * (2.0 * delta + 1.0 / eps)


def check_wing_rock(cols: dict, variant: str, k, lam, delta, eps,
                    rho_max: float = -0.3) -> list:
    """Recompute z2, kappa and u of every recorded wing-rock row.

    ``cols`` maps CSV column names to arrays; ``variant`` is theorem1,
    theorem2 or baseline-lambda0.
    """
    problems = []
    c = wing_rock_constants(k, lam, delta, eps)
    t = cols["t"]
    x1, x2 = cols["x_1"], cols["x_2"]
    mu = cols["mu"]
    th1, th2 = cols["theta_hat_1"], cols["theta_hat_2"]
    kappa = cols["kappa"]
    u = cols["u"]

    bad = _rel_excess(mu, np.exp(lam * t), np.exp(lam * t), CLOSED_FORM_RTOL)
    if bad.size:
        problems.append(f"mu != exp(lam t) at {bad.size} rows, first t={t[bad[0]]}")
    bad = _rel_excess(cols["s_1"], mu * x1, mu * np.abs(x1), CLOSED_FORM_RTOL)
    if bad.size:
        problems.append(f"s_1 != mu x_1 at {bad.size} rows, first t={t[bad[0]]}")

    z2_ref = x2 + c * x1
    z2_scale = np.abs(x2) + c * np.abs(x1)
    bad = _rel_excess(cols["s_2"] / mu, z2_ref, z2_scale, CLOSED_FORM_RTOL)
    if bad.size:
        problems.append(f"z2 != x2 + c x1 at {bad.size} rows, first t={t[bad[0]]}")

    pb1 = th1 - c * th2 + 1.0 - c * c
    pb2 = th2 + c
    kappa_ref = k[1] + lam + 0.5 * (
        delta * (3.0 + c * c) + 1.0 / eps + eps * (pb1 * pb1 + pb2 * pb2)
    )
    bad = _rel_excess(kappa, kappa_ref, kappa_ref, CLOSED_FORM_RTOL)
    if bad.size:
        problems.append(f"kappa off the closed form at {bad.size} rows, "
                        f"first t={t[bad[0]]}")

    if variant == "theorem2":
        xi = cols["xi"]
        gain = np.sin(xi) * np.exp(xi * xi)
        u_ref = gain * kappa_ref * z2_ref
        u_scale = np.abs(gain) * kappa_ref * z2_scale
        problems += check_monotone(xi, "xi")
    else:
        rho = cols["rho_hat"]
        u_ref = rho * (-kappa_ref * z2_ref)
        u_scale = np.abs(rho) * kappa_ref * z2_scale
        if np.max(rho) > rho_max:
            problems.append(f"rho_hat rose to {np.max(rho):.6g} > {rho_max}")
    bad = _rel_excess(u, u_ref, u_scale, CLOSED_FORM_RTOL)
    if bad.size:
        problems.append(f"u off the closed-form law at {bad.size} rows, "
                        f"first t={t[bad[0]]}")
    return problems


def check_monotone(signal, name: str) -> list:
    """A gain argument must never decrease, with zero tolerance."""
    inc = np.diff(np.asarray(signal, dtype=float))
    if inc.size and np.min(inc) < 0.0:
        i = int(np.argmin(inc))
        return [f"{name} decreased by {-inc[i]:.3e} after row {i}"]
    return []


def check_decay(t, x, lam: float) -> list:
    """sup of |x| e^{lam t} on the last third must not exceed the first third's."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float).reshape(len(t), -1)
    if len(t) < 3 or not np.all(np.isfinite(x)):
        return [f"decay check needs a finite trajectory of >= 3 rows, got {len(t)}"]
    scaled = np.linalg.norm(x, axis=1) * np.exp(lam * t)
    t0, t_end = t[0], t[-1]
    third = (t_end - t0) / 3.0
    first = float(np.max(scaled[t <= t0 + third]))
    last = float(np.max(scaled[t >= t_end - third]))
    if last > first:
        return [f"|x| e^(lam t) at lam={lam:g} grew from {first:.6g} "
                f"(first third) to {last:.6g} (last third)"]
    return []


def check_energy_a(s, a_hat, a: float, gamma: float) -> list:
    """Design A: V = s^2/2 + (a - a_hat)^2 / (2 gamma) is non-increasing."""
    s = np.asarray(s, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    V = 0.5 * s * s + (a - a_hat) ** 2 / (2.0 * gamma)
    rise = np.diff(V)
    allowance = ENERGY_RTOL * V[0]
    if rise.size and np.max(rise) > allowance:
        i = int(np.argmax(rise))
        return [f"energy rose by {rise[i]:.3e} after row {i} "
                f"(allowed {allowance:.3e})"]
    return []


def check_factorization(ev) -> list:
    """w_i = W_i^T zbar_i for every layer and psi = psi_bar^T z, to 1e-8.

    Uses only public fields of a full-diagnostics engine evaluation.
    """
    problems = []
    z = np.asarray(ev.z, dtype=float)
    for i, (W, w) in enumerate(zip(ev.W, ev.w), start=1):
        W = np.asarray(W, dtype=float)  # i x q
        pred = W.T @ z[:i]
        err = float(np.max(np.abs(np.asarray(w, dtype=float) - pred)))
        if not err <= FACTOR_TOL:
            problems.append(f"w_{i} - W_{i}^T z_{i} = {err:.3e} > {FACTOR_TOL:g}")
    pred = float(np.dot(np.asarray(ev.psi_bar, dtype=float), z))
    err = abs(ev.psi - pred)
    if not err <= FACTOR_TOL:
        problems.append(f"psi - psi_bar^T z = {err:.3e} > {FACTOR_TOL:g}")
    return problems


def check_gradient(value_fn, point, grad, label: str = "") -> list:
    """Propagated partials against central differences of ``value_fn``."""
    point = [float(v) for v in point]
    worst = 0.0
    for j in range(len(point)):
        step = 1e-6 * max(1.0, abs(point[j]))
        up = list(point)
        dn = list(point)
        up[j] += step
        dn[j] -= step
        fd = (value_fn(up) - value_fn(dn)) / (2.0 * step)
        rel = abs(grad[j] - fd) / max(1.0, abs(grad[j]))
        worst = max(worst, rel)
    if not worst <= FD_RTOL:
        return [f"{label} partials off central differences by rel {worst:.3e}"]
    return []


