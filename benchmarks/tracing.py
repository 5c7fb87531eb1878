"""Spans and counters at the public boundaries of expstab's modules.

The tracer wraps module attributes from outside the program: nothing in
``src/`` knows it is traced.  A span records its duration and subtracts
itself from its parent's self time, so ``simulate``'s self time is what
is left after the engine, the control laws, the scalar laws and the
model signals.  Counters (``fresh_tag`` calls, ``Dual`` constructions
and their payload, regressor calls) are taken only inside
``BacksteppingEngine.evaluate``, and per-step counts only inside
``simulate``.  Spans are kept in memory as bounded samples.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from array import array
from collections import Counter

import numpy as np


class Samples:
    """Durations of one span: totals plus a bounded, evenly thinned sample."""

    __slots__ = ("n", "total", "self_total", "buf", "stride", "cap")

    def __init__(self, cap: int = 1 << 16):
        self.n = 0
        self.total = 0.0
        self.self_total = 0.0
        self.buf = array("d")
        self.stride = 1
        self.cap = cap

    def add(self, dt: float, self_dt: float) -> None:
        if self.n % self.stride == 0:
            self.buf.append(dt)
            if len(self.buf) >= self.cap:
                self.buf = self.buf[::2]
                self.stride *= 2
        self.n += 1
        self.total += dt
        self.self_total += self_dt

    def median(self) -> float:
        return statistics.median(self.buf)


class Tracer:
    """Installs and removes the wrappers; holds spans and counters."""

    def __init__(self):
        self.spans = {}
        self.counts = Counter()
        self.active = True
        self._stack = []
        self._patches = []
        self._eval_depth = 0
        self._sim_depth = 0

    # -- spans ---------------------------------------------------------------

    def samples(self, name: str) -> Samples:
        got = self.spans.get(name)
        if got is None:
            got = self.spans[name] = Samples()
        return got

    def _close(self, name: str, t0: float) -> None:
        dt = time.perf_counter() - t0
        child = self._stack.pop()
        self.samples(name).add(dt, dt - child)
        if self._stack:
            self._stack[-1] += dt

    def wrap(self, name: str, fn, in_sim_count: str | None = None):
        """A span around ``fn``; optionally count calls made inside simulate."""
        tracer = self
        stack = self._stack
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if in_sim_count is not None and tracer._sim_depth:
                tracer.counts[in_sim_count] += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(name, t0)

        wrapped.__wrapped__ = fn
        return wrapped

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call under a span (for calls the benchmark makes itself)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installation ---------------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        import expstab.backstepping as bs
        import expstab.cli as cli
        import expstab.duals as duals
        import expstab.scalar as scalar
        import expstab.scenarios as scenarios
        import expstab.sim as sim

        tracer = self
        perf = time.perf_counter
        stack = self._stack

        orig_sim = sim.simulate

        def simulate(scenario):
            if not tracer.active:
                return orig_sim(scenario)
            tracer._sim_depth += 1
            stack.append(0.0)
            t0 = perf()
            try:
                traj = orig_sim(scenario)
            finally:
                tracer._close("sim.simulate", t0)
                tracer._sim_depth -= 1
            tracer.counts["sim.steps"] += traj.monitors["steps"]
            return traj

        self._patch(sim, "simulate", simulate)

        orig_eval = bs.BacksteppingEngine.evaluate

        def evaluate(engine, t, x, theta_hat, mu=None, diagnostics=True):
            if not tracer.active:
                return orig_eval(engine, t, x, theta_hat, mu=mu, diagnostics=diagnostics)
            name = ("backstepping.evaluate_full" if diagnostics
                    else "backstepping.evaluate_light")
            if tracer._sim_depth:
                tracer.counts["backstepping.evaluate_in_sim"] += 1
            tracer._eval_depth += 1
            stack.append(0.0)
            t0 = perf()
            try:
                return orig_eval(engine, t, x, theta_hat, mu=mu, diagnostics=diagnostics)
            finally:
                tracer._close(name, t0)
                tracer._eval_depth -= 1

        self._patch(bs.BacksteppingEngine, "evaluate", evaluate)
        self._patch(bs.BacksteppingEngine, "__init__",
                    self.wrap("backstepping.engine_init", bs.BacksteppingEngine.__init__))

        for fn_name in ("control_theorem1", "control_theorem2"):
            self._patch(sim, fn_name, self.wrap("backstepping.control", getattr(sim, fn_name)))
        for fn_name in ("scalar_A_law", "scalar_B_law", "scalar_C_law"):
            self._patch(sim, fn_name, self.wrap("scalar.law", getattr(sim, fn_name)))
        for mod in (bs, scalar):
            self._patch(mod, "nussbaum_value",
                        self.wrap("nussbaum.value", mod.nussbaum_value,
                                  in_sim_count="nussbaum.in_sim"))

        for fn_name in ("fit_envelope", "settling_time", "detect_limit",
                        "energy_descent_ok"):
            self._patch(cli, fn_name, self.wrap("analysis.report", getattr(cli, fn_name)))
        self._patch(cli, "export_csv", self.wrap("sim.export", cli.export_csv))

        # counters inside evaluate
        def counted_tag(fn):
            def fresh_tag():
                if tracer._eval_depth:
                    tracer.counts["duals.tags"] += 1
                return fn()
            return fresh_tag

        for mod in (duals, bs):
            self._patch(mod, "fresh_tag", counted_tag(mod.fresh_tag))

        Dual = duals.Dual

        def elems(v) -> int:
            # array elements one slot carries directly; a nested Dual is
            # counted at its own construction, an exact zero carries nothing
            t = type(v)
            if t is np.ndarray:
                return v.size
            if t is Dual or (t is float and v == 0.0):
                return 0
            return 1

        orig_init = Dual.__init__

        def dual_init(d, tag, val, eps):
            orig_init(d, tag, val, eps)
            if tracer._eval_depth:
                counts = tracer.counts
                counts["duals.allocs"] += 1
                counts["duals.payload"] += elems(val) + sum(map(elems, eps))

        self._patch(Dual, "__init__", dual_init)

        def wrap_build(fn):
            def build(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                scn = tracer.call("scenarios.build", fn, *args, **kwargs)
                scn.model = tracer.wrap_model(scn.model)
                return scn
            return build

        for fn_name in ("build_wing_rock", "build_synthetic", "build_scalar"):
            self._patch(scenarios, fn_name, wrap_build(getattr(scenarios, fn_name)))

    def wrap_model(self, model):
        """The model with spans on its signals and counters on its regressors."""
        tracer = self

        def counted(reg):
            def regressor(*xs):
                if tracer._eval_depth:
                    tracer.counts["model.regressor_calls"] += 1
                return reg(*xs)
            return regressor

        return dataclasses.replace(
            model,
            theta_signal=self.wrap("model.signal", model.theta_signal),
            b_signal=self.wrap("model.signal", model.b_signal),
            regressors=[counted(r) for r in model.regressors],
        )

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    # -- results -------------------------------------------------------------

    def has(self, name: str) -> bool:
        return name in self.spans and self.spans[name].n > 0

    def median_us(self, name: str) -> float:
        return 1e6 * self.spans[name].median()

    def evals(self) -> int:
        return sum(self.spans[n].n for n in
                   ("backstepping.evaluate_full", "backstepping.evaluate_light")
                   if n in self.spans)
