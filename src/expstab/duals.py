"""Forward-mode automatic differentiation on tagged dual numbers.

Every quantity in the controller recursion is evaluated in an algebra of
``Dual`` objects carrying a value and a tuple of first-order sensitivities.
Nesting is supported through tags: a derivative taken inside another
derivative computation creates a fresh (higher) tag, and arithmetic always
dispatches on the highest tag present, treating lower-tagged operands as
constants.  This gives exact higher-order mixed partials without symbolic
work and without finite differences.

Tag promotion is stated once: in ``a op b`` equal tags combine, a
higher-tagged ``b`` answers with its reflected operator
(``b.__rsub__(a)``, ...), and anything else is a constant of ``a``'s
layer, which keeps nested perturbations apart (Siskind and Pearlmutter,
IFL 2005).  The elementary functions are one table, each built by
``_elementary(name, float_fn, array_fn, slope)``, ``slope(x, f(x))``
being the derivative: sin -> ``cos(x)``, cos -> ``-sin(x)``, exp ->
``f(x)``, log -> ``1 / x``, sqrt -> ``0.5 / f(x)``.

Performance notes (the dual algebra runs while a :class:`Tape` records a
program and in the un-recorded reference paths, ``virtual_law``,
``virtual_law_gradient`` and ``factorize_line_integral``; a simulation
step replays recorded programs and builds no duals):

* payloads may be plain floats or numpy arrays, which lets a caller batch
  many evaluation points (e.g. quadrature nodes) through one pass;
* literal float zeros fold: multiplying by ``0.0`` collapses to ``0.0`` --
  sound for value-and-derivative algebra since ``0 * f`` is identically
  zero -- adding or subtracting ``0.0`` returns the other operand, and
  ``0.0 - d`` is ``-d``, so structurally absent terms cost nothing and
  callers need no zero tests of their own;
* sensitivity tuples store exact float zeros for dead directions and all
  combining helpers skip them.

Recording (:class:`Tape`, :class:`Traced`): a traced leaf stands in for a
float or ndarray payload and writes every arithmetic operation applied to
it onto a tape.  Pushing traced leaves through the dual algebra once turns
an arbitrarily nested derivative computation into a flat list of float and
array operations, which :meth:`Tape.compile` turns into a replayable
program, a plain generated function with an ``n_ops`` attribute.  Each
value is recorded once: constants are keyed by value (an ndarray by
dtype, shape and bytes), so equal arrays built apart share a register,
and the operands of ``+`` and ``*`` are keyed in either order, so
``b * a`` after ``a * b`` records nothing.
:meth:`Tape.call` folds literal zeros by the same rules as the dual
algebra, so whether a zero reaches the tape as a dual or as a float
operand, the operation it makes absent is not recorded; products with
``1.0`` or with an all-ones float64 array that leave a float64 array's
shape alone are not recorded either.  A traced leaf is never a
``float``, so the folds fire only on literal zeros (zeros that do not
depend on the recorded inputs), and the recorded program is valid at
every input of the recorded types and shapes.  A :func:`last_node` read
of an array that is an elementwise expression of scalars and constants
(the base value of a quadrature ray, read off its sigma = 1 node) is
recorded as the same expression on scalars, so it costs neither the
read nor, where nothing else reads them, the array operations.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref

import numpy as np

from .codegen import _ELEMENTWISE, ReplayError, generate, last_node

__all__ = [
    "Dual",
    "fresh_tag",
    "seed",
    "value_of",
    "partials_of",
    "value_and_gradient",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "Tape",
    "Traced",
    "lift",
    "to_float",
    "last_node",
]

_tags = itertools.count(1)


def fresh_tag() -> int:
    """Return a new, strictly increasing derivative tag.

    ``next`` on an ``itertools.count`` is atomic under the GIL, so
    concurrent callers never draw the same tag.
    """
    return next(_tags)


def _is_zero(v) -> bool:
    return type(v) is float and v == 0.0


# exact-zero checks are inlined in the comprehensions below: these helpers
# run on every dual operation of a recording

def _eps_add(a: tuple, b: tuple) -> tuple:
    return tuple(
        [
            y if (type(x) is float and x == 0.0)
            else (x if (type(y) is float and y == 0.0) else x + y)
            for x, y in zip(a, b)
        ]
    )


def _eps_sub(a: tuple, b: tuple) -> tuple:
    return tuple(
        [
            (0.0 if (type(y) is float and y == 0.0) else -y)
            if (type(x) is float and x == 0.0)
            else (x if (type(y) is float and y == 0.0) else x - y)
            for x, y in zip(a, b)
        ]
    )


def _eps_scale(e: tuple, c) -> tuple:
    return tuple(
        [0.0 if (type(x) is float and x == 0.0) else x * c for x in e]
    )


def _eps_neg(e: tuple) -> tuple:
    return tuple(
        [0.0 if (type(x) is float and x == 0.0) else -x for x in e]
    )


class Dual:
    """A first-order jet: value plus sensitivities for one tag."""

    __slots__ = ("tag", "val", "eps")
    # Keep numpy from trying to broadcast over us elementwise.
    __array_ufunc__ = None

    def __init__(self, tag: int, val, eps: tuple):
        self.tag = tag
        self.val = val
        self.eps = eps

    def __repr__(self) -> str:
        return f"Dual(tag={self.tag}, val={self.val!r}, eps={self.eps!r})"

    # -- addition ---------------------------------------------------------
    def __add__(self, o):
        if type(o) is Dual:
            if o.tag == self.tag:
                return Dual(self.tag, self.val + o.val, _eps_add(self.eps, o.eps))
            if o.tag > self.tag:
                return o.__radd__(self)
        elif type(o) is float and o == 0.0:
            return self
        return Dual(self.tag, self.val + o, self.eps)

    __radd__ = __add__

    # -- subtraction ------------------------------------------------------
    def __sub__(self, o):
        if type(o) is Dual:
            if o.tag == self.tag:
                return Dual(self.tag, self.val - o.val, _eps_sub(self.eps, o.eps))
            if o.tag > self.tag:
                return o.__rsub__(self)
        elif type(o) is float and o == 0.0:
            return self
        return Dual(self.tag, self.val - o, self.eps)

    def __rsub__(self, o):
        if type(o) is float and o == 0.0:
            return -self
        return Dual(self.tag, o - self.val, _eps_neg(self.eps))

    def __neg__(self):
        return Dual(self.tag, -self.val, _eps_neg(self.eps))

    # -- multiplication ---------------------------------------------------
    def __mul__(self, o):
        if type(o) is Dual:
            if o.tag == self.tag:
                sv, ov = self.val, o.val
                return Dual(
                    self.tag,
                    sv * ov,
                    tuple(
                        [
                            (0.0 if (type(y) is float and y == 0.0) else y * sv)
                            if (type(x) is float and x == 0.0)
                            else (
                                x * ov
                                if (type(y) is float and y == 0.0)
                                else x * ov + y * sv
                            )
                            for x, y in zip(self.eps, o.eps)
                        ]
                    ),
                )
            if o.tag > self.tag:
                return o.__rmul__(self)
        elif (type(o) is float or type(o) is int) and o == 0.0:
            return 0.0
        return Dual(self.tag, self.val * o, _eps_scale(self.eps, o))

    __rmul__ = __mul__

    # -- division ---------------------------------------------------------
    # the value lane divides directly (bit-identical to plain evaluation);
    # reciprocals only ever scale the derivative lane
    def __truediv__(self, o):
        if type(o) is Dual:
            if o.tag == self.tag:
                inv = 1.0 / o.val
                q = self.val / o.val
                return Dual(
                    self.tag,
                    q,
                    tuple(
                        (0.0 if _is_zero(y) else -q * y * inv)
                        if _is_zero(x)
                        else ((x - q * y) * inv if not _is_zero(y) else x * inv)
                        for x, y in zip(self.eps, o.eps)
                    ),
                )
            if o.tag > self.tag:
                return o.__rtruediv__(self)
        return Dual(self.tag, self.val / o, _eps_scale(self.eps, 1.0 / o))

    def __rtruediv__(self, o):
        inv = 1.0 / self.val
        q = o / self.val
        return Dual(self.tag, q, _eps_scale(self.eps, -q * inv))

    # -- powers -----------------------------------------------------------
    def __pow__(self, p):
        if p == 0:
            return 1.0  # a constant, as the literal-zero folds return 0.0
        if p == 2:
            two_v = 2.0 * self.val
            return Dual(self.tag, self.val * self.val, _eps_scale(self.eps, two_v))
        v = self.val**p
        return Dual(self.tag, v, _eps_scale(self.eps, p * self.val ** (p - 1)))


def seed(args):
    """Wrap ``args`` as independent variables of a new tag.

    Returns ``(tag, seeded)`` where ``seeded[i]`` carries a unit
    sensitivity in direction ``i``.
    """
    tag = fresh_tag()
    units = _unit_cache(len(args))
    return tag, [Dual(tag, a, units[i]) for i, a in enumerate(args)]


_UNITS: dict[int, tuple] = {}


def _unit_cache(k: int):
    got = _UNITS.get(k)
    if got is None:
        got = tuple(tuple(1.0 if j == i else 0.0 for j in range(k)) for i in range(k))
        _UNITS[k] = got
    return got


def value_of(x):
    """Strip every dual layer, returning the underlying float/array."""
    while type(x) is Dual:
        x = x.val
    return x


def partials_of(y, tag: int, k: int) -> tuple:
    """Sensitivities of ``y`` w.r.t. the ``k`` seeds of ``tag``.

    Quantities untouched by the seeds come back as exact zeros.
    """
    if type(y) is Dual and y.tag == tag:
        return y.eps
    return (0.0,) * k


def strip_tag(y, tag: int):
    """Value of ``y`` with layer ``tag`` removed (other tags intact)."""
    if type(y) is Dual and y.tag == tag:
        return y.val
    return y


def value_and_gradient(f, args):
    """Evaluate ``f(*args)`` together with its gradient.

    ``f`` must be composed of arithmetic supported by the dual algebra.
    ``args`` may themselves be duals of outer tags; the returned value and
    partials then live in the caller's algebra.
    """
    tag, seeded = seed(tuple(args))
    y = f(*seeded)
    return strip_tag(y, tag), partials_of(y, tag, len(seeded))


# -- elementary functions --------------------------------------------------


def _elementary(name: str, scalar, array, slope):
    """One elementary function, its derivative given as ``slope(x, f(x))``.

    The result dispatches on its argument's type: a :class:`Dual` takes
    the chain rule on its own tag (the value first, then the slope, both
    evaluated on the dual's payload), a float or int goes to ``scalar``,
    a :class:`Traced` leaf is recorded as one call, and anything else (an
    ndarray) goes to ``array``.
    """

    def f(x):
        if type(x) is Dual:
            v = f(x.val)
            return Dual(x.tag, v, _eps_scale(x.eps, slope(x.val, v)))
        if type(x) is float or type(x) is int:
            return scalar(x)
        if type(x) is Traced:
            return x.tape.call(f, x)
        return array(x)

    f.__name__ = f.__qualname__ = name
    return f


sin = _elementary("sin", math.sin, np.sin, lambda x, v: cos(x))
cos = _elementary("cos", math.cos, np.cos, lambda x, v: -sin(x))
exp = _elementary("exp", math.exp, np.exp, lambda x, v: v)
log = _elementary("log", math.log, np.log, lambda x, v: 1.0 / x)
sqrt = _elementary("sqrt", math.sqrt, np.sqrt, lambda x, v: 0.5 / v)


# -- recording and replay ----------------------------------------------------


def _traced_binary(fn):
    def forward(self, o):
        if type(o) is Dual:
            return NotImplemented  # the dual algebra treats us as a constant
        return self.tape.call(fn, self, o)

    def reflected(self, o):
        return self.tape.call(fn, o, self)

    return forward, reflected


class Traced:
    """A float or ndarray payload whose arithmetic is written to a tape.

    ``v`` is the concrete value at the recording point.  Only its type and
    shape (``ndim``) may steer a recording, never its numbers: like
    :class:`Dual` a traced leaf supports no ordering, and ``float()`` or
    truth-testing it raises, so a value-dependent branch cannot slip into
    a recording unnoticed.
    """

    __slots__ = ("tape", "reg", "v", "__weakref__")
    # Keep numpy from trying to broadcast over us elementwise.
    __array_ufunc__ = None

    def __init__(self, tape: "Tape", reg: int, v):
        self.tape = tape
        self.reg = reg
        self.v = v

    def __repr__(self) -> str:
        return f"Traced(reg={self.reg}, v={self.v!r})"

    @property
    def ndim(self) -> int:
        return np.ndim(self.v)

    def is_array(self) -> bool:
        return type(self.v) is np.ndarray

    def __bool__(self):
        raise TypeError("the truth value of a traced leaf depends on the inputs")

    __add__, __radd__ = _traced_binary(operator.add)
    __sub__, __rsub__ = _traced_binary(operator.sub)
    __mul__, __rmul__ = _traced_binary(operator.mul)
    __truediv__, __rtruediv__ = _traced_binary(operator.truediv)
    __pow__, __rpow__ = _traced_binary(operator.pow)
    __matmul__, __rmatmul__ = _traced_binary(operator.matmul)

    def __neg__(self):
        return self.tape.call(operator.neg, self)

    def __abs__(self):
        return self.tape.call(abs, self)


def lift(fn, *args):
    """``fn(*args)`` on plain leaves, recorded as one operation when traced.

    This is how non-arithmetic leaf functions (``math.sqrt``, numpy
    reductions, ...) stay transparent to recording.
    """
    for a in args:
        if type(a) is Traced:
            return a.tape.call(fn, *args)
    return fn(*args)


def to_float(v):
    """``float(v)``, recorded when ``v`` is traced (and free when it is one)."""
    if type(v) is Traced:
        return v if type(v.v) is float else v.tape.call(float, v)
    return float(v)


def _exact_float(t) -> bool:
    # payloads that multiplying by 1.0 returns bit for bit, type included
    v = t.v
    return type(v) is float or type(v) is np.float64 or (
        type(v) is np.ndarray and v.dtype == np.float64
    )


def _vector(v) -> bool:
    """True for a 1-d float64 array of at least one entry."""
    return type(v) is np.ndarray and v.ndim == 1 and v.dtype == np.float64 \
        and v.shape[0] > 0


def _unit_array(c, x) -> bool:
    """True when ``x * c`` and ``x / c`` are ``x`` bit for bit.

    That is when ``c`` is a float64 array of ones, ``x`` a traced float64
    array and the product keeps ``x``'s shape.
    """
    if type(c) is not np.ndarray or c.dtype != np.float64 or type(x) is not Traced:
        return False
    v = x.v
    if type(v) is not np.ndarray or v.dtype != np.float64 or c.ndim > v.ndim:
        return False
    for k, m in zip(c.shape[::-1], v.shape[::-1]):
        if k != 1 and k != m:
            return False
    return bool((c == 1.0).all())


def _numeric(a) -> bool:
    # operands whose sums and products commute (sequences concatenate)
    v = a.v if type(a) is Traced else a
    t = type(v)
    return t is float or t is int or t is np.float64 or (
        t is np.ndarray and not v.dtype.hasobject
    )


def _const_last(c):
    """The last-node entry of a constant operand, or None to keep the read.

    A zero entry is kept out: the tape folds ``0.0 * x`` to ``0.0``, which
    differs from the array's entry when ``x`` is not finite.
    """
    t = type(c)
    if t is float or t is int or t is np.float64:
        return c
    if t is np.ndarray and c.ndim == 1 and c.dtype == np.float64:
        v = float(c[-1])
        return v if v != 0.0 and math.isfinite(v) else None
    return None


class Tape:
    """The leaf operations of one recorded pass, in execution order.

    Values live in virtual registers: one per input, per distinct constant
    value and per operation.  Identical operations on identical registers
    are recorded once (every recorded function is pure), with the two
    operands of ``+`` and ``*`` taken in either order, so a recursion that
    re-derives the same quantity in several derivative contexts pays for
    it once on replay.  An ndarray constant is keyed by its dtype, shape
    and bytes (so ``-0.0`` and ``0.0`` stay apart), and the tape keeps a
    read-only copy of it.  Concrete values are held only as long as the
    recorded computation itself holds them, float scalars excepted.  A
    recording is valid for inputs of the types and shapes it was made on.
    """

    def __init__(self):
        self._ops = []  # (fn, out register, argument registers)
        self._inputs = []
        self._consts = {}  # register -> constant value
        self._const_reg = {}
        self._memo = {}  # (fn, *argument registers) -> (register, weakref)
        self._elementwise = {}  # register -> (fn, argument registers)
        self._scalars = {}  # register -> value, for float scalar registers
        self._lengths = {}  # register -> length, for 1-d float64 registers
        self._nreg = 0

    def input(self, value) -> Traced:
        t = Traced(self, self._nreg, value)
        self._nreg += 1
        self._inputs.append(t.reg)
        if type(value) is float or type(value) is np.float64:
            self._scalars[t.reg] = value
        elif _vector(value):
            self._lengths[t.reg] = len(value)
        return t

    def _const(self, value) -> int:
        tv = type(value)
        by_value = tv is np.ndarray and not value.dtype.hasobject
        if tv is float or tv is np.float64:
            key = (tv, value, math.copysign(1.0, value))  # keeps -0.0 apart
        elif tv is int:
            key = (int, value)
        elif by_value:
            # equal arrays built apart share a register; the bytes keep
            # -0.0 apart
            key = (value.dtype, value.shape, value.tobytes())
        else:
            key = (id(value),)  # the tape holds the object, so the id is unique
        reg = self._const_reg.get(key)
        if reg is None:
            if by_value:
                # the tape's own copy: a caller writing to its array later
                # changes no register
                value = value.copy()
                value.flags.writeable = False
            reg = self._nreg
            self._nreg += 1
            self._const_reg[key] = reg
            self._consts[reg] = value
        return reg

    def _reg_of(self, node) -> int:
        return node.reg if type(node) is Traced else self._const(node)

    def call(self, fn, *args) -> Traced:
        """Record ``fn(*args)``; at least one argument is traced.

        Literal float zeros fold as they do in the dual algebra: a product
        with one is ``0.0``, ``x + 0.0``, ``0.0 + x`` and ``x - 0.0`` are
        ``x``, and ``0.0 - x`` records ``-x``.  Multiplying or dividing by
        a literal ``1.0`` records nothing either, nor does multiplying or
        dividing a float64 array by a float64 array of ones that keeps its
        shape.  So a term that is structurally absent costs no operation,
        whoever writes it.  Sums and products of numbers are memoised
        with their operands in sorted register order: IEEE ``a + b`` and
        ``a * b`` equal ``b + a`` and ``b * a`` bit for bit (NaN payloads
        aside), broadcasting included.  A :func:`last_node` read of an
        elementwise expression is recorded on the expression's scalar
        leaves where it can be.
        """
        if fn is operator.mul:
            a, b = args
            if _is_zero(a) or _is_zero(b):
                return 0.0  # as in the dual algebra: 0 * x is identically zero
            # x * 1.0 and x * ones are x bit for bit: no operation
            if (type(b) is float and b == 1.0 and _exact_float(a)) or _unit_array(b, a):
                return a
            if (type(a) is float and a == 1.0 and _exact_float(b)) or _unit_array(a, b):
                return b
        elif fn is operator.add or fn is operator.sub:
            a, b = args
            # x + 0.0, 0.0 + x and x - 0.0 are x (but for the sign of a zero)
            if _is_zero(b) and _exact_float(a):
                return a
            if _is_zero(a):
                if fn is operator.sub:
                    return self.call(operator.neg, b)
                if _exact_float(b):
                    return b
        elif fn is operator.truediv:
            a, b = args
            if (type(b) is float and b == 1.0 and _exact_float(a)) or _unit_array(b, a):
                return a
        elif fn is last_node:
            got = self._read_last_node(args[0].reg)
            if got is not None:
                return got
        regs = tuple([a.reg if type(a) is Traced else self._const(a) for a in args])
        key = (fn,) + regs
        if (fn is operator.mul or fn is operator.add) and regs[0] > regs[1] \
                and _numeric(args[0]) and _numeric(args[1]):
            key = (fn, regs[1], regs[0])  # a * b is b * a bit for bit
        hit = self._memo.get(key)
        if hit is not None:
            got = hit[1]()
            if got is not None:
                return got
        v = fn(*[a.v if type(a) is Traced else a for a in args])
        if hit is not None:
            # recorded before, value since released: same register
            out = Traced(self, hit[0], v)
        else:
            out = Traced(self, self._nreg, v)
            self._nreg += 1
            self._ops.append((fn, out.reg, regs))
            if fn in _ELEMENTWISE:
                self._elementwise[out.reg] = (fn, regs)
        if type(v) is float or type(v) is np.float64:
            self._scalars[out.reg] = v
        elif _vector(v):
            self._lengths[out.reg] = len(v)
        self._memo[key] = (out.reg, weakref.ref(out))
        return out

    def _read_last_node(self, root: int):
        """The last-node entry of array register ``root`` as scalar operations.

        Applies when ``root`` is an elementwise expression whose leaves are
        all float scalars or constants (a constant array contributes its
        last entry, so the sigma = 1 node of a quadrature ray reads as
        ``1.0``); returns None otherwise.
        """
        scalars = self._scalars
        elementwise = self._elementwise
        if root in scalars or root not in elementwise:
            return None
        inner = []
        seen = set()
        stack = [root]
        while stack:
            reg = stack.pop()
            if reg in seen or reg in scalars:
                continue
            seen.add(reg)
            if reg in self._consts:
                if _const_last(self._consts[reg]) is None:
                    return None
                continue
            op = elementwise.get(reg)
            if op is None:
                return None  # an array leaf: keep the read
            inner.append(reg)
            stack.extend(op[1])

        entries = {}

        def entry(reg):
            got = entries.get(reg)
            if got is not None:
                return got
            if reg in scalars:
                return Traced(self, reg, scalars[reg])
            return _const_last(self._consts[reg])

        # an operation's register follows its arguments' registers
        for reg in sorted(inner):
            fn, args = elementwise[reg]
            entries[reg] = self.call(fn, *[entry(a) for a in args])
        return entries[root]

    def __len__(self) -> int:
        return len(self._ops)

    def compile(self, outputs):
        """The program from the tape's inputs to ``outputs``.

        ``outputs`` is a nested tuple of traced values and constants; the
        program is a generated function that takes a sequence of every
        input of the tape, in recording order, and returns ``outputs``
        with the same nesting.  Its ``n_ops`` attribute is the number of
        operations it runs.  Only operations some output depends on are
        kept, and a register is reused as soon as its last reader has run,
        so a replay holds no more intermediate arrays at once than the
        live set requires.  Calls share no state, so one program may serve
        concurrent callers.  :func:`expstab.codegen.generate` writes it.
        """
        return generate(self, outputs)
