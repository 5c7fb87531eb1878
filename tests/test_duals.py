import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expstab import codegen, duals
from expstab.duals import (
    Dual,
    Tape,
    Traced,
    cos,
    exp,
    last_node,
    lift,
    seed,
    sin,
    value_and_gradient,
    value_of,
)


def test_polynomial_derivative():
    val, grad = value_and_gradient(lambda x: x**2, (3.0,))
    assert val == 9.0
    assert grad == (6.0,)


def test_constant_has_zero_gradient():
    val, grad = value_and_gradient(lambda x: 7.5, (2.0,))
    assert val == 7.5
    assert grad == (0.0,)


def test_multivariate_gradient():
    f = lambda x, y: x * y + y**2  # noqa: E731
    val, grad = value_and_gradient(f, (2.0, 3.0))
    assert val == 15.0
    assert grad == (3.0, 2.0 + 6.0)


def test_chain_rule_matches_central_differences():
    def f(x, y):
        return sin(x * y) * exp(x) + cos(y) / (1.0 + x * x)

    pt = (0.7, -1.3)
    val, grad = value_and_gradient(f, pt)
    h = 1e-6
    for j in range(2):
        up = list(pt)
        dn = list(pt)
        up[j] += h
        dn[j] -= h
        fd = (f(*up) - f(*dn)) / (2 * h)
        assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(grad[j]))


def test_nested_second_derivative():
    # d/dx of (d/dx x^3) = 6x via one level of nesting
    def outer(x):
        _, (inner,) = value_and_gradient(lambda y: y**3, (x,))
        return inner

    val, grad = value_and_gradient(outer, (2.0,))
    assert val == 12.0  # 3 x^2
    assert grad == (12.0,)  # 6 x


def test_division_and_rsub():
    val, grad = value_and_gradient(lambda x: 1.0 - 2.0 / x, (4.0,))
    assert val == 0.5
    assert abs(grad[0] - 2.0 / 16.0) < 1e-15


def test_zero_multiplication_collapses():
    tag, (x,) = seed((1.5,))
    assert 0.0 * x == 0.0
    assert x * 0.0 == 0.0


def test_adding_a_literal_zero_returns_the_dual():
    tag, (d,) = seed((1.5,))
    assert d + 0.0 is d
    assert 0.0 + d is d
    assert d - 0.0 is d
    neg = 0.0 - d
    assert (neg.tag, neg.val, neg.eps) == (tag, -1.5, (-1.0,))
    # 0.0 - d is -d, down to the sign of a zero value
    _, (z,) = seed((0.0,))
    assert math.copysign(1.0, (0.0 - z).val) == -1.0


def test_array_payload_batching():
    tag, seeded = seed((np.array([1.0, 2.0, 3.0]),))
    y = seeded[0] ** 2
    assert np.allclose(value_of(y), [1.0, 4.0, 9.0])
    assert np.allclose(y.eps[0], [2.0, 4.0, 6.0])


def test_numpy_does_not_consume_duals():
    tag, (x,) = seed((2.0,))
    y = np.float64(3.0) * x
    assert isinstance(y, Dual)
    assert value_of(y) == 6.0


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        value_and_gradient(lambda x: 1.0 / (x - x), (1.0,))


def test_value_equals_plain_evaluation():
    def f(x, y):
        return (x + 2.0) * (y - x) / (1.0 + y * y)

    pt = (0.3, 0.9)
    val, _ = value_and_gradient(f, pt)
    assert val == f(*pt)  # bit-identical: same arithmetic on the value lane


# -- recording and replay -------------------------------------------------------


def _record(f, *values):
    from expstab.duals import Tape

    tape = Tape()
    leaves = [tape.input(v) for v in values]
    return tape, tape.compile(f(*leaves))


def test_replay_matches_direct_evaluation_through_duals():
    def f(x, y):
        # derivative of a dual expression, recorded on plain leaves
        val, (dx, dy) = value_and_gradient(lambda a, b: sin(a * b) / (1.0 + a * a) - b**2, (x, y))
        return (val, dx, dy, exp(x) - 0.0, 2.0 - x * y, np.float64(0.5) / y, -x)

    tape, prog = _record(f, 0.7, -1.3)
    for pt in ((0.7, -1.3), (-2.0, 0.25), (0.0, 3.0)):
        assert prog(pt) == f(*pt)  # bit-identical: the same leaf arithmetic
    arr = (np.linspace(-1.0, 1.0, 5), np.full(5, 0.5))
    got = prog(arr)
    for g, w in zip(got, f(*arr)):
        assert np.array_equal(g, w)


def test_recording_merges_repeats_and_skips_unit_scaling():
    from expstab.duals import Traced

    def f(x, y):
        return (x * y + x * y, 1.0 * x, x / 1.0, y * 1.0,
                0.0 * x, x * 0.0, x + 0.0, 0.0 + x, x - 0.0, 0.0 - y)

    tape, prog = _record(f, 2.0, 3.0)
    assert len(tape) == 3  # one product, one sum, one negation
    assert prog((2.0, 3.0)) == (12.0, 2.0, 2.0, 3.0, 0.0, 0.0, 2.0, 2.0, 2.0, -3.0)
    assert prog((-1.5, 0.25)) == (-0.75, -1.5, -1.5, 0.25, 0.0, 0.0, -1.5, -1.5, -1.5, -0.25)
    assert prog.n_ops == 3
    with pytest.raises(TypeError):
        float(Traced(tape, 0, 1.0))
    with pytest.raises(TypeError):
        bool(Traced(tape, 0, 1.0))


def test_replay_rejects_wrong_input_count():
    from expstab.duals import ReplayError

    _, prog = _record(lambda x, y: (x * y,), 2.0, 3.0)
    with pytest.raises(ReplayError):
        prog((1.0,))


def test_unused_operations_are_dropped():
    from expstab.duals import ReplayError, Tape

    tape = Tape()
    x, a, y = tape.input(1.5), tape.input(2.0), tape.input(-0.5)
    keep = x * y
    drop = x - a  # noqa: F841 (recorded, never an output)
    prog = tape.compile((keep, (keep + y, 3.0)))
    assert len(tape) == 3 and prog.n_ops == 2
    # a takes its place in the call although no output reads it
    assert prog((2.0, 7.0, 4.0)) == (8.0, (12.0, 3.0))
    assert prog((-1.0, None, 0.5)) == (-0.5, (0.0, 3.0))
    for wrong in ((2.0, 4.0), (2.0, 7.0, 4.0, 1.0)):
        with pytest.raises(ReplayError):
            prog(wrong)


def test_last_node_read_of_a_scalar_expression_records_scalar_ops():
    from expstab.duals import Tape, last_node, lift

    sigma = np.array([0.25, 0.5, 1.0])  # quadrature nodes, sigma = 1 last
    tape = Tape()
    x, z, c = tape.input(0.7), tape.input(-1.3), tape.input(2.5)
    ray = sigma * z + (sigma * x) * c
    recorded = len(tape)
    base = lift(last_node, ray)
    # sigma's last entry is 1.0 and 1.0 * v folds: z + x * c, no read
    assert len(tape) == recorded + 2
    prog = tape.compile((base, ray))
    for pt in ((0.7, -1.3, 2.5), (-3.0, 0.125, 1e300), (0.0, -0.0, math.inf)):
        with np.errstate(invalid="ignore"):  # 0 * inf in the ray
            got_base, got_ray = prog(pt)
        assert type(got_base) is float
        want = float(got_ray[-1])
        assert got_base == want or (math.isnan(got_base) and math.isnan(want))
    assert base.v == last_node(ray.v)


def test_last_node_read_keeps_array_leaves():
    from expstab.duals import Tape, last_node, lift

    sigma = np.array([0.25, 1.0])
    tape = Tape()
    x = tape.input(0.7)
    arr = tape.input(np.array([1.0, 2.0]))
    for ray in (sigma * x + arr,                    # an array input
                lift(np.cumsum, sigma * x) * x,     # not elementwise
                (sigma * x) / x):                   # division is not rewritten
        recorded = len(tape)
        base = lift(last_node, ray)
        assert len(tape) == recorded + 1 and tape._ops[-1][0] is last_node
        assert base.v == last_node(ray.v)


# -- one register per value --------------------------------------------------


def test_equal_constant_arrays_share_a_register():
    from expstab.duals import Tape

    tape = Tape()
    x = tape.input(np.array([0.5, -2.0]))
    first = x * np.array([2.0, 3.0])
    again = x * np.array([2.0, 3.0])  # an equal array, built apart
    assert again is first and len(tape) == 1
    assert tape._const(np.array([2.0, 3.0])) == tape._const(np.arange(2.0, 4.0))


@pytest.mark.parametrize("a,b", [
    (np.array([0.0]), np.array([-0.0])),
    (np.array([2.0], dtype=np.float32), np.array([2.0])),
    (np.full(9, 2.0), np.full((9, 1), 2.0)),
])
def test_constants_differing_in_sign_dtype_or_shape_stay_apart(a, b):
    from expstab.duals import Tape

    tape = Tape()
    x = tape.input(np.linspace(0.5, 1.5, len(a)))
    pa, pb = x * a, x * b
    assert len(tape) == 2 and tape._const(a) != tape._const(b)
    prog = tape.compile((pa, pb))
    v = np.linspace(-1.0, 1.0, len(a))
    got_a, got_b = prog((v,))
    for got, want in ((got_a, v * a), (got_b, v * b)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_writing_to_a_recorded_constant_changes_no_replay():
    from expstab.duals import Tape

    c = np.array([2.0, 3.0])
    tape = Tape()
    x = tape.input(np.array([1.0, 1.0]))
    before = x * c
    c[:] = 7.0
    after = x * c  # a new value: a new register, not the old one
    prog = tape.compile((before, after))
    got_before, got_after = prog((np.array([1.0, 2.0]),))
    assert np.array_equal(got_before, [2.0, 6.0])
    assert np.array_equal(got_after, [7.0, 14.0])
    assert all(not c.flags.writeable for c in tape._consts.values()
               if type(c) is np.ndarray)


def test_commuted_sums_and_products_are_recorded_once():
    from expstab.duals import Tape

    tape = Tape()
    a, b = tape.input(np.array([[1.0, 2.0], [3.0, 4.0]])), tape.input(np.eye(2) - 0.5)
    column = np.array([[0.5], [-1.5]])
    product, total, scaled = a * b, a + b, column * a
    recorded = len(tape)
    assert b * a is product and b + a is total and a * column is scaled
    assert len(tape) == recorded
    others = (b - a, a - b, b / a, a / b, b @ a, a @ b)
    assert len(tape) == recorded + len(others)
    prog = tape.compile((product, total, scaled) + others)
    va, vb = np.array([[0.5, -1.0], [2.0, 0.25]]), np.array([[3.0, 1.0], [-2.0, 4.0]])
    want = (va * vb, va + vb, column * va, vb - va, va - vb, vb / va, va / vb, vb @ va, va @ vb)
    for got, w in zip(prog((va, vb)), want):
        assert np.array_equal(got, w)


def test_concatenation_is_not_commuted():
    from expstab.duals import Tape

    tail = (2.0,)
    tape = Tape()
    head = tape.input((1.0,))
    front, back = head + tail, tail + head
    assert front is not back and len(tape) == 2
    assert tape.compile((front, back))(((5.0,),)) == ((5.0, 2.0), (2.0, 5.0))


@pytest.mark.parametrize("x,ones", [
    (np.linspace(-0.9, 1.1, 9), np.ones(9)),
    (np.linspace(-0.9, 1.1, 9), np.ones(1)),
    (np.linspace(-0.9, 1.1, 9), np.array(1.0)),
    (np.arange(81.0).reshape(9, 9), np.ones(9)),
    (np.arange(81.0).reshape(9, 9), np.ones((9, 1))),
])
def test_unit_arrays_fold(x, ones):
    from expstab.duals import Tape

    tape = Tape()
    t = tape.input(x)
    assert t * ones is t and ones * t is t and t / ones is t
    assert len(tape) == 0


@pytest.mark.parametrize("x,ones", [
    (2.5, np.ones(1)),                                   # a scalar leaf grows a shape
    (np.linspace(-0.9, 1.1, 9), np.ones((9, 1))),        # the product broadcasts
    (np.array([0.5]), np.ones(9)),
    (np.linspace(-0.9, 1.1, 9, dtype=np.float32), np.ones(9)),
    (np.linspace(-0.9, 1.1, 9), np.ones(9, dtype=np.float32)),
    (np.linspace(-0.9, 1.1, 9), np.array([1.0] * 8 + [1.0 + 2.0**-52])),
])
def test_near_unit_arrays_are_recorded(x, ones):
    from expstab.duals import Tape

    tape = Tape()
    t = tape.input(x)
    outs = (t * ones, ones * t, t / ones, ones / t)
    assert len(tape) == 3  # the commuted product is the same operation
    got = tape.compile(outs)((x,))
    for g, w in zip(got, (x * ones, ones * x, x / ones, ones / x)):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.array_equal(g, w)


def _same_bits(got, want) -> bool:
    return type(got) is type(want) and (
        np.asarray(got).dtype == np.asarray(want).dtype
        and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def _op_by_op(tape, outputs, values):
    """``outputs`` at ``values``, running the tape's operations one by one."""
    regs = dict(zip(tape._inputs, values))
    regs.update(tape._consts)
    for fn, out, args in tape._ops:
        regs[out] = fn(*[regs[r] for r in args])

    def read(node):
        if type(node) is tuple:
            return tuple(read(e) for e in node)
        return regs[node.reg] if type(node) is Traced else node

    return read(outputs)


def test_chunked_replay_equals_the_tape_op_by_op():
    from expstab.codegen import _CHUNK_STATEMENTS
    from expstab.duals import ReplayError

    tape = Tape()
    x, y = tape.input(0.7), tape.input(-1.3)
    a = tape.input(np.linspace(-1.0, 1.0, 5))
    early = x * y  # a float read again in the last chunk
    acc, arr = x, a
    for _ in range(_CHUNK_STATEMENTS):
        acc = acc * 0.5 + y - (-0.25)
        arr = lift(np.sin, arr * acc) + np.float64(2.0) * a
    outputs = (acc + early, (arr * early, -early, early ** 2), 3.0, y,
               math.inf * x, np.arange(3.0), lift(last_node, arr))
    prog = tape.compile(outputs)
    assert prog.n_ops > 2 * _CHUNK_STATEMENTS
    assert len([n for n in prog.__globals__ if n.startswith("_c")]) >= 3

    def leaves(node):
        return [v for e in node for v in leaves(e)] if type(node) is tuple else [node]

    for values in ((0.7, -1.3, np.linspace(-1.0, 1.0, 5)),
                   (-2.5, 0.125, np.array([3.0, -0.0, 1e-300, 7.5, -4.0]))):
        got, want = prog(values), _op_by_op(tape, outputs, values)
        assert len(leaves(got)) == len(leaves(want)) == 9
        for g, w in zip(leaves(got), leaves(want)):
            assert _same_bits(g, w)
    for wrong in ((0.7, -1.3), (0.7, -1.3, np.ones(5), 1.0), ()):
        with pytest.raises(ReplayError, match="recorded for 3 inputs"):
            prog(wrong)


def test_a_value_last_read_at_a_chunk_start_outlives_the_chunk_before():
    from expstab.codegen import _CHUNK_STATEMENTS

    def chain(x, y, halvings):
        early = x * y
        acc = x
        for _ in range(halvings[0]):
            acc = acc * 0.5
        middle = acc + early  # read in the second chunk
        for _ in range(halvings[1]):
            acc = acc * 0.5
        return middle, early * acc + y  # read last by the third chunk's first operation

    halvings = (_CHUNK_STATEMENTS + 8, _CHUNK_STATEMENTS - 10)
    tape = Tape()
    x, y = tape.input(0.7), tape.input(-1.3)
    outputs = chain(x, y, halvings)
    prog = tape.compile(outputs)
    assert prog.n_ops == len(tape) and tape._ops[2 * _CHUNK_STATEMENTS][2][0] == 2  # early * acc
    for values in ((0.7, -1.3), (2.0, 0.25)):
        assert prog(values) == chain(*values, halvings)


# -- unrolled node arrays ---------------------------------------------------------

_SPECIAL = st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e300, math.inf, -math.inf, math.nan])
_VALUE = st.one_of(_SPECIAL, st.floats(-1e3, 1e3))
_BINARY = ("add", "sub", "mul")


def _total(v) -> float:
    # a numpy reduction that returns a Python float
    return float(np.sum(v))


def _apply(step, pool, consts):
    """One step of a drawn program on values that may be traced."""
    kind, i, j, c = step
    a, b, k = pool[i % len(pool)], pool[j % len(pool)], consts[c % len(consts)]
    arrays = [v for v in pool if np.ndim(v) == 1]
    if kind in _BINARY:
        return getattr(operator, kind)(a, b)
    if kind == "const":  # a constant on either side, as the recursion writes it
        return getattr(operator, _BINARY[c % 3])(*((a, k) if j % 2 else (k, a)))
    if kind == "neg":
        return -a
    if not arrays:
        return a * k
    v = arrays[i % len(arrays)]
    if kind == "cumsum":  # a numpy operation from an array to an array
        return lift(np.cumsum, v)
    if kind == "total":
        return lift(_total, v)
    return lift(last_node, v)


@st.composite
def _programs(draw):
    """A program of elementwise steps and numpy calls on node arrays.

    Returns the entry count, the drawn constants, the steps, which pool
    values are outputs, and a recording and a replay point.
    """
    n = draw(st.sampled_from([1, 2, 9, codegen._UNROLL, codegen._UNROLL + 1]))
    consts = draw(st.lists(st.one_of(
        _VALUE,
        st.builds(np.float64, _VALUE),
        st.builds(lambda v: np.array([v]), _VALUE),
        st.builds(np.array, _VALUE),
        st.lists(_VALUE, min_size=n, max_size=n).map(np.array),
    ), min_size=1, max_size=6))
    kinds = st.sampled_from(_BINARY + ("const", "neg", "cumsum", "total", "last"))
    big = st.integers(0, 10**6)
    steps = draw(st.lists(st.tuples(kinds, big, big, big), min_size=1, max_size=60))
    keep = draw(st.lists(st.booleans(), min_size=len(steps) + 4, max_size=len(steps) + 4))

    def point():
        return (draw(_VALUE), draw(_VALUE), np.array(draw(st.lists(_VALUE, min_size=n, max_size=n))))

    return n, consts, steps, keep, point(), point()


def _same_values(got, want) -> bool:
    """Same type, dtype and shape, and bit-identical but for NaN payloads.

    Where two NaNs meet, numpy's loops and Python floats may keep either
    one (IEEE leaves the choice open), so a NaN only has to be a NaN.
    """
    g, w = np.asarray(got), np.asarray(want)
    if type(got) is not type(want) or g.dtype != w.dtype or g.shape != w.shape:
        return False
    nan = np.isnan(w)
    return bool(np.array_equal(np.isnan(g), nan)) and g[~nan].tobytes() == w[~nan].tobytes()


def _run(n, consts, steps, keep, x, y, a):
    """A drawn program's outputs: the last value, and the kept ones."""
    pool = [x, y, a, a * np.linspace(0.5, 1.0, n)]  # an array input and result
    for step in steps:
        pool.append(_apply(step, pool, consts))
    return tuple(v for v, k in zip(pool, keep) if k) + (pool[-1],)


@settings(max_examples=150)
@given(program=_programs(), chunk=st.sampled_from([16, 64, codegen._CHUNK_STATEMENTS]))
def test_unrolled_replay_equals_the_tape_op_by_op(program, chunk):
    n, consts, steps, keep, at, replay_at = program
    saved = codegen._CHUNK_STATEMENTS
    codegen._CHUNK_STATEMENTS = chunk  # chunk boundaries inside short programs too
    try:
        tape = Tape()
        with np.errstate(all="ignore"):
            outputs = _run(n, consts, steps, keep, *[tape.input(v) for v in at])
            prog = tape.compile(outputs)
            for values in (at, replay_at):
                got, want = prog(values), _op_by_op(tape, outputs, values)
                assert len(got) == len(want)
                for g, w in zip(got, want):
                    assert _same_values(g, w), (g, w)
    finally:
        codegen._CHUNK_STATEMENTS = saved


# -- nested tags ------------------------------------------------------------------

_H = 1e-6


def _central(f, x):
    return (f(x + _H) - f(x - _H)) / (2.0 * _H)


def _close(got, want) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - want) <= 1e-6 * np.maximum(1.0, np.abs(want))))


def _nested(f, a, b):
    """``f(a, b)`` and its two partials, ``a`` seeded on an outer tag, ``b`` on an inner one.

    The inner tag is the higher one, so inside ``f`` the ``b`` operand
    carries the higher tag.
    """
    def inner(x):
        return value_and_gradient(lambda y: f(x, y), (b,))

    val, (da,) = value_and_gradient(lambda x: inner(x)[0], (a,))
    db, _ = value_and_gradient(lambda x: inner(x)[1][0], (a,))
    return val, da, db


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_operand = st.floats(-3.0, 3.0).filter(lambda v: abs(v) >= 0.25)


@pytest.mark.parametrize("higher", ["left", "right"])
@pytest.mark.parametrize("name", list(_OPERATORS))
@settings(max_examples=60, deadline=None)
@given(a=_operand, b=_operand)
def test_nested_binary_operators_match_central_differences(name, higher, a, b):
    op = _OPERATORS[name]
    # ``a`` is the left operand, ``b`` the right; ``higher`` names the one
    # that carries the inner, higher tag
    if higher == "right":
        val, d_left, d_right = _nested(op, a, b)
    else:
        val, d_right, d_left = _nested(lambda x, y: op(y, x), b, a)
    assert val == op(a, b)  # bit-identical to plain evaluation
    assert _close(d_left, _central(lambda x: op(x, b), a)), d_left
    assert _close(d_right, _central(lambda y: op(a, y), b)), d_right


@pytest.mark.parametrize("name", ["sin", "cos", "exp", "log", "sqrt"])
@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.25, 3.0), at=st.floats(0.25, 3.0))
def test_elementary_functions_on_every_payload(name, x, at):
    fn = getattr(duals, name)
    scalar = getattr(math, name)
    array = getattr(np, name)

    # a float
    val, (d,) = value_and_gradient(fn, (x,))
    assert val == scalar(x) and _close(d, _central(scalar, x))

    # a 1-d array
    xs = np.array([x, 0.5 * x, x + 1.0])
    val, (d,) = value_and_gradient(fn, (xs,))
    assert np.array_equal(val, array(xs)) and _close(d, _central(array, xs))

    # a Dual whose value is a Dual: the function and its slope, nested
    def slope(y):
        return value_and_gradient(fn, (y,))[1][0]

    val, (d,) = value_and_gradient(lambda y: value_and_gradient(fn, (y,))[0], (x,))
    assert val == scalar(x) and _close(d, _central(scalar, x))
    d1, (d2,) = value_and_gradient(slope, (x,))
    assert d1 == slope(x) and _close(d2, _central(slope, x))

    # a replayed tape, recorded at x and replayed at another point
    tape = Tape()
    rec_val, (rec_d,) = value_and_gradient(fn, (tape.input(x),))
    val, d = tape.compile((rec_val, rec_d))((at,))
    assert val == scalar(at) and _close(d, _central(scalar, at))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
@pytest.mark.parametrize("x", [0.0, -1.5, 0.75])
def test_power_rule_nests_down_to_a_constant(p, x):
    def power(y):
        return y**p

    def slope(y):
        return value_and_gradient(power, (y,))[1][0]

    val, (d,) = value_and_gradient(power, (x,))
    assert val == x**p and _close(d, _central(power, x))
    # the slope of x**1 is x**0, whose derivative is that of a constant
    d1, (d2,) = value_and_gradient(slope, (x,))
    assert d1 == d and _close(d2, _central(slope, x))
