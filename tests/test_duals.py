import math

import numpy as np
import pytest

from expstab.duals import (
    Dual,
    cos,
    exp,
    seed,
    sin,
    value_and_gradient,
    value_and_jacobian,
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


def test_jacobian_of_vector_function():
    def g(x, y):
        return (x * y, x + y, y**2)

    vals, rows = value_and_jacobian(g, (2.0, 5.0))
    assert vals == (10.0, 7.0, 25.0)
    assert rows[0] == (5.0, 2.0)
    assert rows[1] == (1.0, 1.0)
    assert rows[2] == (0.0, 10.0)


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
    return tape, tape.compile(f(*leaves))[0]


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
    from expstab.duals import Tape

    tape = Tape()
    x, y = tape.input(1.5), tape.input(-0.5)
    keep = x * y
    drop = x - y  # noqa: F841 (recorded, never an output)
    light, full = tape.compile((keep,), (keep, x + y))
    assert (light.n_ops, full.n_ops) == (1, 2)
    assert light((2.0, 4.0)) == (8.0,) and full((2.0, 4.0)) == (8.0, 6.0)
