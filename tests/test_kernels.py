"""Kernel layer: dual scalars, generic vectors, pivoted solves."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrdg._kernels import (
    BACKEND,
    Dual,
    _axpby,
    _scale,
    dot,
    lu_solve,
    matvec,
    norm_sq,
    seed_duals,
    solve_generic,
    tmatvec,
    value,
)
from qsrdg.errors import SingularMatrix

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-3)


def d1(v, g=1.0):
    return Dual(v, (g,))


def central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_add_sub_mul_div_values_and_gradients():
    a = Dual(3.0, (1.0, 0.0))
    b = Dual(2.0, (0.0, 1.0))
    s = a + b
    assert s.val == 5.0 and s.grad == (1.0, 1.0)
    d = a - b
    assert d.val == 1.0 and d.grad == (1.0, -1.0)
    p = a * b
    assert p.val == 6.0 and p.grad == (2.0, 3.0)
    q = a / b
    assert q.val == 1.5 and q.grad == (0.5, -0.75)


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv],
    ids=["add", "sub", "mul", "truediv"],
)
def test_binary_ops_reject_gradients_of_different_lengths(op):
    short = Dual(2.0, (1.0,))
    long = Dual(3.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        op(short, long)
    with pytest.raises(ValueError):
        op(long, short)


def test_division_values_are_true_quotients():
    # the value part must be a / b, not a * (1 / b), so that dual and
    # float evaluations of a map agree bit for bit
    a, b = 0.1, 1.9
    assert a * (1.0 / b) != a / b
    assert (Dual(a, (1.0, 0.0)) / Dual(b, (0.0, 1.0))).val == a / b
    assert (Dual(a, (1.0,)) / b).val == a / b
    assert (a / Dual(b, (1.0,))).val == a / b


@pytest.mark.parametrize("n", (1, 2, 3))
def test_gradient_kernels_match_their_formulas(n):
    # the one- and two-entry tangents are written out; three entries take
    # the generic branch
    ga = tuple(0.5 + 1.25 * k for k in range(n))
    gb = tuple(-0.75 + 0.5 * k for k in range(n))
    a, b = 1.7, -0.3
    assert _scale(ga, a) == tuple(a * x for x in ga)
    assert _axpby(ga, gb, a, b) == tuple(
        a * x + b * y for x, y in zip(ga, gb)
    )
    with pytest.raises(ValueError):
        _axpby(ga, gb + (1.0,), a, b)


def test_binary_op_gradients_on_three_seeds():
    # forward-mode rules on a three-entry tangent (the generic branch)
    a = Dual(1.5, (1.0, 0.0, 2.0))
    b = Dual(-0.5, (0.0, 1.0, 3.0))
    assert (a + b).grad == (1.0, 1.0, 5.0)
    assert (a - b).grad == (1.0, -1.0, -1.0)
    assert (a * b).grad == (-0.5, 1.5, 3.5)
    np.testing.assert_allclose((a / b).grad, (-2.0, -6.0, -22.0), rtol=1e-15)
    assert (-a).grad == (-1.0, -0.0, -2.0)
    assert (2.0 * a).grad == (2.0, 0.0, 4.0)


def test_scalar_mixing_and_reflected_ops():
    a = d1(2.0)
    assert (a + 1.0).val == 3.0
    assert (1.0 + a).grad == (1.0,)
    assert (5.0 - a).val == 3.0 and (5.0 - a).grad == (-1.0,)
    assert (3.0 * a).grad == (3.0,)
    r = 1.0 / a
    assert r.val == 0.5 and r.grad == (-0.25,)
    # numpy scalars must take the reflected path, not array-broadcast
    m = np.float64(3.0) * a
    assert isinstance(m, Dual) and m.val == 6.0 and m.grad == (3.0,)


def test_pow_variants():
    a = d1(2.0)
    sq = a**2
    assert sq.val == 4.0 and sq.grad == (4.0,)
    ex = 2.0**a
    assert math.isclose(ex.val, 4.0)
    assert math.isclose(ex.grad[0], 4.0 * math.log(2.0))
    duo = a ** d1(3.0, 0.0)
    assert math.isclose(duo.val, 8.0)
    assert math.isclose(duo.grad[0], 3.0 * 4.0)  # d/dx x^3 at 2


def test_neg_abs_comparisons():
    a = d1(-1.5)
    assert (-a).val == 1.5 and (-a).grad == (-1.0,)
    assert abs(a).val == 1.5 and abs(a).grad == (-1.0,)
    assert a < 0.0 and a <= -1.5 and a > -2.0 and a >= -1.5
    assert a == -1.5 and a != 0.0
    assert a < Dual(0.0, (9.0,))


def test_float_conversion_refuses():
    with pytest.raises(TypeError):
        float(d1(1.0))


@pytest.mark.parametrize(
    "name, fn",
    [
        ("sin", math.sin),
        ("cos", math.cos),
        ("tan", math.tan),
        ("exp", math.exp),
        ("log", math.log),
        ("sqrt", math.sqrt),
        ("arctan", math.atan),
        ("sinh", math.sinh),
        ("cosh", math.cosh),
        ("tanh", math.tanh),
    ],
)
def test_transcendental_methods_match_central_differences(name, fn):
    x = 0.7
    out = getattr(d1(x), name)()
    assert math.isclose(out.val, fn(x), rel_tol=1e-15)
    assert math.isclose(out.grad[0], central(fn, x), rel_tol=1e-8)


def test_composite_gradient_against_finite_differences():
    def f(x):
        return math.sin(x) * math.exp(-x * x) + x / (1.0 + x * x)

    def fdual(x):
        return x.sin() * (-(x * x)).exp() + x / (1.0 + x * x)

    for x0 in (-1.3, -0.2, 0.0, 0.8, 2.4):
        out = fdual(d1(x0))
        assert math.isclose(out.val, f(x0), rel_tol=1e-14, abs_tol=1e-14)
        assert math.isclose(out.grad[0], central(f, x0), rel_tol=1e-7, abs_tol=1e-9)


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_product_rule_property(x, y):
    a = Dual(x, (1.0, 0.0))
    b = Dual(y, (0.0, 1.0))
    p = a * b
    assert p.grad == (y, x)


@given(nonzero, nonzero)
@settings(max_examples=200, deadline=None)
def test_division_roundtrip_property(x, y):
    a = Dual(x, (1.0, 0.0))
    b = Dual(y, (0.0, 1.0))
    r = (a * b) / b
    assert math.isclose(r.val, x, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(r.grad[0], 1.0, rel_tol=1e-10, abs_tol=1e-10)
    assert abs(r.grad[1]) <= 1e-10 * max(1.0, abs(x) / abs(y))


def test_value_and_seed_duals():
    assert value(2.5) == 2.5
    assert value(np.float64(3.0)) == 3.0
    assert value(d1(4.0)) == 4.0
    seeds = seed_duals((1.0, 2.0, 3.0))
    assert [s.val for s in seeds] == [1.0, 2.0, 3.0]
    assert seeds[0].grad == (1.0, 0.0, 0.0)
    assert seeds[2].grad == (0.0, 0.0, 1.0)


def test_vector_helpers_match_numpy(rng):
    a = rng.standard_normal((3, 3))
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    assert math.isclose(dot(list(x), list(y)), float(x @ y), rel_tol=1e-15)
    assert math.isclose(norm_sq(list(x)), float(x @ x), rel_tol=1e-15)
    np.testing.assert_allclose(matvec(a.tolist(), x.tolist()), a @ x, rtol=1e-14)
    np.testing.assert_allclose(tmatvec(a.tolist(), x.tolist()), a.T @ x, rtol=1e-14)


def test_lu_solve_oracle_cases():
    # identity, a permutation with a zero leading pivot, and a 2x2 with a
    # hand-checked inverse
    assert lu_solve([[1.0, 0.0], [0.0, 1.0]], [3.0, -4.0]) == [3.0, -4.0]
    x = lu_solve([[0.0, 1.0], [1.0, 0.0]], [5.0, 6.0])
    np.testing.assert_allclose(x, [6.0, 5.0], rtol=1e-15)
    x = lu_solve([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    np.testing.assert_allclose(x, [1.0, 3.0], rtol=1e-14)


def test_lu_solve_matches_numpy_on_random_systems(rng):
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(
                lu_solve(a.tolist(), b.tolist()),
                np.linalg.solve(a, b),
                rtol=1e-10,
                atol=1e-12,
            )


def test_lu_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        lu_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        lu_solve([[0.0]], [1.0])


def test_solve_generic_propagates_parameter_derivative():
    """d/dp of the solution of [[p, 1], [0, 2]] x = (1, 4) at p = 3.

    Analytically x = ((1 - 2) / p, 2) so dx1/dp = 1 / p^2.
    """
    p = d1(3.0)
    x = solve_generic([[p, 1.0], [0.0, 2.0]], [1.0, 4.0])
    assert math.isclose(value(x[0]), -1.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(x[0].grad[0], 1.0 / 9.0, rel_tol=1e-13)
    assert value(x[1]) == 2.0


def test_solve_generic_pivots_on_value_part():
    p = d1(1.0)
    # leading entry is zero, forcing a row swap before division
    x = solve_generic([[0.0, p], [2.0, 0.0]], [3.0, 4.0])
    assert math.isclose(value(x[0]), 2.0, rel_tol=1e-15)
    assert math.isclose(value(x[1]), 3.0, rel_tol=1e-15)
    assert math.isclose(x[1].grad[0], -3.0, rel_tol=1e-13)


def test_solve_generic_singular_raises():
    p = d1(0.0)
    with pytest.raises(SingularMatrix):
        solve_generic([[p, 0.0], [0.0, 0.0]], [1.0, 1.0])


def test_backend_constant_is_consistent():
    # the pure kernels are the only backend; run records name it
    import qsrdg

    assert BACKEND == "pure"
    assert qsrdg.BACKEND == BACKEND
