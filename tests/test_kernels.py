"""Kernel layer: the complex-step pass scalar, generic vectors, pivoted
solves."""

import math
import operator
import struct
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrdg import gmath as gm
from qsrdg._kernels import (
    BACKEND,
    Dual,
    dot,
    factor,
    matvec,
    solve_generic,
    substitute,
    value,
)
from qsrdg.errors import SingularMatrix
from qsrdg.numerics import _H, _jacobian_with_values, lu_solve

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
nonzero = finite.filter(lambda v: abs(v) > 1e-3)

# a scaled tangent below the smallest normal float keeps only this
# absolute accuracy once divided by h
SUBNORMAL_FLOOR = 2.0**-474


def seeded(v, g=1.0):
    """A pass scalar with value ``v`` and tangent ``g``."""
    return complex(v, g * _H)


def tangent(x):
    return x.imag / _H


def central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_add_sub_mul_div_values_and_gradients():
    rows, vals = _jacobian_with_values(
        lambda x: (x[0] + x[1], x[0] - x[1], x[0] * x[1], x[0] / x[1]),
        [3.0, 2.0],
    )
    assert vals == [5.0, 1.0, 6.0, 1.5]
    assert rows == [[1.0, 1.0], [1.0, -1.0], [2.0, 3.0], [0.5, -0.75]]


def test_division_values_are_true_quotients():
    # the value part must be a / b, not a * (1 / b), so that a Jacobian
    # pass and the float evaluation of a map agree bit for bit
    a, b = 0.1, 1.9
    assert a * (1.0 / b) != a / b
    assert (seeded(a) / seeded(b, 2.0)).real == a / b
    assert (seeded(a) / b).real == a / b
    assert (a / seeded(b)).real == a / b


@pytest.mark.parametrize("n", (1, 2, 3))
def test_gradient_kernels_match_their_formulas(n):
    # the scaling and linear-combination rules, c g and a ga + b gb, for
    # tangents seeded on one, two and three coordinates
    ga = [0.5 + 1.25 * k for k in range(n)]
    gb = [-0.75 + 0.5 * k for k in range(n)]
    a, b = 1.7, -0.3

    def f(x):
        xa = dot(ga, x)
        xb = dot(gb, x)
        return (a * xa, a * xa + b * xb)

    rows, _ = _jacobian_with_values(f, [0.25 * (k + 1) for k in range(n)])
    assert rows[0] == [a * x for x in ga]
    assert rows[1] == [a * x + b * y for x, y in zip(ga, gb)]


def test_binary_op_gradients_on_three_seeds():
    # a = x0 + 2 x2 and b = x1 + 3 x2 at a = 1.5, b = -0.5
    def f(x):
        a = x[0] + 2.0 * x[2]
        b = x[1] + 3.0 * x[2]
        return (a + b, a - b, a * b, a / b, -a, 2.0 * a)

    rows, _ = _jacobian_with_values(f, [1.5, -0.5, 0.0])
    assert rows[0] == [1.0, 1.0, 5.0]
    assert rows[1] == [1.0, -1.0, -1.0]
    assert rows[2] == [-0.5, 1.5, 3.5]
    np.testing.assert_allclose(rows[3], (-2.0, -6.0, -22.0), rtol=1e-15)
    assert rows[4] == [-1.0, 0.0, -2.0]
    assert rows[5] == [2.0, 0.0, 4.0]


def test_scalar_mixing_and_reflected_ops():
    a = seeded(2.0)
    assert (a + 1.0).real == 3.0
    assert tangent(1.0 + a) == 1.0
    assert (5.0 - a).real == 3.0 and tangent(5.0 - a) == -1.0
    assert tangent(3.0 * a) == 3.0
    r = 1.0 / a
    assert r.real == 0.5 and tangent(r) == -0.25
    # a numpy scalar gives a numpy complex, which is still a pass scalar
    m = np.float64(3.0) * a
    assert isinstance(m, Dual) and m.real == 6.0 and tangent(m) == 3.0


def test_pow_variants(rng):
    a = seeded(2.0)
    sq = a**2
    assert sq.real == 4.0 and tangent(sq) == 4.0
    # a square multiplies once, so its value is the float square; higher
    # integer powers are written as products to keep that match
    for x in rng.uniform(-3.0, 3.0, 200).tolist():
        assert (seeded(x) ** 2).real == x**2
        s = seeded(x)
        assert (s * s * s).real == x * x * x
    cube = a**3
    assert math.isclose(cube.real, 8.0) and math.isclose(tangent(cube), 12.0)
    ex = 2.0**a
    assert math.isclose(ex.real, 4.0)
    assert math.isclose(tangent(ex), 4.0 * math.log(2.0))


def test_neg_abs_comparisons():
    a = seeded(-1.5)
    assert (-a).real == 1.5 and tangent(-a) == -1.0
    assert gm.abs(a).real == 1.5 and tangent(gm.abs(a)) == -1.0
    assert gm.abs(seeded(1.5)).real == 1.5 and tangent(gm.abs(seeded(1.5))) == 1.0
    assert gm.abs(-1.5) == 1.5
    # the builtin abs is the modulus, a float without the tangent
    assert isinstance(abs(a), float)
    # maps branch on value parts; ordering a pass scalar is an error
    assert gm.value(a) < 0.0 and gm.value(a) >= -1.5
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, 0.0)
        with pytest.raises(TypeError):
            op(0.0, a)


def test_float_conversion_refuses():
    with pytest.raises(TypeError):
        float(seeded(1.0))


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
        ("abs", abs),
    ],
)
def test_transcendental_methods_match_central_differences(name, fn):
    rule = getattr(gm, name)
    for x in (0.7, -0.3):
        if name in ("log", "sqrt") and x < 0.0:
            continue
        out = rule(seeded(x))
        assert out.real == fn(x) == rule(x)
        assert math.isclose(tangent(out), central(fn, x), rel_tol=1e-8)


def test_composite_gradient_against_finite_differences():
    def f(x):
        return math.sin(x) * math.exp(-x * x) + x / (1.0 + x * x)

    def g(x):
        return gm.sin(x) * gm.exp(-(x * x)) + x / (1.0 + x * x)

    for x0 in (-1.3, -0.2, 0.0, 0.8, 2.4):
        out = g(seeded(x0))
        assert out.real == f(x0)
        assert math.isclose(tangent(out), central(f, x0), rel_tol=1e-7, abs_tol=1e-9)


@given(finite, finite)
@settings(max_examples=200, deadline=None)
def test_product_rule_property(x, y):
    rows, vals = _jacobian_with_values(lambda v: (v[0] * v[1],), [x, y])
    assert vals == [x * y]
    assert abs(rows[0][0] - y) <= SUBNORMAL_FLOOR
    assert abs(rows[0][1] - x) <= SUBNORMAL_FLOOR


@given(nonzero, nonzero)
@settings(max_examples=200, deadline=None)
def test_division_roundtrip_property(x, y):
    rows, vals = _jacobian_with_values(lambda v: ((v[0] * v[1]) / v[1],), [x, y])
    assert math.isclose(vals[0], x, rel_tol=1e-12, abs_tol=1e-12)
    assert math.isclose(rows[0][0], 1.0, rel_tol=1e-10, abs_tol=1e-10)
    assert abs(rows[0][1]) <= 1e-10 * max(1.0, abs(x) / abs(y))


def test_value_and_seed_duals():
    assert value(2.5) == 2.5
    assert value(np.float64(3.0)) == 3.0
    assert value(seeded(4.0)) == 4.0 and type(value(seeded(4.0))) is float
    # a Jacobian pass evaluates the map once per coordinate, seeding that
    # coordinate alone with the type the name Dual stands for
    assert Dual is complex
    probes = []

    def f(x):
        probes.append(list(x))
        return x

    _jacobian_with_values(f, [1.0, 2.0, 3.0])
    assert len(probes) == 3
    for k, probe in enumerate(probes):
        assert [value(v) for v in probe] == [1.0, 2.0, 3.0]
        assert [type(v) for v in probe] == [Dual if j == k else float for j in range(3)]
        assert probe[k].imag == _H


def test_vector_helpers_match_numpy(rng):
    a = rng.standard_normal((3, 3))
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    assert math.isclose(dot(list(x), list(y)), float(x @ y), rel_tol=1e-15)
    np.testing.assert_allclose(matvec(a.tolist(), x.tolist()), a @ x, rtol=1e-14)


# signed zeros, infinities, NaN and subnormals, besides any other float
_edge_floats = st.one_of(
    st.sampled_from((0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


def _vector_pairs(entries):
    """Two vectors of one length from 1 to 5."""
    return st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(entries, min_size=n, max_size=n),
            st.lists(entries, min_size=n, max_size=n),
        )
    )


def _bits(v):
    """The bytes of each part of a float or complex; None for a NaN part."""
    parts = (v.real, v.imag) if isinstance(v, complex) else (v,)
    return type(v), [None if math.isnan(p) else struct.pack("<d", p) for p in parts]


# moderate entries make rounding, and so the order of the sums, show
@given(
    st.one_of(
        _vector_pairs(finite),
        _vector_pairs(st.builds(seeded, finite, finite)),
        _vector_pairs(
            st.one_of(_edge_floats, st.builds(seeded, _edge_floats, finite))
        ),
    )
)
@settings(max_examples=500, deadline=None)
def test_dot_is_the_left_fold_bit_for_bit(xy):
    x, y = xy
    fold = reduce(lambda acc, k: acc + x[k] * y[k], range(1, len(x)), x[0] * y[0])
    assert _bits(dot(x, y)) == _bits(fold)


def test_solve_generic_oracle_cases():
    # float data: identity, a permutation with a zero leading pivot, and a
    # 2x2 with a hand-checked inverse
    assert solve_generic([[1.0, 0.0], [0.0, 1.0]], [3.0, -4.0]) == [3.0, -4.0]
    x = solve_generic([[0.0, 1.0], [1.0, 0.0]], [5.0, 6.0])
    np.testing.assert_allclose(x, [6.0, 5.0], rtol=1e-15)
    x = solve_generic([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
    np.testing.assert_allclose(x, [1.0, 3.0], rtol=1e-14)


def test_solve_generic_matches_numpy_on_random_systems(rng):
    for n in (1, 2, 3, 5, 8):
        for _ in range(5):
            a = rng.standard_normal((n, n)) + n * np.eye(n)
            b = rng.standard_normal(n)
            np.testing.assert_allclose(
                solve_generic(a.tolist(), b.tolist()),
                np.linalg.solve(a, b),
                rtol=1e-10,
                atol=1e-12,
            )


def test_solve_generic_propagates_parameter_derivative():
    """d/dp of the solution of [[p, 1], [0, 2]] x = (1, 4) at p = 3.

    Analytically x = ((1 - 2) / p, 2) so dx1/dp = 1 / p^2.
    """
    p = seeded(3.0)
    x = solve_generic([[p, 1.0], [0.0, 2.0]], [1.0, 4.0])
    assert math.isclose(value(x[0]), -1.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(tangent(x[0]), 1.0 / 9.0, rel_tol=1e-13)
    assert value(x[1]) == 2.0


def test_solve_generic_pivots_on_value_part():
    p = seeded(1.0)
    # leading entry is zero, forcing a row swap before division
    x = solve_generic([[0.0, p], [2.0, 0.0]], [3.0, 4.0])
    assert math.isclose(value(x[0]), 2.0, rel_tol=1e-15)
    assert math.isclose(value(x[1]), 3.0, rel_tol=1e-15)
    assert math.isclose(tangent(x[1]), -3.0, rel_tol=1e-13)


def test_solve_generic_singular_raises():
    p = seeded(0.0)
    with pytest.raises(SingularMatrix):
        solve_generic([[p, 0.0], [0.0, 0.0]], [1.0, 1.0])


def test_lu_solve_singular_raises():
    # the solve Newton's update calls, on float singular systems
    with pytest.raises(SingularMatrix):
        lu_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
    with pytest.raises(SingularMatrix):
        lu_solve([[0.0]], [1.0])


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_factor_serves_many_right_hand_sides(n, rng):
    # one factorization, reused: each substitution gives the bits of a
    # full solve and leaves the factors as they were
    a = rng.standard_normal((n, n))
    a[0, 0] = 0.0  # forces a row swap when n > 1
    if n == 1:
        a[0, 0] = 2.0
    rows = [[seeded(v, 0.5) if i == j else v for j, v in enumerate(row)]
            for i, row in enumerate(a.tolist())]
    lu = factor(rows)
    for _ in range(3):
        b = rng.standard_normal(n).tolist()
        x = substitute(lu, b)
        assert x == substitute(lu, b) == solve_generic(rows, b)
        np.testing.assert_allclose(
            [value(v) for v in x], np.linalg.solve(a, b), rtol=1e-10, atol=1e-12
        )


def test_factor_singular_raises():
    with pytest.raises(SingularMatrix):
        factor([[seeded(1.0), 2.0], [2.0, 4.0]])


def test_backend_constant_is_consistent():
    # the pure kernels are the only backend; run records name it
    import qsrdg

    assert BACKEND == "pure"
    assert qsrdg.BACKEND == BACKEND
