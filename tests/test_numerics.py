"""The complex-step Jacobian pass, Newton iteration, quadrature."""

import math

import numpy as np
import pytest

from qsrdg import gmath
from qsrdg._kernels import value
from qsrdg.dgradients import _GAUSS_NODES, _GAUSS_WEIGHTS
from qsrdg.errors import NonFiniteEvaluation
from qsrdg.numerics import NewtonSettings, _jacobian_with_values, newton_solve


def _map(x):
    return (x[0] * x[1], x[0] * x[0])


def jacobian(f, x):
    """The Jacobian of ``f`` at ``x`` from Newton's Jacobian pass."""
    rows, _ = _jacobian_with_values(f, [float(v) for v in x])
    return np.array(rows)


def central_differences(f, x):
    """Symmetric difference quotients with step sqrt(eps) (1 + |x_k|)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for k in range(x.size):
        h = math.sqrt(np.finfo(float).eps) * (1.0 + abs(x[k]))
        e = np.zeros(x.size)
        e[k] = h
        up = np.array(f((x + e).tolist()), dtype=float)
        dn = np.array(f((x - e).tolist()), dtype=float)
        cols.append((up - dn) / (2.0 * h))
    return np.column_stack(cols)


def test_jacobian_dual_exact_values():
    j = jacobian(_map, (1.0, 2.0))
    np.testing.assert_allclose(j, [[2.0, 1.0], [2.0, 0.0]], atol=1e-15)


def test_jacobian_modes_agree():
    # the complex-step pass against test-local central differences
    def f(x):
        return (gmath.sin(x[0]) * x[1], gmath.exp(x[0] - x[1]), x[0] * x[1] * x[1])

    x0 = (0.4, -1.1)
    jd = jacobian(f, x0)
    jf = central_differences(f, x0)
    np.testing.assert_allclose(jd, jf, rtol=1e-6, atol=1e-8)


def test_jacobian_constant_component_gives_zero_row():
    def f(x):
        return (x[0] * x[0], 3.0)

    np.testing.assert_allclose(jacobian(f, (2.0,)), [[4.0], [0.0]])


def test_jacobian_nonfinite_raises():
    def f(x):
        big = x[0] * 1e308
        return (big * big,)  # overflows to inf, no Python exception

    with pytest.raises(NonFiniteEvaluation):
        jacobian(f, (2.0,))


def test_newton_scalar_quadratic():
    result = newton_solve(lambda x: (x[0] * x[0] - 4.0,), (3.0,))
    assert abs(result.x[0] - 2.0) <= 1e-12
    assert result.iterations <= 6
    assert result.residual <= 1e-13


def test_newton_affine_converges_in_one_update():
    result = newton_solve(lambda x: (2.0 * x[0] + 1.0,), (10.0,))
    assert result.iterations == 1
    assert abs(result.x[0] + 0.5) <= 1e-15


def test_newton_exact_guess_does_no_work():
    result = newton_solve(lambda x: (x[0],), (0.0,))
    assert result.iterations == 0
    assert result.residual == 0.0


def _recording(f):
    """``f`` wrapped to record each call's kind in ``calls`` and its
    argument values in ``points``.  A call of a Jacobian pass has one
    complex entry, and its kind is "jacobian"; a float call has none."""
    calls = []
    points = []

    def recorded(x):
        seeded = sum(isinstance(v, complex) for v in x)
        assert seeded <= 1
        calls.append("jacobian" if seeded else "float")
        points.append([value(v) for v in x])
        return f(x)

    return recorded, calls, points


def test_newton_exact_guess_makes_one_pass():
    f, calls, points = _recording(lambda x: (x[0] * x[0] - 4.0,))
    result = newton_solve(f, (2.0,))
    assert result.iterations == 0
    assert calls == ["jacobian"]
    assert points[-1] == list(result.x)


def test_newton_single_update_returns_its_float_residual():
    f, calls, points = _recording(lambda x: (gmath.exp(x[0]),))
    result = newton_solve(f, (0.0,), NewtonSettings(max_iterations=1))
    assert result.iterations == 1
    assert result.x[0] == -1.0
    assert result.residual == math.exp(-1.0)
    assert calls == ["jacobian", "float"]
    assert points[-1] == list(result.x)


def test_newton_call_pattern_for_x_squared_minus_four_from_three():
    # four fresh updates, each after a pass at its own iterate; after the
    # fourth the residual contracted by theta = 2.6e-6 from 4.1e-5 to
    # 1.0e-10, so theta^2 r <= 1e-13 and the fifth update reuses the
    # fourth's factors, landing at the root
    f, calls, points = _recording(lambda x: (x[0] * x[0] - 4.0,))
    result = newton_solve(f, (3.0,))
    assert calls == ["jacobian", "float"] * 4 + ["float"]
    assert result.iterations == 5
    assert result.x[0] == 2.0
    assert result.residual == 0.0
    assert points[-1] == list(result.x)


def test_newton_coupled_system():
    # in two dimensions a Jacobian pass is two calls, one per coordinate;
    # five fresh updates, then two reused ones
    f, calls, points = _recording(
        lambda x: (x[0] + x[1] - 3.0, x[0] * x[1] - 2.0)
    )
    result = newton_solve(f, (5.0, 0.5))
    roots = sorted(result.x)
    np.testing.assert_allclose(roots, [1.0, 2.0], atol=1e-12)
    assert calls == ["jacobian", "jacobian", "float"] * 5 + ["float"] * 2
    assert result.iterations == 7
    assert points[-1] == list(result.x)


def _secant_slope_at_one(x):
    # x - 1.5 x^3 + 0.75 x^5 has its only real root at 0, where the slope
    # is 1; at x = 1 the slope is 1/4 and equals the secant slope to the
    # root, so an update from near 1 lands near 0 and the factors of that
    # pass overshoot fourfold there
    return (x[0] - 1.5 * x[0] ** 3 + 0.75 * x[0] ** 5,)


def test_newton_discards_a_reused_update_that_does_not_lower_the_residual():
    # the fresh update contracts from 0.25 to 5.7e-6, which predicts
    # convergence, so the next update reuses the factors from 1; it
    # triples the residual, is discarded, and a fresh pass at 5.7e-6
    # gives the update that converges
    f, calls, points = _recording(_secant_slope_at_one)
    result = newton_solve(f, (1.0 + 2.0**-22,))
    assert calls == ["jacobian", "float", "float", "jacobian", "float"]
    x1, rejected = points[1][0], points[2][0]
    assert abs(rejected) > 2.0 * abs(x1)
    assert points[3] == [x1]
    assert result.iterations == 2
    assert abs(result.x[0]) <= 1e-15
    assert result.residual <= 1e-15
    assert points[-1] == list(result.x)


def test_newton_caps_jacobian_passes_not_updates():
    # x^2 - 4 from 3 converges after four passes and five updates
    f, calls, _ = _recording(lambda x: (x[0] * x[0] - 4.0,))
    result = newton_solve(f, (3.0,), NewtonSettings(max_iterations=4))
    assert calls.count("jacobian") == 4
    assert result.iterations == 5
    assert result.residual == 0.0
    # three passes stop at the third fresh update's residual, 4.1e-5,
    # whose contraction predicts no convergence for a reused update
    f, calls, points = _recording(lambda x: (x[0] * x[0] - 4.0,))
    result = newton_solve(f, (3.0,), NewtonSettings(max_iterations=3))
    assert calls == ["jacobian", "float"] * 3
    assert result.iterations == 3
    assert math.isclose(result.residual, 4.096e-5, rel_tol=1e-3)
    assert points[-1] == list(result.x)


def test_newton_takes_a_fresh_pass_after_four_reused_updates():
    # the pass reports slope 2 where the float map has slope 1, so every
    # update halves x exactly and the contraction stays 1/2.  From 2**-40
    # the second fresh update reaches 2**-42, where theta^2 r <= 1e-13;
    # four reused updates reach 2**-46, still above the polish bound
    # 1e-15, and a fresh pass gives the fifth, which stops at 2**-47
    f, calls, points = _recording(lambda x: (2.0 * x[0] - value(x[0]),))
    result = newton_solve(f, (2.0**-40,))
    assert calls == ["jacobian", "float"] * 2 + ["float"] * 4 + ["jacobian", "float"]
    assert points[-1] == [2.0**-47]
    assert result.x[0] == 2.0**-47
    assert result.iterations == 7


def test_newton_ends_at_the_last_kept_iterate_when_a_reuse_fails_at_the_cap():
    # with one pass allowed, the discarded reuse leaves no pass to take;
    # one more float call puts the last call back at the returned iterate
    f, calls, points = _recording(_secant_slope_at_one)
    result = newton_solve(f, (1.0 + 2.0**-22,), NewtonSettings(max_iterations=1))
    assert calls == ["jacobian", "float", "float", "float"]
    assert result.iterations == 1
    assert list(result.x) == points[1] == points[-1]
    assert result.residual == abs(_secant_slope_at_one(points[1])[0])


def test_newton_updates_a_start_inside_the_tolerance():
    # a start whose residual 1e-14 already meets the tolerance, but not
    # the rounding floor min(1e-15, 4 ulps of the start), still gets one
    # update, which lands at the root
    f, calls, points = _recording(lambda x: (x[0] * x[0] - 4.0,))
    result = newton_solve(f, (2.0 + 2.5e-15,))
    assert calls == ["jacobian", "float"]
    assert result.iterations == 1
    assert result.x[0] == 2.0
    assert points[-1] == list(result.x)


def test_newton_respects_iteration_cap():
    # exp has no root; every update subtracts one and no contraction
    # predicts convergence, so every update follows a fresh pass and the
    # loop stops at the pass cap with the final residual
    settings = NewtonSettings(max_iterations=4)
    f, calls, points = _recording(lambda x: (gmath.exp(x[0]),))
    result = newton_solve(f, (0.0,), settings)
    assert result.iterations == 4
    assert math.isclose(result.residual, math.exp(-4.0), rel_tol=1e-12)
    assert calls == ["jacobian", "float"] * 4
    assert points[-1] == list(result.x)


def test_newton_stops_at_the_rounding_floor_of_a_large_iterate():
    # the root 1e4 + 1/3 is no float, so the residual at the nearest one,
    # 1.8e-12, is above 1e-13; it is below 4 ulps of the iterate, 8.9e-12,
    # where the solve stops after one update instead of ten passes
    f, calls, _ = _recording(lambda x: ((x[0] - 1e4) * 3.0 - 1.0,))
    result = newton_solve(f, (1e4,))
    assert calls == ["jacobian", "float"]
    assert result.iterations == 1
    assert 1e-13 < result.residual <= 4.0 * np.finfo(float).eps * result.x[0]


def _factors_of(f, x):
    """The factors of a Jacobian pass of ``f`` at its root ``x``."""
    result = newton_solve(f, x)
    assert result.iterations == 0
    return result.factors


def test_newton_from_given_factors_takes_no_pass_when_they_converge():
    # the factors of 2x + 1 solve it exactly from any start: one float
    # call at the start, one after the stale update, and the given
    # factors come back
    factors = _factors_of(lambda x: (2.0 * x[0] + 1.0,), (-0.5,))
    f, calls, points = _recording(lambda x: (2.0 * x[0] + 1.0,))
    result = newton_solve(f, (10.0,), NewtonSettings(), factors)
    assert calls == ["float", "float"]
    assert result.iterations == 1
    assert result.x[0] == -0.5
    assert result.factors is factors
    assert points[-1] == list(result.x)


def test_newton_keeps_a_start_on_the_rounding_floor():
    # sqrt(2) rounded leaves x^2 - 2 at 4.4e-16, below 1e-15 and below 4
    # ulps of the start, 1.3e-15: the float call at the start is the only
    # one, and the given factors come back with its values
    factors = _factors_of(lambda x: (x[0] * x[0] - 4.0,), (2.0,))
    f, calls, points = _recording(lambda x: (x[0] * x[0] - 2.0,))
    start = math.sqrt(2.0)
    result = newton_solve(f, (start,), NewtonSettings(), factors)
    assert calls == ["float"]
    assert result.iterations == 0
    assert list(result.x) == [start] == points[-1]
    assert result.factors is factors
    assert result.values == [start * start - 2.0] != [0.0]
    assert result.residual == start * start - 2.0


def test_newton_updates_a_tiny_start_above_its_own_rounding_floor():
    # at x = 2e-70 the residual x - 1e-70 is far below 1e-15, but far
    # above 4 ulps of x, so the start is wrong by O(1) relative and gets
    # the update that lands at the root
    f, calls, points = _recording(lambda x: (x[0] - 1e-70,))
    result = newton_solve(f, (2e-70,))
    assert calls == ["jacobian", "float"]
    assert result.iterations == 1
    assert result.x[0] == 1e-70
    assert points[-1] == list(result.x)


def test_newton_from_given_factors_takes_a_pass_after_n_stale_updates():
    # factors of slope 1 + 2**-20 on a map of slope 1: each stale update
    # shrinks the error by 2**-20, which predicts convergence, but after
    # n = 2 of them the residual, 2**-40 sqrt(2), is above the polish
    # bound, so a fresh pass comes before the third update
    slope = 1.0 + 2.0**-20
    factors = _factors_of(
        lambda x: (slope * (x[0] - 1.0), slope * (x[1] - 2.0)), (1.0, 2.0)
    )
    f, calls, points = _recording(lambda x: (x[0] - 1.0, x[1] - 2.0))
    result = newton_solve(f, (2.0, 3.0), NewtonSettings(), factors)
    assert calls == ["float"] * 3 + ["jacobian", "jacobian", "float"]
    assert result.iterations == 3
    assert list(result.x) == [1.0, 2.0]
    assert result.factors is not factors
    assert points[-1] == list(result.x)


def test_newton_discards_a_stale_update_from_given_factors():
    # factors of slope -1 on a map of slope 1 double the residual; the
    # update is discarded and a fresh pass at the start gives the root
    factors = _factors_of(lambda x: (-x[0],), (0.0,))
    f, calls, points = _recording(lambda x: (x[0] - 1.0,))
    result = newton_solve(f, (0.0,), NewtonSettings(), factors)
    assert calls == ["float", "float", "jacobian", "float"]
    assert points[1] == [-1.0]
    assert points[2] == [0.0]
    assert result.iterations == 1
    assert result.x[0] == 1.0
    assert result.factors is not factors


def test_newton_accepts_finite_values_whose_sum_overflows():
    # five components 1e308 * exp(x_k): at x = 0 the values and the
    # Jacobian columns each sum past the largest float, and after the
    # first update so do the five float values of 3.7e307; every entry
    # is finite, so neither the pass nor the float call may raise, and
    # the recorded residual norm is finite too
    def f(x):
        return [1e308 * gmath.exp(v) for v in x]

    assert 5 * 1e308 * math.exp(-1.0) > np.finfo(float).max
    result = newton_solve(f, [0.0] * 5, NewtonSettings(max_iterations=2))
    assert result.iterations == 2
    assert list(result.x) == [-2.0] * 5
    assert math.isfinite(result.residual)


@pytest.mark.parametrize("where", ("jacobian pass", "float call"))
def test_newton_rejects_a_nan_entry_next_to_large_ones(where):
    # a NaN entry raises whatever the size of its neighbours
    def f(x):
        first = 1e308 * gmath.exp(x[0])
        if where == "float call" and not isinstance(x[0], complex):
            return [first, math.nan]
        return [first, x[1] * math.nan if where == "jacobian pass" else x[1]]

    with pytest.raises(NonFiniteEvaluation):
        newton_solve(f, [0.0, 0.0])


@pytest.mark.parametrize(
    "error, op",
    (
        (OverflowError, lambda v: math.exp(v + 1e3)),
        (ValueError, lambda v: math.log(v - 1e3)),
        (ZeroDivisionError, lambda v: 1.0 / (v - v)),
    ),
    ids=("overflow", "domain", "division"),
)
@pytest.mark.parametrize("where", ("jacobian pass", "float call", "carried factors"))
def test_newton_turns_a_map_that_raises_into_non_finite_evaluation(error, op, where):
    # a map written with math, or with its own division, raises instead of
    # returning inf or NaN; Newton reports that as a non-finite evaluation
    # chained to the original error
    def f(x):
        if where == "jacobian pass" and isinstance(x[0], complex):
            op(x[0].real)
        if where != "jacobian pass" and not isinstance(x[0], complex):
            op(x[0])
        return [x[0] - 1.0]

    factors = None
    if where == "carried factors":
        factors = newton_solve(lambda x: [x[0] - 1.0], [0.0]).factors
    with pytest.raises(NonFiniteEvaluation, match=error.__name__) as info:
        newton_solve(f, [0.0], NewtonSettings(), factors)
    assert isinstance(info.value.__cause__, error)


def test_newton_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(max_iterations=0)
    with pytest.raises(ValueError):
        NewtonSettings(residual_tolerance=0.0)


def test_gauss_nodes_shape_and_interval():
    # the five-point rule the mean-value discrete gradient uses per panel
    assert len(_GAUSS_NODES) == 5 == len(_GAUSS_WEIGHTS)
    assert all(0.0 < s < 1.0 for s in _GAUSS_NODES)
    assert math.isclose(sum(_GAUSS_WEIGHTS), 1.0, rel_tol=1e-14)


def test_gauss_constants_are_numpys_rule_bit_for_bit():
    # written out to keep numpy.polynomial out of the import; the weights
    # are leggauss's floats, not the correctly rounded closed forms
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(5)
    assert _GAUSS_NODES == tuple(float(v + 1.0) / 2.0 for v in x)
    assert _GAUSS_WEIGHTS == tuple(float(v) / 2.0 for v in w)
    assert all(type(v) is float for v in _GAUSS_NODES + _GAUSS_WEIGHTS)


def gauss(f):
    """The five-point Gauss rule for the integral of ``f`` over [0, 1]."""
    return sum(w * f(s) for s, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS))


def test_gauss_polynomial_exactness():
    # five points are exact for polynomials up to degree 9
    for deg in range(0, 10):
        got = gauss(lambda s, d=deg: s**d)
        assert abs(got - 1.0 / (deg + 1.0)) <= 1e-13


def test_gauss_known_integrals():
    assert abs(gauss(lambda s: s * s) - 1.0 / 3.0) <= 1e-15
    got = gauss(lambda s: math.sin(math.pi * s))
    assert abs(got - 2.0 / math.pi) <= 1e-6
