"""Discrete-gradient variants and their defining properties.

The mean-value (secant) property H(w) - H(z) = d(z, w) . (w - z) holds
exactly (up to roundoff) for the Gonzalez and coordinate-increment kinds.
The mean-value kind refines its Gauss panels until the secant defect is
below 1e-12 (or a roundoff floor); a single panel, measured below, only
holds it up to quadrature error on non-quadratic storages.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrdg._kernels import Dual, value
from qsrdg.dgradients import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    GONZALEZ,
    ITOH_ABE,
    DiscreteGradientKind,
    StorageFunction,
    _evaluate,
    discrete_gradient,
    mean_value,
)
from qsrdg.errors import NonFiniteEvaluation, QsrdgError, QuadratureNotConverged
from qsrdg.gmath import cos, sin, sqrt
from qsrdg.numerics import _H
from qsrdg.systems import make_synthetic

PENDULUM_GRAVITY = 9.81

pendulum_energy = StorageFunction(
    value=lambda z: PENDULUM_GRAVITY * (1.0 - cos(z[0])) + 0.5 * z[1] * z[1],
    gradient=lambda z: (PENDULUM_GRAVITY * sin(z[0]), z[1]),
    dim=2,
)

quadratic = StorageFunction(
    value=lambda z: 0.5 * (2.0 * z[0] * z[0] + 2.0 * z[0] * z[1] + 3.0 * z[1] * z[1]),
    gradient=lambda z: (2.0 * z[0] + z[1], z[0] + 3.0 * z[1]),
    dim=2,
)
quadratic_matrix = np.array([[2.0, 1.0], [1.0, 3.0]])


def _cusp_gradient(z):
    r = sqrt(abs(z[0]))
    return (0.5 / r if z[0] > 0.0 else -0.5 / r,)


# gradient with an integrable singularity at the origin
cusp_energy = StorageFunction(
    value=lambda z: sqrt(abs(z[0])), gradient=_cusp_gradient, dim=1
)

quartic_well = StorageFunction(
    value=lambda z: 0.25 * z[0] ** 4,
    gradient=lambda z: (z[0] ** 3,),
    dim=1,
)

ALL_KINDS = (GONZALEZ, ITOH_ABE, mean_value())

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def secant_defect(kind, storage, z, w):
    d = discrete_gradient(kind, storage, z, w)
    dh = storage.value(w) - storage.value(z)
    step = np.asarray(w, dtype=float) - np.asarray(z, dtype=float)
    return abs(dh - float(d @ step)) / (1.0 + abs(dh))


def test_kind_validation():
    with pytest.raises(ValueError):
        DiscreteGradientKind("averaged")


def test_gonzalez_simple_quadratic_oracle():
    # H = |z|^2 / 2 between (0, 0) and (2, 0): gradient of the midpoint is
    # (1, 0) and the secant correction vanishes
    storage = StorageFunction(
        value=lambda z: 0.5 * (z[0] * z[0] + z[1] * z[1]),
        gradient=lambda z: (z[0], z[1]),
        dim=2,
    )
    d = discrete_gradient(GONZALEZ, storage, (0.0, 0.0), (2.0, 0.0))
    np.testing.assert_allclose(d, [1.0, 0.0], atol=1e-15)


def test_gonzalez_pendulum_axis_oracle():
    # from (0, 0) to (pi, 0): the secant slope of g(1 - cos) along z1 is
    # 2 g / pi, while the midpoint gradient alone would give g
    d = discrete_gradient(GONZALEZ, pendulum_energy, (0.0, 0.0), (math.pi, 0.0))
    np.testing.assert_allclose(
        d, [2.0 * PENDULUM_GRAVITY / math.pi, 0.0], rtol=1e-14, atol=1e-14
    )
    assert abs(d[0] - 6.2452399669259737) <= 1e-13


def test_gonzalez_quadratic_matches_matrix_average():
    # for H = z^T A z / 2 the Gonzalez gradient is exactly A (z + w) / 2
    z = np.array([0.3, -1.2])
    w = np.array([1.1, 0.4])
    d = discrete_gradient(GONZALEZ, quadratic, z, w)
    np.testing.assert_allclose(d, quadratic_matrix @ ((z + w) / 2.0), rtol=1e-14)


def test_itoh_abe_coordinate_increments_oracle():
    # H = z1^2 z2: increments H(w1, z2) - H(z1, z2) = 3 over w1 - z1 = 3,
    # then H(w1, w2) - H(w1, z2) = 8 over w2 - z2 = 2  ->  d = (1, 4)
    storage = StorageFunction(
        value=lambda z: z[0] * z[0] * z[1],
        gradient=lambda z: (2.0 * z[0] * z[1], z[0] * z[0]),
        dim=2,
    )
    d = discrete_gradient(ITOH_ABE, storage, (-1.0, 1.0), (2.0, 3.0))
    np.testing.assert_allclose(d, [1.0, 4.0], rtol=1e-14)


def test_itoh_abe_degenerate_coordinate_uses_partial_gradient():
    # second coordinate does not move: the quotient is replaced by the
    # partial derivative at the partially updated point
    d = discrete_gradient(ITOH_ABE, quadratic, (1.0, 2.0), (3.0, 2.0))
    dh = quadratic.value((3.0, 2.0)) - quadratic.value((1.0, 2.0))
    assert abs(dh - d @ np.array([2.0, 0.0])) <= 1e-13
    assert abs(d[1] - quadratic.gradient((3.0, 2.0))[1]) <= 1e-14


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_coalescence_limit_recovers_gradient(kind):
    z = (0.7, -0.4)
    g = np.asarray(pendulum_energy.gradient(z))
    for eps in (1e-2, 1e-4, 1e-6):
        w = (0.7 + eps, -0.4 + 0.5 * eps)
        d = discrete_gradient(kind, pendulum_energy, z, w)
        assert np.linalg.norm(d - g) <= 10.0 * eps

    d = discrete_gradient(kind, pendulum_energy, z, z)
    np.testing.assert_allclose(d, g, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", (GONZALEZ, ITOH_ABE), ids=lambda k: k.variant)
def test_secant_property_exact_kinds(kind, rng):
    for _ in range(200):
        z = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(-2.0, 2.0, 2)
        assert secant_defect(kind, pendulum_energy, z, w) <= 1e-12


@given(coords, coords, coords, coords)
@settings(max_examples=150, deadline=None)
def test_secant_property_gonzalez_hypothesis(z1, z2, w1, w2):
    assert secant_defect(GONZALEZ, pendulum_energy, (z1, z2), (w1, w2)) <= 1e-12


def test_gonzalez_is_symmetric_in_the_pair(rng):
    for _ in range(50):
        z = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(-2.0, 2.0, 2)
        d_zw = discrete_gradient(GONZALEZ, pendulum_energy, z, w)
        d_wz = discrete_gradient(GONZALEZ, pendulum_energy, w, z)
        np.testing.assert_allclose(d_zw, d_wz, rtol=1e-12, atol=1e-14)


def test_mean_value_exact_for_quadratics(rng):
    kind = mean_value()
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, 2)
        w = rng.uniform(-2.0, 2.0, 2)
        assert secant_defect(kind, quadratic, z, w) <= 1e-14
        np.testing.assert_allclose(
            discrete_gradient(kind, quadratic, z, w),
            quadratic_matrix @ ((z + w) / 2.0),
            rtol=1e-13,
            atol=1e-14,
        )


def one_panel_defect(storage, z, w):
    """Relative secant defect of a single five-point Gauss panel."""
    d = sum(
        wq * np.asarray(storage.gradient((1.0 - s) * z + s * w), dtype=float)
        for s, wq in zip(_GAUSS_NODES, _GAUSS_WEIGHTS)
    )
    dh = storage.value(w) - storage.value(z)
    return abs(dh - float(d @ (w - z))) / (1.0 + abs(dh))


def test_mean_value_quadrature_error_measured_bounds(rng):
    """One five-point Gauss panel on the pendulum storage is not exact.

    Measured over 1000 uniform pairs in [-2, 2]^2 (seed 0): the one-panel
    defect reaches a few 1e-7.  The mean-value kind refines the panels,
    so it meets the 1e-8 secant bound on the same pairs.
    """
    sampler = np.random.default_rng(0)
    worst = 0.0
    refined = 0.0
    for _ in range(1000):
        z = sampler.uniform(-2.0, 2.0, 2)
        w = sampler.uniform(-2.0, 2.0, 2)
        worst = max(worst, one_panel_defect(pendulum_energy, z, w))
        refined = max(refined, secant_defect(mean_value(), pendulum_energy, z, w))
    assert 1e-8 < worst < 1e-6
    assert refined <= 1e-8


def test_mean_value_refines_on_dual_newton_path():
    # a Jacobian pass of the dg-qsr residual hands _evaluate a w with a
    # complex entry; on pairs where one panel misses the bound, its value
    # parts must be the float discrete gradient and meet the bound as well
    storage = make_synthetic().storage
    kind = mean_value()
    sampler = np.random.default_rng(0)
    refined = 0
    for _ in range(200):
        z = sampler.uniform(-2.0, 2.0, 1)
        w = sampler.uniform(-2.0, 2.0, 1)
        if one_panel_defect(storage, z, w) <= 1e-8:
            continue
        refined += 1
        d = _evaluate(kind, storage, z.tolist(), [complex(w[0], _H)])
        assert all(isinstance(dk, Dual) for dk in d)
        got = np.array([value(dk) for dk in d])
        np.testing.assert_allclose(
            got, discrete_gradient(kind, storage, z, w), rtol=1e-14, atol=1e-15
        )
        dh = storage.value(w) - storage.value(z)
        assert abs(dh - float(got @ (w - z))) / (1.0 + abs(dh)) <= 1e-8
    assert refined >= 50


def test_mean_value_refinement_takes_one_dual_composite():
    # (-1, 3) on the synthetic storage needs 32 five-point panels: one
    # complex panel, the search over 2..32 panels in floats, then the
    # complex composite once at 32 panels
    storage = make_synthetic().storage
    calls = {"dual": 0, "float": 0}

    def counted_gradient(z):
        calls["dual" if isinstance(z[0], Dual) else "float"] += 1
        return storage.gradient(z)

    counting = StorageFunction(storage.value, counted_gradient, storage.dim)
    kind = mean_value()
    d = _evaluate(kind, counting, [-1.0], [complex(3.0, _H)])
    assert calls == {"dual": 5 + 5 * 32, "float": 5 * (2 + 4 + 8 + 16 + 32)}
    assert value(d[0]) == discrete_gradient(kind, storage, (-1.0,), (3.0,))[0]
    calls.update(dual=0, float=0)
    discrete_gradient(kind, counting, (-1.0,), (3.0,))
    assert calls == {"dual": 0, "float": 5 * (1 + 2 + 4 + 8 + 16 + 32)}
    # a segment that one panel meets costs one complex panel only
    calls.update(dual=0, float=0)
    _evaluate(kind, counting, [-1.0], [complex(1.0, _H)])
    assert calls == {"dual": 5, "float": 0}


def test_mean_value_raises_at_panel_cap_on_singular_gradient():
    # H = sqrt(|x|): the gradient is integrable but unbounded at 0, so
    # composite Gauss converges too slowly to reach the tolerance
    with pytest.raises(QuadratureNotConverged) as info:
        discrete_gradient(mean_value(), cusp_energy, (-1.0,), (2.0,))
    assert isinstance(info.value, QsrdgError)
    assert "panels" in str(info.value)
    # a segment that stays off the singularity is still fine
    d = discrete_gradient(mean_value(), cusp_energy, (0.5,), (2.0,))
    assert abs(d[0] * 1.5 - (math.sqrt(2.0) - math.sqrt(0.5))) <= 1e-12


def test_mean_value_non_finite_defect_raises_at_once():
    # H(w) overflows to inf, which no refinement can mend
    storage = StorageFunction(
        value=lambda z: 0.25 * z[0] * z[0] * z[0] * z[0],
        gradient=lambda z: (z[0] * z[0] * z[0],),
        dim=1,
    )
    with pytest.raises(NonFiniteEvaluation):
        discrete_gradient(mean_value(), storage, (0.0,), (1e100,))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_quartic_well_secant_property(kind):
    # all three kinds are exact here; for mean-value the line integrand
    # is cubic, well inside five-point quadrature
    z = (-1.5,)
    w = (2.0,)
    d = discrete_gradient(kind, quartic_well, z, w)
    dh = quartic_well.value(w) - quartic_well.value(z)
    assert abs(dh - d[0] * 3.5) <= 1e-13


def test_storage_function_dim_is_advisory_metadata():
    assert pendulum_energy.dim == 2
    assert quartic_well.dim == 1
