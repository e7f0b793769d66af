"""Supply rates, dissipation, and the structure identities."""

import dataclasses
import math

import numpy as np
import pytest

from qsrdg.dgradients import StorageFunction
from qsrdg.model import (
    ConstantMap,
    QsrSystem,
    SupplyRate,
    continuous_power_balance_residual,
    dissipation_rate,
    hill_moylan_residual,
    supply_value,
)
from qsrdg.systems import (
    make_lti_ocp,
    make_pendulum,
    make_pi,
    make_synthetic,
)

ALL_FACTORIES = (make_pendulum, make_lti_ocp, make_pi, make_synthetic)


def test_supply_rate_coercion_and_validation():
    sr = SupplyRate(q=-0.5, s=0.5, r=0.0)
    assert sr.q.shape == (1, 1) and sr.m == 1
    assert sr.q[0, 0] == -0.5

    with pytest.raises(ValueError):
        SupplyRate(q=np.eye(2), s=np.eye(2), r=np.ones((2, 3)))
    with pytest.raises(ValueError):
        SupplyRate(q=np.array([[0.0, 1.0], [0.0, 0.0]]), s=np.eye(2), r=np.eye(2))


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("name", ("q", "s", "r"))
def test_supply_rate_rejects_non_finite_weights(name, bad):
    # an off-diagonal NaN in q once passed the symmetry check, since
    # nan > 1e-12 is False
    weights = {"q": np.eye(2), "s": np.eye(2), "r": np.zeros((2, 2))}
    weights[name][0, 1] = bad
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        SupplyRate(**weights)


def test_supply_value_passivity_weights():
    # passivity supply 2 y^T (1/2) u = y u: with y = 2, u = 3 this is 6
    sr = SupplyRate(q=0.0, s=0.5, r=0.0)
    assert supply_value(sr, 3.0, 2.0) == 6.0


def test_supply_value_output_damped_weights():
    # q = -0.2, s = 1/2: y^2 q + y u = -0.2 * 4 + 2 * 1 = 1.2
    sr = SupplyRate(q=-0.2, s=0.5, r=0.0)
    assert math.isclose(supply_value(sr, 1.0, 2.0), 1.2, rel_tol=1e-15)


def test_supply_value_multichannel():
    sr = SupplyRate(q=np.zeros((2, 2)), s=0.5 * np.eye(2), r=-np.eye(2))
    u = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    # y . u - |u|^2 = (3 - 2) - 5 = -4
    assert math.isclose(supply_value(sr, u, y), -4.0, rel_tol=1e-15)


def test_supply_value_on_stacked_rows_matches_row_by_row(rng):
    q = rng.standard_normal((2, 2))
    r = rng.standard_normal((2, 2))
    sr = SupplyRate(q=q + q.T, s=rng.standard_normal((2, 2)), r=r + r.T)
    u = rng.standard_normal((7, 2))
    y = rng.standard_normal((7, 2))
    got = supply_value(sr, u, y)
    assert got.shape == (7,)
    # the summation order may differ from a single row's, by roundoff
    np.testing.assert_allclose(
        got, [supply_value(sr, ui, yi) for ui, yi in zip(u, y)], rtol=0.0, atol=1e-14
    )
    # one channel, rows of length one and plain scalars
    sr = SupplyRate(q=-0.2, s=0.5, r=0.1)
    u = rng.standard_normal((5, 1))
    y = rng.standard_normal((5, 1))
    want = [supply_value(sr, float(ui[0]), float(yi[0])) for ui, yi in zip(u, y)]
    assert supply_value(sr, u, y).tolist() == want
    assert isinstance(supply_value(sr, 1.0, 2.0), float)


def test_dissipation_rate_oracles():
    # the pendulum realization keeps its damping in the supply weight q,
    # so the factorized dissipation signal is identically zero
    sys_ = make_pendulum()
    assert dissipation_rate(sys_, (0.3, -1.7), 0.8) == 0.0

    # regulated double-integrator: l = C z / sqrt(2), W = 0, C = (1, 0)
    sys_ = make_lti_ocp()
    assert math.isclose(dissipation_rate(sys_, (2.0, 5.0), 0.0), 2.0, rel_tol=1e-14)

    # rational saturating example: l(1) = sqrt(2) / sqrt(2) = 1 and W = 0
    # (its feedthrough identity forces W^T W = lambda^2 - lambda^2 = 0),
    # so the rate ignores the input entirely
    sys_ = make_synthetic()
    assert math.isclose(dissipation_rate(sys_, (1.0,), -0.5), 1.0, rel_tol=1e-13)
    assert math.isclose(dissipation_rate(sys_, (1.0,), 7.0), 1.0, rel_tol=1e-13)
    assert dissipation_rate(sys_, (0.0,), 3.0) == 0.0


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.__name__)
def test_structure_identities_on_sampled_states(factory, rng):
    sys_ = factory()
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, sys_.n)
        r1, r2, r3 = hill_moylan_residual(sys_, z)
        assert r1 <= 1e-12
        assert r2 <= 1e-12
        assert r3 <= 1e-12


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.__name__)
def test_continuous_power_balance_on_sampled_pairs(factory, rng):
    sys_ = factory()
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, sys_.n)
        u = rng.uniform(-2.0, 2.0, sys_.m)
        assert continuous_power_balance_residual(sys_, z, u) <= 1e-12


@pytest.mark.parametrize("factory", ALL_FACTORIES, ids=lambda f: f.__name__)
def test_output_recovery_matrix_is_invertible_on_box(factory, rng):
    """(Q D + S)^T must stay invertible where the scheme evaluates it."""
    sys_ = factory()
    q, s = sys_.supply.q, sys_.supply.s
    for _ in range(100):
        z = rng.uniform(-2.0, 2.0, sys_.n)
        dv = np.asarray(sys_.feedthrough(z), dtype=float)
        assert abs(np.linalg.det(q @ dv + s)) >= 1e-8


def test_structure_identity_detects_wrong_loss():
    base = make_lti_ocp()
    broken = QsrSystem(
        storage=base.storage,
        supply=base.supply,
        drift=base.drift,
        input_map=base.input_map,
        output_map=base.output_map,
        feedthrough=base.feedthrough,
        loss_state=lambda z: [0.0],  # drops the regulation loss
        loss_input=base.loss_input,
    )
    r1, _, _ = hill_moylan_residual(broken, (0.3, 1.5))
    assert r1 > 1e-2


def test_structure_identity_detects_wrong_feedthrough():
    base = make_synthetic()
    broken = QsrSystem(
        storage=base.storage,
        supply=base.supply,
        drift=base.drift,
        input_map=base.input_map,
        output_map=base.output_map,
        feedthrough=lambda z: [[0.0]],
        loss_state=base.loss_state,
        loss_input=base.loss_input,
    )
    _, _, r3 = hill_moylan_residual(broken, (0.5,))
    assert r3 > 1e-2


def test_system_dimension_inference_and_validation():
    storage = StorageFunction(
        value=lambda z: 0.5 * z[0] * z[0],
        gradient=lambda z: (z[0],),
        dim=1,
        difference=lambda a, b: 0.5 * (b[0] - a[0]) * (b[0] + a[0]),
    )
    supply = SupplyRate(q=0.0, s=0.5, r=0.0)
    sys_ = QsrSystem(
        storage=storage,
        supply=supply,
        drift=lambda z: [-z[0]],
        input_map=lambda z: [[1.0]],
        output_map=lambda z: [z[0]],
        feedthrough=lambda z: [[0.0]],
        loss_state=lambda z: [z[0]],
        loss_input=lambda z: [[0.0]],
    )
    assert sys_.n == 1 and sys_.m == 1


def test_constant_map_returns_its_rows_as_floats_at_any_state():
    b = ConstantMap(np.array([[0.0], [1.0]]))
    assert b.rows == ((0.0,), (1.0,))
    assert all(type(v) is float for row in b.rows for v in row)
    assert b([0.3, -2.0]) is b.rows and b(None) is b.rows


@pytest.mark.parametrize(
    "name, rows, match",
    (
        ("input_map", ((0.0,), (math.nan,)), "input_map has non-finite"),
        ("feedthrough", ((math.inf,),), "feedthrough has non-finite"),
        ("loss_input", ((0.0,), (0.0, 1.0)), "loss_input has ragged rows"),
        ("input_map", ((0.0,), (1.0, 2.0)), "input_map has ragged rows"),
        ("input_map", ((0.0, 1.0),), r"input_map .* \(1, 2\), expected \(2, 1\)"),
        ("input_map", ((1.0,),), r"input_map .* \(1, 1\), expected \(2, 1\)"),
        ("feedthrough", ((0.0,), (0.0,)), r"feedthrough .* \(2, 1\), expected"),
        ("feedthrough", ((0.0, 0.0),), r"feedthrough .* \(1, 2\), expected"),
        ("loss_input", ((0.0, 0.0), (1.0, 1.0)), r"loss_input .* \(2, 2\), exp"),
        ("loss_input", (), r"loss_input has shape \(0,\), expected \(p, 1\)"),
    ),
)
def test_system_rejects_a_bad_declared_map(name, rows, match):
    # the pendulum: n = 2, m = 1
    system = make_pendulum()
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(system, **{name: ConstantMap(rows)})


def test_system_accepts_a_declared_loss_input_with_any_number_of_rows():
    system = dataclasses.replace(
        make_pendulum(), loss_input=ConstantMap(((0.0,), (0.0,), (0.0,)))
    )
    assert system.loss_input(None) == ((0.0,), (0.0,), (0.0,))
