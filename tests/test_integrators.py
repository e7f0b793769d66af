"""One-step maps, the integration loop, and the discrete power balance."""

import dataclasses
import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qsrdg import gmath as gm
from qsrdg import integrators
from qsrdg._kernels import dot, matvec, value
from qsrdg.dgradients import (
    GONZALEZ,
    ITOH_ABE,
    StorageFunction,
    discrete_gradient,
    mean_value,
)
from qsrdg.errors import (
    GridMismatch,
    IntegrationError,
    NewtonDidNotConverge,
    NonFiniteEvaluation,
    QuadratureNotConverged,
    SingularMatrix,
)
from qsrdg.integrators import (
    DG_QSR,
    IMPLICIT_MIDPOINT,
    SchemeConfig,
    TimeGrid,
    Trajectory,
    discrete_power_balance_residuals,
    integrate,
    relative_error,
)
from qsrdg.model import (
    ConstantMap,
    QsrSystem,
    SupplyRate,
    hill_moylan_residual,
    supply_value,
)
from qsrdg.numerics import _H, NewtonSettings, _jacobian_with_values, _tolerance
from qsrdg.systems import (
    EXAMPLE_NAMES,
    benchmark_settings,
    make_pendulum,
    make_pi,
    make_synthetic,
)

ALL_KINDS = (GONZALEZ, ITOH_ABE, mean_value())


def scalar_decay_system():
    """H = z^2/2, f = -z, passive output y = z: plain exponential decay."""
    return QsrSystem(
        storage=StorageFunction(
            value=lambda z: 0.5 * z[0] * z[0],
            gradient=lambda z: (z[0],),
            dim=1,
            difference=lambda a, b: 0.5 * (b[0] - a[0]) * (b[0] + a[0]),
        ),
        supply=SupplyRate(q=0.0, s=0.5, r=0.0),
        drift=lambda z: [-z[0]],
        input_map=lambda z: [[1.0]],
        output_map=lambda z: [z[0]],
        feedthrough=lambda z: [[0.0]],
        loss_state=lambda z: [z[0]],
        loss_input=lambda z: [[0.0]],
    )


def zero_control(t):
    return 0.0


def varying_feedthrough_system(shared=False):
    """One state, D(z) = 1/2 + sin(z)/4 and Q = -1, so (Q D + S)^T = -D(z)
    changes with every residual call.

    H = z^2/2 with S = 0 and R = 1.  The third structure identity
    W^2 = R + 2 D S + Q D^2 gives W = sqrt(1 - D^2).  With h = z and
    l = z/2, the first, z f - h Q h + l^2 = 0, gives f = -5z/4, and the
    second, B z/2 - (Q D + S) h + W l = 0, gives B = -2D - W.  With
    ``shared`` the feedthrough returns one list that it mutates.
    """
    buf = [[0.0]]

    def d_of(z):
        return 0.5 + 0.25 * gm.sin(z[0])

    def w_of(z):
        d = d_of(z)
        return gm.sqrt(1.0 - d * d)

    def feedthrough(z):
        if shared:
            buf[0][0] = d_of(z)
            return buf
        return [[d_of(z)]]

    def loss_input(z):
        return [[w_of(z)]]

    def input_map(z):
        return [[-2.0 * d_of(z) - w_of(z)]]

    return QsrSystem(
        storage=StorageFunction(
            value=lambda z: 0.5 * z[0] * z[0],
            gradient=lambda z: (z[0],),
            dim=1,
            difference=lambda a, b: 0.5 * (b[0] - a[0]) * (b[0] + a[0]),
        ),
        supply=SupplyRate(q=-1.0, s=0.0, r=1.0),
        drift=lambda z: [-1.25 * z[0]],
        input_map=input_map,
        output_map=lambda z: [z[0]],
        feedthrough=feedthrough,
        loss_state=lambda z: [0.5 * z[0]],
        loss_input=loss_input,
    )


def pushing_control(t):
    # B < 0, so a negative input keeps the state near 1, away from the
    # critical point of H at 0
    return -1.0 - 0.5 * math.sin(3.0 * t)


# grids and configs ----------------------------------------------------


def test_time_grid_constructors_and_properties():
    grid = TimeGrid.equidistant(2.0, 4)
    np.testing.assert_allclose(grid.points, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.num_steps == 4
    assert grid.horizon == 2.0
    np.testing.assert_allclose(grid.steps, 0.5)

    grid = TimeGrid.with_step(0.25, 3)
    np.testing.assert_allclose(grid.points, [0.0, 0.25, 0.5, 0.75])

    uneven = TimeGrid(np.array([0.0, 0.1, 0.4, 1.0]))
    np.testing.assert_allclose(uneven.steps, [0.1, 0.3, 0.6])

    # a numpy integer step count gives the same nodes bit for bit
    nodes = TimeGrid.equidistant(0.5, np.int64(100)).points
    assert np.array_equal(nodes, np.arange(101) * (0.5 / 100))


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        TimeGrid(np.array([0.0]))
    with pytest.raises(ValueError):
        TimeGrid.equidistant(1.0, 0)
    with pytest.raises(ValueError):
        TimeGrid.with_step(-0.1, 5)


@pytest.mark.parametrize(
    "build, args, error, match",
    (
        (TimeGrid.equidistant, (1.0, 2.5), TypeError, "integer"),
        (TimeGrid.with_step, (0.4, 2.5), TypeError, "integer"),
        (TimeGrid.equidistant, (math.inf, 10), ValueError, "finite positive"),
        (TimeGrid.equidistant, (math.nan, 10), ValueError, "finite positive"),
        (TimeGrid.with_step, (math.nan, 3), ValueError, "finite positive"),
        (TimeGrid.with_step, (math.inf, 3), ValueError, "finite positive"),
        (TimeGrid.with_step, (1e307, 100), ValueError, "finite positive"),
        (TimeGrid, ([0.0, math.inf],), ValueError, "finite"),
        (TimeGrid, ([0.0, 1.0, math.nan],), ValueError, "finite"),
    ),
    ids=(
        "fractional-count",
        "fractional-count-with-step",
        "infinite-horizon",
        "nan-horizon",
        "nan-step",
        "infinite-step",
        "overflowing-horizon",
        "infinite-node",
        "nan-node",
    ),
)
def test_time_grid_rejects_non_integral_counts_and_non_finite_times(
    build, args, error, match
):
    # each used to return a grid with another horizon, or to fail with a
    # RuntimeWarning or a message that named another defect
    with pytest.raises(error, match=match):
        build(*args)


def test_scheme_config_validation():
    assert SchemeConfig().scheme == DG_QSR
    with pytest.raises(ValueError):
        SchemeConfig(scheme="leapfrog")
    # a kind's name is not a kind: it must fail here, not inside Newton
    with pytest.raises(TypeError, match="'gonzalez'"):
        SchemeConfig(dg_kind="gonzalez")


# recovered output and drift coefficient -------------------------------


@pytest.mark.parametrize(
    "name", ("pendulum", "lti-ocp", "pi", "synthetic")
)
def test_recovered_output_collapses_to_output_map(name, rng, scheme_oracle):
    sys_ = benchmark_settings(name).system
    for _ in range(25):
        z = rng.uniform(-1.5, 1.5, sys_.n)
        got, _ = scheme_oracle(sys_, GONZALEZ, z, z)
        np.testing.assert_allclose(
            got, np.atleast_1d(np.asarray(sys_.output_map(z), dtype=float)),
            rtol=1e-10, atol=1e-12,
        )


def test_drift_coefficient_oracles(scheme_oracle):
    # pendulum at rest velocity 1: supply weight q = -0.2 against
    # |grad H| = 1 gives exactly -0.2
    pend = make_pendulum()
    _, gam = scheme_oracle(pend, GONZALEZ, (0.0, 1.0), (0.0, 1.0))
    assert math.isclose(gam, -0.2, rel_tol=1e-12)

    # saturating example at z = 1: (q h^2 - l^2) / eta^2 = (-1 - 1) / 1
    syn = make_synthetic()
    _, gam = scheme_oracle(syn, GONZALEZ, (1.0,), (1.0,))
    assert math.isclose(gam, -2.0, rel_tol=1e-12)


def test_drift_coefficient_matches_power_identity(rng, scheme_oracle):
    # at w = z the coefficient times |grad H|^2 must equal grad H . f
    sys_ = make_synthetic()
    for _ in range(20):
        z = rng.uniform(0.2, 2.0, 1)
        eta = np.asarray(sys_.storage.gradient(z), dtype=float)
        fv = np.asarray(sys_.drift(z), dtype=float)
        _, gam = scheme_oracle(sys_, GONZALEZ, z, z)
        assert math.isclose(gam * float(eta @ eta), float(eta @ fv), rel_tol=1e-10)


def test_scheme_direction_consistency_at_base_points(rng, scheme_oracle):
    """At w = z the scheme's direction reduces to f(z) + B(z) u."""
    for name in ("pendulum", "lti-ocp", "synthetic"):
        sys_ = benchmark_settings(name).system
        count = 0
        while count < 20:
            z = rng.uniform(-2.0, 2.0, sys_.n)
            eta = np.asarray(sys_.storage.gradient(z), dtype=float)
            if float(np.linalg.norm(eta)) <= 1e-3:
                continue
            count += 1
            u = rng.uniform(-1.0, 1.0, sys_.m)
            fv = np.asarray(sys_.drift(z), dtype=float)
            bu = np.asarray(sys_.input_map(z), dtype=float) @ u
            _, gam = scheme_oracle(sys_, GONZALEZ, z, z)
            orth = np.eye(eta.size) - np.outer(eta, eta) / (eta @ eta)
            direction = gam * eta + orth @ fv + bu
            np.testing.assert_allclose(
                direction, fv + bu, rtol=1e-9, atol=1e-11
            )


# single steps ----------------------------------------------------------


def one_step(system, config, control, z, tau):
    """The one-step trajectory from ``z`` at t = 0."""
    return integrate(system, config, TimeGrid.with_step(tau, 1), control, z)


def test_pi_stays_at_fixed_point_with_zero_input():
    sys_ = make_pi()
    config = SchemeConfig()
    traj = one_step(sys_, config, zero_control, (1.0,), 0.1)
    assert traj.states[1][0] == 1.0
    assert traj.newton_iterations[0] == 0
    assert traj.discrete_outputs[0][0] == 1.0


def test_conservative_pendulum_single_step_preserves_energy():
    sys_ = make_pendulum(damping=0.0)
    config = SchemeConfig()
    z0 = (math.pi / 4.0, -1.0)
    h0 = sys_.storage.value(z0)
    traj = one_step(sys_, config, zero_control, z0, 0.05)
    h1 = sys_.storage.value(traj.states[1].tolist())
    assert abs(h1 - h0) <= 1e-13 * (1.0 + abs(h0))


def test_midpoint_step_scalar_decay_oracle():
    sys_ = scalar_decay_system()
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    traj = one_step(sys_, config, zero_control, (1.0,), 0.1)
    assert math.isclose(traj.states[1][0], 0.95 / 1.05, rel_tol=1e-13)


def test_dg_step_third_order_local_error():
    # halving the step should shrink the one-step defect against the
    # exact flow by about 2^3
    sys_ = scalar_decay_system()
    config = SchemeConfig()

    def local_error(tau):
        traj = one_step(sys_, config, zero_control, (1.0,), tau)
        return abs(traj.states[1][0] - math.exp(-tau))

    ratio = local_error(0.2) / local_error(0.1)
    assert 7.0 <= ratio <= 9.0


def test_step_records_newton_diagnostics():
    case = benchmark_settings("pendulum")
    newton = NewtonSettings()
    traj = one_step(case.system, SchemeConfig(), case.control, case.initial_state, 0.01)
    assert traj.newton_residuals[0] <= newton.residual_tolerance
    assert 1 <= traj.newton_iterations[0] <= newton.max_iterations
    assert traj.averaged_inputs[0].shape == (1,)
    assert traj.discrete_outputs[0].shape == (1,)


def test_input_rules_trapezoidal_vs_midpoint_sample():
    # a step at t = 1, taken as the first step of a grid on the shifted
    # control, averages the input by the trapezoidal endpoint mean, not
    # by a midpoint sample
    case = benchmark_settings("pendulum")
    tau = 0.25

    def shifted(t):
        return case.control(1.0 + t)

    trap = one_step(case.system, SchemeConfig(), shifted, case.initial_state, tau)
    u0, u1 = case.control(1.0), case.control(1.0 + tau)
    assert math.isclose(trap.averaged_inputs[0][0], 0.5 * (u0 + u1), rel_tol=1e-15)


# integration loop ------------------------------------------------------


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_discrete_power_balance_all_kinds_pendulum(kind):
    case = benchmark_settings("pendulum")
    config = SchemeConfig(dg_kind=kind)
    grid = TimeGrid.equidistant(5.0, 500)
    traj = integrate(case.system, config, grid, case.control, case.initial_state)
    residuals = discrete_power_balance_residuals(case.system, traj)
    assert float(np.max(residuals)) <= 1e-10


@pytest.mark.parametrize("tau", (1e-4, 1e-5, 1e-6))
def test_discrete_power_balance_at_small_steps_down_to_the_rounding_floor(
    tau, monkeypatch
):
    # in floats (H(w) - H(z)) / tau cannot be closer than about
    # eps (|H(z)| + |H(w)|) / tau, which exceeds 1e-10 below tau = 1e-5 on
    # the pendulum; a start that meets the Newton tolerance but not the
    # rounding floor still gets one update, so every step lands within 8
    # times that floor.  At every tau all but the first few steps start
    # from the factors the last step kept: a start on the rounding floor
    # is kept without an update, so its solve costs one float call and
    # leaves the factors for the next step
    counts = _counting_newton(monkeypatch)
    eps = np.finfo(float).eps
    for name in ("pendulum", "lti-ocp", "pi", "synthetic"):
        case = benchmark_settings(name)
        grid = TimeGrid.with_step(tau, 400)
        for kind in ALL_KINDS:
            carried = counts["carried"]
            traj = integrate(
                case.system, SchemeConfig(dg_kind=kind), grid, case.control,
                case.initial_state,
            )
            carried = counts["carried"] - carried
            assert carried >= grid.num_steps - 3
            defects = discrete_power_balance_residuals(case.system, traj)
            h = np.abs([case.system.storage.value(z) for z in traj.states.tolist()])
            bound = np.maximum(1e-10, 8.0 * eps * (h[:-1] + h[1:]) / tau)
            assert np.all(defects <= bound), (name, kind.variant)


def test_discrete_power_balance_on_uneven_grid(rng):
    case = benchmark_settings("synthetic")
    steps = rng.uniform(0.002, 0.03, 300)
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(steps))))
    traj = integrate(case.system, SchemeConfig(), grid, case.control, case.initial_state)
    residuals = discrete_power_balance_residuals(case.system, traj)
    assert float(np.max(residuals)) <= 1e-10


def test_midpoint_balance_defect_is_visible():
    # the reference scheme has no balance guarantee; its defect sits at
    # discretization level, orders above the structure-preserving one
    case = benchmark_settings("pendulum")
    grid = TimeGrid.equidistant(5.0, 100)
    dg = integrate(
        case.system, SchemeConfig(), grid, case.control, case.initial_state
    )
    mp = integrate(
        case.system,
        SchemeConfig(scheme=IMPLICIT_MIDPOINT),
        grid,
        case.control,
        case.initial_state,
    )
    dg_worst = float(np.max(discrete_power_balance_residuals(case.system, dg)))
    mp_worst = float(np.max(discrete_power_balance_residuals(case.system, mp)))
    assert dg_worst <= 1e-10
    assert mp_worst >= 1e-5
    assert mp_worst >= 100.0 * dg_worst


def test_conservative_pendulum_long_run_drift_and_midpoint_comparison():
    sys_ = make_pendulum(damping=0.0)
    grid = TimeGrid.equidistant(10.0, 100)
    z0 = (math.pi / 4.0, -1.0)
    h0 = sys_.storage.value(z0)

    dg = integrate(sys_, SchemeConfig(), grid, zero_control, z0)
    drift_dg = max(
        abs(sys_.storage.value(s.tolist()) - h0) for s in dg.states
    )
    mp = integrate(
        sys_, SchemeConfig(scheme=IMPLICIT_MIDPOINT), grid, zero_control, z0
    )
    drift_mp = max(
        abs(sys_.storage.value(s.tolist()) - h0) for s in mp.states
    )
    assert drift_dg <= 1e-10
    assert drift_mp >= 10.0 * drift_dg


def test_dissipation_inequality_along_trajectory():
    # with the supply removed, stored energy must not increase: the
    # per-step balance has a nonpositive right-hand side for u = 0 when
    # q is negative semidefinite
    case = benchmark_settings("synthetic")
    grid = TimeGrid.equidistant(5.0, 250)
    traj = integrate(case.system, SchemeConfig(), grid, case.control, case.initial_state)
    hval = case.system.storage.value
    for i in range(grid.num_steps):
        dh = hval(traj.states[i + 1].tolist()) - hval(traj.states[i].tolist())
        sup = supply_value(
            case.system.supply, traj.averaged_inputs[i], traj.discrete_outputs[i]
        )
        assert dh <= float(grid.steps[i]) * sup + 1e-10


def test_integrate_validates_initial_state():
    # a NaN start used to end in an IntegrationError from Newton at step 0
    case = benchmark_settings("pendulum")
    for z0, message in (((1.0,), "shape"), ((math.nan, 0.0), "finite")):
        with pytest.raises(ValueError, match=message):
            integrate(
                case.system,
                SchemeConfig(),
                TimeGrid.equidistant(1.0, 10),
                case.control,
                z0,
            )


@pytest.mark.parametrize("scheme", (DG_QSR, IMPLICIT_MIDPOINT))
@pytest.mark.parametrize(
    "bad_maps, message",
    (
        pytest.param(
            lambda s: {"drift": lambda z: [z[1]]},
            "drift returned shape (1,), expected (2,)",
            id="short-drift",
        ),
        pytest.param(
            lambda s: {"drift": lambda z: [*s.drift(z), 0.0]},
            "drift returned shape (3,), expected (2,)",
            id="long-drift",
        ),
        pytest.param(
            lambda s: {
                "storage": StorageFunction(
                    s.storage.value, lambda z: [z[0]], 2, s.storage.difference
                )
            },
            "storage gradient returned shape (1,), expected (2,)",
            id="short-gradient",
        ),
        pytest.param(
            lambda s: {"input_map": lambda z: ((0.0, 0.0), (1.0, 0.0))},
            "input_map returned shape (2, 2), expected (2, 1)",
            id="wide-input-map",
        ),
        pytest.param(
            lambda s: {"loss_state": lambda z: (0.0, 0.0)},
            "loss_input returned shape (1, 1), expected (2, 1)",
            id="mismatched-loss-maps",
        ),
        pytest.param(
            lambda s: {"input_map": lambda z: ((0.0,), (1.0, 0.0))},
            "input_map returned shape ragged, expected (2, 1)",
            id="ragged-input-map",
        ),
        pytest.param(
            lambda s: {"drift": lambda z: [z[1], [0.0]]},
            "drift returned shape ragged, expected (2,)",
            id="nested-drift-entry",
        ),
        pytest.param(
            lambda s: {"feedthrough": lambda z: (((0.0,),),)},
            "feedthrough returned shape ragged, expected (1, 1)",
            id="nested-feedthrough-entry",
        ),
    ),
)
def test_integrate_rejects_maps_of_the_wrong_shape(scheme, bad_maps, message):
    # a short map used to end in an IndexError mid-step, a long drift was
    # cut to n entries by zip
    case = benchmark_settings("pendulum")
    system = dataclasses.replace(case.system, **bad_maps(case.system))
    with pytest.raises(ValueError, match=re.escape(message)):
        integrate(
            system,
            SchemeConfig(scheme=scheme),
            TimeGrid.equidistant(1.0, 10),
            case.control,
            case.initial_state,
        )


def test_integration_error_carries_step_location():
    # the input turns NaN at t = 0.35, so step 3, which averages u(0.3)
    # and u(0.4), has a non-finite residual
    sys_ = make_pi()
    grid = TimeGrid.equidistant(1.0, 10)

    def failing(t):
        return math.nan if t > 0.35 else 0.0

    with pytest.raises(IntegrationError) as info:
        integrate(sys_, SchemeConfig(), grid, failing, (1.0,))
    assert info.value.step_index == 3
    assert "step 3" in str(info.value)
    assert isinstance(info.value.__cause__, NonFiniteEvaluation)
    # the error carries z_3, the state the failing step started from
    cut = TimeGrid(grid.points[:4])
    good = integrate(sys_, SchemeConfig(), cut, failing, (1.0,))
    assert info.value.state.dtype == float
    assert np.array_equal(info.value.state, good.states[3])


def cosh_system():
    """H = cosh z - 1, f = -sinh z, l = h = sinh z, B = 1 and supply u y:
    dissipative, but sinh and cosh overflow above about 710, where
    ``math`` raises ``OverflowError`` instead of returning inf."""
    return QsrSystem(
        storage=StorageFunction(
            value=lambda z: gm.cosh(z[0]) - 1.0,
            gradient=lambda z: [gm.sinh(z[0])],
            dim=1,
            difference=lambda a, b: (
                2.0 * gm.sinh(0.5 * (b[0] + a[0])) * gm.sinh(0.5 * (b[0] - a[0]))
            ),
        ),
        supply=SupplyRate(q=0.0, s=0.5, r=0.0),
        drift=lambda z: [-gm.sinh(z[0])],
        input_map=lambda z: ((1.0,),),
        output_map=lambda z: [gm.sinh(z[0])],
        feedthrough=lambda z: ((0.0,),),
        loss_state=lambda z: [gm.sinh(z[0])],
        loss_input=lambda z: ((0.0,),),
    )


@pytest.mark.parametrize("scheme", (DG_QSR, IMPLICIT_MIDPOINT))
@pytest.mark.parametrize(
    "tau, z0", ((2.0, 20.0), (5.0, 100.0), (1.0, 700.0), (1.0, 711.0), (1.0, 712.0))
)
def test_a_map_that_raises_fails_the_step_with_a_typed_error(scheme, tau, z0):
    # coarse steps from large states send Newton's iterates past the
    # overflow of sinh, and from 711 on sinh overflows at z0 itself, in
    # the shape check before step 0; both used to escape integrate as a
    # bare OverflowError with no step index and no last good state
    system = cosh_system()
    assert max(hill_moylan_residual(system, [1.5])) <= 1e-12
    grid = TimeGrid.with_step(tau, 10)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NewtonDidNotConverge)
            traj = integrate(system, SchemeConfig(scheme=scheme), grid, zero_control, (z0,))
    except IntegrationError as exc:
        assert f"step {exc.step_index} " in str(exc)
        # inside Newton or in the shape check, the map's own error is the
        # cause; the NonFiniteEvaluation it became is only the context.
        # dg-qsr from 700 fails on an infinite derivative instead, which
        # no map raised, so there the typed error is the cause
        raised = exc.__cause__
        if (scheme, z0) == (DG_QSR, 700.0):
            assert isinstance(raised, NonFiniteEvaluation)
            assert raised.__cause__ is None
        else:
            assert isinstance(raised, OverflowError)
        assert exc.state.shape == (1,) and np.all(np.isfinite(exc.state))
        if z0 > 710.0:
            assert exc.step_index == 0 and exc.state.tolist() == [z0]
    else:
        assert z0 < 710.0
        assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


def test_a_midpoint_output_map_that_raises_fails_the_step_with_a_typed_error():
    # the midpoint residual evaluates the output map at every iterate's
    # midpoint: log(z - 0.9) is defined at z0 = 1 and at step 0's
    # midpoints, near 0.952, but not at step 1's, near 0.862
    system = dataclasses.replace(
        scalar_decay_system(), output_map=lambda z: [gm.log(z[0] - 0.9)]
    )
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    with pytest.raises(IntegrationError, match="map raised ValueError") as info:
        integrate(system, config, TimeGrid.with_step(0.1, 5), zero_control, (1.0,))
    assert isinstance(info.value.__cause__, ValueError)
    assert info.value.step_index == 1
    assert info.value.state.tolist() == pytest.approx([0.95 / 1.05], rel=1e-14)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_run_from_rest_at_a_critical_point_of_the_storage(name, kind):
    # every example's storage is stationary at the origin, so the discrete
    # gradient vanishes at w = z there and the Jacobian pass at the start
    # is implicit midpoint's; under a forcing the run keeps the balance
    system = benchmark_settings(name).system
    config = SchemeConfig(dg_kind=kind)
    grid = TimeGrid.with_step(0.05, 20)
    rest = np.zeros(system.n)
    traj = integrate(system, config, grid, lambda t: (1.0,) * system.m, rest)
    assert np.all(traj.newton_residuals <= NewtonSettings().residual_tolerance)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10
    # unforced, the rest state solves every step exactly: the run stays
    # at rest with no Newton update
    traj = integrate(system, config, grid, lambda t: (0.0,) * system.m, rest)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.newton_iterations == 0)
    assert np.all(traj.newton_residuals == 0.0)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize(
    "name, offset",
    [(name, offset) for offset in (0.0, 1e-14) for name in EXAMPLE_NAMES],
    ids=[*EXAMPLE_NAMES, *(f"{name}-1e-14" for name in EXAMPLE_NAMES)],
)
def test_input_switched_on_at_rest_at_a_critical_point(name, kind, offset):
    # the run rests at, or offset from, the origin until the step input
    # comes on at t = 0.5, and the step that averages the switch moves
    # off it.  A start 1e-14 away used to be refused at step 0 by an
    # absolute floor on the discrete gradient
    system = benchmark_settings(name).system
    grid = TimeGrid.with_step(0.05, 20)

    def switched_on(t):
        return (0.0 if t < 0.5 else 1.0,) * system.m

    traj = integrate(
        system,
        SchemeConfig(dg_kind=kind),
        grid,
        switched_on,
        np.full(system.n, offset),
    )
    assert np.all(np.abs(traj.states[:10]) <= 10.0 * offset)
    assert np.any(traj.states[-1] != 0.0)
    assert np.all(traj.newton_residuals <= NewtonSettings().residual_tolerance)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize(
    "name, z0, tau, num_steps",
    (("synthetic", (1.0,), 5e-3, 2000), ("pendulum", (1e-6, 0.0), 0.1, 1600)),
    ids=("synthetic", "pendulum"),
)
def test_unforced_run_settles_at_rest(name, z0, tau, num_steps, kind):
    # both decay below 1e-12; an absolute floor on the discrete gradient
    # once refused every step from there on (synthetic at step 1898,
    # pendulum at step 1542)
    system = benchmark_settings(name).system
    with warnings.catch_warnings():
        warnings.simplefilter("error", NewtonDidNotConverge)
        traj = integrate(
            system,
            SchemeConfig(dg_kind=kind),
            TimeGrid.with_step(tau, num_steps),
            lambda t: (0.0,) * system.m,
            z0,
        )
    assert np.max(np.abs(traj.states[-1])) < 1e-12
    assert np.all(traj.newton_residuals <= 1e-13)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


def test_unforced_run_that_grows_large_keeps_the_guarantee():
    # lti-ocp is open-loop unstable; unforced from (1, 1) it grows past
    # |z| = 1e3 at step 13,275.  A fixed 1e-13 Newton tolerance is below
    # the rounding floor of such states and stalled from |z| = 434 on; the
    # tolerance of 4 ulps of the iterate does not, and every defect stays
    # within the rounding limit of the small-step balance test
    case = benchmark_settings("lti-ocp")
    system, tau = case.system, 5e-3
    with warnings.catch_warnings():
        warnings.simplefilter("error", NewtonDidNotConverge)
        traj = integrate(
            system, SchemeConfig(), TimeGrid.with_step(tau, 13_300),
            lambda t: (0.0,) * system.m, case.initial_state,
        )
    eps = np.finfo(float).eps
    largest = np.max(np.abs(traj.states), axis=1)
    assert largest[-1] >= 1e3
    assert np.all(traj.newton_residuals <= np.maximum(1e-13, 4.0 * eps * largest[1:]))
    defects = discrete_power_balance_residuals(system, traj)
    h = np.abs([system.storage.value(z) for z in traj.states.tolist()])
    assert np.all(defects <= np.maximum(1e-10, 8.0 * eps * (h[:-1] + h[1:]) / tau))


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize(
    "name, z0, num_steps",
    (
        ("synthetic", (1.0,), 1300),
        ("pendulum", (1e-200, -1e-200), 20),
        ("lti-ocp", (1e-200, -1e-200), 20),
        ("synthetic", (1e-200,), 20),
    ),
    ids=("synthetic-decay", "pendulum-1e-200", "lti-ocp-1e-200", "synthetic-1e-200"),
)
def test_vanishing_discrete_gradient_takes_the_midpoint_step(name, z0, num_steps, kind):
    # below |z| = 1e-154 the discrete gradient's squared norm underflows
    # to 0 and the step is implicit midpoint over the same maps.  The
    # synthetic state decays like e^{-3t} and passes that at t = 117-124;
    # the other runs start below it
    system = benchmark_settings(name).system
    with warnings.catch_warnings():
        warnings.simplefilter("error", NewtonDidNotConverge)
        traj = integrate(
            system,
            SchemeConfig(dg_kind=kind),
            TimeGrid.with_step(0.1, num_steps),
            lambda t: (0.0,) * system.m,
            z0,
        )
    assert np.max(np.abs(traj.states[-1])) < 1e-154
    assert np.all(traj.newton_residuals <= NewtonSettings().residual_tolerance)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


def test_unforced_pendulum_near_rest_keeps_the_guarantee():
    # 40,000 steps that settle towards rest, where the residual's storage
    # differences matter most; Gonzalez only, for the suite's time
    case = benchmark_settings("pendulum")
    system = case.system
    with warnings.catch_warnings():
        warnings.simplefilter("error", NewtonDidNotConverge)
        traj = integrate(
            system,
            SchemeConfig(),
            TimeGrid.with_step(5e-3, 40_000),
            lambda t: (0.0,) * system.m,
            case.initial_state,
        )
    assert np.all(traj.newton_residuals <= 1e-13)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("tau", (0.05, 0.1))
def test_unforced_decay_stays_positive_down_to_the_underflow(tau, kind):
    # the synthetic state decays like e^{-3t} and reaches the |dg|^2
    # underflow at t = 123-124.  Until then every step keeps it positive
    # and strictly decreasing: a start is kept without an update only
    # where its residual is also within 4 ulps of the start, so a start
    # that is tiny but wrong by O(1) gets its updates
    system = benchmark_settings("synthetic").system
    traj = integrate(
        system,
        SchemeConfig(dg_kind=kind),
        TimeGrid.with_step(tau, round(120.0 / tau)),
        zero_control,
        (1.0,),
    )
    states = traj.states[:, 0]
    assert states[-1] < 1e-150
    assert np.all(states > 0.0)
    assert np.all(np.diff(states) < 0.0)


@pytest.mark.parametrize(
    "sample",
    (np.float32(0.5), np.int64(1), np.array(0.5), np.array(2)),
    ids=("float32", "int64", "0-d float array", "0-d int array"),
)
def test_numpy_scalar_controls(sample):
    # a control may return any real scalar, numpy ones included; the run
    # equals the one whose control returns the same value as a float
    case = benchmark_settings("pendulum")
    grid = TimeGrid.equidistant(0.5, 5)
    traj = integrate(
        case.system, SchemeConfig(), grid, lambda t: sample, case.initial_state
    )
    ref = integrate(
        case.system, SchemeConfig(), grid, lambda t: float(sample),
        case.initial_state,
    )
    assert np.array_equal(traj.states, ref.states)
    assert np.array_equal(traj.averaged_inputs, ref.averaged_inputs)


@pytest.mark.parametrize(
    "sample", ((0.5, 0.5), np.array([0.5, 0.5]), ()), ids=("tuple", "array", "empty")
)
def test_control_with_the_wrong_number_of_values_raises(sample):
    case = benchmark_settings("pendulum")
    with pytest.raises(ValueError, match="control returned"):
        integrate(
            case.system, SchemeConfig(), TimeGrid.equidistant(0.5, 5),
            lambda t: sample, case.initial_state,
        )


@pytest.mark.parametrize(
    "control, error",
    (
        (lambda t: 1.0 / (1.0 - t), ZeroDivisionError),
        (lambda t: math.log(1.0 - t), ValueError),
        (lambda t: 0.0 * math.exp(800.0 * t), OverflowError),
        # values that overflow when converted to floats
        (lambda t: 10**400 if t >= 1.0 else 0.0, OverflowError),
        (lambda t: [10**400] if t >= 1.0 else [0.0], OverflowError),
    ),
    ids=("zero-division", "domain", "overflow", "int-overflow", "list-overflow"),
)
def test_a_control_that_raises_fails_the_step_with_a_typed_error(control, error):
    # each control raises, or returns a value that raises when converted,
    # first at t = 1, the right end of step 1, where it used to escape
    # integrate bare; a control that returns the wrong number of values
    # there still raises its own ValueError
    case = benchmark_settings("synthetic")
    grid = TimeGrid.with_step(0.5, 4)
    match = f"control raised {error.__name__}"
    with pytest.raises(IntegrationError, match=match) as info:
        integrate(case.system, SchemeConfig(), grid, control, case.initial_state)
    assert info.value.step_index == 1 and "step 1 " in str(info.value)
    assert type(info.value.__cause__) is error
    good = integrate(
        case.system, SchemeConfig(), TimeGrid(grid.points[:2]), control,
        case.initial_state,
    )
    assert np.array_equal(info.value.state, good.states[1])
    with pytest.raises(ValueError, match="control returned 2 values, expected 1"):
        integrate(
            case.system, SchemeConfig(), grid,
            lambda t: (0.0, 0.0) if t >= 1.0 else control(t), case.initial_state,
        )


def test_integration_error_wraps_unconverged_quadrature():
    # H = sqrt(|x|) has a gradient singular at 0; the first Newton update
    # carries the state across it, so the mean-value quadrature hits its
    # panel cap inside step 0
    def cusp_gradient(z):
        r = gm.sqrt(gm.abs(z[0]))
        return (0.5 / r if gm.value(z[0]) > 0.0 else -0.5 / r,)

    def cusp_value(z):
        return gm.sqrt(gm.abs(z[0]))

    cusp = StorageFunction(
        value=cusp_value,
        gradient=cusp_gradient,
        dim=1,
        difference=lambda a, b: cusp_value(b) - cusp_value(a),
    )
    sys_ = dataclasses.replace(scalar_decay_system(), storage=cusp)
    config = SchemeConfig(dg_kind=mean_value())
    grid = TimeGrid.equidistant(2.0, 4)
    with pytest.raises(IntegrationError) as info:
        integrate(sys_, config, grid, lambda t: 2.0, (-0.5,))
    assert info.value.step_index == 0
    assert isinstance(info.value.__cause__, QuadratureNotConverged)


def _output_defects(scheme_oracle, system, kind, traj):
    """|recorded output - (recovered output + D(mid) ubar)| per step."""
    states = traj.states
    defects = []
    for i in range(traj.grid.num_steps):
        z0, z1 = states[i], states[i + 1]
        dv = np.asarray(system.feedthrough((0.5 * (z0 + z1)).tolist()), dtype=float)
        u = traj.averaged_inputs[i]
        expected = scheme_oracle(system, kind, z0, z1)[0] + dv @ u
        defects.append(float(np.max(np.abs(traj.discrete_outputs[i] - expected))))
    return defects


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_discrete_output_belongs_to_the_accepted_state(name, kind, scheme_oracle):
    # the output is taken from the residual's terms at the returned
    # iterate, never from an earlier iterate or a Jacobian probe
    case = benchmark_settings(name)
    grid = TimeGrid.equidistant(0.5, 20)
    traj = integrate(
        case.system, SchemeConfig(dg_kind=kind), grid, case.control,
        case.initial_state,
    )
    assert max(_output_defects(scheme_oracle, case.system, kind, traj)) <= 1e-14


def test_discrete_output_at_a_converged_start(scheme_oracle):
    # at the zero-input fixed point every step converges with 0 updates,
    # so the output terms come from the Jacobian pass at the start
    sys_ = make_pi()
    grid = TimeGrid.equidistant(0.5, 5)
    traj = integrate(sys_, SchemeConfig(), grid, zero_control, (1.0,))
    assert np.all(traj.newton_iterations == 0)
    assert np.all(traj.states == 1.0)
    assert max(_output_defects(scheme_oracle, sys_, GONZALEZ, traj)) <= 1e-14


def _midpoint_outputs(system, traj):
    """The float h(mid) + D(mid) ubar at each step's accepted midpoint,
    formed as the step forms it."""
    states = traj.states.tolist()
    out = []
    for z0, z1, ubar in zip(states, states[1:], traj.averaged_inputs.tolist()):
        mid = [(a + b) * 0.5 for a, b in zip(z0, z1)]
        out.append([
            h + dot(row, ubar)
            for h, row in zip(system.output_map(mid), system.feedthrough(mid))
        ])
    return np.array(out)


@pytest.mark.parametrize(
    "name", ("pendulum", "lti-ocp", "pi", "synthetic", "two-channel", "pi-at-rest")
)
def test_midpoint_output_is_the_float_output_at_the_accepted_midpoint(name):
    # the midpoint output comes from the terms of the last residual call;
    # they must be the float h and D at the accepted midpoint, also where
    # that call is a Jacobian pass's complex probe: an unforced pi run
    # from its fixed point keeps its start after a pass
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    grid = TimeGrid.equidistant(0.5, 20)
    if name == "two-channel":
        # m = 2 with D a plain function, called inside the residual
        system = two_channel_system()
        traj = integrate(
            system, config, grid, lambda t: (math.sin(t), math.cos(2.0 * t)),
            (0.3, -0.2, 0.5),
        )
    elif name == "pi-at-rest":
        system = make_pi()
        traj = integrate(system, config, grid, zero_control, (1.0,))
        assert traj.newton_iterations[0] == 0 and np.all(traj.states == 1.0)
    else:
        case = benchmark_settings(name)
        system = case.system
        traj = integrate(system, config, grid, case.control, case.initial_state)
    assert np.array_equal(traj.discrete_outputs, _midpoint_outputs(system, traj))


def _counting_newton(monkeypatch):
    """Counts, over a run, the residual calls of Jacobian passes (one
    complex entry each), the passes (their calls seeding entry 0), the
    float residual calls, the Newton updates, the solves started from
    carried factors and those of them that took a pass after all; records
    each start, whether it was carried, the residual calls of each solve
    and the residual and residual values it returned."""
    counts = {
        "jacobian": 0, "passes": 0, "float": 0, "updates": 0, "carried": 0,
        "fallbacks": 0, "starts": [], "carried_starts": [], "calls": [],
        "values": [], "residuals": [],
    }
    real = integrators.newton_solve

    def newton(f, x0, settings=NewtonSettings(), factors=None):
        calls = 0

        def residual(w):
            nonlocal calls
            calls += 1
            if any(isinstance(v, complex) for v in w):
                counts["jacobian"] += 1
                counts["passes"] += isinstance(w[0], complex)
            else:
                counts["float"] += 1
            return f(w)

        counts["starts"].append([float(v) for v in x0])
        counts["carried_starts"].append(factors is not None)
        counts["carried"] += factors is not None
        passes = counts["passes"]
        result = real(residual, x0, settings, factors)
        counts["fallbacks"] += factors is not None and counts["passes"] > passes
        counts["updates"] += result.iterations
        counts["calls"].append(calls)
        counts["values"].append(list(result.values))
        counts["residuals"].append(result.residual)
        return result

    monkeypatch.setattr(integrators, "newton_solve", newton)
    return counts


def test_one_float_residual_per_newton_update_and_one_pass_per_step(monkeypatch):
    # a confirmation Jacobian pass or a rebuild of the output terms would
    # break these equalities.  Every step either takes one pass or starts
    # from the factors the last step kept, with one float call at its
    # start; a carried start that needs a pass after all takes one, and
    # the run takes passes from then on.  At tau = 0.01 most steps take a
    # second update, and it reuses the factors of the step's pass or the
    # carried ones
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    grid = TimeGrid.equidistant(1.0, 100)
    traj = integrate(
        case.system, SchemeConfig(dg_kind=GONZALEZ), grid, case.control,
        case.initial_state,
    )
    # one solve per step: a smooth run never retries one from z
    assert len(counts["starts"]) == grid.num_steps
    assert counts["updates"] == int(np.sum(traj.newton_iterations)) > 100
    assert counts["carried"] > 0
    assert counts["float"] == counts["updates"] + counts["carried"]
    assert counts["fallbacks"] <= 1
    assert counts["passes"] + counts["carried"] == grid.num_steps + counts["fallbacks"]
    assert counts["jacobian"] == case.system.n * counts["passes"]


def _box_starts(case, seed, count):
    """``count`` seeded states in the box of half-width 2 around the
    case's initial state, the width of the box ``qsr-dg checks`` samples
    from."""
    offsets = np.random.default_rng(seed).uniform(-2.0, 2.0, (count, case.system.n))
    return case.initial_state + offsets


def test_coarse_steps_reuse_each_steps_factors(monkeypatch):
    # ten Gonzalez steps at tau = 0.05 from 10 pendulum and 10 synthetic
    # box states: without reuse of a step's factors a step makes 2.1
    # passes, with it 1.1.  A pendulum pass mostly needs more than one
    # update at this step; 10 of the 100 pendulum steps converge on their
    # first and keep their factors for the next
    counts = _counting_newton(monkeypatch)
    grid = TimeGrid.equidistant(0.5, 10)
    steps = 0
    for name in ("pendulum", "synthetic"):
        case = benchmark_settings(name)
        for z0 in _box_starts(case, 7, 10):
            traj = integrate(case.system, SchemeConfig(), grid, case.control, z0)
            steps += grid.num_steps
            assert float(np.max(traj.newton_residuals)) <= 1e-13
            defects = discrete_power_balance_residuals(case.system, traj)
            assert float(np.max(defects)) <= 1e-10
        if name == "pendulum":
            assert counts["carried"] == 10
    assert counts["passes"] <= 1.25 * steps


def test_coarse_steps_break_the_balance_no_more_often(scheme_oracle):
    # at coarse steps Newton stalls from some box states; a stalled step
    # is retried from z, which leaves 12 stalled steps in 6 of the 40
    # pendulum runs at tau = 1 and none in the other two rows.  Every step
    # that does not stall keeps the balance, up to the rounding of the
    # audit's two storage values, which the states of a stalled run that
    # grow to |z| = 7.7e6 lift to 1.6e-3; and every step, stalled or
    # not, records the output of its accepted state
    eps = np.finfo(float).eps
    for name, tau, most in (("pendulum", 0.5, 0), ("pendulum", 1.0, 6), ("synthetic", 1.0, 0)):
        case = benchmark_settings(name)
        system = case.system
        grid = TimeGrid.with_step(tau, 10)
        broken = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NewtonDidNotConverge)
            for z0 in _box_starts(case, 1, 40):
                traj = integrate(system, SchemeConfig(), grid, case.control, z0)
                defects = discrete_power_balance_residuals(system, traj)
                broken += float(np.max(defects)) > 1e-10
                h = [abs(system.storage.value(z)) for z in traj.states.tolist()]
                for i, (defect, res, z) in enumerate(
                    zip(defects, traj.newton_residuals, traj.states[1:])
                ):
                    if res <= _tolerance(SchemeConfig.newton, z):
                        assert defect <= max(1e-10, eps * (h[i] + h[i + 1]) / tau)
                outputs = _output_defects(scheme_oracle, system, GONZALEZ, traj)
                scale = 1.0 + np.max(np.abs(traj.discrete_outputs), axis=1)
                assert np.all(np.array(outputs) <= 1e-14 * scale)
        assert broken <= most, (name, tau)


def test_reference_run_carries_the_factors_of_its_first_passes(monkeypatch):
    # at the convergence study's reference step the increment start is so
    # close that it needs at most one stale update, so after the first
    # steps the run takes no pass; it ends where a run with a pass per
    # step ends
    case = benchmark_settings("pendulum")
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    grid = TimeGrid.with_step(1e-3 / 8, 500)
    real = integrators.newton_solve

    def without_factors(f, x0, settings, factors=None):
        return real(f, x0, settings)

    monkeypatch.setattr(integrators, "newton_solve", without_factors)
    fresh = integrate(case.system, config, grid, case.control, case.initial_state)
    monkeypatch.setattr(integrators, "newton_solve", real)
    counts = _counting_newton(monkeypatch)
    traj = integrate(case.system, config, grid, case.control, case.initial_state)
    assert counts["passes"] <= 3
    assert np.all(traj.newton_residuals <= 1e-13)
    final, expected = traj.states[-1], fresh.states[-1]
    assert np.max(np.abs(final - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_a_carried_start_that_needs_a_pass_ends_the_carry(monkeypatch):
    # with n = 1 a carried start allows one stale update; on synthetic at
    # the benchmark step it misses the polish bound, so the start costs
    # more than a pass, and every later step takes one
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("synthetic")
    grid = TimeGrid.with_step(5e-3, 100)
    integrate(case.system, SchemeConfig(), grid, case.control, case.initial_state)
    carried = counts["carried_starts"]
    assert carried.count(True) == 1
    assert counts["fallbacks"] == 1
    assert not any(carried[carried.index(True) + 1:])


def test_no_newton_state_leaks_between_runs():
    # each run starts without factors and with the carry on: a run after
    # one that ended carrying (lti-ocp), or one that ended the carry
    # (synthetic), gives the same bits as alone
    def run(name, scheme):
        case = benchmark_settings(name)
        return integrate(
            case.system, SchemeConfig(scheme=scheme), TimeGrid.with_step(5e-3, 100),
            case.control, case.initial_state,
        )

    for before, after in (
        (("lti-ocp", IMPLICIT_MIDPOINT), ("pendulum", IMPLICIT_MIDPOINT)),
        (("synthetic", DG_QSR), ("pi", DG_QSR)),
    ):
        alone = run(*after)
        run(*before)
        again = run(*after)
        assert np.array_equal(again.states, alone.states)
        assert np.array_equal(again.newton_iterations, alone.newton_iterations)


def _increments(traj, values):
    """The increments V_i = (z_{i+1} - z_i - r_i) / tau_i of a run whose
    Newton solves returned the residual values ``values``, one per step."""
    z, taus = traj.states, traj.grid.steps
    return (z[1:] - z[:-1] - np.array(values)) / taus[:, None]


@pytest.mark.parametrize("scheme", (DG_QSR, IMPLICIT_MIDPOINT))
def test_newton_starts_from_extrapolated_state(scheme, monkeypatch):
    # step i records the increment V_i = (z_{i+1} - z_i - r_i) / tau_i, r_i
    # the residual at z_{i+1}, at the midpoint s_i = t_i + tau_i / 2, and
    # starts from z_i + tau_i sum_k l_k V_k, l_k the Lagrange weights of
    # the increments' midpoints at s_i.  On the uneven grid the sum runs
    # over the last min(i, 4) increments, with weights of the absolute
    # midpoints; step 4 is the first with four and step 5 a steady one.
    # On the equal grid it runs over the last min(i, 8), with weights
    # exact in fractions, since s_k is (k + 1/2) tau; steps 1-8 ramp up,
    # step 9 is the first with eight increments and step 10 a steady one
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    uneven = TimeGrid(np.array([0.0, 0.01, 0.03, 0.045, 0.075, 0.085, 0.11]))
    mids = uneven.points[:-1] + 0.5 * uneven.steps

    def midpoint_weights(i, nodes):
        return [
            math.prod(
                (mids[i] - mids[j]) / (mids[k] - mids[j]) for j in nodes if j != k
            )
            for k in nodes
        ]

    def equal_step_weights(i, nodes):
        return [
            float(math.prod(Fraction(i - j, k - j) for j in nodes if j != k))
            for k in nodes
        ]

    for grid, depth, lagrange in (
        (uneven, 4, midpoint_weights),
        (TimeGrid.with_step(0.01, 11), 8, equal_step_weights),
    ):
        solves = len(counts["starts"])
        traj = integrate(
            case.system, SchemeConfig(scheme=scheme), grid, case.control,
            case.initial_state,
        )
        z, taus = traj.states, grid.steps
        starts = counts["starts"][solves:]
        assert len(starts) == grid.num_steps
        assert starts[0] == z[0].tolist()
        incs = _increments(traj, counts["values"][solves:])
        for i in range(1, grid.num_steps):
            nodes = range(max(0, i - depth), i)
            weights = lagrange(i, nodes)
            expected = z[i] + taus[i] * sum(w * incs[k] for w, k in zip(weights, nodes))
            np.testing.assert_allclose(starts[i], expected, rtol=1e-15, atol=0.0)


def test_unequal_steps_start_from_the_last_four_increments(monkeypatch):
    # on a geometric grid no two steps are equal, so every start takes
    # the weights of the last four increments, bit for bit with these
    # operations in this order.  Those weights are the Lagrange weights
    # of the increments' midpoints at the new step's, here computed
    # exactly in fractions of the grid nodes
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    grid = TimeGrid(np.concatenate(([0.0], np.cumsum(5e-3 * 1.002 ** np.arange(20)))))
    traj = integrate(
        case.system, SchemeConfig(), grid, case.control, case.initial_state
    )
    pts, z, widths = grid.points.tolist(), traj.states.tolist(), grid.steps.tolist()
    nodes_t = [Fraction(t) for t in pts]
    mids = [(a + b) / 2 for a, b in zip(nodes_t, nodes_t[1:])]
    incs = [[0.0] * case.system.n] * 4 + _increments(traj, counts["values"]).tolist()
    starts = counts["starts"]
    assert len(starts) == grid.num_steps
    for i in range(1, grid.num_steps):
        tau = widths[i]
        weights = integrators._start_weights(widths[max(0, i - 8):i], tau, pts[i + 1])
        assert weights[:4] == (0.0,) * 4
        l0, l1, l2, l3 = weights[4:]
        nodes = range(max(0, i - 4), i)
        exact = [
            float(
                math.prod((mids[i] - mids[j]) / (mids[k] - mids[j]) for j in nodes if j != k)
            )
            for k in nodes
        ]
        np.testing.assert_allclose((l0, l1, l2, l3)[4 - len(exact):], exact, rtol=1e-14)
        expected = [
            zk + tau * (l0 * a + l1 * b + l2 * c + l3 * d)
            for zk, a, b, c, d in zip(z[i], *incs[i:i + 4])
        ]
        assert starts[i] == expected


def test_steps_equal_up_to_the_rounding_of_the_nodes_count_as_equal():
    # the nodes k * 1e-3 round differently, so near t = 10 step lengths
    # differ by about 1.8e-12 relative; they still take the equal-step
    # weights of eight increments
    grid = TimeGrid.with_step(1e-3, 10000)
    pts, widths = grid.points.tolist(), grid.steps.tolist()
    assert max(widths[-9:]) - min(widths[-9:]) > 1e-12 * 1e-3
    for i in range(1, grid.num_steps):
        weights = integrators._start_weights(widths[max(0, i - 8):i], widths[i], pts[i + 1])
        assert weights == integrators._EQUAL_STEP_WEIGHTS[min(i, 8)]
    assert integrators._EQUAL_STEP_WEIGHTS[8] == (-1, 8, -28, 56, -70, 56, -28, 8)
    assert integrators._EQUAL_STEP_WEIGHTS[4][4:] == (-1, 4, -6, 4)
    # the Lagrange weights of the distances c, ..., 1 are exact integers
    for c, row in enumerate(integrators._EQUAL_STEP_WEIGHTS):
        binomial = [(-1) ** (c - k + 1) * math.comb(c, k) for k in range(c)]
        assert list(row) == [0] * (8 - c) + binomial
        assert all(type(x) is float for x in row)


def test_a_stalled_step_is_retried_once_from_z_with_a_fresh_pass(monkeypatch):
    # at tau = 1 from this box state some steps stall from their
    # extrapolated or carried start.  Each is solved once more from z
    # without factors; the step keeps the result with the lower residual,
    # counts the updates of both solves, and the next step starts without
    # factors.  Step 0 starts from z without factors, so it is not retried
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    grid = TimeGrid.with_step(1.0, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NewtonDidNotConverge)
        traj = integrate(
            case.system, SchemeConfig(), grid, case.control,
            _box_starts(case, 1, 40)[5],
        )
    z = traj.states.tolist()
    starts, carried = counts["starts"], counts["carried_starts"]
    residuals = counts["residuals"]
    assert counts["updates"] == int(np.sum(traj.newton_iterations))
    first, retried, j = [], [], 0
    for i in range(grid.num_steps):
        first.append(j)
        j += 1
        if j < len(starts) and starts[j] == z[i]:
            assert not carried[j]
            assert traj.newton_residuals[i] == min(residuals[j - 1], residuals[j])
            retried.append(i)
            j += 1
    assert j == len(starts)
    assert retried
    assert 0 not in retried
    for i in retried:
        if i + 1 < grid.num_steps:
            assert not carried[first[i + 1]]


def _layout(traj, n, m):
    """(dtype, shape, C order) of each trajectory array against the
    expected layout for a run with ``n`` states and ``m`` inputs."""
    q = traj.grid.num_steps
    expected = (
        (traj.states, float, (q + 1, n)),
        (traj.averaged_inputs, float, (q, m)),
        (traj.discrete_outputs, float, (q, m)),
        (traj.newton_residuals, float, (q,)),
        (traj.newton_iterations, int, (q,)),
    )
    return [
        (arr.dtype == np.dtype(dtype), arr.shape == shape, arr.flags.c_contiguous)
        for arr, dtype, shape in expected
    ]


@pytest.mark.parametrize(
    "run", ("dg-qsr", "midpoint", "one step", "rest"),
)
def test_trajectory_arrays_keep_dtypes_shapes_and_order(run):
    case = benchmark_settings("pendulum")
    system, control, z0 = case.system, case.control, case.initial_state
    grid = TimeGrid.equidistant(0.5, 20)
    config = SchemeConfig()
    if run == "midpoint":
        config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    elif run == "one step":
        grid = TimeGrid.with_step(0.01, 1)
    elif run == "rest":
        # every step starts on the rest state, which solves it exactly
        system, control, z0 = make_pi(), zero_control, (0.0,)
    traj = integrate(system, config, grid, control, z0)
    if run == "rest":
        assert np.all(traj.states == 0.0)
    assert _layout(traj, system.n, system.m) == [(True, True, True)] * 5


def test_trajectory_records_newton_iterations():
    grid = TimeGrid.equidistant(1.0, 10)
    still = integrate(make_pi(), SchemeConfig(), grid, zero_control, (1.0,))
    assert still.newton_iterations.dtype.kind == "i"
    assert np.all(still.newton_iterations == 0)
    # the increment start returns an unmoved state bit for bit
    assert np.all(still.states == 1.0)

    case = benchmark_settings("pendulum")
    traj = integrate(
        case.system, SchemeConfig(), grid, case.control, case.initial_state
    )
    assert traj.newton_iterations.shape == (10,)
    assert np.all(traj.newton_iterations >= 1)
    assert np.all(traj.newton_iterations <= NewtonSettings().max_iterations)


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_smooth_run_needs_one_newton_update_per_step_from_the_third(
    name, kind, monkeypatch
):
    # at the benchmark step the increment start is accurate enough that
    # every step after the first two costs at most n + 1 residual calls,
    # a pass and one update: a pass that converges within one update, or
    # a start from the last step's factors with at most n stale
    # updates.  One step may cost more, the carried one that needs a pass
    # after all, from which on the run takes passes
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings(name)
    grid = TimeGrid.with_step(5e-3, 100)
    traj = integrate(
        case.system, SchemeConfig(dg_kind=kind), grid, case.control,
        case.initial_state,
    )
    calls = np.array(counts["calls"])
    assert calls.size == grid.num_steps
    assert np.sum(calls[2:] > case.system.n + 1) <= 1
    assert np.all(traj.newton_iterations[:2] <= 3)


def _random_pairs(case, rng, count):
    """``count`` (z, w, ubar) triples around the case's initial state."""
    n, m = case.system.n, case.system.m
    for _ in range(count):
        z = case.initial_state + rng.uniform(-2.0, 2.0, n)
        w = z + 0.1 * rng.standard_normal(n)
        yield z.tolist(), w.tolist(), rng.standard_normal(m).tolist()


def _term_values(last):
    """Value parts of the output terms h and D that a residual call left
    in ``last``, h's entries first."""
    hv, dv = last
    return [value(x) for x in itertools.chain(hv, *dv)]


def _value_mismatches(residual, w, last):
    """Entries of the calls of a Jacobian pass at ``w``, and of the output
    terms each leaves in ``last``, whose real part differs from those of
    the float call at ``w``."""
    floats = residual(w)
    terms = _term_values(last)
    mismatches = 0
    for k, wk in enumerate(w):
        probe = list(w)
        probe[k] = complex(wk, _H)
        mismatches += sum(value(c) != f for c, f in zip(residual(probe), floats))
        mismatches += sum(a != b for a, b in zip(_term_values(last), terms))
    return mismatches


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_dual_pass_values_equal_float_residual_bit_for_bit(name, kind, rng):
    # Newton stops on the float residual but updates from the Jacobian
    # pass's values; every call of the pass must give the same numbers
    case = benchmark_settings(name)
    stepper = integrators._DgQsrStepper(case.system, SchemeConfig(dg_kind=kind))
    mismatches = 0
    for z, w, ubar in _random_pairs(case, rng, 200):
        last = []
        mismatches += _value_mismatches(stepper._residual(z, ubar, 0.05, last), w, last)
    assert mismatches == 0


@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_midpoint_dual_pass_values_equal_float_residual_bit_for_bit(name, rng):
    case = benchmark_settings(name)
    stepper = integrators._MidpointStepper(case.system)
    mismatches = 0
    for z, w, ubar in _random_pairs(case, rng, 200):
        last = []
        mismatches += _value_mismatches(stepper._residual(z, ubar, 0.05, last), w, last)
    assert mismatches == 0


def _audit_per_step(system, trajectory):
    """The balance defect of each step, step by step in numpy."""
    states = trajectory.states
    taus = trajectory.grid.steps
    hval = system.storage.value
    out = []
    for i in range(trajectory.grid.num_steps):
        z0, z1 = states[i], states[i + 1]
        mid = 0.5 * (z0 + z1)
        lv = np.asarray(system.loss_state(mid), dtype=float)
        wv = np.asarray(system.loss_input(mid), dtype=float)
        u = trajectory.averaged_inputs[i]
        y = trajectory.discrete_outputs[i]
        sig = lv + wv @ u
        sup = supply_value(system.supply, u, y)
        dh = (hval(z1.tolist()) - hval(z0.tolist())) / float(taus[i])
        out.append(abs(dh - sup + float(sig @ sig)))
    return np.array(out)


def _audit_case(name):
    """System, control and initial state of an audit test run: the four
    examples, and systems whose W is undeclared, state-dependent or has
    several rows, or whose inputs have several channels."""
    if name in EXAMPLE_NAMES:
        case = benchmark_settings(name)
        return case.system, case.control, case.initial_state
    if name.startswith("two-channel"):
        return (
            two_channel_system(declared=name.endswith("declared")),
            lambda t: (0.1 * math.sin(t), 0.1 * math.cos(t)),
            (0.3, -0.2, 0.5),
        )
    if name == "pi-3":
        return make_pi(channels=3), lambda t: (math.cos(t), 0.5, -t), (1.0, -0.5, 0.25)
    return varying_feedthrough_system(), pushing_control, (1.0,)


# two_channel_system is not dissipative: a dg-qsr step there can call for
# H below its minimum and stalls, so only its midpoint runs are audited.
# Its defects are near 1, and it runs near the origin, where the oracle's
# supply, summed in another order than the stacked supply_value, stays
# within 1e-15 of it
@pytest.mark.parametrize(
    "name, scheme",
    [
        (name, scheme)
        for name in (
            "pendulum", "lti-ocp", "pi", "synthetic", "pi-3", "varying-feedthrough"
        )
        for scheme in (DG_QSR, IMPLICIT_MIDPOINT)
    ]
    + [
        ("two-channel", IMPLICIT_MIDPOINT),
        ("two-channel-declared", IMPLICIT_MIDPOINT),
    ],
)
def test_balance_audit_matches_per_step_formula(name, scheme):
    system, control, z0 = _audit_case(name)
    traj = integrate(
        system, SchemeConfig(scheme=scheme), TimeGrid.with_step(0.05, 40), control, z0
    )
    got = discrete_power_balance_residuals(system, traj)
    np.testing.assert_allclose(
        got, _audit_per_step(system, traj), rtol=0.0, atol=1e-15
    )


def _hand_trajectory(states, inputs, tau=0.1):
    """A trajectory with the given states and averaged inputs, zero
    outputs and no Newton record."""
    states = np.array(states, dtype=float)
    inputs = np.array(inputs, dtype=float)
    steps = len(inputs)
    return Trajectory(
        TimeGrid.with_step(tau, steps),
        states,
        inputs,
        np.zeros_like(inputs),
        np.zeros(steps),
        np.zeros(steps, dtype=int),
    )


def test_balance_audit_keeps_ieee_results_where_terms_overflow():
    # H(1e160) overflows to inf in the storage's own float arithmetic, so
    # step 0 subtracts inf from inf and step 1 finite from inf; the suite
    # turns numpy's warnings into errors, so none may be emitted
    traj = _hand_trajectory([[1e160], [2e160], [1.0], [2.0]], np.zeros((3, 1)))
    got = discrete_power_balance_residuals(make_pi(), traj)
    np.testing.assert_array_equal(got, [math.nan, math.inf, 1.5 / traj.grid.steps[2]])
    # l_0 = z_0 z_1 = 1e160 is finite at the midpoint, so |l|^2 overflows
    # in the audit's own numpy arithmetic
    z = [1e100, 1e60, 0.0]
    traj = _hand_trajectory([z, z], np.zeros((1, 2)))
    got = discrete_power_balance_residuals(two_channel_system(), traj)
    np.testing.assert_array_equal(got, [math.inf])
    # q_0 + q_1 overflows to an infinite midpoint angle, but H reads q
    # only through a bounded sine and l = 0, so the defect stays finite
    traj = _hand_trajectory([[1.5e308, 0.5], [1.5e308, 0.25]], np.zeros((1, 1)))
    got = discrete_power_balance_residuals(make_pendulum(), traj)
    np.testing.assert_array_equal(got, [0.9375])


def test_balance_audit_reads_loss_maps_that_refill_one_list():
    # each map value is read before the next midpoint's call refills it
    system = varying_feedthrough_system()
    l_buf, w_buf = [0.0], [[0.0]]

    def loss_state(z):
        l_buf[:] = system.loss_state(z)
        return l_buf

    def loss_input(z):
        w_buf[0][:] = system.loss_input(z)[0]
        return w_buf

    shared = dataclasses.replace(system, loss_state=loss_state, loss_input=loss_input)
    traj = integrate(
        system, SchemeConfig(), TimeGrid.with_step(0.05, 40), pushing_control, (1.0,)
    )
    assert (
        discrete_power_balance_residuals(shared, traj).tobytes()
        == discrete_power_balance_residuals(system, traj).tobytes()
    )


def _audit_run(name):
    """The system of :func:`_audit_case` and a four-step dg-qsr run of it."""
    system, control, z0 = _audit_case(name)
    return system, integrate(
        system, SchemeConfig(), TimeGrid.with_step(0.05, 4), control, z0
    )


def test_balance_audit_rejects_a_trajectory_of_another_system():
    pendulum, pendulum_run = _audit_run("pendulum")
    pi, pi_run = _audit_run("pi")
    with pytest.raises(ValueError, match=r"shape \(5, 2\), but the system has n = 1"):
        discrete_power_balance_residuals(pi, pendulum_run)
    with pytest.raises(ValueError, match=r"shape \(5, 1\), but the system has n = 2"):
        discrete_power_balance_residuals(pendulum, pi_run)
    # n = 3 on both sides, but three input channels against two
    _, pi3_run = _audit_run("pi-3")
    with pytest.raises(ValueError, match=r"inputs have shape \(4, 3\), but .* m = 2"):
        discrete_power_balance_residuals(two_channel_system(), pi3_run)
    # widths of the system, row counts not of the grid's five steps
    grid = TimeGrid.with_step(0.1, 5)

    def by_hand(nodes, steps):
        return Trajectory(
            grid,
            np.zeros((nodes, 1)),
            np.zeros((steps, 1)),
            np.zeros((5, 1)),
            np.zeros(5),
            np.zeros(5, dtype=int),
        )

    with pytest.raises(
        ValueError, match=r"^trajectory states have 4 rows, but the grid's 5 steps need 6$"
    ):
        discrete_power_balance_residuals(make_pi(), by_hand(4, 5))
    with pytest.raises(
        ValueError,
        match=r"^trajectory averaged inputs have 3 rows, but the grid's 5 steps need 5$",
    ):
        discrete_power_balance_residuals(make_pi(), by_hand(6, 3))


@pytest.mark.parametrize("drift", ("pi", "coupled"))
def test_residual_jacobian_on_three_channels_matches_central_differences(drift, rng):
    # a Jacobian pass on three states makes three complex calls;
    # the pi drift vanishes, so its scheme coefficient is 0, and a coupled
    # nonlinear drift makes the coefficient depend on the state as well
    system = make_pi(channels=3)
    if drift == "coupled":
        system = dataclasses.replace(
            system,
            drift=lambda z: [z[1] * z[2], z[2] - z[0], gm.sin(z[0]) - z[2]],
        )
    h = 1e-6
    for kind in ALL_KINDS:
        stepper = integrators._DgQsrStepper(system, SchemeConfig(dg_kind=kind))
        for _ in range(5):
            z = rng.uniform(0.5, 1.5, 3).tolist()
            w = (np.array(z) + 0.1 * rng.standard_normal(3)).tolist()
            ubar = rng.standard_normal(3).tolist()
            residual = stepper._residual(z, ubar, 0.05, [])
            rows, _ = _jacobian_with_values(residual, w)
            for k in range(3):
                up, dn = list(w), list(w)
                up[k] += h
                dn[k] -= h
                column = (np.array(residual(up)) - np.array(residual(dn))) / (2 * h)
                np.testing.assert_allclose(
                    [row[k] for row in rows], column, rtol=0.0, atol=1e-7
                )


def two_channel_system(declared=False):
    """n = 3, m = 2, p = 2 with non-symmetric B and W, and full Q, S and D.

    Only the output solve's algebra is under test, so the system need not
    be dissipative.  B, W and l vary with the state, so a Jacobian pass
    carries tangents through every entry of the right-hand side.  With
    ``declared``, B, D and W are constants declared as ConstantMap, so the
    output gains are formed once, from a Q D + S whose entries are not
    powers of two."""
    p_rows = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.2], [0.0, 0.2, 3.0]]

    def gradient(z):
        return matvec(p_rows, z)

    def difference(a, b):
        # (b - a) . P (b + a) / 2
        diff = [y - x for x, y in zip(a, b)]
        return 0.5 * dot(diff, gradient([x + y for x, y in zip(a, b)]))

    system = QsrSystem(
        storage=StorageFunction(
            value=lambda z: difference([0.0] * 3, z),
            gradient=gradient,
            dim=3,
            difference=difference,
        ),
        supply=SupplyRate(
            q=[[-1.0, 0.3], [0.3, -0.5]],
            s=[[0.5, 0.2], [-0.1, 0.4]],
            r=[[0.1, 0.0], [0.0, 0.1]],
        ),
        drift=lambda z: [z[1] * z[2], gm.sin(z[2]) - z[0], -z[2]],
        input_map=lambda z: [[1.0, 0.3 * z[0]], [gm.sin(z[1]), 2.0], [0.5, -z[2]]],
        output_map=lambda z: [z[0] + z[2], z[1]],
        feedthrough=lambda z: [[0.4, -0.7], [0.2, 0.9]],
        loss_state=lambda z: [z[0] * z[1], gm.sin(z[2]) + 0.5],
        loss_input=lambda z: [[0.3, -1.1], [0.8, 0.25 * z[1] + 1.0]],
    )
    if not declared:
        return system
    return dataclasses.replace(
        system,
        input_map=ConstantMap(((1.0, -0.3), (0.7, 2.0), (0.5, -0.4))),
        feedthrough=ConstantMap(((0.4, -0.7), (0.2, 0.9))),
        loss_input=ConstantMap(((0.3, -1.1), (0.8, 1.3))),
    )


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_two_channel_output_solve_matches_numpy(kind, rng):
    # every other multi-channel system in the suite has B = I and W = 0,
    # so a transposed index in the gains A and C or in the quadratic form
    # would pass there; the declared variant forms its gains once
    for declared in (False, True):
        _check_two_channel_output_solve(two_channel_system(declared), kind, rng)


def _check_two_channel_output_solve(system, kind, rng):
    stepper = integrators._DgQsrStepper(system, SchemeConfig(dg_kind=kind))
    declared = isinstance(system.feedthrough, ConstantMap)
    assert (stepper.constants is not None) == declared
    q, s = system.supply.q, system.supply.s
    for _ in range(10):
        z = rng.uniform(-1.0, 1.0, 3)
        w = z + 0.1 * rng.standard_normal(3)
        mid = ((z + w) * 0.5).tolist()
        z, w = z.tolist(), w.tolist()
        dg, g2, _, _, dv, hbar, gam_num = stepper._terms(z, w)
        dg_np = discrete_gradient(kind, system.storage, z, w)
        b = np.array(system.input_map(mid))
        wv = np.array(system.loss_input(mid))
        lv = np.array(system.loss_state(mid))
        expected = np.linalg.solve(
            (q @ np.array(dv) + s).T, b.T @ dg_np / 2.0 + wv.T @ lv
        )
        np.testing.assert_allclose(hbar, expected, rtol=1e-13)
        np.testing.assert_allclose(
            gam_num, expected @ q @ expected - lv @ lv, rtol=1e-13
        )
        floats = [*dg, g2, *hbar, gam_num]
        for k, wk in enumerate(w):
            probe = list(w)
            probe[k] = complex(wk, _H)
            dg_c, g2_c, _, _, _, hbar_c, gam_c = stepper._terms(z, probe)
            assert [value(v) for v in (*dg_c, g2_c, *hbar_c, gam_c)] == floats


def test_newton_stall_warns_but_continues():
    # at tau = 1 the extrapolated starts are poor, and from this box
    # state Newton stalls on two steps even when retried from z; the run
    # records them and goes on
    case = benchmark_settings("pendulum")
    grid = TimeGrid.with_step(1.0, 10)
    with pytest.warns(NewtonDidNotConverge):
        traj = integrate(
            case.system, SchemeConfig(), grid, case.control,
            _box_starts(case, 1, 40)[5],
        )
    assert np.any(traj.newton_residuals > NewtonSettings().residual_tolerance)
    assert np.all(np.isfinite(traj.states))


@pytest.mark.parametrize(
    "scheme, tau, row",
    ((DG_QSR, 1.0, 32), (IMPLICIT_MIDPOINT, 2.0, 1)),
    ids=("dg-qsr-1.0", "implicit-midpoint-2.0"),
)
def test_every_stall_warns_at_the_line_that_called_integrate(scheme, tau, row):
    # the warning names this file, so the default once-per-location
    # filter separates call sites instead of hiding all stalls after the
    # first one in the library.  From these box states 5 steps stall even
    # when retried from z
    case = benchmark_settings("pendulum")
    grid = TimeGrid.with_step(tau, 10)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = integrate(
            case.system, SchemeConfig(scheme=scheme), grid, case.control,
            _box_starts(case, 1, 40)[row],
        )
    # the library's own rule: a residual above the tolerance at the step's
    # new state, which grows with |z|
    stalled = sum(
        res > _tolerance(SchemeConfig.newton, state)
        for res, state in zip(traj.newton_residuals, traj.states[1:])
    )
    assert stalled >= 2
    assert len(caught) == stalled
    assert all(w.category is NewtonDidNotConverge for w in caught)
    assert {w.filename for w in caught} == {__file__}


# error measurement -----------------------------------------------------


def test_relative_error_on_nested_grids():
    case = benchmark_settings("pendulum")
    coarse = integrate(
        case.system,
        SchemeConfig(),
        TimeGrid.with_step(0.02, 100),
        case.control,
        case.initial_state,
    )
    fine = integrate(
        case.system,
        SchemeConfig(scheme=IMPLICIT_MIDPOINT),
        TimeGrid.with_step(0.005, 400),
        case.control,
        case.initial_state,
    )
    err = relative_error(coarse, fine)
    assert 0.0 < err < 1e-2
    assert relative_error(fine, fine) == 0.0


def test_relative_error_rejects_disjoint_grids():
    case = benchmark_settings("pi")
    a = integrate(
        case.system,
        SchemeConfig(),
        TimeGrid.equidistant(1.0, 3),
        case.control,
        case.initial_state,
    )
    b = integrate(
        case.system,
        SchemeConfig(),
        TimeGrid.equidistant(1.0, 7),
        case.control,
        case.initial_state,
    )
    with pytest.raises(GridMismatch, match=r"t = .*0\.333"):
        relative_error(a, b)
    # a node past the reference's last one matches nothing
    c, d = (
        integrate(
            case.system,
            SchemeConfig(),
            TimeGrid.with_step(tau, steps),
            case.control,
            case.initial_state,
        )
        for tau, steps in ((0.5, 3), (0.25, 4))
    )
    with pytest.raises(GridMismatch, match=r"t = .*1\.5"):
        relative_error(c, d)


def test_second_order_convergence_short_sweep():
    case = benchmark_settings("synthetic")
    ref = integrate(
        case.system,
        SchemeConfig(scheme=IMPLICIT_MIDPOINT),
        TimeGrid.with_step(0.4 / 256.0, 256 * 5),
        case.control,
        case.initial_state,
    )
    errors = []
    for s in (1, 2, 3):
        tau = 0.4 * (2.0**-s) * 0.5
        q = int(round(2.0 / tau))
        traj = integrate(
            case.system,
            SchemeConfig(),
            TimeGrid.with_step(tau, q),
            case.control,
            case.initial_state,
        )
        errors.append(relative_error(traj, ref))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(len(errors) - 1)]
    for order in orders:
        assert 1.7 <= order <= 2.3


# state-dependent feedthrough -------------------------------------------


def test_varying_feedthrough_system_meets_the_structure_identities(rng):
    system = varying_feedthrough_system()
    for z in rng.uniform(-3.0, 3.0, (20, 1)):
        assert max(hill_moylan_residual(system, z)) <= 1e-12


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_varying_feedthrough_keeps_the_balance(kind):
    system = varying_feedthrough_system()
    grid = TimeGrid.with_step(0.02, 50)
    traj = integrate(system, SchemeConfig(dg_kind=kind), grid, pushing_control, (1.0,))
    assert np.all(traj.states > 0.5)
    assert np.all(traj.newton_residuals <= 1e-13)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


def test_varying_feedthrough_residual_jacobian_matches_central_differences(rng):
    system = varying_feedthrough_system()
    h = 1e-6
    for kind in ALL_KINDS:
        stepper = integrators._DgQsrStepper(system, SchemeConfig(dg_kind=kind))
        for _ in range(5):
            z = rng.uniform(0.5, 1.5, 1).tolist()
            w = [z[0] + 0.1 * rng.standard_normal()]
            ubar = rng.standard_normal(1).tolist()
            residual = stepper._residual(z, ubar, 0.05, [])
            rows, _ = _jacobian_with_values(residual, w)
            up, dn = [w[0] + h], [w[0] - h]
            column = (residual(up)[0] - residual(dn)[0]) / (2 * h)
            assert abs(rows[0][0] - column) <= 1e-7


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_shared_mutated_feedthrough_list_gives_the_same_bits(kind):
    # an undeclared feedthrough's gains are formed from each call's values,
    # so a map that returns one list and mutates it gives the same run
    grid = TimeGrid.with_step(0.02, 50)
    config = SchemeConfig(dg_kind=kind)
    fresh, shared = (
        integrate(
            varying_feedthrough_system(flag), config, grid, pushing_control, (1.0,)
        )
        for flag in (False, True)
    )
    for name in (
        "states", "averaged_inputs", "discrete_outputs", "newton_residuals",
        "newton_iterations",
    ):
        assert getattr(fresh, name).tobytes() == getattr(shared, name).tobytes(), name


def _counting_factor(monkeypatch):
    calls = []
    real = integrators.factor

    def factor(a):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(integrators, "factor", factor)
    return calls


def test_constant_feedthrough_is_factored_once_per_run(monkeypatch):
    calls = _counting_factor(monkeypatch)
    case = benchmark_settings("pendulum")
    traj = integrate(
        case.system, SchemeConfig(), TimeGrid.equidistant(0.5, 20), case.control,
        case.initial_state,
    )
    assert np.sum(traj.newton_iterations) >= 20
    assert len(calls) == 1


def test_varying_feedthrough_is_factored_on_every_call(monkeypatch):
    calls = _counting_factor(monkeypatch)
    system = varying_feedthrough_system()
    feedthrough = system.feedthrough
    feedthrough_calls = []

    def counted(z):
        feedthrough_calls.append(z)
        return feedthrough(z)

    system = dataclasses.replace(system, feedthrough=counted)
    grid = TimeGrid.with_step(0.02, 10)
    integrate(system, SchemeConfig(), grid, pushing_control, (1.0,))
    # the shape check evaluates D once at z0 and factors nothing; every
    # residual call evaluates it once more, at its midpoint, and refactors
    assert feedthrough_calls[0] == [1.0]
    assert len(calls) == len(feedthrough_calls) - 1 > 20


_DECLARED = ("input_map", "feedthrough", "loss_input")


def _plain(system):
    """``system`` with its declared B, D and W re-wrapped as plain
    functions that return the same rows."""
    return dataclasses.replace(
        system,
        **{
            name: (lambda rows: lambda z: rows)(getattr(system, name).rows)
            for name in _DECLARED
        },
    )


@pytest.mark.parametrize(
    "config",
    (
        *(SchemeConfig(dg_kind=k) for k in ALL_KINDS),
        SchemeConfig(scheme=IMPLICIT_MIDPOINT),
    ),
    ids=(*(k.variant for k in ALL_KINDS), "midpoint"),
)
@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_declared_and_plain_maps_give_the_same_run(name, config, monkeypatch):
    # a declared run forms its output gains once and reads B, D and W as
    # data; the plain one calls the maps and forms the gains on every
    # residual call, from the same values
    case = benchmark_settings(name)
    assert all(isinstance(getattr(case.system, n), ConstantMap) for n in _DECLARED)
    grid = TimeGrid.with_step(0.05, 40)
    calls = []
    call = ConstantMap.__call__
    monkeypatch.setattr(
        ConstantMap, "__call__", lambda self, z: calls.append(z) or call(self, z)
    )
    runs = []
    for system in (case.system, _plain(case.system)):
        traj = integrate(system, config, grid, case.control, case.initial_state)
        runs.append((traj, discrete_power_balance_residuals(system, traj)))
    # the shape check calls each declared map once at z0, and nothing else does
    assert len(calls) == 3
    (declared, defects), (plain, plain_defects) = runs
    for field in (
        "states", "averaged_inputs", "discrete_outputs", "newton_residuals",
    ):
        np.testing.assert_allclose(
            getattr(declared, field), getattr(plain, field), rtol=1e-14, atol=0.0,
            err_msg=field,
        )
    assert np.array_equal(declared.newton_iterations, plain.newton_iterations)
    np.testing.assert_allclose(defects, plain_defects, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "config",
    (SchemeConfig(), SchemeConfig(scheme=IMPLICIT_MIDPOINT)),
    ids=("dg-qsr", "midpoint"),
)
@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_products_with_the_averaged_input_are_formed_once_per_step(
    name, config, monkeypatch
):
    # B ubar and D ubar depend on no iterate: with B and D declared, a step
    # forms each row's product once, outside its residual calls, Jacobian
    # probes included; plain maps give one product per row of B in every
    # residual call and one per row of D per step, from the last call's D
    case = benchmark_settings(name)
    n, m = case.system.n, case.system.m
    step = {"ubar": None, "inside": False}
    counts = {"inside": 0, "outside": 0, "calls": 0}
    averaged_input = integrators._averaged_input
    dot = integrators.dot
    newton_solve = integrators.newton_solve

    def averaged(*args):
        step["ubar"], right = averaged_input(*args)
        return step["ubar"], right

    def counted_dot(x, y):
        if y is step["ubar"]:
            counts["inside" if step["inside"] else "outside"] += 1
        return dot(x, y)

    def newton(f, *args):
        def residual(w):
            counts["calls"] += 1
            step["inside"] = True
            try:
                return f(w)
            finally:
                step["inside"] = False

        return newton_solve(residual, *args)

    monkeypatch.setattr(integrators, "_averaged_input", averaged)
    monkeypatch.setattr(integrators, "dot", counted_dot)
    monkeypatch.setattr(integrators, "newton_solve", newton)
    grid = TimeGrid.with_step(0.05, 20)
    seen = []
    for system in (case.system, _plain(case.system)):
        counts.update(inside=0, outside=0, calls=0)
        integrate(system, config, grid, case.control, case.initial_state)
        seen.append(dict(counts))
    declared, plain = seen
    assert declared["calls"] > 20
    assert (declared["outside"], declared["inside"]) == ((n + m) * 20, 0)
    assert (plain["outside"], plain["inside"]) == (m * 20, n * plain["calls"])


@pytest.mark.parametrize("declare", (True, False), ids=("declared", "plain"))
def test_a_singular_output_matrix_fails_step_0(declare):
    # synthetic has Q = -1 and S = 0, so D = 0 makes Q D + S singular
    case = benchmark_settings("synthetic")
    zero = ConstantMap(((0.0,),))
    system = dataclasses.replace(
        case.system, feedthrough=zero if declare else (lambda z: zero.rows)
    )
    with pytest.raises(IntegrationError, match="step 0 ") as info:
        integrate(
            system, SchemeConfig(), TimeGrid.with_step(0.1, 3), case.control,
            case.initial_state,
        )
    assert isinstance(info.value.__cause__, SingularMatrix)
    assert info.value.state.tolist() == case.initial_state.tolist()
