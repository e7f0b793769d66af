"""One-step maps, the integration loop, and the discrete power balance."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from qsrdg import gmath as gm
from qsrdg import integrators
from qsrdg._kernels import value
from qsrdg.dgradients import GONZALEZ, ITOH_ABE, StorageFunction, mean_value
from qsrdg.errors import (
    GridMismatch,
    IntegrationError,
    NewtonDidNotConverge,
    NonFiniteEvaluation,
    QuadratureNotConverged,
)
from qsrdg.integrators import (
    DG_QSR,
    IMPLICIT_MIDPOINT,
    SchemeConfig,
    TimeGrid,
    discrete_power_balance_residuals,
    integrate,
    relative_error,
)
from qsrdg.model import QsrSystem, SupplyRate, hill_moylan_residual, supply_value
from qsrdg.numerics import _H, NewtonSettings, _jacobian_with_values
from qsrdg.systems import (
    PendulumParams,
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
            value=lambda z: 0.5 * z[0] * z[0], gradient=lambda z: (z[0],), dim=1
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
            value=lambda z: 0.5 * z[0] * z[0], gradient=lambda z: (z[0],), dim=1
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


def test_scheme_config_validation():
    assert SchemeConfig().scheme == DG_QSR
    with pytest.raises(ValueError):
        SchemeConfig(scheme="leapfrog")


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
    sys_ = make_pendulum(PendulumParams(damping=0.0))
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
def test_discrete_power_balance_at_small_steps_down_to_the_rounding_floor(tau):
    # in floats (H(w) - H(z)) / tau cannot be closer than about
    # eps (|H(z)| + |H(w)|) / tau, which exceeds 1e-10 below tau = 1e-5 on
    # the pendulum; a start that already meets the Newton tolerance still
    # gets one update, so every step lands within 8 times that floor
    eps = np.finfo(float).eps
    for name in ("pendulum", "lti-ocp", "pi", "synthetic"):
        case = benchmark_settings(name)
        grid = TimeGrid.with_step(tau, 400)
        for kind in ALL_KINDS:
            traj = integrate(
                case.system, SchemeConfig(dg_kind=kind), grid, case.control,
                case.initial_state,
            )
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
    sys_ = make_pendulum(PendulumParams(damping=0.0))
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
    case = benchmark_settings("pendulum")
    with pytest.raises(ValueError):
        integrate(
            case.system,
            SchemeConfig(),
            TimeGrid.equidistant(1.0, 10),
            case.control,
            (1.0,),
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


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_run_from_rest_at_a_critical_point_of_the_storage(name, kind):
    # every example's storage is stationary at the origin, so the discrete
    # gradient vanishes at w = z there; under a forcing the first step
    # starts Newton from the Euler predictor and the run keeps the balance
    system = benchmark_settings(name).system
    config = SchemeConfig(dg_kind=kind)
    grid = TimeGrid.with_step(0.05, 20)
    rest = np.zeros(system.n)
    traj = integrate(system, config, grid, lambda t: (1.0,) * system.m, rest)
    assert np.all(traj.newton_residuals <= NewtonSettings().residual_tolerance)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10
    # unforced, the predictor is the rest state itself, which solves
    # every step exactly: the run stays at rest with no Newton update
    traj = integrate(system, config, grid, lambda t: (0.0,) * system.m, rest)
    assert np.all(traj.states == 0.0)
    assert np.all(traj.newton_iterations == 0)
    assert np.all(traj.newton_residuals == 0.0)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_input_switched_on_at_rest_at_a_critical_point(name, kind):
    # the run rests at the origin until the step input comes on at
    # t = 0.5; the step that averages the switch starts Newton from the
    # Euler predictor although integrate hands it an extrapolated start
    system = benchmark_settings(name).system
    grid = TimeGrid.with_step(0.05, 20)

    def switched_on(t):
        return (0.0 if t < 0.5 else 1.0,) * system.m

    traj = integrate(
        system, SchemeConfig(dg_kind=kind), grid, switched_on, np.zeros(system.n)
    )
    assert np.all(traj.states[:10] == 0.0)
    assert np.any(traj.states[-1] != 0.0)
    assert np.all(traj.newton_residuals <= NewtonSettings().residual_tolerance)
    assert np.max(discrete_power_balance_residuals(system, traj)) <= 1e-10


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


def test_integration_error_wraps_unconverged_quadrature():
    # H = sqrt(|x|) has a gradient singular at 0; the first Newton update
    # carries the state across it, so the mean-value quadrature hits its
    # panel cap inside step 0
    def cusp_gradient(z):
        r = gm.sqrt(gm.abs(z[0]))
        return (0.5 / r if gm.value(z[0]) > 0.0 else -0.5 / r,)

    cusp = StorageFunction(
        value=lambda z: gm.sqrt(gm.abs(z[0])), gradient=cusp_gradient, dim=1
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


def _counting_newton(monkeypatch):
    """Counts, over a run, the residual calls of Jacobian passes (one
    complex entry each), the passes (their calls seeding entry 0), the
    float residual calls and the Newton updates, and records each start."""
    counts = {"jacobian": 0, "passes": 0, "float": 0, "updates": 0, "starts": []}
    real = integrators.newton_solve

    def newton(f, x0, settings=NewtonSettings()):
        def residual(w):
            if any(isinstance(v, complex) for v in w):
                counts["jacobian"] += 1
                counts["passes"] += isinstance(w[0], complex)
            else:
                counts["float"] += 1
            return f(w)

        counts["starts"].append([float(v) for v in x0])
        result = real(residual, x0, settings)
        counts["updates"] += result.iterations
        return result

    monkeypatch.setattr(integrators, "newton_solve", newton)
    return counts


def test_one_float_residual_per_newton_update_and_one_pass_per_step(monkeypatch):
    # a confirmation Jacobian pass or a rebuild of the output terms would
    # break these equalities; at tau = 0.01 most steps take a second
    # update, and it reuses the factors of the step's one pass
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    grid = TimeGrid.equidistant(1.0, 100)
    traj = integrate(
        case.system, SchemeConfig(dg_kind=GONZALEZ), grid, case.control,
        case.initial_state,
    )
    assert counts["updates"] == int(np.sum(traj.newton_iterations)) > 100
    assert counts["float"] == counts["updates"]
    assert counts["passes"] == grid.num_steps
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
    # passes, with it 1.1
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
    assert counts["passes"] <= 1.25 * steps


def test_coarse_steps_break_the_balance_no_more_often():
    # at tau = 0.5 Newton stalls on some pendulum steps from the box; the
    # count of runs above the 1e-10 gate is the one measured before
    # Jacobian reuse (6 of 40 runs, 7 stalled steps)
    case = benchmark_settings("pendulum")
    grid = TimeGrid.with_step(0.5, 10)
    broken = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NewtonDidNotConverge)
        for z0 in _box_starts(case, 1, 40):
            traj = integrate(case.system, SchemeConfig(), grid, case.control, z0)
            defects = discrete_power_balance_residuals(case.system, traj)
            broken += float(np.max(defects)) > 1e-10
    assert broken <= 6


@pytest.mark.parametrize("scheme", (DG_QSR, IMPLICIT_MIDPOINT))
def test_newton_starts_from_extrapolated_state(scheme, monkeypatch):
    counts = _counting_newton(monkeypatch)
    case = benchmark_settings("pendulum")
    grid = TimeGrid(np.array([0.0, 0.01, 0.03, 0.04, 0.07]))
    traj = integrate(
        case.system, SchemeConfig(scheme=scheme), grid, case.control,
        case.initial_state,
    )
    z, taus = traj.states, grid.steps
    starts = counts["starts"]
    assert len(starts) == grid.num_steps
    # step 0 from z, step 1 from the linear extrapolation
    assert starts[0] == z[0].tolist()
    linear = z[1] + (taus[1] / taus[0]) * (z[1] - z[0])
    np.testing.assert_allclose(starts[1], linear, rtol=1e-15, atol=0.0)
    # from step 2 on, the quadratic through the last three states
    for i in range(2, grid.num_steps):
        tau, h1, h0 = taus[i], taus[i - 1], taus[i - 2]
        d1 = z[i] - z[i - 1]
        d0 = z[i - 1] - z[i - 2]
        quadratic = (
            z[i] + (tau / h1) * d1 + tau * (tau + h1) / (h1 + h0) * (d1 / h1 - d0 / h0)
        )
        np.testing.assert_allclose(starts[i], quadratic, rtol=1e-15, atol=0.0)


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
        # every step takes the early return at a critical point of H
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
    # the quadratic start returns an unmoved state bit for bit
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
def test_smooth_run_needs_one_newton_update_per_step_from_the_third(name, kind):
    # at the benchmark step the quadratic start is accurate enough that
    # every step after the first two converges with a single update
    case = benchmark_settings(name)
    grid = TimeGrid.with_step(5e-3, 100)
    traj = integrate(
        case.system, SchemeConfig(dg_kind=kind), grid, case.control,
        case.initial_state,
    )
    assert np.all(traj.newton_iterations[2:] == 1)
    assert np.all(traj.newton_iterations[:2] <= 3)


def _random_pairs(case, rng, count):
    """``count`` (z, w, ubar) triples around the case's initial state."""
    n, m = case.system.n, case.system.m
    for _ in range(count):
        z = case.initial_state + rng.uniform(-2.0, 2.0, n)
        w = z + 0.1 * rng.standard_normal(n)
        yield z.tolist(), w.tolist(), rng.standard_normal(m).tolist()


def _value_mismatches(residual, w):
    """Entries of the calls of a Jacobian pass at ``w`` whose real part
    differs from the float residual at ``w``."""
    floats = residual(w)
    mismatches = 0
    for k, wk in enumerate(w):
        probe = list(w)
        probe[k] = complex(wk, _H)
        mismatches += sum(value(c) != f for c, f in zip(residual(probe), floats))
    return mismatches


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_dual_pass_values_equal_float_residual_bit_for_bit(name, kind, rng):
    # Newton stops on the float residual but updates from the Jacobian
    # pass's values; every call of the pass must give the same numbers
    case = benchmark_settings(name)
    stepper = integrators._DgQsrStepper(case.system, SchemeConfig(dg_kind=kind))
    storage = case.system.storage
    mismatches = 0
    for z, w, ubar in _random_pairs(case, rng, 200):
        residual = stepper._residual(z, storage.value(z), 0.0, ubar, 0.05, [])
        mismatches += _value_mismatches(residual, w)
    assert mismatches == 0


@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_midpoint_dual_pass_values_equal_float_residual_bit_for_bit(name, rng):
    case = benchmark_settings(name)
    stepper = integrators._MidpointStepper(case.system)
    mismatches = 0
    for z, w, ubar in _random_pairs(case, rng, 200):
        mismatches += _value_mismatches(stepper._residual(z, ubar, 0.05), w)
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


@pytest.mark.parametrize("scheme", (DG_QSR, IMPLICIT_MIDPOINT))
@pytest.mark.parametrize("name", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_balance_audit_matches_per_step_formula(name, scheme):
    case = benchmark_settings(name)
    traj = integrate(
        case.system,
        SchemeConfig(scheme=scheme),
        TimeGrid.with_step(0.05, 40),
        case.control,
        case.initial_state,
    )
    got = discrete_power_balance_residuals(case.system, traj)
    np.testing.assert_allclose(
        got, _audit_per_step(case.system, traj), rtol=0.0, atol=1e-15
    )


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
            residual = stepper._residual(
                z, system.storage.value(z), 0.0, ubar, 0.05, []
            )
            rows, _ = _jacobian_with_values(residual, w)
            for k in range(3):
                up, dn = list(w), list(w)
                up[k] += h
                dn[k] -= h
                column = (np.array(residual(up)) - np.array(residual(dn))) / (2 * h)
                np.testing.assert_allclose(
                    [row[k] for row in rows], column, rtol=0.0, atol=1e-7
                )


def test_newton_stall_warns_but_continues():
    # at tau = 1 the extrapolated starts are poor and Newton stalls on
    # some steps; the run records them and goes on
    case = benchmark_settings("pendulum")
    grid = TimeGrid.with_step(1.0, 10)
    with pytest.warns(NewtonDidNotConverge):
        traj = integrate(
            case.system, SchemeConfig(), grid, case.control, case.initial_state
        )
    assert np.any(traj.newton_residuals > NewtonSettings().residual_tolerance)
    assert np.all(np.isfinite(traj.states))


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
    with pytest.raises(GridMismatch):
        relative_error(a, b)


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
            residual = stepper._residual(
                z, system.storage.value(z), 0.0, ubar, 0.05, []
            )
            rows, _ = _jacobian_with_values(residual, w)
            up, dn = [w[0] + h], [w[0] - h]
            column = (residual(up)[0] - residual(dn)[0]) / (2 * h)
            assert abs(rows[0][0] - column) <= 1e-7


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.variant)
def test_shared_mutated_feedthrough_list_gives_the_same_bits(kind):
    # the output solve keys its factors on the feedthrough's values, so a
    # map that returns one list and mutates it must not reuse stale ones
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
    assert len(calls) == len(feedthrough_calls) > 20
