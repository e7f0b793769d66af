"""Benchmark system factories and the Riccati machinery behind one of them."""

import math

import numpy as np
import pytest

from qsrdg.dgradients import GONZALEZ, ITOH_ABE, mean_value
from qsrdg.errors import NotStabilizing, UnknownExample
from qsrdg.integrators import (
    SchemeConfig,
    TimeGrid,
    discrete_power_balance_residuals,
    integrate,
)
from qsrdg.model import hill_moylan_residual
from qsrdg.numerics import _H
from qsrdg.riccati import solve_are
from qsrdg.systems import (
    EXAMPLE_NAMES,
    benchmark_settings,
    make_lti_ocp,
    make_pendulum,
    make_pi,
    make_synthetic,
)

# stabilizing Riccati solution for the shipped regulator data, frozen from
# an independent dense solve
REGULATOR_P = np.array(
    [
        [1.6156038612011718, 0.52417872057060122],
        [0.52417872057060122, 1.1287650077355873],
    ]
)


def test_example_name_registry():
    assert EXAMPLE_NAMES == ("pendulum", "lti-ocp", "pi", "synthetic")
    for name in EXAMPLE_NAMES:
        case = benchmark_settings(name)
        assert case.system.n == len(case.initial_state)
    with pytest.raises(UnknownExample):
        benchmark_settings("van-der-pol")


def test_pendulum_factory():
    sys_ = make_pendulum()
    assert (sys_.n, sys_.m, len(sys_.loss_state((0.0, 0.0)))) == (2, 1, 1)
    assert math.isclose(sys_.storage.value((math.pi / 2.0, 2.0)), 9.81 + 2.0)
    # output is the velocity
    assert sys_.output_map((0.3, -1.2))[0] == -1.2
    # drift keeps the physical damping; the supply weight q accounts for it
    np.testing.assert_allclose(sys_.drift((0.0, 1.0)), [1.0, -0.2], atol=1e-15)
    assert sys_.supply.q[0, 0] == -0.2
    assert sys_.supply.s[0, 0] == 0.5

    frictionless = make_pendulum(damping=0.0)
    assert frictionless.supply.q[0, 0] == 0.0
    with pytest.raises(ValueError):
        make_pendulum(gravity=-1.0)
    # parameters are keyword-only, so a positional value is refused
    with pytest.raises(TypeError):
        make_pendulum(9.81)


def test_pendulum_velocity_axis_energy():
    sys_ = make_pendulum()
    assert sys_.storage.value((0.0, 2.0)) == 2.0
    np.testing.assert_allclose(sys_.storage.gradient((0.0, 2.0)), [0.0, 2.0])


def test_lti_ocp_factory_uses_riccati_storage():
    sys_ = make_lti_ocp()
    assert (sys_.n, sys_.m, len(sys_.loss_state((0.0, 0.0)))) == (2, 1, 1)
    z = np.array([1.0, 1.0])
    # H = z^T P z / 2 and h = B^T P z with the frozen regulator solution
    assert math.isclose(
        sys_.storage.value(z), 0.5 * float(z @ REGULATOR_P @ z), rel_tol=1e-12
    )
    assert math.isclose(sys_.storage.value(z), 1.8963631550389808, rel_tol=1e-11)
    assert math.isclose(
        sys_.output_map(z)[0], 1.6529437283061885, rel_tol=1e-11
    )
    np.testing.assert_allclose(
        sys_.storage.gradient(z), REGULATOR_P @ z, rtol=1e-11
    )


def test_lti_ocp_defaults_are_the_shipped_matrices(lti_ocp_matrices):
    # the keyword defaults stay the matrices written out for the tests
    given = make_lti_ocp(**lti_ocp_matrices)
    default = make_lti_ocp()
    sampler = np.random.default_rng(5)
    for z in sampler.uniform(-3.0, 3.0, (20, 2)).tolist():
        for name in ("drift", "input_map", "output_map", "loss_state", "loss_input"):
            assert getattr(default, name)(z) == getattr(given, name)(z)
        assert default.storage.value(z) == given.storage.value(z)
        assert default.storage.gradient(z) == given.storage.gradient(z)


def test_lti_ocp_maps_equal_their_matrix_products(lti_ocp_matrices):
    # each map is a matrix product over the factory's row tuples; the
    # error scale of a product is |M| |z|, so the bound is relative to it
    a, b, c = (np.array(lti_ocp_matrices[k]) for k in "abc")
    p = solve_are(a, b, c)
    sys_ = make_lti_ocp(**lti_ocp_matrices)
    sampler = np.random.default_rng(7)
    for _ in range(100):
        z = sampler.uniform(-3.0, 3.0, 2)
        zl = z.tolist()
        value = sys_.storage.value(zl)
        assert abs(value - 0.5 * float(z @ p @ z)) <= 1e-15 * (
            0.5 * float(np.abs(z) @ np.abs(p) @ np.abs(z))
        )
        for got, mat in (
            (sys_.storage.gradient(zl), p),
            (sys_.drift(zl), a),
            (sys_.output_map(zl), b.T @ p),
            (sys_.loss_state(zl), c / math.sqrt(2.0)),
        ):
            scale = np.abs(mat) @ np.abs(z)
            assert np.all(np.abs(np.asarray(got) - mat @ z) <= 1e-15 * scale)

        # a complex-step pass keeps the float values as its real parts
        maps = (
            sys_.storage.value,
            sys_.storage.gradient,
            sys_.drift,
            sys_.output_map,
            sys_.loss_state,
        )
        for k in range(2):
            probe = list(zl)
            probe[k] = complex(zl[k], _H)
            for f in maps:
                floats = np.atleast_1d(f(zl)).tolist()
                passed = np.atleast_1d(f(probe)).tolist()
                assert [x.real for x in passed] == floats


def test_pi_factory_scalar_and_multichannel():
    sys_ = make_pi()
    assert (sys_.n, sys_.m, len(sys_.loss_state((0.0,)))) == (1, 1, 1)
    assert sys_.storage.value((2.0,)) == 2.0
    assert sys_.feedthrough((0.0,))[0][0] == 1.0
    assert sys_.supply.r[0, 0] == -1.0

    # the loss signal stays scalar (and zero) for the stacked variant
    wide = make_pi(integral_gain=2.0, proportional_gain=0.5, channels=3)
    assert (wide.n, wide.m, len(wide.loss_state((0.0,) * 3))) == (3, 3, 1)
    assert wide.storage.value((1.0, 1.0, 1.0)) == 3.0
    np.testing.assert_allclose(np.asarray(wide.feedthrough((0.0,) * 3)), 0.5 * np.eye(3))
    with pytest.raises(ValueError):
        make_pi(integral_gain=-1.0)


def test_pi_channels_must_be_an_integer():
    for channels in (2.5, "3"):
        with pytest.raises(TypeError):
            make_pi(channels=channels)
    assert make_pi(channels=np.int64(3)).n == 3


def test_synthetic_factory():
    sys_ = make_synthetic()
    assert (sys_.n, sys_.m, len(sys_.loss_state((0.0,)))) == (1, 1, 1)
    # h = -alpha z / (1 + z^4) is odd and saturates
    assert math.isclose(sys_.output_map((1.0,))[0], -1.0, rel_tol=1e-14)
    assert math.isclose(sys_.output_map((-1.0,))[0], 1.0, rel_tol=1e-14)
    assert abs(sys_.output_map((100.0,))[0]) < 1e-5
    assert sys_.input_map((0.0,))[0][0] == 2.0
    assert sys_.feedthrough((0.0,))[0][0] == 1.0

    custom = make_synthetic(alpha=1.0, lam=2.0)
    assert custom.supply.r[0, 0] == 4.0


EPS = float(np.finfo(float).eps)

FACTORY_STORAGES = [
    pytest.param(benchmark_settings(name).system.storage, id=name)
    for name in EXAMPLE_NAMES
] + [pytest.param(make_pi(channels=3).storage, id="pi-3")]


@pytest.mark.parametrize("storage", FACTORY_STORAGES)
def test_storage_difference_equals_the_value_difference(storage):
    # apart from coincidence the two agree to the rounding of the values
    sampler = np.random.default_rng(11)
    for _ in range(500):
        a = sampler.uniform(-2.0, 2.0, storage.dim).tolist()
        b = sampler.uniform(-2.0, 2.0, storage.dim).tolist()
        ha, hb = storage.value(a), storage.value(b)
        assert abs(storage.difference(a, b) - (hb - ha)) <= 4.0 * EPS * (
            abs(ha) + abs(hb)
        )


@pytest.mark.parametrize("storage", FACTORY_STORAGES)
def test_storage_difference_keeps_its_accuracy_near_coincidence(storage):
    # H(b) - H(a) = grad H(mid) . (b - a) + O(|b - a|^3); a difference of
    # two values would be off by about eps |H| instead, far above this
    # bound once |b - a| is small
    sampler = np.random.default_rng(12)
    for exponent in range(-9, -15, -1):
        for _ in range(100):
            a = sampler.uniform(-2.0, 2.0, storage.dim)
            unit = sampler.standard_normal(storage.dim)
            b = a + 10.0**exponent * unit / np.linalg.norm(unit)
            step = b - a
            grad = np.asarray(storage.gradient(((a + b) * 0.5).tolist()))
            got = storage.difference(a.tolist(), b.tolist())
            assert abs(got - float(grad @ step)) <= 1e-12 * float(
                np.linalg.norm(grad) * np.linalg.norm(step)
            )


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
@pytest.mark.parametrize(
    "factory, field",
    [
        pytest.param(factory, field, id=field)
        for factory, fields in (
            (make_pendulum, ("gravity", "damping")),
            (make_pi, ("integral_gain", "proportional_gain")),
            (make_synthetic, ("alpha", "lam")),
        )
        for field in fields
    ],
)
def test_factories_reject_non_finite_parameters(factory, field, bad):
    # each check once compared with <= or ==, which NaN fails, so a NaN
    # parameter built a system
    with pytest.raises(ValueError, match=f"^{field} must be"):
        factory(**{field: bad})


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("field", ("a", "b", "c"))
def test_lti_ocp_rejects_a_non_finite_matrix_entry(lti_ocp_matrices, field, bad):
    mat = np.array(lti_ocp_matrices[field])
    mat[0, 0] = bad
    with pytest.raises(ValueError, match=f"^{field.upper()} has non-finite entries"):
        make_lti_ocp(**{**lti_ocp_matrices, field: mat})


@pytest.mark.parametrize(
    "bad, message",
    (
        ({"b": (0.0, 1.0)}, r"needs B with 2 rows and C with 2 columns; got B \(2,\)"),
        ({"a": 1.0}, "A must be square"),
    ),
    ids=("flat-b", "scalar-a"),
)
def test_lti_ocp_rejects_matrices_of_the_wrong_shape(bad, message):
    # the shapes were once read before solve_are checked them, so both
    # raised a bare IndexError
    with pytest.raises(ValueError, match=message):
        make_lti_ocp(**bad)


def test_benchmark_controls_frozen_values():
    pend = benchmark_settings("pendulum")
    np.testing.assert_allclose(pend.initial_state, [math.pi / 4.0, -1.0])
    assert math.isclose(pend.control(0.25), math.sin(0.5), rel_tol=1e-15)

    lti = benchmark_settings("lti-ocp")
    np.testing.assert_allclose(lti.initial_state, [1.0, 1.0])
    assert math.isclose(lti.control(2.0), math.sin(1.0), rel_tol=1e-15)

    pi = benchmark_settings("pi")
    np.testing.assert_allclose(pi.initial_state, [1.0])
    assert pi.control(0.5) == 0.25  # min(t^2, e^-t) takes the parabola early
    assert math.isclose(pi.control(2.0), math.exp(-2.0), rel_tol=1e-15)
    # the kink of min(t^2, e^-t), where the two branches meet
    (kink,) = pi.breakpoints
    assert abs(kink * kink - math.exp(-kink)) <= math.ulp(kink * kink)

    syn = benchmark_settings("synthetic")
    np.testing.assert_allclose(syn.initial_state, [1.0])
    assert math.isclose(syn.control(5.0), 0.3861950800601765, rel_tol=1e-13)

    assert pend.breakpoints == lti.breakpoints == syn.breakpoints == ()


# Riccati machinery ----------------------------------------------------


def test_are_scalar_oracles():
    # -p^2 + 1 = 0 with a = 0: p = 1
    p = solve_are(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert math.isclose(p[0, 0], 1.0, rel_tol=1e-12)
    # -2p - p^2 + 1 = 0 with a = -1: p = sqrt(2) - 1
    p = solve_are(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert math.isclose(p[0, 0], 0.41421356237309515, rel_tol=1e-12)


def test_are_regulator_frozen_solution(lti_ocp_matrices):
    a, b, c = (np.array(lti_ocp_matrices[k]) for k in "abc")
    p = solve_are(a, b, c)
    np.testing.assert_allclose(p, REGULATOR_P, rtol=1e-11)
    # defining equation and structure
    np.testing.assert_allclose(
        a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c,
        np.zeros((2, 2)),
        atol=1e-10,
    )
    np.testing.assert_allclose(p, p.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(p) > 0.0)
    assert np.all(np.linalg.eigvals(a - b @ b.T @ p).real < 0.0)


def test_unstabilizable_pair_raises():
    # second state is unstable and unreachable
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0], [0.0]])
    with pytest.raises(NotStabilizing):
        solve_are(a, b, np.eye(2))


def are_residual(a, b, c, p):
    return a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c


@pytest.fixture
def double_integrator(lti_ocp_matrices):
    return {**lti_ocp_matrices, "a": ((0.0, 1.0), (0.0, 0.0))}


def test_are_double_integrator(double_integrator):
    # open-loop poles at 0 on the imaginary axis, yet stabilizable
    p = solve_are(*(np.array(double_integrator[k]) for k in "abc"))
    root2 = math.sqrt(2.0)
    np.testing.assert_allclose(p, [[root2, 1.0], [1.0, root2]], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("n", (3, 4, 6, 8))
def test_are_seeded_random_systems(n):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((1, n))
    p = solve_are(a, b, c)
    assert np.max(np.abs(p - p.T)) <= 1e-12
    assert np.max(np.linalg.eigvals(a - b @ b.T @ p).real) < 0.0
    # backward-error scale of the four terms, in Frobenius norms
    norm = np.linalg.norm
    scale = 1.0 + norm(p) ** 2 * norm(b) ** 2 + 2.0 * norm(a) * norm(p) + norm(c) ** 2
    assert norm(are_residual(a, b, c, p)) <= 1e-12 * scale


def test_are_near_defective_residual_at_the_size_of_ctc():
    # C^T C is 2e-12 in norm; an eigenvector solve of the Hamiltonian
    # leaves a residual near 1e-15, far above it
    eps = 1e-6
    a = np.array([[-1.0, 1.0], [0.0, -1.0]])
    b = eps * np.array([[1.0], [1.0]])
    c = eps * np.array([[1.0, 1.0]])
    p = solve_are(a, b, c)
    assert np.linalg.norm(are_residual(a, b, c, p)) <= 1e-12 * np.linalg.norm(c.T @ c)


def test_are_imaginary_axis_mode_raises_not_stabilizing():
    # an undriven, unobserved oscillator: the Hamiltonian has eigenvalues
    # +-i, and the sign iteration meets a singular iterate
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(NotStabilizing):
        solve_are(a, np.zeros((2, 1)), np.zeros((1, 2)))


def test_are_rejects_mismatched_shapes():
    a = np.eye(2)
    with pytest.raises(ValueError, match=r"\(3, 1\)"):
        solve_are(a, np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(ValueError, match=r"\(1, 3\)"):
        solve_are(a, np.ones((2, 1)), np.ones((1, 3)))


@pytest.mark.parametrize("bad", (math.nan, math.inf))
@pytest.mark.parametrize("name", ("A", "B", "C"))
def test_are_rejects_non_finite_input(name, bad):
    # once blamed on the system: a numpy warning, then NotStabilizing
    mats = {"A": np.eye(2), "B": np.ones((2, 1)), "C": np.ones((1, 2))}
    mats[name][0, 0] = bad
    with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
        solve_are(mats["A"], mats["B"], mats["C"])


def test_lti_ocp_double_integrator_run(double_integrator):
    sys_ = make_lti_ocp(**double_integrator)
    sampler = np.random.default_rng(11)
    for z in sampler.uniform(-2.0, 2.0, (50, 2)):
        assert max(hill_moylan_residual(sys_, z)) <= 1e-12
    grid = TimeGrid.equidistant(1.0, 200)
    traj = integrate(
        sys_, SchemeConfig(dg_kind=GONZALEZ), grid, math.sin, np.array([1.0, -0.5])
    )
    assert np.max(traj.newton_residuals) <= 1e-13
    assert np.max(discrete_power_balance_residuals(sys_, traj)) <= 1e-10


@pytest.mark.parametrize("kind", (GONZALEZ, ITOH_ABE, mean_value()), ids=lambda kind: kind.variant)
def test_pendulum_near_rest_keeps_newton_and_balance(kind):
    # near q = 0 the energy must be accurate relative to itself; written
    # as 1 - cos q it cancels and Newton stalls above its tolerance
    sys_ = make_pendulum()
    grid = TimeGrid.equidistant(1.0, 200)
    traj = integrate(
        sys_, SchemeConfig(dg_kind=kind), grid, lambda t: 0.0, np.array([1e-3, 0.0])
    )
    assert np.max(traj.newton_residuals) <= 1e-13
    assert np.max(discrete_power_balance_residuals(sys_, traj)) <= 1e-10


def test_synthetic_energy_decays_without_input():
    case = benchmark_settings("synthetic")
    grid = TimeGrid.equidistant(5.0, 500)
    config = SchemeConfig(dg_kind=GONZALEZ)
    traj = integrate(case.system, config, grid, lambda t: 0.0, case.initial_state)
    energies = [case.system.storage.value(state) for state in traj.states]
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-14)
    assert energies[-1] < 0.1 * energies[0]
