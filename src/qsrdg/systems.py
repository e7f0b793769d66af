"""Benchmark systems: pendulum, LTI optimal control, PI controller, and a
scalar saturating nonlinearity.

Every factory returns a :class:`~qsrdg.model.QsrSystem` whose maps are
written against :mod:`qsrdg.gmath`, so they compose with the automatic
differentiation used by the implicit solvers.  All four have a constant
input map, feedthrough and loss input, and declare them as
:class:`~qsrdg.model.ConstantMap`.  The structure identities
hold exactly for all four (see the tests), which is what entitles them to
the discrete power balance.

:func:`benchmark_settings` bundles each system with the initial state and
control signal used throughout the shipped experiments.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from qsrdg import gmath as gm
from qsrdg._kernels import dot, matvec
from qsrdg.dgradients import StorageFunction
from qsrdg.errors import UnknownExample
from qsrdg.model import ConstantMap, QsrSystem, SupplyRate
from qsrdg.riccati import solve_are

__all__ = [
    "PendulumParams",
    "LtiOcpParams",
    "PiParams",
    "SyntheticParams",
    "make_pendulum",
    "make_lti_ocp",
    "make_pi",
    "make_synthetic",
    "BenchmarkCase",
    "benchmark_settings",
    "EXAMPLE_NAMES",
]

EXAMPLE_NAMES = ("pendulum", "lti-ocp", "pi", "synthetic")


@dataclass(frozen=True)
class PendulumParams:
    gravity: float = 9.81
    damping: float = 0.2


def make_pendulum(params=PendulumParams()):
    """Damped pendulum with velocity output.

    State (angle, velocity); the damping coefficient enters the supply
    rate as the quadratic output weight, so the undamped case is the
    energy-conserving limit.
    """
    g = float(params.gravity)
    lam = float(params.damping)
    if not 0.0 < g < math.inf:
        raise ValueError(f"gravity must be positive and finite, got {g}")
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"damping must be nonnegative and finite, got {lam}")

    # 1 - cos q written as 2 sin^2(q/2), so the energy keeps its relative
    # accuracy near rest instead of cancelling
    def energy(z):
        s = gm.sin(0.5 * z[0])
        return 2.0 * g * s * s + 0.5 * z[1] * z[1]

    # sin^2 x - sin^2 y = sin(x - y) sin(x + y)
    def energy_difference(a, b):
        dq = gm.sin(0.5 * (b[0] - a[0])) * gm.sin(0.5 * (b[0] + a[0]))
        return 2.0 * g * dq + 0.5 * (b[1] - a[1]) * (b[1] + a[1])

    def energy_grad(z):
        return [g * gm.sin(z[0]), z[1]]

    def drift(z):
        return [z[1], -g * gm.sin(z[0]) - lam * z[1]]

    def output_map(z):
        return [z[1]]

    def loss_state(z):
        return (0.0,)

    return QsrSystem(
        storage=StorageFunction(energy, energy_grad, 2, energy_difference),
        supply=SupplyRate(q=[[-lam]], s=[[0.5]], r=[[0.0]]),
        drift=drift,
        input_map=ConstantMap(((0.0,), (1.0,))),
        output_map=output_map,
        feedthrough=ConstantMap(((0.0,),)),
        loss_state=loss_state,
        loss_input=ConstantMap(((0.0,),)),
    )


@dataclass(frozen=True)
class LtiOcpParams:
    a: tuple = ((0.1, 1.0), (-1.0, 0.1))
    b: tuple = ((0.0,), (1.0,))
    c: tuple = ((1.0, 0.0),)


def make_lti_ocp(params=LtiOcpParams()):
    """Linear system with the value function of its regulator problem.

    The storage is one half of the quadratic form of the stabilizing
    Riccati solution, which :func:`qsrdg.riccati.solve_are` finds for any
    stabilizable (A, B) with no unobservable mode of (A, C) on the
    imaginary axis.  The scheme's output is the associated costate output
    B^T P z rather than the measured output C z, which enters the loss map
    instead.
    """
    a = np.asarray(params.a, dtype=float)
    b = np.asarray(params.b, dtype=float)
    c = np.asarray(params.c, dtype=float)
    n = a.shape[0]
    m = b.shape[1]
    p_out = c.shape[0]
    p_c = solve_are(a, b, c)

    a_rows = tuple(tuple(row) for row in a.tolist())
    p_rows = tuple(tuple(row) for row in p_c.tolist())
    bp_rows = tuple(tuple(row) for row in (b.T @ p_c).tolist())
    cl_rows = tuple(tuple(row) for row in (c / math.sqrt(2.0)).tolist())

    def value(z):
        return 0.5 * dot(z, matvec(p_rows, z))

    # P is symmetric, so b^T P b - a^T P a = (b - a)^T P (b + a)
    def difference(a, b):
        diff = [y - x for x, y in zip(a, b)]
        return 0.5 * dot(diff, matvec(p_rows, [y + x for x, y in zip(a, b)]))

    def gradient(z):
        return matvec(p_rows, z)

    def drift(z):
        return matvec(a_rows, z)

    def output_map(z):
        return matvec(bp_rows, z)

    def loss_state(z):
        return matvec(cl_rows, z)

    half_eye = 0.5 * np.eye(m)
    return QsrSystem(
        storage=StorageFunction(value, gradient, n, difference),
        supply=SupplyRate(q=half_eye, s=half_eye, r=np.zeros((m, m))),
        drift=drift,
        input_map=ConstantMap(b),
        output_map=output_map,
        feedthrough=ConstantMap(np.zeros((m, m))),
        loss_state=loss_state,
        loss_input=ConstantMap(np.zeros((p_out, m))),
    )


@dataclass(frozen=True)
class PiParams:
    integral_gain: float = 1.0
    proportional_gain: float = 1.0


def make_pi(params=PiParams(), channels=1):
    """PI controller as a dissipative system (negative input weight).

    Scalar by default; ``channels`` stacks independent copies with a
    diagonal feedthrough for the vector-valued variant.
    """
    ki = float(params.integral_gain)
    kp = float(params.proportional_gain)
    n = operator.index(channels)
    if not 0.0 < ki < math.inf:
        raise ValueError(f"integral_gain must be positive and finite, got {ki}")
    if not 0.0 <= kp < math.inf:
        raise ValueError(
            f"proportional_gain must be nonnegative and finite, got {kp}"
        )
    if n < 1:
        raise ValueError("need at least one channel")

    def value(z):
        acc = z[0] * z[0]
        for k in range(1, n):
            acc = acc + z[k] * z[k]
        return 0.5 * ki * acc

    def difference(a, b):
        acc = (b[0] - a[0]) * (b[0] + a[0])
        for k in range(1, n):
            acc = acc + (b[k] - a[k]) * (b[k] + a[k])
        return 0.5 * ki * acc

    def gradient(z):
        return [ki * z[k] for k in range(n)]

    def drift(z):
        return [0.0] * n

    def output_map(z):
        return [ki * z[k] for k in range(n)]

    def loss_state(z):
        return (0.0,)

    return QsrSystem(
        storage=StorageFunction(value, gradient, n, difference),
        supply=SupplyRate(
            q=np.zeros((n, n)), s=0.5 * np.eye(n), r=-kp * np.eye(n)
        ),
        drift=drift,
        input_map=ConstantMap(np.eye(n)),
        output_map=output_map,
        feedthrough=ConstantMap(kp * np.eye(n)),
        loss_state=loss_state,
        loss_input=ConstantMap(np.zeros((1, n))),
    )


@dataclass(frozen=True)
class SyntheticParams:
    alpha: float = 2.0
    lam: float = 1.0


def make_synthetic(params=SyntheticParams()):
    """Scalar saturating nonlinearity with state-dependent loss.

    The output sign is fixed by the structure identities: with input map
    2*lam and feedthrough lam, the second identity forces the output to
    be the negative storage gradient.
    """
    alpha = float(params.alpha)
    lam = float(params.lam)
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not (math.isfinite(lam) and lam != 0.0):
        raise ValueError(f"lam must be nonzero and finite, got {lam}")
    sqrt_alpha = math.sqrt(alpha)

    def value(z):
        return 0.5 * alpha * gm.arctan(z[0] * z[0])

    # arctan B - arctan A = arctan((B - A) / (1 + A B)) for A B > -1
    def difference(a, b):
        x, y = a[0], b[0]
        return 0.5 * alpha * gm.arctan((y - x) * (y + x) / (1.0 + x * x * y * y))

    def gradient(z):
        x = z[0]
        x2 = x * x
        return [alpha * x / (1.0 + x2 * x2)]

    def drift(z):
        x = z[0]
        x2 = x * x
        return [-x - alpha * x / (1.0 + x2 * x2)]

    def output_map(z):
        x = z[0]
        x2 = x * x
        return [-alpha * x / (1.0 + x2 * x2)]

    def loss_state(z):
        x = z[0]
        x2 = x * x
        return [sqrt_alpha * x / gm.sqrt(1.0 + x2 * x2)]

    return QsrSystem(
        storage=StorageFunction(value, gradient, 1, difference),
        supply=SupplyRate(q=[[-1.0]], s=[[0.0]], r=[[lam * lam]]),
        drift=drift,
        input_map=ConstantMap(((2.0 * lam,),)),
        output_map=output_map,
        feedthrough=ConstantMap(((lam,),)),
        loss_state=loss_state,
        loss_input=ConstantMap(((0.0,),)),
    )


class BenchmarkCase(NamedTuple):
    """A named benchmark run.  ``breakpoints`` are the times where the
    control is not smooth; a reference run puts a grid node on each."""

    system: QsrSystem
    initial_state: np.ndarray
    control: Callable
    breakpoints: tuple = ()


# where t**2 = e**-t, so min(t**2, e**-t) has a kink: 2 W(1/2)
_PI_KINK = 0.7034674224983917


def _pendulum_control(t):
    return math.sin(2.0 * t)


def _lti_ocp_control(t):
    return math.sin(0.25 * t * t)


def _pi_control(t):
    return min(t * t, math.exp(-t))


def _synthetic_control(t):
    return math.exp(-((t - 4.0) ** 2)) + math.exp(-((t - 7.0) ** 2))


def benchmark_settings(name):
    """System, initial state and control for a named benchmark run."""
    if name == "pendulum":
        return BenchmarkCase(
            make_pendulum(), np.array([math.pi / 4.0, -1.0]), _pendulum_control
        )
    if name == "lti-ocp":
        return BenchmarkCase(
            make_lti_ocp(), np.array([1.0, 1.0]), _lti_ocp_control
        )
    if name == "pi":
        return BenchmarkCase(make_pi(), np.array([1.0]), _pi_control, (_PI_KINK,))
    if name == "synthetic":
        return BenchmarkCase(make_synthetic(), np.array([1.0]), _synthetic_control)
    raise UnknownExample(
        f"unknown example {name!r}; expected one of {', '.join(EXAMPLE_NAMES)}"
    )
