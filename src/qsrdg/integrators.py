"""Implicit one-step schemes with a discrete power balance.

The main scheme replaces the drift by its component orthogonal to a
discrete gradient of the storage function plus a coefficient times the
discrete gradient itself, chosen so that every accepted step satisfies

    (H(z_{i+1}) - H(z_i)) / tau_i  =  s(u_i, y_i) - ||l_i + W_i u_i||^2

exactly (up to the Newton residual), mirroring the continuous power
balance.  An implicit midpoint stepper over the same averaged maps serves
as the second-order reference scheme without the balance guarantee.

"Up to the Newton residual" has a size.  With r the residual at the
accepted state and dg the discrete gradient there, the balance defect of
a step is |dg . r| / tau.  So the 1e-13 residual tolerance alone bounds
it only by |dg| 1e-13 / tau, about 1.4e-10 for the pendulum at
tau = 5e-3.  The benchmark runs measure at most 1.4e-11 only because
Newton ends at the rounding floor, far below the tolerance: it updates
every start whose residual is not exactly zero, and it stops on a fresh
update, which converges quadratically, or on an update with reused
factors only once the residual is a hundredth of the tolerance (see
:func:`qsrdg.numerics.newton_solve`).  Even so the defect cannot fall
below the rounding limit of (H(w) - H(z)) / tau in floats, about
eps (|H(z)| + |H(w)|) / tau, which exceeds 1e-10 below tau = 1e-5 on the
pendulum.

All two-point averages are midpoint evaluations, phi((z + w) / 2); the
averaged input is the trapezoidal endpoint mean (u(t_i) + u(t_{i+1})) / 2.

Each residual call of the structure-preserving step recovers the output
from (Q D + S)^T hbar = B^T dg / 2 + W^T l.  A run keeps one set of
factors of that matrix, keyed on a copy of the feedthrough values D it
was built from, and refactors only when a call's D has other values.
So a constant feedthrough is factored once per run and every call only
substitutes; a state-dependent one is refactored on every call, as
before, at the cost of one more comparison.
"""

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from qsrdg._kernels import dot, factor, matvec, norm_sq, substitute, tmatvec, value

# the layer trace of perfbench looks this name up here; the dg-qsr step
# factors once per feedthrough value and calls substitute instead, so
# the traced full solves now count zero
from qsrdg._kernels import solve_generic  # noqa: F401
from qsrdg.dgradients import GONZALEZ, DiscreteGradientKind, _evaluate
from qsrdg.errors import (
    GridMismatch,
    IntegrationError,
    NewtonDidNotConverge,
    NonFiniteEvaluation,
    QuadratureNotConverged,
    SingularMatrix,
    ZeroDirection,
)
from qsrdg.model import supply_value
from qsrdg.numerics import NewtonSettings, newton_solve

__all__ = [
    "TimeGrid",
    "SchemeConfig",
    "Trajectory",
    "integrate",
    "discrete_power_balance_residuals",
    "relative_error",
]

DG_QSR = "dg-qsr"
IMPLICIT_MIDPOINT = "implicit-midpoint"

_NEWTON = NewtonSettings()
# a step from z treats discrete gradients shorter than this times
# (1 + |grad H(z)|) as vanishing
_GRADIENT_FLOOR = 1e-12
# grid nodes this close coincide
_NODE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time nodes starting at zero."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a grid needs at least two nodes")
        if pts[0] != 0.0:
            raise ValueError("grids start at t = 0")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def equidistant(cls, horizon, num_steps):
        """Nodes ``i * (horizon / num_steps)`` for i = 0..num_steps."""
        if num_steps < 1 or horizon <= 0.0:
            raise ValueError("need a positive horizon and at least one step")
        return cls(np.arange(num_steps + 1) * (horizon / num_steps))

    @classmethod
    def with_step(cls, stepsize, num_steps):
        """Nodes ``i * stepsize``; keeps nodes exactly nested across
        power-of-two stepsize refinements."""
        if num_steps < 1 or stepsize <= 0.0:
            raise ValueError("need a positive stepsize and at least one step")
        return cls(np.arange(num_steps + 1) * stepsize)

    @property
    def steps(self):
        return np.diff(self.points)

    @property
    def num_steps(self):
        return self.points.size - 1

    @property
    def horizon(self):
        return float(self.points[-1])


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme and discrete gradient for one integration run.

    Every other number of a step is fixed.  Newton runs with the defaults
    of :class:`NewtonSettings`, and a step from z treats discrete
    gradients shorter than ``1e-12 * (1 + |grad H(z)|)`` as vanishing and
    refuses to divide by them.
    """

    scheme: str = DG_QSR
    dg_kind: DiscreteGradientKind = GONZALEZ

    # not a field: callers read it to check recorded Newton residuals
    newton = _NEWTON

    def __post_init__(self):
        if self.scheme not in (DG_QSR, IMPLICIT_MIDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")


class _StepResult(NamedTuple):
    state: list
    averaged_input: tuple
    discrete_output: list
    newton_residual: float
    iterations: int


@dataclass(frozen=True)
class Trajectory:
    """States on the grid nodes plus per-step inputs, outputs, Newton
    residuals and Newton iteration counts."""

    grid: TimeGrid
    states: np.ndarray
    averaged_inputs: np.ndarray
    discrete_outputs: np.ndarray
    newton_residuals: np.ndarray
    newton_iterations: np.ndarray


def _as_rows(mat):
    return tuple(tuple(float(x) for x in row) for row in np.atleast_2d(mat))


class _DgQsrStepper:
    """Per-run machinery for the structure-preserving scheme.

    Every residual call solves (Q D + S)^T hbar = B^T dg / 2 + W^T l for
    the output terms, with D the feedthrough at the midpoint.  The stepper
    keeps one factored matrix for the run: a snapshot of the feedthrough
    values it was built from, and the factors of (Q D + S)^T.  A call whose
    feedthrough has the same values only substitutes; any other value
    refactors and replaces the snapshot.  The key is a copy of the values,
    not the object, because a map may return one list that it mutates
    between calls; and a Jacobian-pass entry with a nonzero tangent never
    equals a float, so a feedthrough that depends on the state refactors
    on every call.  With a constant feedthrough, as in every shipped
    example, the matrix is factored once per run.
    """

    def __init__(self, system, config):
        self.system = system
        self.kind = config.dg_kind
        self.q_rows = _as_rows(system.supply.q)
        self.s_rows = _as_rows(system.supply.s)
        self._dv_key = None
        self._lu = None

    def _refactor(self, dv, key):
        q_rows, s_rows = self.q_rows, self.s_rows
        m = len(q_rows)
        # rows of (Q D + S)^T: entry (j, i) is sum_k q[i][k] d[k][j] + s[i][j]
        mt = [
            [
                sum(q_rows[i][k] * dv[k][j] for k in range(m)) + s_rows[i][j]
                for i in range(m)
            ]
            for j in range(m)
        ]
        self._lu = factor(mt)
        self._dv_key = key

    def _terms(self, z, h_at_z, w):
        """Shared two-point quantities of the structure-preserving step.

        Works on generic scalars: ``z`` holds floats, ``w`` may be complex.
        Returns the discrete gradient, its squared norm, the midpoint
        drift, input and feedthrough evaluations, the recovered output,
        and the numerator of the drift coefficient.
        """
        system = self.system
        dg = _evaluate(self.kind, system.storage, z, w, h_at_z)
        g2 = norm_sq(dg)
        mid = [(a + b) * 0.5 for a, b in zip(z, w)]
        fv = system.drift(mid)
        bv = system.input_map(mid)
        dv = system.feedthrough(mid)
        lv = system.loss_state(mid)
        wv = system.loss_input(mid)
        key = tuple(map(tuple, dv))
        if key != self._dv_key:
            self._refactor(dv, key)
        bt = tmatvec(bv, dg)
        wl = tmatvec(wv, lv)
        hbar = substitute(self._lu, [0.5 * b + c for b, c in zip(bt, wl)])
        qh = matvec(self.q_rows, hbar)
        gam_num = dot(hbar, qh) - norm_sq(lv)
        return dg, g2, fv, bv, dv, hbar, gam_num

    def _residual(self, z, h_at_z, floor_sq, ubar, tau, last):
        """The step's Newton residual; each call leaves the output terms
        ``hbar`` and ``dv`` at its point in ``last``."""
        terms = self._terms

        def residual(w):
            dg, g2, fv, bv, dv, hbar, gam_num = terms(z, h_at_z, w)
            last[:] = (hbar, dv)
            g2v = value(g2)
            if g2v <= floor_sq or g2v == 0.0:
                raise ZeroDirection(
                    f"discrete gradient norm {math.sqrt(g2v):.3e} below floor"
                )
            coef = (gam_num - dot(dg, fv)) / g2
            bu = matvec(bv, ubar)
            return [
                wk - zk - tau * (coef * dk + fk + bk)
                for wk, zk, dk, fk, bk in zip(w, z, dg, fv, bu)
            ]

        return residual

    def step(self, z, ubar, tau, start=None):
        """One step from ``z``; Newton starts from ``start``, else from z.

        Where grad H(z) = dg(z, z) vanishes, Newton starts from the Euler
        predictor z + tau (f(z) + B(z) ubar) whatever ``start`` is.  If
        that does not move, w = z solves the step exactly (supply minus
        dissipation is grad H . (f + B ubar) = 0 there) and is returned
        with output h(z) + D(z) ubar, residual 0 and no Newton update.
        """
        system = self.system
        z = [float(v) for v in z]
        h_at_z = system.storage.value(z)
        grad_norm = math.sqrt(norm_sq(system.storage.gradient(z)))
        floor = _GRADIENT_FLOOR * (1.0 + grad_norm)
        if grad_norm <= floor:
            bu = matvec(system.input_map(z), ubar)
            rate = [fk + bk for fk, bk in zip(system.drift(z), bu)]
            if not any(rate):
                ybar = [
                    hk + dot(drow, ubar)
                    for hk, drow in zip(system.output_map(z), system.feedthrough(z))
                ]
                return _StepResult(z, ubar, ybar, 0.0, 0)
            start = [zk + tau * rk for zk, rk in zip(z, rate)]
        elif start is None:
            start = z
        last = []
        residual = self._residual(z, h_at_z, floor * floor, ubar, tau, last)
        w, its, res = newton_solve(residual, start, _NEWTON)
        _warn_on_stall(res)
        # newton_solve's last residual call is at the returned iterate
        hbar, dv = last
        ybar = [
            value(hb) + dot([value(x) for x in drow], ubar)
            for hb, drow in zip(hbar, dv)
        ]
        return _StepResult(w.tolist(), ubar, ybar, res, its)


class _MidpointStepper:
    """Implicit midpoint over the same averaged maps (reference scheme)."""

    def __init__(self, system):
        self.system = system

    def _residual(self, z, ubar, tau):
        drift = self.system.drift
        input_map = self.system.input_map

        def residual(w):
            mid = [(a + b) * 0.5 for a, b in zip(z, w)]
            fv = drift(mid)
            bu = matvec(input_map(mid), ubar)
            return [
                wk - zk - tau * (fk + bk)
                for wk, zk, fk, bk in zip(w, z, fv, bu)
            ]

        return residual

    def step(self, z, ubar, tau, start=None):
        """One step from ``z``; Newton starts from ``start``, else from z."""
        z = [float(v) for v in z]
        residual = self._residual(z, ubar, tau)
        w, its, res = newton_solve(residual, z if start is None else start, _NEWTON)
        _warn_on_stall(res)
        w_list = w.tolist()
        mid = [(a + b) * 0.5 for a, b in zip(z, w_list)]
        hv = self.system.output_map(mid)
        dv = self.system.feedthrough(mid)
        ybar = [
            float(value(h)) + dot([value(x) for x in drow], ubar)
            for h, drow in zip(hv, dv)
        ]
        return _StepResult(w_list, ubar, ybar, res, its)


def _warn_on_stall(res):
    if res > _NEWTON.residual_tolerance:
        warnings.warn(
            f"Newton stalled at residual {res:.3e}",
            NewtonDidNotConverge,
            stacklevel=3,
        )


def _control_values(control, t, m):
    out = control(t)
    if isinstance(out, (int, float)):
        vals = (float(out),)
    elif isinstance(out, numbers.Real) or getattr(out, "shape", None) == ():
        # any other real scalar, numpy scalars and 0-d arrays included
        vals = (float(out),)
    else:
        vals = tuple(float(v) for v in out)
    if len(vals) != m:
        raise ValueError(f"control returned {len(vals)} values, expected {m}")
    return vals


def _averaged_input(control, t, tau, m, left=None):
    """Trapezoidal mean of the control over [t, t + tau] and its right
    end value, which the next step reuses as ``left``."""
    u0 = _control_values(control, t, m) if left is None else left
    u1 = _control_values(control, t + tau, m)
    return tuple(0.5 * (a + b) for a, b in zip(u0, u1)), u1


def _make_stepper(system, config):
    if config.scheme == DG_QSR:
        return _DgQsrStepper(system, config)
    return _MidpointStepper(system)


def integrate(system, config, grid, control, z0):
    """March the configured scheme over ``grid`` from ``z0``.

    Hard step failures (singular Jacobian, vanished discrete gradient,
    non-finite evaluations, mean-value quadrature that misses its secant
    tolerance at the panel cap) are re-raised as :class:`IntegrationError`
    carrying the failing step index and the last good state z_i; Newton
    stalls only warn and are visible in the returned residuals.

    The loop works on Python lists and builds the five arrays of the
    :class:`Trajectory` once, after the last step.

    Newton starts each step from a polynomial extrapolation of the states
    already computed, evaluated at t_{i+1}.  From the third step on that
    is the quadratic through the last three states, in divided-difference
    form with ``h1 = tau_{i-1}``, ``h0 = tau_{i-2}``::

        z_i + (tau_i / h1) (z_i - z_{i-1})
            + tau_i (tau_i + h1) / (h1 + h0)
              * ((z_i - z_{i-1}) / h1 - (z_{i-1} - z_{i-2}) / h0)

    which is O(tau^3) accurate on smooth runs, so a step usually needs a
    single Newton update.  The first two steps differ: the first starts
    from z_0 and the second from the linear extrapolation
    ``z_1 + (tau_1 / tau_0) (z_1 - z_0)``; a dg-qsr step from a critical
    point of H overrides the start (see ``_DgQsrStepper.step``).
    The difference form returns z_i bit for bit when the last three states
    are equal, so fixed points stay exact.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.n,):
        raise ValueError(f"initial state must have shape ({system.n},)")
    stepper = _make_stepper(system, config)
    pts = grid.points.tolist()
    z = z0.tolist()
    states = [z]
    inputs = []
    outputs = []
    residuals = []
    iterations = []
    prev = prev2 = prev_tau = start = None
    left = None
    for i in range(grid.num_steps):
        t = pts[i]
        tau = pts[i + 1] - t
        ubar, left = _averaged_input(control, t, tau, system.m, left)
        if prev2 is not None:
            ratio = tau / prev_tau
            curve = tau * (tau + prev_tau) / (prev_tau + prev2_tau)
            start = [
                a
                + ratio * (a - b)
                + curve * ((a - b) / prev_tau - (b - c) / prev2_tau)
                for a, b, c in zip(z, prev, prev2)
            ]
        elif prev is not None:
            ratio = tau / prev_tau
            start = [a + ratio * (a - b) for a, b in zip(z, prev)]
        try:
            result = stepper.step(z, ubar, tau, start)
        except (
            ZeroDirection,
            SingularMatrix,
            NonFiniteEvaluation,
            QuadratureNotConverged,
        ) as exc:
            raise IntegrationError(i, t, str(exc), np.array(z)) from exc
        prev2, prev2_tau = prev, prev_tau
        prev, prev_tau = z, tau
        z = result.state
        states.append(z)
        inputs.append(result.averaged_input)
        outputs.append(result.discrete_output)
        residuals.append(result.newton_residual)
        iterations.append(result.iterations)
    return Trajectory(
        grid,
        np.array(states, dtype=float),
        np.array(inputs, dtype=float),
        np.array(outputs, dtype=float),
        np.array(residuals, dtype=float),
        np.array(iterations, dtype=int),
    )


def discrete_power_balance_residuals(system, trajectory):
    """Per-step defect of the discrete power balance.

    Uses the recorded averaged inputs and discrete outputs; the loss maps
    are re-evaluated at the state midpoints.  For the structure-preserving
    scheme these are at Newton-residual level; for the midpoint scheme
    they are O(tau^2).
    """
    states = trajectory.states.tolist()
    inputs = trajectory.averaged_inputs.tolist()
    taus = trajectory.grid.steps.tolist()
    supplies = supply_value(
        system.supply, trajectory.averaged_inputs, trajectory.discrete_outputs
    ).tolist()
    hval = system.storage.value
    h = [hval(z) for z in states]
    out = []
    for i, (z0, z1, u, tau, sup) in enumerate(
        zip(states, states[1:], inputs, taus, supplies)
    ):
        mid = [(a + b) * 0.5 for a, b in zip(z0, z1)]
        wv = system.loss_input(mid)
        sig = [lk + dot(row, u) for lk, row in zip(system.loss_state(mid), wv)]
        diss = norm_sq(sig)
        dh = (h[i + 1] - h[i]) / tau
        out.append(abs(dh - sup + diss))
    return np.array(out)


def relative_error(trajectory, reference):
    """Max-norm deviation from a reference run on shared nodes.

    Every node of ``trajectory`` must coincide with a node of
    ``reference`` within 1e-12; otherwise
    :class:`GridMismatch` is raised.  The deviation is normalized by the
    largest reference state norm over the shared nodes.
    """
    rp = reference.grid.points
    indices = []
    for t in trajectory.grid.points:
        j = int(np.searchsorted(rp, t))
        best = -1
        for cand in (j - 1, j, j + 1):
            if 0 <= cand < rp.size and abs(rp[cand] - t) <= _NODE_TOLERANCE:
                best = cand
                break
        if best < 0:
            raise GridMismatch(f"node t = {t!r} not on the reference grid")
        indices.append(best)
    ref_states = reference.states[indices]
    num = float(np.max(np.linalg.norm(ref_states - trajectory.states, axis=1)))
    den = float(np.max(np.linalg.norm(ref_states, axis=1)))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den
