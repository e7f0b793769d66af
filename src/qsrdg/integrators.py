"""Implicit one-step schemes with a discrete power balance.

The main scheme replaces the drift by its component orthogonal to a
discrete gradient of the storage function plus a coefficient times the
discrete gradient itself, chosen so that every accepted step satisfies

    (H(z_{i+1}) - H(z_i)) / tau_i  =  s(u_i, y_i) - ||l_i + W_i u_i||^2

exactly (up to the Newton residual), mirroring the continuous power
balance.  An implicit midpoint stepper over the same averaged maps serves
as the second-order reference scheme without the balance guarantee.

Where the discrete gradient's squared norm is 0.0 in floats, at rest at
a critical point of H or once |dg| is below about 1e-154, a residual call
takes the coefficient as 0, so the step there is the implicit midpoint
step over the same maps.  Wherever dg is not 0, dg . (w - z) =
H(w) - H(z) is untouched, and so is the balance.

"Up to the Newton residual" has a size.  With r the residual at the
accepted state and dg the discrete gradient there, the balance defect of
a step is |dg . r| / tau.  So the 1e-13 residual tolerance alone bounds
it only by |dg| 1e-13 / tau, about 1.4e-10 for the pendulum at
tau = 5e-3.  The benchmark runs measure at most 1.9e-11 only because
Newton ends at the rounding floor, far below the tolerance: it keeps a
start without an update only when its residual is at most a hundredth
of the tolerance (and within 4 ulps of the start), and it stops on a
fresh update, which converges quadratically, or on an update with
reused factors only once the residual is a hundredth of the tolerance
(see :func:`qsrdg.numerics.newton_solve`).  A solve that starts from
factors carried from the last step makes only reused updates, so it
ends at a hundredth of the tolerance or takes a fresh pass first.  The
step takes H(w) - H(z) from the storage's closed-form ``difference``,
which keeps its relative accuracy as w -> z.  The audit,
:func:`discrete_power_balance_residuals`, subtracts two values instead.
That checks the closed form independently, but the audited defect
cannot fall below the rounding of the two values, about
eps (|H(z)| + |H(w)|) / tau, which exceeds 1e-10 below tau = 1e-5 on the
pendulum.  Nor can the residual fall far below the ulp of the state, so
for states beyond about 112 the tolerance is 4 ulps of the state's
largest entry, and the defect bound grows with it.

Both schemes end a step the same way: :meth:`_Stepper._solve` runs
Newton from a start extrapolated through up to eight step increments
(see :func:`integrate`), carries its factors to the next step while that
saves residual calls, solves a stalled step once more from its own state
and warns when that stalls too, and :func:`_output` forms y = h + D ubar
in floats.

All two-point averages are midpoint evaluations, phi((z + w) / 2); the
averaged input is the trapezoidal endpoint mean (u(t_i) + u(t_{i+1})) / 2.

Each residual call of the structure-preserving step recovers the output
from (Q D + S)^T hbar = B^T dg / 2 + W^T l, by one formula:
hbar = A dg + C l, with the gains A = (Q D + S)^{-T} B^T / 2 and
C = (Q D + S)^{-T} W^T.  A system that declares B, D and W as
:class:`~qsrdg.model.ConstantMap`, as every shipped example does, has
its gains formed once per run, and its residual calls make no call of
the three maps.  Otherwise every call forms them from its own values of
B, D and W, so a state-dependent feedthrough is refactored on every
call.  The implicit midpoint step and the balance audit also read a
declared B, D or W instead of calling it.
"""

import itertools
import math
import numbers
import operator
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

from qsrdg._kernels import dot, factor, norm_sq, substitute

# the layer trace of perfbench looks this name up here; the dg-qsr step
# forms its output gains with factor and substitute instead, so the
# traced full solves count zero
from qsrdg._kernels import solve_generic  # noqa: F401
from qsrdg.dgradients import GONZALEZ, DiscreteGradientKind, _evaluate
from qsrdg.errors import (
    GridMismatch,
    IntegrationError,
    NewtonDidNotConverge,
    NonFiniteEvaluation,
    QuadratureNotConverged,
    SingularMatrix,
)
from qsrdg.model import ConstantMap, supply_value
from qsrdg.numerics import (
    _MAP_ERRORS,
    NewtonSettings,
    _raised,
    _tolerance,
    newton_solve,
)

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
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid nodes must be finite")
        if pts[0] != 0.0:
            raise ValueError("grids start at t = 0")
        if not np.all(np.diff(pts) > 0.0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def equidistant(cls, horizon, num_steps):
        """Nodes ``i * (horizon / num_steps)`` for i = 0..num_steps."""
        num_steps = operator.index(num_steps)
        if num_steps < 1 or not 0.0 < horizon < math.inf:
            raise ValueError("need at least one step and a finite positive horizon")
        return cls(np.arange(num_steps + 1) * (horizon / num_steps))

    @classmethod
    def with_step(cls, stepsize, num_steps):
        """Nodes ``i * stepsize``; keeps nodes exactly nested across
        power-of-two stepsize refinements."""
        num_steps = operator.index(num_steps)
        # the horizon bounds the step and keeps the last node finite
        if num_steps < 1 or not 0.0 < stepsize * num_steps < math.inf:
            raise ValueError("need at least one step and a finite positive horizon")
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
    of :class:`NewtonSettings`.
    """

    scheme: str = DG_QSR
    dg_kind: DiscreteGradientKind = GONZALEZ

    # not a field: callers read it to check recorded Newton residuals
    newton = _NEWTON

    def __post_init__(self):
        if self.scheme not in (DG_QSR, IMPLICIT_MIDPOINT):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.dg_kind, DiscreteGradientKind):
            raise TypeError(
                f"dg_kind must be a DiscreteGradientKind, got {self.dg_kind!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """States on the grid nodes plus per-step inputs, outputs, Newton
    residuals and Newton iteration counts.

    An iteration count is the number of kept Newton updates of the step,
    fresh or with reused factors, including the stale updates of a step
    that started from the factors the last step kept.  A step whose solve
    stalled and was solved again from its own state counts the updates of
    both solves, whichever result it kept.  A count of 0 means the start
    was accepted as it was: its residual was on the rounding floor.
    """

    grid: TimeGrid
    states: np.ndarray
    averaged_inputs: np.ndarray
    discrete_outputs: np.ndarray
    newton_residuals: np.ndarray
    newton_iterations: np.ndarray


class _Stepper:
    """Per-run Newton state of a scheme: the factored Jacobian that the
    next step's solve starts from, if any, and whether the run still
    carries factors across steps (see :meth:`_solve`)."""

    def __init__(self, system):
        self.system = system
        self._factors = None
        self._carrying = True

    def _solve(self, residual, z, start):
        """Newton from ``start``: the iterate as a float list, the iteration
        count, the residual and the residual's values there, from which
        :func:`integrate` forms the step's increment.  The last call to
        ``residual`` is at the returned iterate.

        A solve stalls when its residual is above the tolerance of
        :func:`qsrdg.numerics.newton_solve` at its iterate.  A solve that
        stalls and did not start from ``z`` with a fresh pass is solved
        once more from ``z`` with a fresh pass (Deuflhard 2004, ch. 3): an
        extrapolated or carried start can be worse than the step's own
        state when the steps are coarse.  The step keeps the result with
        the lower residual, calling ``residual`` once more at it when that
        is the first one, and counts the updates of both solves.  Smooth
        runs never stall, so they never retry.  A stall of the kept result
        warns at the line that called :func:`integrate`, three frames
        above this one.

        A solve starts from the factors the last step kept, if any.  Such
        a carried solve costs one float call plus one per stale update; a
        solve with a fresh pass costs n complex calls, a factorization and
        one float call per update.  So a step keeps its factors for the
        next one when its pass converged within one update (none, when the
        start was on the rounding floor), or when it was carried and took
        no pass (it then made at most n updates).  A carried solve that
        took a pass cost more than a pass alone, and the run takes a pass
        on every later step.  A retried step keeps no factors.
        """
        carried = self._factors
        w, its, res, lu, vals = newton_solve(residual, start, _NEWTON, carried)
        stalled = _stalled(w, res)
        retried = stalled and (carried is not None or start != z)
        if retried:
            x, more, res_z, _, vals_z = newton_solve(residual, z, _NEWTON)
            its += more
            if res_z < res:
                w, res, vals = x, res_z, vals_z
            else:
                # the step reads the output terms of the last call
                residual(w)
            stalled = _stalled(w, res)
        if stalled:
            warnings.warn(
                f"Newton stalled at residual {res:.3e}",
                NewtonDidNotConverge,
                stacklevel=4,
            )
        if carried is None:
            keep = self._carrying and its <= 1 and not stalled
        else:
            keep = self._carrying = lu is carried
        self._factors = lu if keep and not retried else None
        return w, its, res, vals


def _stalled(w, res):
    """Whether the residual ``res`` at ``w`` is above the tolerance of
    :func:`qsrdg.numerics.newton_solve` there."""
    return res > _NEWTON.residual_tolerance and res > _tolerance(_NEWTON, w)


def _rows(f):
    """The rows of a map declared as a :class:`ConstantMap`, else None."""
    return f.rows if isinstance(f, ConstantMap) else None


class _DgQsrStepper(_Stepper):
    """Per-run machinery for the structure-preserving scheme.

    Every residual call recovers the output terms as hbar = A dg + C l,
    the solution of (Q D + S)^T hbar = B^T dg / 2 + W^T l with B, D and W
    at the midpoint (see :meth:`_gains`).  When the system declares all
    three as :class:`ConstantMap`, the gains are formed once, here, and
    ``constants`` holds B, D and the rows of A and C; a residual call then
    calls none of the three maps.  Otherwise ``constants`` is None and
    every call forms the gains from its own map values, which may carry
    a Jacobian pass's tangents.
    """

    def __init__(self, system, config):
        super().__init__(system)
        self.kind = config.dg_kind
        # the supply weights are 2-D float arrays (see SupplyRate)
        self.q_rows = system.supply.q.tolist()
        self.s_rows = system.supply.s.tolist()
        bv, dv, wv = (
            _rows(system.input_map), _rows(system.feedthrough), _rows(system.loss_input)
        )
        if bv is None or dv is None or wv is None:
            self.constants = None
        else:
            self.constants = (bv, dv, *self._gains(bv, dv, wv))

    def _gains(self, bv, dv, wv):
        """Rows of A = (Q D + S)^{-T} B^T / 2 and C = (Q D + S)^{-T} W^T
        from the values ``bv``, ``dv`` and ``wv`` of B, D and W, generic
        scalars throughout: column i of A solves (Q D + S)^T a = B_i / 2
        and column k of C solves (Q D + S)^T c = W_k, with B_i and W_k
        rows of B and W."""
        # rows of (Q D + S)^T: entry (j, i) is row i of Q times column j
        # of D, plus s[i][j]
        mt = [
            [dot(q, col) + s[j] for q, s in zip(self.q_rows, self.s_rows)]
            for j, col in enumerate(zip(*dv))
        ]
        lu = factor(mt)
        a_cols = [substitute(lu, [0.5 * b for b in row]) for row in bv]
        c_cols = [substitute(lu, row) for row in wv]
        return list(zip(*a_cols)), list(zip(*c_cols))

    def _terms(self, z, w):
        """Shared two-point quantities of the structure-preserving step.

        Works on generic scalars: ``z`` holds floats, ``w`` may be complex.
        Returns the discrete gradient, its squared norm, the midpoint
        drift, input and feedthrough values, the recovered output, and
        the numerator of the drift coefficient.
        """
        system = self.system
        mid = [(a + b) * 0.5 for a, b in zip(z, w)]
        dg = _evaluate(self.kind, system.storage, z, w, mid)
        g2 = dot(dg, dg)
        fv = system.drift(mid)
        lv = system.loss_state(mid)
        if self.constants is None:
            bv = system.input_map(mid)
            dv = system.feedthrough(mid)
            a_rows, c_rows = self._gains(bv, dv, system.loss_input(mid))
        else:
            bv, dv, a_rows, c_rows = self.constants
        hbar = [dot(a, dg) + dot(c, lv) for a, c in zip(a_rows, c_rows)]
        # hbar . Q hbar - |l|^2, each sum taken in index order
        q_rows = self.q_rows
        quad = hbar[0] * dot(q_rows[0], hbar)
        for i in range(1, len(hbar)):
            quad = quad + hbar[i] * dot(q_rows[i], hbar)
        return dg, g2, fv, bv, dv, hbar, quad - dot(lv, lv)

    def _residual(self, z, ubar, tau, last):
        """The step's Newton residual; each call leaves the output terms
        ``hbar`` and ``dv`` at its point in ``last``."""
        terms = self._terms

        def residual(w):
            dg, g2, fv, bv, dv, hbar, gam_num = terms(z, w)
            last[:] = (hbar, dv)
            # where |dg|^2 is 0.0 in floats the step is implicit midpoint
            coef = 0.0 if g2.real == 0.0 else (gam_num - dot(dg, fv)) / g2
            return [
                wk - zk - tau * (coef * dk + fk + dot(row, ubar))
                for wk, zk, dk, fk, row in zip(w, z, dg, fv, bv)
            ]

        return residual

    def step(self, z, ubar, tau, start):
        """One step from ``z``, Newton from ``start``: ``(w, ybar, residual,
        its, values)``, with ``values`` the residual vector at ``w``."""
        last = []
        w, its, res, vals = self._solve(self._residual(z, ubar, tau, last), z, start)
        # ``last`` holds hbar and dv of newton_solve's last call, at ``w``
        return w, _output(*last, ubar), res, its, vals


class _MidpointStepper(_Stepper):
    """Implicit midpoint over the same averaged maps (reference scheme).
    It reads the rows of a declared B or D instead of calling the map."""

    def __init__(self, system):
        super().__init__(system)
        self.b_rows = _rows(system.input_map)
        self.d_rows = _rows(system.feedthrough)

    def _residual(self, z, ubar, tau):
        drift = self.system.drift
        input_map = self.system.input_map
        b_rows = self.b_rows

        def residual(w):
            mid = [(a + b) * 0.5 for a, b in zip(z, w)]
            fv = drift(mid)
            bv = input_map(mid) if b_rows is None else b_rows
            return [
                wk - zk - tau * (fk + dot(row, ubar))
                for wk, zk, fk, row in zip(w, z, fv, bv)
            ]

        return residual

    def step(self, z, ubar, tau, start):
        """As :meth:`_DgQsrStepper.step`."""
        w, its, res, vals = self._solve(self._residual(z, ubar, tau), z, start)
        mid = [(a + b) * 0.5 for a, b in zip(z, w)]
        hv = self.system.output_map(mid)
        dv = self.system.feedthrough(mid) if self.d_rows is None else self.d_rows
        return w, _output(hv, dv, ubar), res, its, vals


def _output(hv, dv, ubar):
    """h + D ubar in floats, from the value parts of ``hv`` and ``dv``."""
    return [h.real + dot([x.real for x in row], ubar) for h, row in zip(hv, dv)]


def _control_values(control, t, m):
    """The control's ``m`` values at ``t`` as floats.  A control that
    raises one of ``_MAP_ERRORS`` raises :class:`NonFiniteEvaluation`
    chained to it; one that returns another number of values raises
    ``ValueError``."""
    try:
        out = control(t)
    except _MAP_ERRORS as exc:
        raise NonFiniteEvaluation(
            f"control raised {type(exc).__name__} at t = {t!r}: {exc}"
        ) from exc
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
    return tuple([0.5 * (a + b) for a, b in zip(u0, u1)]), u1


# hasattr's second argument for each entry of a map's value
_LEN = itertools.repeat("__len__")


def _shape(out):
    """``np.shape(out)`` for a map's value, from lengths alone: () for a
    scalar, (k,) for k scalars and (k, j) for k rows of j scalars; rows of
    unequal length, and any other nesting, are "ragged"."""
    if not hasattr(out, "__len__"):
        return ()
    rows = list(map(hasattr, out, _LEN))
    if not any(rows):
        return (len(out),)
    if all(rows):
        lengths = set(map(len, out))
        if len(lengths) == 1 and not any(map(hasattr, itertools.chain(*out), _LEN)):
            return (len(out), *lengths)
    return "ragged"


def _check_map_shapes(system, z):
    """Raise ``ValueError`` naming the first map whose value at ``z`` has
    the wrong shape: the step loops would index past a short one and
    ``zip`` would cut a long one.  A map that raises one of
    ``_MAP_ERRORS`` at ``z`` fails step 0 with :class:`IntegrationError`."""
    n, m = system.n, system.m
    maps = {
        "storage gradient": system.storage.gradient,
        "drift": system.drift,
        "input_map": system.input_map,
        "output_map": system.output_map,
        "feedthrough": system.feedthrough,
        "loss_state": system.loss_state,
        "loss_input": system.loss_input,
    }
    try:
        shapes = {name: _shape(f(z)) for name, f in maps.items()}
    except _MAP_ERRORS as exc:
        raise IntegrationError(0, 0.0, str(_raised(exc)), np.array(z)) from exc
    l_shape = shapes["loss_state"]
    # l may have any length p; W must have p rows
    p = l_shape[0] if l_shape and l_shape != "ragged" else 1
    expected = ((n,), (n,), (n, m), (m,), (m, m), (p,), (p, m))
    for (name, got), shape in zip(shapes.items(), expected):
        if got != shape:
            raise ValueError(f"{name} returned shape {got}, expected {shape}")


# a start extrapolates through at most this many step increments
_INCREMENTS = 8


def _lagrange_weights(distances):
    """Lagrange weights, at the new step's midpoint, of increments whose
    midpoints lie ``distances`` before it, oldest first, padded with
    leading zeros to ``_INCREMENTS``.

    Weight k is l_k = prod_{j != k} d_j / prod_{j != k} (d_j - d_k), each
    product taken in index order.  Distances rather than abscissae keep
    the weights accurate however far the run is from t = 0.
    """
    weights = []
    for k, dk in enumerate(distances):
        num = den = 1.0
        for j, dj in enumerate(distances):
            if j != k:
                num *= dj
                den *= dj - dk
        weights.append(num / den)
    return (0.0,) * (_INCREMENTS - len(weights)) + tuple(weights)


# _EQUAL_STEP_WEIGHTS[c]: the weights of the last c increments on equal
# steps, from the distances c, ..., 1 in steps; the products of those
# integers are exact, so every row holds exact integers,
# (-1)^(c - k + 1) C(c, k) for k = 0..c-1
_EQUAL_STEP_WEIGHTS = tuple(
    _lagrange_weights(range(c, 0, -1)) for c in range(_INCREMENTS + 1)
)
# steps are equal when they differ by at most this many times the last
# node: a grid node rounds to within half an ulp of itself
_EQUAL_STEP_ULPS = 4.0 * np.finfo(float).eps


def _start_weights(widths, tau, t_next):
    """Weights, oldest first, of the last ``_INCREMENTS`` increments in the
    start of a step of length ``tau`` that ends at ``t_next``, after steps
    of lengths ``widths``.

    Where every width equals ``tau`` up to the rounding of the grid nodes,
    ``_EQUAL_STEP_ULPS`` times ``t_next``, these are the equal-step
    weights of all of them.  Otherwise they are the Lagrange weights of
    the last four, from the distances of their midpoints to the new
    step's, summed step by step from the new one back.
    """
    tol = _EQUAL_STEP_ULPS * t_next
    if max(widths) - tau <= tol and tau - min(widths) <= tol:
        return _EQUAL_STEP_WEIGHTS[len(widths)]
    distances = []
    d, right = 0.0, tau
    for width in list(widths)[:-5:-1]:
        d += 0.5 * (right + width)
        distances.append(d)
        right = width
    return _lagrange_weights(distances[::-1])


def integrate(system, config, grid, control, z0):
    """March the configured scheme over ``grid`` from ``z0``.

    Hard step failures (singular Jacobian, non-finite evaluations, a map
    that raises ``OverflowError``, ``ValueError`` or ``ZeroDivisionError``,
    mean-value quadrature that misses its secant tolerance at the panel
    cap) are re-raised as :class:`IntegrationError` carrying the failing
    step index and the last good state z_i, chained to the original
    error; so is a control that raises one of those three.  A map that
    raises at ``z0`` in the shape check, and a declared Q D + S that is
    singular, fail step 0.
    Newton stalls only warn, each at the line that called ``integrate``,
    and are visible in the returned residuals.  A non-finite ``z0``, or a
    map whose value at ``z0`` has the wrong shape, a ragged row or a
    nested entry included, raises ``ValueError`` before the first step.

    The loop works on Python lists and builds the five arrays of the
    :class:`Trajectory` once, after the last step.

    Newton starts each step from an extrapolation of the step increments
    already computed.  Step i records its increment
    ``V_i = (z_{i+1} - z_i - r_i) / tau_i``, r_i the residual vector of
    the accepted state, at the abscissa ``s_i = t_i + tau_i / 2``.  That is
    the scheme's right-hand side at the accepted state; subtracting r_i
    keeps Newton's residual out of it, and the difference of the two
    nearby states is exact, so V_i has the relative accuracy of the
    right-hand side.  Step i starts from::

        z_i + tau_i * sum_k l_k(t_i + tau_i / 2) V_k

    with l_k the Lagrange weights of the increments' abscissae, all from
    one formula over the abscissae's distances to t_i + tau_i / 2 (see
    :func:`_lagrange_weights`).  Where the last min(i, 8) steps all equal
    tau_i up to the rounding of the grid nodes, the sum runs over those
    increments, whose distances are the integers c, ..., 1 in steps for
    c of them, so their weights are exact integers from a table:
    (-1)^(c - k + 1) C(c, k), k = 0..c-1 oldest first, (-1, 4, -6, 4) for
    four and (-1, 8, -28, 56, -70, 56, -28, 8) for eight.  Otherwise it
    runs over the last min(i, 4) increments, with distances summed from
    the step lengths (see :func:`_start_weights`).  On a smooth
    run the increments are samples of a smooth function of the abscissa,
    so the polynomial through c of them is O(tau^c) off the new step's
    increment and the start O(tau^(c + 1)) off its solution; on smooth
    small steps it usually sits on the rounding floor, where Newton keeps
    it without an update.  Eight increments are the most whose weights,
    255 in absolute sum, keep the start's own rounding near the floor at
    the benchmark step (predictor of higher order where steps are small,
    as in DASSL; Brenan, Campbell & Petzold 1996).  The first step
    starts from z_0; with one increment the start is the linear
    extrapolation of the states and with two the quadratic, up to the
    residual term.  A step whose solve stalls from such a start is solved
    again from z_i (see :meth:`_Stepper._solve`).  An unmoved run records
    zero increments, so its start is z_i bit for bit and fixed points
    stay exact.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (system.n,):
        raise ValueError(f"initial state must have shape ({system.n},)")
    if not np.all(np.isfinite(z0)):
        raise ValueError(f"initial state must be finite, got {z0.tolist()}")
    _check_map_shapes(system, z0.tolist())
    if config.scheme == DG_QSR:
        try:
            stepper = _DgQsrStepper(system, config)
        except SingularMatrix as exc:
            # a declared Q D + S is singular: no step can recover its output
            raise IntegrationError(0, 0.0, str(exc), z0.copy()) from exc
    else:
        stepper = _MidpointStepper(system)
    m = system.m
    pts = grid.points.tolist()
    z = start = z0.tolist()
    states = [z]
    inputs = []
    outputs = []
    residuals = []
    iterations = []
    # the last eight increments and their step lengths, oldest first; until
    # eight steps are done, zero increments with zero weights fill the rest
    increments = deque([[0.0] * system.n] * _INCREMENTS, maxlen=_INCREMENTS)
    widths = deque(maxlen=_INCREMENTS)
    weights = None
    left = None
    for i in range(grid.num_steps):
        t = pts[i]
        tau = pts[i + 1] - t
        try:
            ubar, left = _averaged_input(control, t, tau, m, left)
        except NonFiniteEvaluation as exc:
            # the control raised; a wrong number of values is a ValueError
            raise IntegrationError(i, t, str(exc), np.array(z)) from exc.__cause__
        if widths:
            # a step as long as the last one after eight equal steps keeps
            # their weights: the tolerance only grows with t
            if weights is not _EQUAL_STEP_WEIGHTS[-1] or tau != widths[-1]:
                weights = _start_weights(widths, tau, pts[i + 1])
            l0, l1, l2, l3, l4, l5, l6, l7 = weights
            start = [
                zk
                + tau
                * (
                    l0 * a + l1 * b + l2 * c + l3 * d
                    + l4 * e + l5 * f + l6 * g + l7 * h
                )
                for zk, a, b, c, d, e, f, g, h in zip(z, *increments)
            ]
        try:
            w, ybar, res, its, vals = stepper.step(z, ubar, tau, start)
        except (SingularMatrix, NonFiniteEvaluation, QuadratureNotConverged) as exc:
            raise IntegrationError(i, t, str(exc), np.array(z)) from exc
        except _MAP_ERRORS as exc:
            # a map called outside Newton: the midpoint step's output
            raise IntegrationError(i, t, str(_raised(exc)), np.array(z)) from exc
        increments.append([(a - b - r) / tau for a, b, r in zip(w, z, vals)])
        widths.append(tau)
        z = w
        states.append(z)
        inputs.append(ubar)
        outputs.append(ybar)
        residuals.append(res)
        iterations.append(its)
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
    w_rows = _rows(system.loss_input)
    out = []
    for i, (z0, z1, u, tau, sup) in enumerate(
        zip(states, states[1:], inputs, taus, supplies)
    ):
        mid = [(a + b) * 0.5 for a, b in zip(z0, z1)]
        wv = system.loss_input(mid) if w_rows is None else w_rows
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
