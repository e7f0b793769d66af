"""Newton iteration.

The implicit steppers funnel through :func:`newton_solve`, so the residual
maps they hand over must follow the generic-scalar contract: accept a
sequence of scalars (floats, or the ``complex`` scalars of a Jacobian
pass) and return a sequence of scalars built only from arithmetic and
:mod:`qsrdg.gmath` calls (see there for the three rules a map keeps).

A Jacobian pass is n complex-step evaluations of the map (Squire &
Trapp, 1998; Martins, Sturdza & Alonso, 2003).  Evaluation k replaces
entry k of x by ``complex(x_k, h)`` with h = 2**-600 and keeps the other
entries as floats; column k of the Jacobian is the imaginary part over
h, and the values are the real parts.  Because h is a power of two,
scaling by it is exact, and because it is so small the product of two
imaginary parts underflows to zero.  So the real part of every
``+ - * /`` is the float result bit for bit, and the Jacobian is exact
to rounding, with no subtractive cancellation.  Only a Jacobian entry
below about 2**-474 (1e-143) in magnitude loses digits, because its
scaled tangent is subnormal; its absolute error is of that order.

Newton factors the Jacobian of each pass with the elimination code of
:mod:`qsrdg._kernels` and keeps the factors for later updates while the
observed contraction predicts convergence (simplified Newton; Hairer &
Wanner, *Solving ODEs II* §IV.8; Deuflhard, *Newton Methods for
Nonlinear Problems*, 2004, ch. 2).  The factors serve later updates of
the same solve, and a solve returns them, so a caller may start the next
solve from them instead of a pass: :mod:`qsrdg.integrators` carries them
from step to step while that costs fewer residual calls.  Every update,
fresh or reused, is one substitution and one float evaluation of the
residual at the new iterate, and Newton stops on that float residual, so
no Jacobian is ever computed only to confirm convergence.  A start whose
residual is already on the rounding floor gets no update at all.  So a
step whose start is on the floor costs one float call from carried
factors, or one pass; a step that converges on its first update costs
one pass and one float call, or two float calls from carried factors;
see :func:`newton_solve` for when a pass is taken.  The stop is relative
where the iterate is large: a residual need not fall below 4 ulps of the
iterate's largest entry, which exceeds the absolute tolerance only above
about 112.  A solve whose passes run out above the tolerance raises
:class:`~qsrdg.errors.NewtonDidNotConverge`.
"""

import math
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from qsrdg._kernels import factor, substitute

# not used here: perfbench/layers.py wraps qsrdg.numerics.lu_solve as a
# traced boundary, and perfbench/selftest.py fails when that name is
# absent; Newton solves with factor/substitute, so the traced calls of
# this name read 0
from qsrdg._kernels import solve_generic as lu_solve  # noqa: F401
from qsrdg.errors import NewtonDidNotConverge, NonFiniteEvaluation, SingularMatrix

__all__ = [
    "NewtonSettings",
    "NewtonResult",
    "newton_solve",
    "SingularMatrix",
    "NonFiniteEvaluation",
    "NewtonDidNotConverge",
]


# what a map raises off its domain: math's range and domain errors and a
# division by zero
_MAP_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


def _raised(exc):
    """The :class:`NonFiniteEvaluation` that a map's ``exc`` becomes."""
    return NonFiniteEvaluation(f"map raised {type(exc).__name__}: {exc}")


def _values_of(f, x):
    """Value parts of ``f`` at ``x`` and their Euclidean norm; raises
    :class:`NonFiniteEvaluation` on a NaN or infinite entry, and in place
    of one of ``_MAP_ERRORS`` that ``f`` raises.

    The norm is finite only if every entry is; only when it is not are
    the entries tested, since finite entries near the largest float give
    an infinite norm too.  hypot scales internally, so entries above
    1e154 whose squares overflow still give a finite norm."""
    try:
        out = f(x)
    except _MAP_ERRORS as exc:
        raise _raised(exc) from exc
    vals = [c.real for c in out]
    norm = math.hypot(*vals)
    if not math.isfinite(norm):
        for v in vals:
            if not math.isfinite(v):
                raise NonFiniteEvaluation(f"map produced {v!r}")
    return vals, norm


# the complex step and its reciprocal, both exact powers of two
_H = 2.0**-600
_INV_H = 2.0**600


def _jacobian_with_values(f, x):
    """Jacobian rows and map values at ``x`` (a list of floats), from one
    complex-step evaluation per coordinate; every evaluation has the
    float values as its real parts.  Like :func:`_values_of`, it raises
    :class:`NonFiniteEvaluation` in place of one of ``_MAP_ERRORS``."""
    cols = []
    for k, xk in enumerate(x):
        probe = list(x)
        probe[k] = complex(xk, _H)
        try:
            out = f(probe)
        except _MAP_ERRORS as exc:
            raise _raised(exc) from exc
        # a component that does not depend on x may come back as a float,
        # whose imaginary part is 0
        cols.append([c.imag * _INV_H for c in out])
    vals = [c.real for c in out]
    # the finiteness rule of _values_of, over values and columns together
    if not math.isfinite(sum(vals) + sum(map(sum, cols))):
        for entries in (vals, *cols):
            if not all(map(math.isfinite, entries)):
                raise NonFiniteEvaluation("non-finite value or derivative")
    return [list(row) for row in zip(*cols)], vals


@dataclass(frozen=True)
class NewtonSettings:
    """Cap on Jacobian passes and residual tolerance for Newton.

    ``max_iterations`` caps the passes, not the updates: each pass may
    serve a few reused updates besides its own (see :func:`newton_solve`).
    It must be an integer; anything else raises ``TypeError``.
    ``residual_tolerance`` is absolute; a solve stops at 4 ulps of the
    iterate where that is larger.
    """

    max_iterations: int = 10
    residual_tolerance: float = 1e-13

    def __post_init__(self):
        if operator.index(self.max_iterations) < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.residual_tolerance > 0.0:
            raise ValueError("residual_tolerance must be positive")


class NewtonResult(NamedTuple):
    """The iterate, a list of floats; the kept updates; the residual there;
    the factors of the solve's last Jacobian pass (the given ones if it
    took none), which a later solve may start from; and the residual's
    values at the iterate, a list of floats."""

    x: list
    iterations: int
    residual: float
    factors: tuple
    values: list


# a solve that ends on a reused update must reach this fraction of the
# tolerance; linear convergence would otherwise stop just inside it
_POLISH = 1e-2
# at most this many reused updates per factorization
_REUSES_PER_PASS = 4
# the stop rule's relative part: a few ulps of the iterate's largest entry
_ULPS = 4.0 * np.finfo(float).eps


def _factored_pass(f, x):
    """Factors of the Jacobian at ``x`` and the map values there."""
    rows, vals = _jacobian_with_values(f, x)
    return factor(rows), vals


def newton_solve(
    f: Callable[[Sequence], Sequence],
    x0,
    settings: NewtonSettings = NewtonSettings(),
    factors=None,
) -> NewtonResult:
    """Newton's method ``x <- x - J^{-1} F(x)`` on a square system, reusing
    factored Jacobians while they converge.

    Without ``factors``, a Jacobian pass at ``x0`` gives values and
    factors.  With ``factors``, from an earlier solve's result, a float
    call at ``x0`` gives the values and the factors count as reused.  An
    update substitutes the current values into the current factors and
    evaluates ``F`` in floats at the new iterate.  It is fresh when the
    factors come from a pass at the iterate it starts from, reused
    otherwise.  With tol the larger of ``residual_tolerance`` and 4 ulps
    of the iterate's largest entry:

    - after an update that took the residual from r_old to r, with
      theta = r / r_old, the next update reuses the factors when
      theta^2 r <= tol, r_old is finite and fewer than
      ``_REUSES_PER_PASS`` updates have reused them (given factors serve
      at most n updates, n the size of ``x0``); else a fresh pass at the
      iterate comes first;
    - a reused update that does not lower the residual is discarded, and
      a fresh pass is taken at the iterate it started from;
    - the solve stops when a fresh update reaches tol, or a reused one
      ``_POLISH`` times it.  A fresh update converges quadratically and
      lands at the rounding floor; the polish keeps a reused one there
      too, which a step's balance defect |dg . r| / tau needs (see
      :mod:`qsrdg.integrators`).

    No update is made when the residual at ``x0`` is already on the
    rounding floor: at most ``_POLISH`` times the absolute tolerance,
    the bound a reused update must reach, and at most 4 ulps of the
    largest entry of ``x0``.  The second bound keeps the floor relative:
    a start that is tiny in absolute terms but wrong by O(1) still gets
    its updates.  Every other start gets at least one, so a start inside
    the tolerance but above the floor still moves to it.
    ``max_iterations`` caps the passes.  Once they are used up, the solve
    returns the last kept iterate if its residual meets tol there, even
    short of the polish, and otherwise raises
    :class:`NewtonDidNotConverge` with that residual.  The iterate ``x``
    is a list of floats.  ``iterations`` counts the kept updates, fresh
    and reused; 0 means ``x0`` was kept.

    The last call to ``f`` is always at the returned iterate, and
    ``values`` are its value parts: the first call at ``x0`` when that
    start is kept, else the float call after the last kept update, or one
    more float call there when the passes run out on a discarded update
    and the iterate is returned.  A NaN or infinite value or derivative
    raises :class:`NonFiniteEvaluation`, and so does an ``OverflowError``,
    ``ValueError`` or ``ZeroDivisionError`` that a call to ``f`` raises,
    chained to it.
    """
    atol = settings.residual_tolerance
    x = list(map(float, x0))
    if factors is None:
        lu, vals = _factored_pass(f, x)
        res = math.hypot(*vals)
    else:
        lu = factors
        vals, res = _values_of(f, x)
    # a start on the rounding floor is kept
    if res <= atol * _POLISH and res <= _ULPS * max(map(abs, x)):
        return NewtonResult(x, 0, res, lu, vals)
    if factors is None:
        passes_left, reuses, cap = settings.max_iterations - 1, 0, _REUSES_PER_PASS
    else:
        passes_left, reuses, cap = settings.max_iterations, 1, len(x)
    its = 0
    while True:
        x_new = [a - b for a, b in zip(x, substitute(lu, vals))]
        vals_new, res_new = _values_of(f, x_new)
        kept = not reuses or res_new < res
        if kept:
            x, vals, res_old, res = x_new, vals_new, res, res_new
            its += 1
            polish = _POLISH if reuses else 1.0
            # the tolerance is at least ``atol``: a residual below that
            # stops without the scan of x
            if res <= atol * polish:
                break
            tol = max(atol, _ULPS * max(map(abs, x)))
            if res <= tol * polish:
                break
            theta = res / res_old
            if reuses < cap and res_old < math.inf and theta * theta * res <= tol:
                reuses += 1
                continue
        if not passes_left:
            if res > atol and res > _ULPS * max(map(abs, x)):
                raise NewtonDidNotConverge(f"Newton stalled at residual {res:.3e}")
            if not kept:
                # callers read the terms of the last call as the result's
                _values_of(f, x)
            break
        lu, vals = _factored_pass(f, x)
        passes_left -= 1
        reuses, cap = 0, _REUSES_PER_PASS
    return NewtonResult(x, its, res, lu, vals)
