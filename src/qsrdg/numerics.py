"""Dense solves and Newton iteration.

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

Newton makes one Jacobian pass per update and one float evaluation of
the residual at each new iterate.  It stops on that float residual, so
no Jacobian is ever computed only to confirm convergence: a converged
step costs as many Jacobian passes as it made updates, or one when the
start already meets the tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from qsrdg._kernels import lu_solve
from qsrdg.errors import NonFiniteEvaluation, SingularMatrix

__all__ = [
    "solve_dense",
    "NewtonSettings",
    "NewtonResult",
    "newton_solve",
    "SingularMatrix",
    "NonFiniteEvaluation",
]


def solve_dense(a, b):
    """Solve the square system ``a x = b`` by row-pivoted elimination.

    Raises :class:`SingularMatrix` when a pivot magnitude falls below
    1e-14 relative to the largest row max-norm.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")
    return np.array(lu_solve(a.tolist(), b.tolist()))


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
    """Iteration cap and residual tolerance for Newton."""

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


def _norm(vals):
    return math.sqrt(sum(v * v for v in vals))


def newton_solve(
    f: Callable[[Sequence], Sequence],
    x0,
    settings: NewtonSettings = NewtonSettings(),
) -> NewtonResult:
    """Newton's method ``x <- x - J(x)^{-1} F(x)`` on a square system.

    The pass pattern: one Jacobian pass, giving values and Jacobian, at
    ``x0``; after each update, ``F`` is evaluated in floats only, and a
    further Jacobian pass is taken only while that float residual is
    above ``residual_tolerance``.  So ``f`` sees one Jacobian pass (n
    complex calls) per update (one pass in all when ``x0`` already
    converges, which reports zero iterations) and one float call per
    update.  The last call to ``f`` is always at the returned iterate:
    the last call of the Jacobian pass at ``x0`` after zero updates, else
    the float call after the last update.  After ``max_iterations``
    updates the last iterate is returned with its float residual.
    Non-convergence is not an error here; callers decide.
    """
    x = [float(v) for v in x0]
    rows, vals = _jacobian_with_values(f, x)
    res = _norm(vals)
    its = 0
    while res > settings.residual_tolerance and its < settings.max_iterations:
        if its:
            rows, vals = _jacobian_with_values(f, x)
        dx = lu_solve(rows, vals)
        x = [a - b for a, b in zip(x, dx)]
        its += 1
        vals = _values_of(f(x))
        res = _norm(vals)
    return NewtonResult(np.array(x), its, res)

