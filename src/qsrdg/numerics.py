"""Dense solves and Newton iteration.

The implicit steppers funnel through :func:`newton_solve`, so the residual
maps they hand over must follow the generic-scalar contract: accept a
sequence of scalars (floats or :class:`qsrdg._kernels.Dual`) and return a
sequence of scalars built only from arithmetic and :mod:`qsrdg.gmath`
calls.  That is what lets one dual evaluation produce value and Jacobian
together.

Newton makes one Jacobian pass (a dual evaluation) per update and one
float evaluation of the residual at each new iterate.  It stops on that
float residual, so no Jacobian is ever computed only to confirm
convergence: a converged step costs as many Jacobian passes as it made
updates, or one when the start already meets the tolerance.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from qsrdg._kernels import Dual, lu_solve, seed_duals, value
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
    vals = []
    for comp in out:
        v = value(comp)
        if not math.isfinite(v):
            raise NonFiniteEvaluation(f"map produced {v!r}")
        vals.append(v)
    return vals


def _jacobian_with_values(f, x):
    """Jacobian rows and map values at ``x`` (a list of floats), from one
    dual pass."""
    n = len(x)
    vals = []
    rows = []
    for comp in f(seed_duals(x)):
        if isinstance(comp, Dual):
            vals.append(comp.val)
            rows.append(list(comp.grad))
        else:
            # component did not depend on the input at all
            vals.append(float(comp))
            rows.append([0.0] * n)
    for v, row in zip(vals, rows):
        if not math.isfinite(v) or not all(map(math.isfinite, row)):
            raise NonFiniteEvaluation("non-finite value or derivative")
    return rows, vals


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

    The pass pattern: one dual pass, giving values and Jacobian, at
    ``x0``; after each update, ``F`` is evaluated in floats only, and a
    further dual pass is taken only while that float residual is above
    ``residual_tolerance``.  So ``f`` sees one dual pass per update (one
    in all when ``x0`` already converges, which reports zero iterations)
    and one float call per update.  The last call to ``f`` is always at
    the returned iterate: the dual pass at ``x0`` after zero updates,
    else the float call after the last update.  After ``max_iterations``
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

