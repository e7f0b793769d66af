"""Continuous algebraic Riccati equation via Newton-Kleinman iteration.

Solves ``A^T P + P A - P B B^T P + C^T C = 0`` for the stabilizing
symmetric solution.  Each Newton step is a Lyapunov equation solved by
vectorization (an n^2 x n^2 dense system), which is perfectly adequate at
the state dimensions this package targets.
"""

import numpy as np

from qsrdg.errors import AreNotConverged, NotStabilizing
from qsrdg.numerics import solve_dense

__all__ = ["solve_are", "lyapunov_solve", "stabilizing_gain"]

# residual tolerance and round cap of the Newton-Kleinman iteration
_TOL = 1e-12
_MAX_ROUNDS = 100


def lyapunov_solve(a_cl, rhs):
    """Solve ``a_cl^T P + P a_cl = rhs`` by vectorization."""
    n = a_cl.shape[0]
    eye = np.eye(n)
    k = np.kron(a_cl.T, eye) + np.kron(eye, a_cl.T)
    return solve_dense(k, rhs.reshape(-1)).reshape(n, n)


def _is_hurwitz(mat):
    return bool(np.max(np.linalg.eigvals(mat).real) < 0.0)


def stabilizing_gain(a, b):
    """Scan a coarse gain grid for K with A - B K Hurwitz.

    Tries K = alpha * B^T over sign-symmetric powers of two scaled by the
    size of A.  Raises :class:`NotStabilizing` when the scan is exhausted.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    base = 1.0 + float(np.linalg.norm(a))
    candidates = [0.0]
    for k in range(-2, 10):
        candidates.extend((base * 2.0**k, -base * 2.0**k))
    for alpha in candidates:
        gain = alpha * b.T
        if _is_hurwitz(a - b @ gain):
            return gain
    raise NotStabilizing("no stabilizing gain on the scan grid")


def _residual_norm(a, b, c, p):
    res = a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c
    return float(np.linalg.norm(res))


def solve_are(a, b, c):
    """Stabilizing solution of the Riccati equation for (A, B, C).

    Newton-Kleinman starts from the gain :func:`stabilizing_gain` finds;
    iterates are symmetrized each round.  Raises :class:`AreNotConverged`
    when the residual is still above 1e-12 after 100 rounds and
    :class:`NotStabilizing` when no starting gain is found or the
    resulting closed loop is not Hurwitz.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    gain = stabilizing_gain(a, b)
    for _ in range(_MAX_ROUNDS):
        a_cl = a - b @ gain
        rhs = -(c.T @ c + gain.T @ gain)
        p = lyapunov_solve(a_cl, rhs)
        p = 0.5 * (p + p.T)
        gain = b.T @ p
        if _residual_norm(a, b, c, p) <= _TOL:
            break
    else:
        raise AreNotConverged(
            f"residual {_residual_norm(a, b, c, p):.3e} after {_MAX_ROUNDS} rounds"
        )
    if not _is_hurwitz(a - b @ b.T @ p):
        raise NotStabilizing("converged iterate is not stabilizing")
    return p
