"""Continuous algebraic Riccati equation via the matrix sign function.

Solves ``A^T P + P A - P B B^T P + C^T C = 0`` for the stabilizing
symmetric solution.  ``[I; P]`` spans the stable invariant subspace of
the Hamiltonian ``H = [[A, -B B^T], [-C^T C, -A^T]]``, the null space of
``W + I`` for ``W = sign(H)`` (Roberts 1980; Byers 1987).  numpy has no
Schur decomposition, and unlike an eigenvector solve of ``H`` the sign
method keeps the residual at the size of ``C^T C``.
"""

import numpy as np

from qsrdg.errors import AreNotConverged, NotStabilizing

__all__ = ["solve_are"]

# relative-change tolerance and round cap of the sign iteration
_TOL = 1e-13
_MAX_ROUNDS = 100


def _sign(z):
    """sign(z) by Newton's iteration Z <- (g Z + Z^-1 / g) / 2 with the
    determinant scaling g = |det Z|^(-1/N), N the order of z."""
    for _ in range(_MAX_ROUNDS):
        try:
            z_inv = np.linalg.inv(z)
        except np.linalg.LinAlgError as exc:
            msg = "singular sign iterate: H has an imaginary-axis eigenvalue"
            raise NotStabilizing(msg) from exc
        gamma = np.exp(-np.linalg.slogdet(z)[1] / z.shape[0])
        z_next = 0.5 * (gamma * z + z_inv / gamma)
        if not np.all(np.isfinite(z_next)):
            raise NotStabilizing("non-finite sign iterate")
        converged = np.linalg.norm(z_next - z) <= _TOL * np.linalg.norm(z_next)
        z = z_next
        if converged:
            return z
    raise AreNotConverged(f"sign iteration still moving after {_MAX_ROUNDS} rounds")


def solve_are(a, b, c):
    """Stabilizing solution of the Riccati equation for (A, B, C).

    P is the least-squares solution of ``[W12; W22 + I] P = -[W11 + I; W21]``,
    symmetrized.  Raises ``ValueError`` for non-finite entries or
    mismatched shapes, :class:`AreNotConverged` when the sign iteration
    misses its stop test within 100 rounds, and :class:`NotStabilizing` when an iterate is
    singular or non-finite or A - B B^T P is not Hurwitz (an
    unstabilizable pair gets that far).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    for name, mat in (("A", a), ("B", b), ("C", c)):
        if not np.all(np.isfinite(mat)):
            raise ValueError(f"{name} has non-finite entries")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("A must be square")
    n = a.shape[0]
    if b.ndim != 2 or b.shape[0] != n or c.ndim != 2 or c.shape[1] != n:
        raise ValueError(
            f"A {a.shape} needs B with {n} rows and C with {n} columns; "
            f"got B {b.shape}, C {c.shape}"
        )
    w = _sign(np.block([[a, -b @ b.T], [-c.T @ c, -a.T]]))
    eye = np.eye(n)
    lhs = np.vstack([w[:n, n:], w[n:, n:] + eye])
    rhs = -np.vstack([w[:n, :n] + eye, w[n:, :n]])
    p = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
    p = 0.5 * (p + p.T)
    if not np.max(np.linalg.eigvals(a - b @ b.T @ p).real) < 0.0:
        raise NotStabilizing("converged iterate is not stabilizing")
    return p
