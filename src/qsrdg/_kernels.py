"""Kernels: the generic scalar and small dense linear algebra.

Everything here works on *generic scalars*: plain floats, or the
``complex`` numbers of a Jacobian pass, whose imaginary part carries a
tangent scaled by a tiny power of two (see :mod:`qsrdg.numerics`).  So
the same map evaluation code serves both plain propagation and
differentiation, and Python's own complex arithmetic does the work.

Vectors are plain sequences of scalars and matrices are sequences of row
sequences.  numpy arrays of floats are accepted anywhere a sequence is;
the hot loops deliberately avoid numpy because the state dimensions of
interest are tiny (one or two) and per-call array overhead dominates at
that size.  So the dg-qsr residual calls :func:`dot` for every vector
it contracts (dg . dg, A dg, C l, each row of Q with hbar, l . l,
dg . f and, for an undeclared B, each row of B with ubar; see
:mod:`qsrdg.integrators`), and only the sum hbar . Q hbar is written
out, in dot's accumulation order.  A declared B gives B ubar, and a
declared D gives D ubar, once per step.  The balance audit works on a
whole trajectory, so it contracts with numpy over all steps at once, in
the same order.  These pure-Python kernels are the only backend;
``BACKEND`` names it for run records.

Dense solves have one elimination code, in two halves.  :func:`factor`
eliminates a matrix once: it records the pivot row of each step, that
step's multipliers and the rows of U.  :func:`substitute` applies those
factors to a right-hand side: the recorded swaps and multipliers in
elimination order, then back substitution.  ``solve_generic(a, b)`` is
``substitute(factor(a), b)``.  Newton's update and the output gains go
through these two; a caller that solves with one matrix many times keeps
the factors.
"""

from qsrdg.errors import SingularMatrix

__all__ = [
    "BACKEND",
    "Dual",
    "value",
    "dot",
    "matvec",
    "factor",
    "substitute",
    "solve_generic",
]

BACKEND = "pure"

# pivots below this fraction of the largest row max-norm count as singular
_PIVOT_RTOL = 1e-14


# the scalar type a Jacobian pass seeds; the name stays because the layer
# trace of perfbench looks it up to tell Jacobian passes from float ones
Dual = complex


def value(x):
    """Value part of a generic scalar (floats pass through)."""
    return x.real if isinstance(x, complex) else float(x)


# small dense algebra on generic scalars ------------------------------


def dot(x, y):
    # the left fold x0*y0 + x1*y1 + ...; one or two entries skip the loop
    n = len(x)
    if n == 1:
        return x[0] * y[0]
    acc = x[0] * y[0] + x[1] * y[1]
    if n == 2:
        return acc
    for k in range(2, n):
        acc = acc + x[k] * y[k]
    return acc


def matvec(a, x):
    return [dot(row, x) for row in a]


def factor(a):
    """Row-pivoted elimination of a square generic-scalar matrix ``a``.

    Returns ``(pivots, multipliers, rows)``: the row swapped into place at
    each elimination step, the multipliers of that step for the rows below
    it, and the rows of U.  Pivot choice and the singularity test act on
    real parts (``.real``, which floats, ints, complex and numpy scalars
    all have); arithmetic stays generic, so tangents propagate.  Raises
    :class:`SingularMatrix` when a pivot magnitude falls below 1e-14
    times the largest row max-norm of ``a``.
    """
    n = len(a)
    m = [list(row) for row in a]
    limit = _PIVOT_RTOL * max([abs(v.real) for row in m for v in row])
    pivots = []
    multipliers = []
    for k in range(n):
        p = k
        best = abs(m[k][k].real)
        for i in range(k + 1, n):
            cand = abs(m[i][k].real)
            if cand > best:
                best = cand
                p = i
        if best <= limit:
            raise SingularMatrix(f"pivot {best:.3e} below threshold {limit:.3e}")
        if p != k:
            m[k], m[p] = m[p], m[k]
        rk = m[k]
        piv = rk[k]
        cs = []
        for i in range(k + 1, n):
            ri = m[i]
            c = ri[k] / piv
            for j in range(k + 1, n):
                ri[j] = ri[j] - c * rk[j]
            cs.append(c)
        pivots.append(p)
        multipliers.append(cs)
    return pivots, multipliers, m


def substitute(lu, b):
    """Solve with the factors of :func:`factor`: forward elimination of
    ``b`` with the recorded swaps and multipliers, then back
    substitution through U.  Generic scalars throughout."""
    pivots, multipliers, m = lu
    n = len(b)
    x = list(b)
    for k in range(n):
        p = pivots[k]
        if p != k:
            x[k], x[p] = x[p], x[k]
        xk = x[k]
        for i, c in enumerate(multipliers[k], k + 1):
            x[i] = x[i] - c * xk
    for k in range(n - 1, -1, -1):
        acc = x[k]
        rk = m[k]
        for j in range(k + 1, n):
            acc = acc - rk[j] * x[j]
        x[k] = acc / rk[k]
    return x


def solve_generic(a, b):
    """Solve ``a x = b`` for generic scalars (floats or complex):
    ``substitute(factor(a), b)``."""
    return substitute(factor(a), b)
