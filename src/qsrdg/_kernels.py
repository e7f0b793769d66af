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
that size.  These pure-Python kernels are the only backend; ``BACKEND``
names it for run records.
"""

from qsrdg.errors import SingularMatrix

__all__ = [
    "BACKEND",
    "Dual",
    "value",
    "dot",
    "norm_sq",
    "matvec",
    "tmatvec",
    "lu_solve",
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
    acc = x[0] * y[0]
    for k in range(1, len(x)):
        acc = acc + x[k] * y[k]
    return acc


def norm_sq(x):
    return dot(x, x)


def matvec(a, x):
    return [dot(row, x) for row in a]


def tmatvec(a, x):
    """Transpose matrix-vector product ``a^T x``."""
    cols = len(a[0])
    out = []
    for j in range(cols):
        acc = a[0][j] * x[0]
        for i in range(1, len(a)):
            acc = acc + a[i][j] * x[i]
        out.append(acc)
    return out


def lu_solve(a, b):
    """Solve ``a x = b`` for float data by row-pivoted elimination.

    Raises :class:`SingularMatrix` when a pivot magnitude falls below
    1e-14 times the largest row max-norm of ``a``.
    """
    n = len(b)
    m = [[float(v) for v in row] for row in a]
    x = [float(v) for v in b]
    limit = _PIVOT_RTOL * max(max(abs(v) for v in row) for row in m)
    for k in range(n):
        p = k
        best = abs(m[k][k])
        for i in range(k + 1, n):
            cand = abs(m[i][k])
            if cand > best:
                best = cand
                p = i
        if best <= limit:
            raise SingularMatrix(f"pivot {best:.3e} below threshold {limit:.3e}")
        if p != k:
            m[k], m[p] = m[p], m[k]
            x[k], x[p] = x[p], x[k]
        rk = m[k]
        inv = 1.0 / rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            c = ri[k] * inv
            if c != 0.0:
                for j in range(k + 1, n):
                    ri[j] -= c * rk[j]
                x[i] -= c * x[k]
    for k in range(n - 1, -1, -1):
        acc = x[k]
        rk = m[k]
        for j in range(k + 1, n):
            acc -= rk[j] * x[j]
        x[k] = acc / rk[k]
    return x


def solve_generic(a, b):
    """Row-pivoted elimination for generic scalars (floats or complex).

    Pivot choice and the singularity test act on value parts; arithmetic
    stays generic so gradients propagate through the solve.
    """
    n = len(b)
    m = [list(row) for row in a]
    x = list(b)
    limit = _PIVOT_RTOL * max(max(abs(value(v)) for v in row) for row in m)
    for k in range(n):
        p = k
        best = abs(value(m[k][k]))
        for i in range(k + 1, n):
            cand = abs(value(m[i][k]))
            if cand > best:
                best = cand
                p = i
        if best <= limit:
            raise SingularMatrix(f"pivot {best:.3e} below threshold {limit:.3e}")
        if p != k:
            m[k], m[p] = m[p], m[k]
            x[k], x[p] = x[p], x[k]
        rk = m[k]
        piv = rk[k]
        for i in range(k + 1, n):
            ri = m[i]
            c = ri[k] / piv
            for j in range(k + 1, n):
                ri[j] = ri[j] - c * rk[j]
            x[i] = x[i] - c * x[k]
    for k in range(n - 1, -1, -1):
        acc = x[k]
        rk = m[k]
        for j in range(k + 1, n):
            acc = acc - rk[j] * x[j]
        x[k] = acc / rk[k]
    return x
