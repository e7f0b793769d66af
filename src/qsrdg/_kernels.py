"""Kernels: dual scalars and small dense linear algebra.

Everything here works on *generic scalars*: plain floats or :class:`Dual`
numbers carrying a gradient, so the same map evaluation code serves both
plain propagation and forward-mode differentiation.

Vectors are plain sequences of scalars and matrices are sequences of row
sequences.  numpy arrays of floats are accepted anywhere a sequence is;
the hot loops deliberately avoid numpy because the state dimensions of
interest are tiny (one or two) and per-call array overhead dominates at
that size.  These pure-Python kernels are the only backend; ``BACKEND``
names it for run records.
"""

import math

from qsrdg.errors import SingularMatrix

__all__ = [
    "BACKEND",
    "Dual",
    "value",
    "seed_duals",
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


class Dual:
    """A first-order dual number: value plus a gradient tuple.

    Arithmetic propagates derivatives with respect to a fixed set of seed
    directions (the length of ``grad``).  Transcendental functions are
    provided as methods under their numpy ufunc names so object arrays
    dispatch to them, and so :mod:`qsrdg.gmath` can route generically.

    Value parts are computed exactly as the float operation would, so a
    map evaluated on duals returns the same value bits as on floats.
    Every gradient comes from one of two kernels, :func:`_scale` or
    :func:`_axpby`.  Binary operations on two duals raise
    :class:`ValueError` when the gradient lengths differ.
    """

    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Dual({self.val!r}, {self.grad!r})"

    # arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val + other.val, _axpby(self.grad, other.grad, 1.0, 1.0)
            )
        return Dual(self.val + other, self.grad)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(
                self.val - other.val, _axpby(self.grad, other.grad, 1.0, -1.0)
            )
        return Dual(self.val - other, self.grad)

    def __rsub__(self, other):
        return Dual(other - self.val, _scale(self.grad, -1.0))

    def __mul__(self, other):
        if isinstance(other, Dual):
            va, vb = self.val, other.val
            return Dual(va * vb, _axpby(self.grad, other.grad, vb, va))
        return Dual(self.val * other, _scale(self.grad, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        # the value must match float division bit for bit; the gradient
        # needs no such match and uses the reciprocal
        if isinstance(other, Dual):
            inv = 1.0 / other.val
            q = self.val / other.val
            return Dual(q, _axpby(self.grad, other.grad, inv, -q * inv))
        return Dual(self.val / other, _scale(self.grad, 1.0 / other))

    def __rtruediv__(self, other):
        inv = 1.0 / self.val
        q = other / self.val
        return Dual(q, _scale(self.grad, -q * inv))

    def __pow__(self, p):
        if isinstance(p, Dual):
            return (p * self.log()).exp()
        return Dual(self.val**p, _scale(self.grad, p * self.val ** (p - 1)))

    def __rpow__(self, base):
        v = base**self.val
        return Dual(v, _scale(self.grad, v * math.log(base)))

    def __neg__(self):
        return Dual(-self.val, _scale(self.grad, -1.0))

    def __pos__(self):
        return self

    def __abs__(self):
        s = -1.0 if self.val < 0.0 else 1.0
        return Dual(abs(self.val), _scale(self.grad, s))

    # comparisons act on the value part, which is what branch guards need

    def __lt__(self, other):
        return self.val < _other_val(other)

    def __le__(self, other):
        return self.val <= _other_val(other)

    def __gt__(self, other):
        return self.val > _other_val(other)

    def __ge__(self, other):
        return self.val >= _other_val(other)

    def __eq__(self, other):
        return self.val == _other_val(other)

    def __ne__(self, other):
        return self.val != _other_val(other)

    __hash__ = None

    def __float__(self):
        raise TypeError(
            "refusing to drop the gradient of a Dual; use .val explicitly"
        )

    # transcendentals (numpy ufunc method names) ----------------------

    def sin(self):
        return Dual(math.sin(self.val), _scale(self.grad, math.cos(self.val)))

    def cos(self):
        return Dual(math.cos(self.val), _scale(self.grad, -math.sin(self.val)))

    def tan(self):
        t = math.tan(self.val)
        return Dual(t, _scale(self.grad, 1.0 + t * t))

    def exp(self):
        v = math.exp(self.val)
        return Dual(v, _scale(self.grad, v))

    def log(self):
        return Dual(math.log(self.val), _scale(self.grad, 1.0 / self.val))

    def sqrt(self):
        v = math.sqrt(self.val)
        return Dual(v, _scale(self.grad, 0.5 / v))

    def arctan(self):
        c = 1.0 / (1.0 + self.val * self.val)
        return Dual(math.atan(self.val), _scale(self.grad, c))

    def sinh(self):
        return Dual(math.sinh(self.val), _scale(self.grad, math.cosh(self.val)))

    def cosh(self):
        return Dual(math.cosh(self.val), _scale(self.grad, math.sinh(self.val)))

    def tanh(self):
        t = math.tanh(self.val)
        return Dual(t, _scale(self.grad, 1.0 - t * t))


# gradient kernels: the one- and two-entry tangents of the states of
# interest are written out, which is several times cheaper than building
# a tuple from a comprehension; longer tangents take the generic path


def _scale(g, c):
    """The gradient ``c * g``."""
    n = len(g)
    if n == 1:
        return (c * g[0],)
    if n == 2:
        return (c * g[0], c * g[1])
    return tuple([c * x for x in g])


def _axpby(ga, gb, a, b):
    """The gradient ``a * ga + b * gb``; the lengths must agree."""
    n = len(ga)
    if n != len(gb):
        raise _length_mismatch(ga, gb)
    if n == 1:
        return (a * ga[0] + b * gb[0],)
    if n == 2:
        return (a * ga[0] + b * gb[0], a * ga[1] + b * gb[1])
    return tuple([a * x + b * y for x, y in zip(ga, gb)])


def _length_mismatch(ga, gb):
    return ValueError(f"gradient lengths differ: {len(ga)} and {len(gb)}")


def _other_val(other):
    return other.val if isinstance(other, Dual) else other


def value(x):
    """Value part of a generic scalar (floats pass through)."""
    return x.val if isinstance(x, Dual) else float(x)


def seed_duals(values):
    """Identity-seeded duals for the entries of ``values``.

    Entry ``k`` of the result carries gradient ``e_k``, so evaluating a map
    on the result yields its value and full Jacobian in one pass.
    """
    vals = [float(v) for v in values]
    n = len(vals)
    return [
        Dual(v, tuple(1.0 if j == k else 0.0 for j in range(n)))
        for k, v in enumerate(vals)
    ]


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
    """Row-pivoted elimination for generic scalars (floats or duals).

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
