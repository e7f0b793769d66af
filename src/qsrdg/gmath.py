"""Scalar math that accepts floats and Jacobian-pass scalars alike.

System maps that should work under differentiation must be written
against these functions.  On plain floats they defer to :mod:`math`.  On
the ``complex`` scalars of a Jacobian pass they return
``complex(f(x.real), x.imag * f'(x.real))``, so the value part is the
float result bit for bit and the imaginary part carries the tangent.
:mod:`cmath` is never used: its real parts are not the :mod:`math`
values (the real part of ``cmath.atan`` is not ``math.atan``).

    from qsrdg import gmath as gm

    def hamiltonian(z):
        s = gm.sin(0.5 * z[0])
        return 2.0 * 9.81 * s * s + 0.5 * z[1] * z[1]

Maps keep three rules so both kinds of scalar give the same values:

- branch on value parts, ``gm.value(x) > 0``; ordering a pass scalar
  raises ``TypeError``;
- take ``gm.abs(x)``, never the builtin ``abs``, which returns the
  modulus of a complex and so drops the tangent;
- write integer powers of three and more as products, ``x * x * x``: a
  complex power multiplies, so it can differ from the float power in
  the last bit.
"""

import math

from qsrdg._kernels import value

__all__ = [
    "sin", "cos", "tan", "exp", "log", "sqrt",
    "arctan", "sinh", "cosh", "tanh", "abs", "value",
]

_abs = abs


def _lift(f, df):
    """``f`` on floats; on a pass scalar x, ``complex(f(v), x.imag * df(v))``
    with v = x.real."""

    def lifted(x):
        if isinstance(x, complex):
            v = x.real
            return complex(f(v), x.imag * df(v))
        return f(x)

    return lifted


sin = _lift(math.sin, math.cos)
cos = _lift(math.cos, lambda v: -math.sin(v))
# the tan and tanh slopes are 1 + t t and 1 - t t at t = f(v)
tan = _lift(math.tan, lambda v: 1.0 + (t := math.tan(v)) * t)
exp = _lift(math.exp, math.exp)
log = _lift(math.log, lambda v: 1.0 / v)
sqrt = _lift(math.sqrt, lambda v: 0.5 / math.sqrt(v))
arctan = _lift(math.atan, lambda v: 1.0 / (1.0 + v * v))
sinh = _lift(math.sinh, math.cosh)
cosh = _lift(math.cosh, math.sinh)
tanh = _lift(math.tanh, lambda v: 1.0 - (t := math.tanh(v)) * t)


def abs(x):
    """``|x|``; a pass scalar's tangent flips sign where its value is
    negative."""
    if isinstance(x, complex):
        v = x.real
        return complex(_abs(v), -x.imag if v < 0.0 else x.imag)
    return _abs(x)
