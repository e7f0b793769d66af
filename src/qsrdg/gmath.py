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


def sin(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.sin(v), x.imag * math.cos(v))
    return math.sin(x)


def cos(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.cos(v), x.imag * -math.sin(v))
    return math.cos(x)


def tan(x):
    if isinstance(x, complex):
        t = math.tan(x.real)
        return complex(t, x.imag * (1.0 + t * t))
    return math.tan(x)


def exp(x):
    if isinstance(x, complex):
        e = math.exp(x.real)
        return complex(e, x.imag * e)
    return math.exp(x)


def log(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.log(v), x.imag * (1.0 / v))
    return math.log(x)


def sqrt(x):
    if isinstance(x, complex):
        r = math.sqrt(x.real)
        return complex(r, x.imag * (0.5 / r))
    return math.sqrt(x)


def arctan(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.atan(v), x.imag * (1.0 / (1.0 + v * v)))
    return math.atan(x)


def sinh(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.sinh(v), x.imag * math.cosh(v))
    return math.sinh(x)


def cosh(x):
    if isinstance(x, complex):
        v = x.real
        return complex(math.cosh(v), x.imag * math.sinh(v))
    return math.cosh(x)


def tanh(x):
    if isinstance(x, complex):
        t = math.tanh(x.real)
        return complex(t, x.imag * (1.0 - t * t))
    return math.tanh(x)


def abs(x):
    """``|x|``; a pass scalar's tangent flips sign where its value is
    negative."""
    if isinstance(x, complex):
        v = x.real
        return complex(_abs(v), -x.imag if v < 0.0 else x.imag)
    return _abs(x)
