"""Discrete gradients: two-point surrogates for the storage gradient.

A discrete gradient of a storage function H is a map (z, w) -> d with

    H(w) - H(z) = d . (w - z)        (mean value property)
    d(z, z) = grad H(z)              (consistency)

Three constructions are provided.  Gonzalez evaluates the gradient at the
midpoint and adds a rank-one correction along w - z, which enforces the
mean value property exactly.  Itoh-Abe telescopes coordinate-wise
difference quotients (exact as well, but not symmetric in z and w).  The
mean-value kind integrates the gradient along the segment by composite
five-point Gauss-Legendre quadrature.  It starts from one panel and
doubles the number of equal panels until the secant defect is at most
1e-12 (or a few ulps of the magnitudes entering it, whichever is larger);
it raises :class:`QuadratureNotConverged` if the panel cap is reached
first.  The search runs on the scalars it is given, floats or the complex
scalars of a Jacobian pass, and tests the defect on value parts, so both
choose the same panel count.

All three take H(w) - H(z) from the storage's ``difference``, never as a
difference of two values: that one cancels as w -> z, and the quotients
divide it by |w - z|.  So an increment is special only when it is exactly
zero.

The five-point rule is symmetric: nodes s and 1 - s share a weight, and
the centre node is 1/2.  The composite forms delta = w - z once per call
and pairs the nodes.  On a panel the two lower nodes and the centre are
z + s delta, the two upper ones w - r delta with r their distance from w,
and the panel adds W0 (g0 + g4) + W1 (g1 + g3) + W2 g2.  On one panel the
points are z + s delta, w - s delta and z + delta / 2.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qsrdg._kernels import dot, value
from qsrdg.errors import NonFiniteEvaluation, QuadratureNotConverged

__all__ = [
    "StorageFunction",
    "DiscreteGradientKind",
    "GONZALEZ",
    "ITOH_ABE",
    "mean_value",
    "discrete_gradient",
]

_VARIANTS = ("gonzalez", "itoh-abe", "mean-value")

# secant tolerance of the mean-value kind, its rounding floor in ulps of
# the magnitudes entering the defect, and the panel cap
_MEAN_VALUE_TOL = 1e-12
_MEAN_VALUE_ULPS = 8.0
_MAX_PANELS = 1024
_ULP_FLOOR = _MEAN_VALUE_ULPS * float(np.finfo(float).eps)

# the five-point Gauss rule on [0, 1], applied on every panel: the
# floats of numpy's leggauss(5) mapped by (x + 1) / 2 and w / 2, written
# out so that importing this module does not load numpy.polynomial.
# Python floats, because a numpy scalar times a complex makes a slower
# numpy complex
_GAUSS_NODES = (
    0.04691007703066802, 0.23076534494715845, 0.5, 0.7692346550528415,
    0.9530899229693319,
)
_GAUSS_WEIGHTS = (
    0.11846344252809464, 0.23931433524968315, 0.28444444444444433,
    0.23931433524968315, 0.11846344252809464,
)
# the lower half of the symmetric rule: s_q = 1 - s_(4-q), W_q = W_(4-q)
_S0, _S1 = _GAUSS_NODES[:2]
_W0, _W1, _W2 = _GAUSS_WEIGHTS[:3]


@dataclass(frozen=True)
class StorageFunction:
    """Scalar storage (energy) function with its gradient map and its
    differences.

    ``difference(a, b)`` is H(b) - H(a), accurate relative to its own
    result, not to |H|: a closed form that does not cancel as b -> a (for
    1 - cos q, 2 sin((q_b - q_a)/2) sin((q_b + q_a)/2)).  The discrete
    gradients divide it by increments down to rounding size and never
    subtract two values.  ``value`` serves the balance audit
    (:func:`qsrdg.integrators.discrete_power_balance_residuals`), which
    subtracts two values and so checks ``difference`` independently, to
    about eps (|H(a)| + |H(b)|).

    All three callables must follow the generic-scalar contract of
    :mod:`qsrdg.gmath` (accept sequences of floats or complex pass
    scalars, use its functions for transcendentals and ``abs``, branch on
    value parts): Newton differentiates them by complex steps.
    """

    value: Callable
    gradient: Callable
    dim: int
    difference: Callable


@dataclass(frozen=True)
class DiscreteGradientKind:
    variant: str

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown discrete gradient variant {self.variant!r}")


GONZALEZ = DiscreteGradientKind("gonzalez")
ITOH_ABE = DiscreteGradientKind("itoh-abe")


def mean_value():
    """Mean-value kind with a five-point Gauss-Legendre rule per panel.

    The panel count doubles from one until the secant defect
    ``|H(w) - H(z) - d.(w - z)|`` is at most 1e-12 or a few ulps of
    ``|H(w) - H(z)| + sum_k |d_k (w_k - z_k)|``, whichever is larger.
    """
    return DiscreteGradientKind("mean-value")


def _gonzalez(storage, z, w, mid):
    g_mid = storage.gradient(mid)
    d = [b - a for a, b in zip(z, w)]
    d_sq = dot(d, d)
    if d_sq.real == 0.0:
        return g_mid
    c = (storage.difference(z, w) - dot(g_mid, d)) / d_sq
    return [g + c * dk for g, dk in zip(g_mid, d)]


def _itoh_abe(storage, z, w):
    v = list(z)
    out = []
    for k, (zk, wk) in enumerate(zip(z, w)):
        if wk.real == zk:
            # 0/0 quotient: partial derivative at the partially-updated point
            out.append(storage.gradient(v)[k])
            v[k] = wk
        else:
            prev = list(v)
            v[k] = wk
            out.append(storage.difference(prev, v) / (wk - zk))
    return out


def _panel(gradient, z, w, delta, lo, hi, panels):
    """``W0 (g0 + g4) + W1 (g1 + g3) + W2 g2`` over the nodes of the panel
    ``lo`` panels from ``z`` and ``hi`` panels from ``w``: the lower ones
    and the centre at ``z + s delta``, the upper ones at ``w - r delta``
    with r their distance from ``w``, built coordinate by coordinate."""
    s0, s1, sc = (lo + _S0) / panels, (lo + _S1) / panels, (lo + 0.5) / panels
    r0, r1 = (hi + _S0) / panels, (hi + _S1) / panels
    p0, p1, p2, p3, p4 = zip(
        *[
            (a + s0 * dk, a + s1 * dk, a + sc * dk, b - r1 * dk, b - r0 * dk)
            for a, b, dk in zip(z, w, delta)
        ]
    )
    g0, g1, g2 = gradient(p0), gradient(p1), gradient(p2)
    g3, g4 = gradient(p3), gradient(p4)
    return [
        _W0 * (a + e) + _W1 * (b + d) + _W2 * c
        for a, b, c, d, e in zip(g0, g1, g2, g3, g4)
    ]


def _composite_gauss(storage, z, w, delta, panels):
    """Composite five-point Gauss mean of grad H on the segment from ``z``
    to ``w``, with ``delta = w - z``, over ``panels`` equal panels (a power
    of two, so the closing division is exact)."""
    if panels == 1:
        return _panel(storage.gradient, z, w, delta, 0, 0, 1)
    parts = [
        _panel(storage.gradient, z, w, delta, j, panels - 1 - j, panels)
        for j in range(panels)
    ]
    return [sum(col) / panels for col in zip(*parts)]


def _mean_value(storage, z, w):
    # ``.real`` is the value part of floats and complex pass scalars
    # alike; a pass's value parts are the float results bit for bit, so a
    # Jacobian pass and the float evaluation choose the same panel count
    delta = [b - a for a, b in zip(z, w)]
    dh = storage.difference(z, w).real
    panels = 1
    while True:
        d = _composite_gauss(storage, z, w, delta, panels)
        terms = [dk.real * sk.real for dk, sk in zip(d, delta)]
        defect = abs(dh - sum(terms))
        # the tolerance is the larger of the two, so meeting the fixed one
        # settles it without the rounding floor
        if defect <= _MEAN_VALUE_TOL:
            return d
        scale = abs(dh) + sum(abs(t) for t in terms)
        tol = max(_MEAN_VALUE_TOL, _ULP_FLOOR * scale)
        if defect <= tol:
            return d
        if not math.isfinite(defect):
            raise NonFiniteEvaluation(f"mean-value secant defect is {defect!r}")
        if panels >= _MAX_PANELS:
            raise QuadratureNotConverged(
                f"mean-value secant defect {defect:.3e} above {tol:.3e} "
                f"with {panels} panels"
            )
        panels *= 2


def _evaluate(kind, storage, z, w, mid):
    """Generic-scalar evaluation: ``z`` is float, ``w`` may be complex.

    ``mid`` is the midpoint (z + w) / 2, which every caller already has;
    only Gonzalez reads it.
    """
    if kind.variant == "gonzalez":
        return _gonzalez(storage, z, w, mid)
    if kind.variant == "itoh-abe":
        return _itoh_abe(storage, z, w)
    return _mean_value(storage, z, w)


def discrete_gradient(kind, storage, z, w):
    """Evaluate the discrete gradient of ``storage`` for the pair (z, w)."""
    z = [float(v) for v in z]
    w = [float(v) for v in w]
    if len(z) != storage.dim or len(w) != storage.dim:
        raise ValueError(f"storage dim {storage.dim}; len(z) {len(z)}, len(w) {len(w)}")
    mid = [(a + b) * 0.5 for a, b in zip(z, w)]
    d = _evaluate(kind, storage, z, w, mid)
    return np.array([value(g) for g in d])

