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
doubles the number of equal panels until the secant defect, computed in
floats, is at most 1e-12 (or a few ulps of the storage values, whichever
is larger); it raises :class:`QuadratureNotConverged` if the panel cap is
reached first.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from qsrdg._kernels import dot, norm_sq, value
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
_EPS = np.finfo(float).eps

# the five-point Gauss rule on [0, 1], applied on every panel; Python
# floats, because a numpy scalar times a complex makes a slower numpy
# complex
_GAUSS_NODES, _GAUSS_WEIGHTS = zip(
    *((float(x + 1.0) / 2.0, float(w) / 2.0) for x, w in zip(*leggauss(5)))
)


@dataclass(frozen=True)
class StorageFunction:
    """Scalar storage (energy) function with its gradient map.

    Both callables must follow the generic-scalar contract of
    :mod:`qsrdg.gmath` (accept sequences of floats or complex pass
    scalars, use its functions for transcendentals and ``abs``, branch on
    value parts): Newton differentiates them by complex steps.
    """

    value: Callable
    gradient: Callable
    dim: int


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
    ``|H(z)| + |H(w)| + sum_k |d_k (w_k - z_k)|``, whichever is larger.
    """
    return DiscreteGradientKind("mean-value")


def _gonzalez(storage, z, w, h_at_z):
    mid = [(a + b) * 0.5 for a, b in zip(z, w)]
    g_mid = storage.gradient(mid)
    d = [b - a for a, b in zip(z, w)]
    d_sq = norm_sq(d)
    znorm = math.sqrt(sum(a * a for a in z))
    # closed form blows up as w -> z; inside the guard ball the midpoint
    # gradient alone is consistent
    if value(d_sq) <= (1e-12 * (1.0 + znorm)) ** 2:
        return g_mid
    if h_at_z is None:
        h_at_z = storage.value(z)
    c = (storage.value(w) - h_at_z - dot(g_mid, d)) / d_sq
    return [g + c * dk for g, dk in zip(g_mid, d)]


def _itoh_abe(storage, z, w, h_at_z):
    v = list(z)
    prev = storage.value(v) if h_at_z is None else h_at_z
    out = []
    for k, (zk, wk) in enumerate(zip(z, w)):
        if abs(value(wk) - zk) <= 1e-14 * (1.0 + abs(zk)):
            # 0/0 quotient: partial derivative at the partially-updated point
            out.append(storage.gradient(v)[k])
            v[k] = wk
            prev = storage.value(v)
        else:
            v[k] = wk
            cur = storage.value(v)
            out.append((cur - prev) / (wk - zk))
            prev = cur
    return out


def _composite_gauss(storage, z, w, panels):
    acc = None
    for j in range(panels):
        for x, wx in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
            s = (j + x) / panels
            wq = wx / panels
            pt = [(1.0 - s) * a + s * b for a, b in zip(z, w)]
            g = storage.gradient(pt)
            if acc is None:
                acc = [wq * gi for gi in g]
            else:
                acc = [ai + wq * gi for ai, gi in zip(acc, g)]
    return acc


def _mean_value(storage, z, w, h_at_z):
    w_vals = [value(b) for b in w]
    step = [b - a for a, b in zip(z, w_vals)]
    if h_at_z is None:
        h_at_z = storage.value(z)
    h_at_w = storage.value(w_vals)
    # the panel count is chosen on value parts only, so a Jacobian pass
    # and the float evaluation agree on it; past the first panel it is
    # searched in floats, and a complex ``w`` gets its composite once, at
    # the chosen count
    d = _composite_gauss(storage, z, w, 1)
    panels = 1
    while True:
        terms = [value(dk) * sk for dk, sk in zip(d, step)]
        defect = abs(h_at_w - h_at_z - sum(terms))
        scale = abs(h_at_z) + abs(h_at_w) + sum(abs(t) for t in terms)
        tol = max(_MEAN_VALUE_TOL, _MEAN_VALUE_ULPS * _EPS * scale)
        if defect <= tol:
            break
        if not math.isfinite(defect):
            raise NonFiniteEvaluation(f"mean-value secant defect is {defect!r}")
        if panels >= _MAX_PANELS:
            raise QuadratureNotConverged(
                f"mean-value secant defect {defect:.3e} above {tol:.3e} "
                f"with {panels} panels"
            )
        panels *= 2
        d = _composite_gauss(storage, z, w_vals, panels)
    if panels > 1 and any(isinstance(b, complex) for b in w):
        return _composite_gauss(storage, z, w, panels)
    return d


def _evaluate(kind, storage, z, w, h_at_z=None):
    """Generic-scalar evaluation: ``z`` is float, ``w`` may be complex."""
    if kind.variant == "gonzalez":
        return _gonzalez(storage, z, w, h_at_z)
    if kind.variant == "itoh-abe":
        return _itoh_abe(storage, z, w, h_at_z)
    return _mean_value(storage, z, w, h_at_z)


def discrete_gradient(kind, storage, z, w):
    """Evaluate the discrete gradient of ``storage`` for the pair (z, w)."""
    z = [float(v) for v in z]
    w = [float(v) for v in w]
    return np.array([value(g) for g in _evaluate(kind, storage, z, w)])

