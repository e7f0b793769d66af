"""Input-state-output systems with a quadratic supply rate.

The class of systems handled here is

    dz/dt = f(z) + B(z) u,        y = h(z) + D(z) u,

together with a storage function H and a supply rate

    s(u, y) = y^T Q y + 2 y^T S u + u^T R u.

Dissipativity is encoded pointwise through a factorized dissipation
signal l(z) + W(z) u whose squared norm is the dissipation rate; the
three structure identities tying (f, B, h, D) to (H, Q, S, R, l, W) are
checked by :func:`hill_moylan_residual`.  Systems satisfying them obey
the power balance dH/dt = s(u, y) - ||l + W u||^2 along solutions, which
is the identity the discrete scheme reproduces exactly.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qsrdg.dgradients import StorageFunction

__all__ = [
    "ConstantMap",
    "SupplyRate",
    "QsrSystem",
    "supply_value",
    "dissipation_rate",
    "hill_moylan_residual",
    "continuous_power_balance_residual",
]


@dataclass(frozen=True)
class SupplyRate:
    """Quadratic supply rate weights; all finite, q and r symmetric."""

    q: np.ndarray
    s: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        for name in ("q", "s", "r"):
            mat = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            object.__setattr__(self, name, mat)
        m = self.q.shape[0]
        for name in ("q", "s", "r"):
            mat = getattr(self, name)
            if mat.shape != (m, m):
                raise ValueError(f"{name} must be {m}x{m}, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} has non-finite entries")
        for name in ("q", "r"):
            mat = getattr(self, name)
            if np.max(np.abs(mat - mat.T), initial=0.0) > 1e-12:
                raise ValueError(f"{name} must be symmetric")

    @property
    def m(self):
        return self.q.shape[0]


class ConstantMap:
    """A matrix-valued map that does not depend on the state, given as data.

    ``rows`` becomes a tuple of row tuples of floats, and calling the map
    at any state returns it, so a ``ConstantMap`` serves wherever a map is
    called.  Declared as the ``input_map``, ``feedthrough`` or
    ``loss_input`` of a :class:`QsrSystem`, it is checked when the system
    is built, and the integrators read its rows instead of calling it.
    It is a plain class because a dataclass generates its methods when
    the package is imported, which the benchmark's set-up time counts.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        # an array converts faster through its own tolist
        if isinstance(rows, np.ndarray):
            rows = rows.tolist()
        self.rows = tuple(tuple(map(float, row)) for row in rows)

    def __call__(self, z):
        return self.rows

    def __repr__(self):
        return f"ConstantMap({self.rows!r})"


@dataclass(frozen=True)
class QsrSystem:
    """A QSR-dissipative system given by its maps and structure data.

    All maps take a state sequence and return lists (matrices as lists of
    rows): ``drift`` is f, ``input_map`` is B (n x m), ``output_map`` is
    h, ``feedthrough`` is D (m x m), ``loss_state`` is l (length p) and
    ``loss_input`` is W (p x m).  ``storage`` supplies H and its
    gradient.  Maps must follow the generic-scalar contract of
    :mod:`qsrdg.gmath`, because Newton differentiates them by complex
    steps.

    A B, D or W that does not depend on the state is best declared as
    data, ``input_map=ConstantMap(((0.0,), (1.0,)))``: the system then
    checks its shape and finiteness here, raising ``ValueError`` naming
    the map, and a dg-qsr run whose B, D and W are all declared forms its
    output gains once per run instead of on every residual call (see
    :mod:`qsrdg.integrators`).  A plain function returning the same rows
    gives the same run, only slower.
    """

    storage: StorageFunction
    supply: SupplyRate
    drift: Callable
    input_map: Callable
    output_map: Callable
    feedthrough: Callable
    loss_state: Callable
    loss_input: Callable

    def __post_init__(self):
        n, m = self.n, self.m
        # W may have any number p of rows
        for name, shape in (
            ("input_map", (n, m)), ("feedthrough", (m, m)), ("loss_input", ("p", m))
        ):
            f = getattr(self, name)
            if isinstance(f, ConstantMap):
                _check_rows(name, f.rows, shape)

    @property
    def n(self):
        """State dimension, the storage's."""
        return self.storage.dim

    @property
    def m(self):
        """Input and output dimension, the supply rate's."""
        return self.supply.m


def _check_rows(name, rows, expected):
    """Raise ``ValueError`` naming the declared map ``name`` unless its
    ``rows`` are finite and of the ``expected`` shape, whose row count
    "p" stands for any positive number."""
    lengths = {len(row) for row in rows}
    if len(lengths) > 1:
        raise ValueError(f"{name} has ragged rows of lengths {sorted(lengths)}")
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError(f"{name} has non-finite entries")
    shape = (len(rows), *lengths)
    p, m = expected
    if shape != (shape[0] if p == "p" else p, m):
        raise ValueError(f"{name} has shape {shape}, expected ({p}, {m})")


def supply_value(supply, u, y):
    """Evaluate ``y^T Q y + 2 y^T S u + u^T R u``.

    Scalars and vectors give a float.  Stacked rows (``u`` and ``y`` of
    shape ``(k, m)``) give an array of the ``k`` row-wise values.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if u.ndim == 1 and y.ndim == 1:
        return float(y @ supply.q @ y + 2.0 * (y @ supply.s @ u) + u @ supply.r @ u)
    out = (
        np.einsum("...i,ij,...j->...", y, supply.q, y)
        + 2.0 * np.einsum("...i,ij,...j->...", y, supply.s, u)
        + np.einsum("...i,ij,...j->...", u, supply.r, u)
    )
    return out


def dissipation_rate(system, z, u):
    """Instantaneous dissipation ``||l(z) + W(z) u||^2`` (nonnegative)."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lv = np.asarray(system.loss_state(z), dtype=float)
    wv = np.asarray(system.loss_input(z), dtype=float)
    sig = lv + wv @ u
    return float(sig @ sig)


def hill_moylan_residual(system, z):
    """Residuals (r1, r2, r3) of the three structure identities at ``z``.

    r1: gradient/drift identity, r2: input/output identity (vector norm),
    r3: feedthrough/dissipation identity (Frobenius norm).  All three
    vanish for an exactly dissipative realization.
    """
    z = np.asarray(z, dtype=float)
    q, s, r = system.supply.q, system.supply.s, system.supply.r
    eta = np.asarray(system.storage.gradient(z), dtype=float)
    fv = np.asarray(system.drift(z), dtype=float)
    bv = np.asarray(system.input_map(z), dtype=float)
    hv = np.atleast_1d(np.asarray(system.output_map(z), dtype=float))
    dv = np.asarray(system.feedthrough(z), dtype=float)
    lv = np.asarray(system.loss_state(z), dtype=float)
    wv = np.asarray(system.loss_input(z), dtype=float)

    r1 = abs(float(eta @ fv) - float(hv @ q @ hv) + float(lv @ lv))
    r2 = float(
        np.linalg.norm(0.5 * (bv.T @ eta) - (q @ dv + s).T @ hv + wv.T @ lv)
    )
    r3 = float(
        np.linalg.norm(wv.T @ wv - r - dv.T @ s - s.T @ dv - dv.T @ q @ dv)
    )
    return r1, r2, r3


def continuous_power_balance_residual(system, z, u):
    """Defect of ``dH/dt = s(u, y) - d(z, u)`` at one state and input."""
    z = np.asarray(z, dtype=float)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    eta = np.asarray(system.storage.gradient(z), dtype=float)
    fv = np.asarray(system.drift(z), dtype=float)
    bv = np.asarray(system.input_map(z), dtype=float)
    hv = np.atleast_1d(np.asarray(system.output_map(z), dtype=float))
    dv = np.asarray(system.feedthrough(z), dtype=float)
    y = hv + dv @ u
    dh = float(eta @ (fv + bv @ u))
    return abs(dh - supply_value(system.supply, u, y) + dissipation_rate(system, z, u))
