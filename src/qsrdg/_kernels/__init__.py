"""Kernels: dual scalars and small dense linear algebra.

There is one backend, the pure-Python :mod:`qsrdg._kernels._pure`;
``BACKEND`` names it for run records.
"""

from qsrdg._kernels._pure import (
    Dual,
    dot,
    lu_solve,
    matvec,
    norm_sq,
    seed_duals,
    solve_generic,
    tmatvec,
    value,
)

BACKEND = "pure"

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
