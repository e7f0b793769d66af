import math

import numpy as np
import pytest

from qsrdg import integrators
from qsrdg._kernels import value


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    """Shared reference-trajectory cache so CLI tests pay for the fine
    integration only once."""
    return tmp_path_factory.mktemp("reference-cache")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def _scheme_oracle(system, kind, z, w):
    """Recovered output and drift coefficient of the dg-qsr step for the
    pair (z, w), read off the scheme's own two-point terms.

    The coefficient is (zero-input supply minus dissipation) over the
    squared length of the discrete gradient, NaN when that length is 0.
    """
    z = [float(v) for v in z]
    w = [float(v) for v in w]
    q_rows = integrators._as_rows(system.supply.q)
    s_rows = integrators._as_rows(system.supply.s)
    _, g2, _, _, _, hbar, gam_num = integrators._scheme_terms(
        system, kind, q_rows, s_rows, z, None, w
    )
    g2 = value(g2)
    gamma = value(gam_num) / g2 if g2 else math.nan
    return np.array([value(x) for x in hbar]), gamma


@pytest.fixture
def scheme_oracle():
    """``(system, kind, z, w) -> (recovered output, drift coefficient)``."""
    return _scheme_oracle
