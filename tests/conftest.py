import math

import numpy as np
import pytest

from qsrdg import integrators
from qsrdg._kernels import value


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def lti_ocp_matrices():
    """The regulator example's default A, B and C, written out here so that
    a change to the defaults of ``make_lti_ocp`` shows in the tests."""
    return {
        "a": ((0.1, 1.0), (-1.0, 0.1)),
        "b": ((0.0,), (1.0,)),
        "c": ((1.0, 0.0),),
    }


def _scheme_oracle(system, kind, z, w):
    """Recovered output and drift coefficient of the dg-qsr step for the
    pair (z, w), read off the scheme's own two-point terms.

    The coefficient is (zero-input supply minus dissipation) over the
    squared length of the discrete gradient, NaN when that length is 0.
    """
    z = [float(v) for v in z]
    w = [float(v) for v in w]
    stepper = integrators._DgQsrStepper(system, integrators.SchemeConfig(dg_kind=kind))
    _, g2, _, _, _, hbar, gam_num = stepper._terms(z, w)
    g2 = value(g2)
    gamma = value(gam_num) / g2 if g2 else math.nan
    return np.array([value(x) for x in hbar]), gamma


@pytest.fixture
def scheme_oracle():
    """``(system, kind, z, w) -> (recovered output, drift coefficient)``."""
    return _scheme_oracle
