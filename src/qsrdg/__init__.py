"""Structure-preserving time integration for QSR-dissipative systems.

qsrdg integrates input-state-output systems that are dissipative with
respect to a quadratic supply rate, using a discrete-gradient scheme
whose steps satisfy the power balance

    (H(z_{i+1}) - H(z_i)) / tau = s(u_i, y_i) - d_i

exactly, step by step, rather than only in the limit.  An implicit
midpoint scheme over the same averaged maps is included as the
conventional second-order baseline, along with four worked benchmark
systems and a CLI (``qsr-dg``) for simulation, power-balance audits and
convergence studies.
"""

from qsrdg._kernels import BACKEND
from qsrdg.dgradients import (
    GONZALEZ,
    ITOH_ABE,
    DiscreteGradientKind,
    StorageFunction,
    discrete_gradient,
    mean_value,
)
from qsrdg.errors import (
    AreNotConverged,
    GridMismatch,
    IntegrationError,
    NewtonDidNotConverge,
    NonFiniteEvaluation,
    NotStabilizing,
    QsrdgError,
    QuadratureNotConverged,
    SingularMatrix,
    UnknownExample,
)
from qsrdg.integrators import (
    SchemeConfig,
    TimeGrid,
    Trajectory,
    discrete_power_balance_residuals,
    integrate,
    relative_error,
)
from qsrdg.model import (
    ConstantMap,
    QsrSystem,
    SupplyRate,
    continuous_power_balance_residual,
    dissipation_rate,
    hill_moylan_residual,
    supply_value,
)
from qsrdg.numerics import NewtonResult, NewtonSettings, newton_solve
from qsrdg.riccati import solve_are
from qsrdg.systems import (
    BenchmarkCase,
    EXAMPLE_NAMES,
    LtiOcpParams,
    PendulumParams,
    PiParams,
    SyntheticParams,
    benchmark_settings,
    make_lti_ocp,
    make_pendulum,
    make_pi,
    make_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    # discrete gradients
    "StorageFunction",
    "DiscreteGradientKind",
    "GONZALEZ",
    "ITOH_ABE",
    "mean_value",
    "discrete_gradient",
    # model
    "ConstantMap",
    "SupplyRate",
    "QsrSystem",
    "supply_value",
    "dissipation_rate",
    "hill_moylan_residual",
    "continuous_power_balance_residual",
    # numerics
    "NewtonSettings",
    "NewtonResult",
    "newton_solve",
    # integrators
    "TimeGrid",
    "SchemeConfig",
    "Trajectory",
    "integrate",
    "discrete_power_balance_residuals",
    "relative_error",
    # riccati
    "solve_are",
    # systems
    "PendulumParams",
    "LtiOcpParams",
    "PiParams",
    "SyntheticParams",
    "make_pendulum",
    "make_lti_ocp",
    "make_pi",
    "make_synthetic",
    "BenchmarkCase",
    "benchmark_settings",
    "EXAMPLE_NAMES",
    # errors
    "QsrdgError",
    "SingularMatrix",
    "NonFiniteEvaluation",
    "GridMismatch",
    "AreNotConverged",
    "NotStabilizing",
    "UnknownExample",
    "QuadratureNotConverged",
    "IntegrationError",
    "NewtonDidNotConverge",
]
