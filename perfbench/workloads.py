"""The benchmark's workloads: which ``integrate`` calls one run makes.

An operation is one ``integrate`` call followed by one
``discrete_power_balance_residuals`` audit of its trajectory.  Each
operation carries the max-norm bound its final state must meet against
an independent ``solve_ivp`` reference (see ``check.py``).

Importing this module does not import ``qsrdg``: :func:`setup` does, so
that the benchmark's set-up time includes the import.
"""

from typing import Callable, NamedTuple, Optional

WORKLOADS = ("trajectory", "reference", "ensemble")

EXAMPLES = ("pendulum", "lti-ocp", "pi", "synthetic")
KINDS = ("gonzalez", "itoh-abe", "mean-value")

# trajectory: one equidistant run per example and kind at the step of the
# ROADMAP's T = 10, q = 2000 table.  100 steps keep the per-call cost
# near 0.5% of an operation and give each configuration some 60 repeats
# in a 38 s run: enough for each step's fastest repeat to be a steady
# figure (see ``run.fastest_stretches``).
TRAJECTORY_HORIZON = 0.5
TRAJECTORY_STEPS = 100

# reference: implicit midpoint at the convergence study's reference step,
# TAU_MIN / REFERENCE_REFINEMENT of ``qsrdg.cli``; 500 steps give each
# example some 190 repeats in a 38 s run
REFERENCE_TAU = 1e-3 / 8
REFERENCE_STEPS = 500

# ensemble: many short coarse-step members around each example's
# reference state; ten-step members give each one about 35 repeats in a
# 38 s run, so each step's fastest repeat is a steady figure.  The box
# around the reference state has the width of ``qsr-dg checks``, which
# samples states from [-2, 2] in every coordinate.
ENSEMBLE_EXAMPLES = ("pendulum", "synthetic")
ENSEMBLE_MEMBERS = 200
ENSEMBLE_TAU = 0.05
ENSEMBLE_STEPS = 10
ENSEMBLE_HALF_WIDTH = 2.0

# Final-state bounds are C * tau**2, with C per example and kind.  Each C
# is four times the largest error observed when the operations took
# their present length (ensemble: over the 4,000 members drawn from seeds
# 0-19), rounded up.  Itoh-Abe on lti-ocp stands out: its discrete
# gradient is not symmetric and lti-ocp is the only example whose storage
# is not separable, so the scheme is only first order there; its error is
# 170 times that of the symmetric kinds over this horizon.
TRAJECTORY_C = {
    ("pendulum", "gonzalez"): 6.0,
    ("pendulum", "itoh-abe"): 6.0,
    ("pendulum", "mean-value"): 6.0,
    ("lti-ocp", "gonzalez"): 0.3,
    ("lti-ocp", "itoh-abe"): 50.0,
    ("lti-ocp", "mean-value"): 0.3,
    ("pi", "gonzalez"): 0.4,
    ("pi", "itoh-abe"): 0.4,
    ("pi", "mean-value"): 0.4,
    ("synthetic", "gonzalez"): 0.9,
    ("synthetic", "itoh-abe"): 0.9,
    ("synthetic", "mean-value"): 0.9,
}
REFERENCE_C = {"pendulum": 0.8, "lti-ocp": 0.03, "pi": 0.05, "synthetic": 0.15}
ENSEMBLE_C = {"pendulum": 13.0, "synthetic": 1.8}


class Operation(NamedTuple):
    label: str
    example: str
    kind: Optional[str]  # discrete-gradient kind; None for implicit midpoint
    system: object
    config: object
    grid: object
    control: Callable
    initial_state: object
    bound: float

    @property
    def steps(self):
        return self.grid.num_steps


def _trajectory(qsrdg, cases):
    grid = qsrdg.TimeGrid.equidistant(TRAJECTORY_HORIZON, TRAJECTORY_STEPS)
    tau = TRAJECTORY_HORIZON / TRAJECTORY_STEPS
    kinds = {
        "gonzalez": qsrdg.GONZALEZ,
        "itoh-abe": qsrdg.ITOH_ABE,
        "mean-value": qsrdg.mean_value(),
    }
    ops = []
    for example in EXAMPLES:
        case = cases[example]
        for kind in KINDS:
            ops.append(
                Operation(
                    f"{example}/{kind}",
                    example,
                    kind,
                    case.system,
                    qsrdg.SchemeConfig(dg_kind=kinds[kind]),
                    grid,
                    case.control,
                    case.initial_state,
                    TRAJECTORY_C[example, kind] * tau * tau,
                )
            )
    return ops


def _reference(qsrdg, cases):
    from qsrdg.integrators import IMPLICIT_MIDPOINT

    grid = qsrdg.TimeGrid.with_step(REFERENCE_TAU, REFERENCE_STEPS)
    config = qsrdg.SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    return [
        Operation(
            f"{example}/midpoint",
            example,
            None,
            cases[example].system,
            config,
            grid,
            cases[example].control,
            cases[example].initial_state,
            REFERENCE_C[example] * REFERENCE_TAU**2,
        )
        for example in EXAMPLES
    ]


def _stratified(rng, count, dim):
    """``count`` points in [0, 1)^dim, one in each of ``count`` slabs per axis."""
    import numpy as np

    cols = [(rng.permutation(count) + rng.random(count)) / count for _ in range(dim)]
    return np.stack(cols, axis=1)


def _ensemble(qsrdg, cases, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    grid = qsrdg.TimeGrid.equidistant(ENSEMBLE_TAU * ENSEMBLE_STEPS, ENSEMBLE_STEPS)
    config = qsrdg.SchemeConfig()
    per_example = ENSEMBLE_MEMBERS // len(ENSEMBLE_EXAMPLES)
    offsets = {}
    for example in ENSEMBLE_EXAMPLES:
        dim = cases[example].initial_state.size
        unit = _stratified(rng, per_example, dim)
        offsets[example] = ENSEMBLE_HALF_WIDTH * (2.0 * unit - 1.0)
    ops = []
    for i in range(per_example):
        for example in ENSEMBLE_EXAMPLES:
            case = cases[example]
            ops.append(
                Operation(
                    f"{example}#{i}",
                    example,
                    "gonzalez",
                    case.system,
                    config,
                    grid,
                    case.control,
                    case.initial_state + offsets[example][i],
                    ENSEMBLE_C[example] * ENSEMBLE_TAU**2,
                )
            )
    return ops


def setup(workload, seed, lap=None):
    """Import qsrdg, build all four example systems and the workload's
    operations.  This is the work ``setup_s`` times.  ``lap``, when given,
    is called after the import, after each system and at the end, so that
    the caller can time each stage."""
    lap = lap or (lambda: None)
    import qsrdg

    lap()
    cases = {}
    for name in EXAMPLES:
        cases[name] = qsrdg.benchmark_settings(name)
        lap()
    if workload == "trajectory":
        ops = _trajectory(qsrdg, cases)
    elif workload == "reference":
        ops = _reference(qsrdg, cases)
    elif workload == "ensemble":
        ops = _ensemble(qsrdg, cases, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    lap()
    return ops


def warmup(op, steps=5):
    """The same operation cut to its first few steps, for untimed warm-up."""
    import qsrdg

    pts = op.grid.points[: steps + 1]
    return op._replace(grid=qsrdg.TimeGrid(pts))
