"""Command line benchmark driver.

Four subcommands cover the standard experiments:

``simulate``
    integrate one example system and dump the trajectory as CSV
``balance``
    integrate with the structure-preserving scheme and report the
    per-step power-balance defect
``convergence``
    stepsize sweep against an extrapolated implicit-midpoint reference
``checks``
    algebraic spot checks (structure identities, power balance) on
    randomly sampled states and inputs

Every subcommand writes a CSV to ``--out``, by default
``qsr-dg-<command>-<example>.csv`` in the working directory, and a
``.meta.json`` sidecar beside it, through :func:`_report`, which also
prints the PASS/FAIL verdict of the gated ones.  ``--dg`` and
``--zero-input`` belong to the three subcommands that integrate.

The studies behind the gates are module functions that the acceptance
tests call too: :func:`reference_trajectory` and
:func:`convergence_study` for ``convergence`` and
:func:`structure_checks` for ``checks``.

Exit codes: 0 success, 1 a quality gate failed, 2 bad arguments (among
them a negative ``--seed``, an ``--s-max`` below 2 or with a coarsest
step longer than ``--T``, and an ``--out`` that cannot be written, in a
missing directory say), 3 the integration broke down, 4 incompatible
grids.
"""

import argparse
import dataclasses
import json
import math
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dgradients import GONZALEZ, ITOH_ABE, mean_value
from .errors import GridMismatch, IntegrationError
from .integrators import (
    DG_QSR,
    IMPLICIT_MIDPOINT,
    SchemeConfig,
    TimeGrid,
    discrete_power_balance_residuals,
    integrate,
    relative_error,
)
from .model import continuous_power_balance_residual, hill_moylan_residual
from .systems import EXAMPLE_NAMES, benchmark_settings

BALANCE_GATE = 1e-8
CHECKS_GATE = 1e-9
ORDER_WINDOW = (1.7, 2.3)
DEFAULT_SEED = 0
TAU_MIN = 1e-3

# the draws and the residual names of structure_checks
_CHECK_SAMPLES = 100
_CHECK_NAMES = ("storage_supply", "input_output", "feedthrough", "power_balance")

_DG_CHOICES = {
    "gonzalez": GONZALEZ,
    "itoh-abe": ITOH_ABE,
    "mean-value": mean_value(),
}

_SCHEME_CHOICES = {"dg": DG_QSR, "midpoint": IMPLICIT_MIDPOINT}


def _fmt(x):
    return f"{float(x):.16e}"


def _report(args, header, rows, meta, verdict=None):
    """Write ``rows`` as CSV to ``--out``, by default to
    ``qsr-dg-<command>-<example>.csv`` in the working directory, and
    ``{command, example, **meta, version}`` to the ``.meta.json`` beside
    it.  ``verdict`` is ``(passed, gate_text)`` for a gated command;
    prints PASS or FAIL with the gate.  Returns the exit code: 2, after a
    one-line message, when a file cannot be written.
    """
    out = args.out
    if out is None:
        out = Path.cwd() / f"qsr-dg-{args.command}-{args.example}.csv"
    lines = [",".join(row) + "\n" for row in [header, *rows]]
    meta_path = out.with_suffix(".meta.json")
    payload = {
        "command": args.command, "example": args.example, **meta,
        "version": __version__,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        out.write_text("".join(lines), encoding="ascii", newline="\n")
        meta_path.write_text(text, encoding="ascii", newline="\n")
    except OSError as exc:
        print(f"cannot write the output: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {out} and {meta_path}")
    if verdict is None:
        return 0
    passed, gate = verdict
    print(f"{'PASS' if passed else 'FAIL'} ({gate})")
    return 0 if passed else 1


def _case(args):
    case = benchmark_settings(args.example)
    if args.zero_input:
        m = case.system.m
        case = case._replace(control=lambda t: (0.0,) * m, breakpoints=())
    return case


def _num_steps(horizon, stepsize):
    return int(math.floor(horizon / stepsize + 1e-9))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _non_negative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("expected a positive finite number")
    return value


def cmd_simulate(args):
    case = _case(args)
    system = case.system
    config = SchemeConfig(
        scheme=_SCHEME_CHOICES[args.scheme], dg_kind=_DG_CHOICES[args.dg]
    )
    grid = TimeGrid.equidistant(args.T, args.q)
    trajectory = integrate(system, config, grid, case.control, case.initial_state)

    n, m = system.n, system.m
    header = ["t"]
    header += [f"z{i + 1}" for i in range(n)]
    header += ["ubar"] if m == 1 else [f"ubar{i + 1}" for i in range(m)]
    header += ["ybar"] if m == 1 else [f"ybar{i + 1}" for i in range(m)]
    header += ["newton_residual", "newton_iterations"]

    rows = []
    for i in range(args.q + 1):
        row = [_fmt(grid.points[i])]
        row += [_fmt(v) for v in trajectory.states[i]]
        if i < args.q:
            row += [_fmt(v) for v in trajectory.averaged_inputs[i]]
            row += [_fmt(v) for v in trajectory.discrete_outputs[i]]
            row.append(_fmt(trajectory.newton_residuals[i]))
            row.append(str(trajectory.newton_iterations[i]))
        else:
            row += [""] * (2 * m + 2)
        rows.append(row)

    final = ", ".join(_fmt(v) for v in trajectory.states[-1])
    print(f"simulate {args.example}: {args.q} steps, final state [{final}]")
    meta = {
        "scheme": config.scheme,
        "dg_kind": args.dg if config.scheme == DG_QSR else None,
        "num_steps": args.q,
        "horizon": args.T,
        "zero_input": args.zero_input,
    }
    return _report(args, header, rows, meta)


def cmd_balance(args):
    case = _case(args)
    config = SchemeConfig(scheme=DG_QSR, dg_kind=_DG_CHOICES[args.dg])
    grid = TimeGrid.equidistant(args.T, args.q)
    trajectory = integrate(case.system, config, grid, case.control, case.initial_state)
    residuals = discrete_power_balance_residuals(case.system, trajectory)
    worst = float(np.max(np.abs(residuals)))

    rows = [
        [_fmt(grid.points[i]), _fmt(residuals[i])] for i in range(args.q)
    ]
    print(f"balance {args.example}: max |residual| = {worst:.3e} over {args.q} steps")
    meta = {
        "dg_kind": args.dg,
        "num_steps": args.q,
        "horizon": args.T,
        "zero_input": args.zero_input,
        "max_balance_residual": worst,
        "gate": BALANCE_GATE,
    }
    verdict = (worst <= BALANCE_GATE, f"gate {BALANCE_GATE:.0e}")
    return _report(args, ["t", "balance_residual"], rows, meta, verdict)


def reference_trajectory(case, horizon):
    """The reference of the convergence study: implicit midpoint over
    ``horizon`` on the nodes ``k * TAU_MIN`` and the case's breakpoints,
    improved by one Richardson step against a second run with every step
    halved.

    Midpoint with the trapezoidal input mean is symmetric, so on each
    piece where the control is smooth its global error expands in even
    powers of the step, and ``fine + (fine - coarse) / 3`` cancels the
    tau**2 term.  Written in that form, a fixed point stays bit-exact.
    Only ``grid`` and ``states`` form the reference; the other fields are
    those of the ``TAU_MIN`` run.
    """
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    nodes = TimeGrid.with_step(TAU_MIN, _num_steps(horizon, TAU_MIN)).points
    inside = [t for t in case.breakpoints if 0.0 < t < nodes[-1]]
    nodes = np.union1d(nodes, inside)
    halved = np.empty(2 * nodes.size - 1)
    halved[::2] = nodes
    halved[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    coarse, fine = [
        integrate(
            case.system, config, TimeGrid(points), case.control, case.initial_state
        )
        for points in (nodes, halved)
    ]
    fine_states = fine.states[::2]
    states = fine_states + (fine_states - coarse.states) / 3.0
    return dataclasses.replace(coarse, states=states)


def convergence_study(case, dg_kind, horizon, s_max, reference):
    """dg-qsr runs at the stepsizes ``2**s * TAU_MIN``, s = s_max, ..., 0,
    each measured against ``reference``.

    Returns ``(stepsizes, errors, orders, median)``.  ``orders[i]`` is the
    order observed between stepsizes i and i + 1, None where either error
    is zero; ``median`` is the median of the three finest orders, None if
    one of them is None.
    """
    config = SchemeConfig(scheme=DG_QSR, dg_kind=dg_kind)
    stepsizes = [math.ldexp(TAU_MIN, s) for s in range(s_max, -1, -1)]
    errors = []
    for stepsize in stepsizes:
        grid = TimeGrid.with_step(stepsize, _num_steps(horizon, stepsize))
        trajectory = integrate(
            case.system, config, grid, case.control, case.initial_state
        )
        errors.append(relative_error(trajectory, reference))
    orders = [
        math.log2(coarse / fine) if coarse > 0.0 and fine > 0.0 else None
        for coarse, fine in zip(errors, errors[1:])
    ]
    window = orders[-3:]
    median = None if None in window else statistics.median(window)
    return stepsizes, errors, orders, median


def cmd_convergence(args):
    if args.s_max < 2:
        print("convergence needs --s-max of at least 2", file=sys.stderr)
        return 2
    # T / (2**s_max * TAU_MIN) without forming 2**s_max, which overflows
    # for a large --s-max
    if _num_steps(math.ldexp(args.T, -args.s_max), TAU_MIN) < 1:
        print(
            f"the coarsest stepsize 2**{args.s_max} * {TAU_MIN:g} exceeds "
            f"the horizon {args.T:g}",
            file=sys.stderr,
        )
        return 2
    case = _case(args)
    reference = reference_trajectory(case, args.T)
    stepsizes, errors, orders, median = convergence_study(
        case, _DG_CHOICES[args.dg], args.T, args.s_max, reference
    )

    # the coarsest stepsize has no coarser partner, so no order
    runs = list(zip(stepsizes, errors, [None] + orders))
    rows = [
        [_fmt(tau), _fmt(err), "" if order is None else _fmt(order)]
        for tau, err, order in runs
    ]
    for tau, err, order in runs:
        tail = "" if order is None else f"  order {order:.3f}"
        print(f"tau = {tau:.6g}  rel_error = {err:.6e}{tail}")
    if median is None:
        print("no median order: a pair among the finest has a zero error")
    else:
        print(f"median order (finest pairs) = {median:.3f}")
    meta = {
        "dg_kind": args.dg,
        "horizon": args.T,
        "s_max": args.s_max,
        "tau_min": TAU_MIN,
        "zero_input": args.zero_input,
        "observed_orders": orders,
        "median_order": median,
        "order_window": list(ORDER_WINDOW),
    }
    low, high = ORDER_WINDOW
    verdict = (
        median is not None and low <= median <= high,
        f"window [{low}, {high}]",
    )
    return _report(args, ["tau", "rel_error", "observed_order"], rows, meta, verdict)


def structure_checks(system, seed):
    """Largest residuals of the structure identities and of the continuous
    power balance over 100 states and inputs drawn uniformly from
    [-2, 2] with ``seed``, the block of states first.

    Returns a dict over ``storage_supply``, ``input_output``,
    ``feedthrough`` (the three Hill-Moylan identities) and
    ``power_balance``.  A NaN residual makes its maximum NaN.
    """
    rng = np.random.default_rng(seed)
    states = rng.uniform(-2.0, 2.0, size=(_CHECK_SAMPLES, system.n))
    inputs = rng.uniform(-2.0, 2.0, size=(_CHECK_SAMPLES, system.m))
    residuals = [
        (
            *hill_moylan_residual(system, z),
            continuous_power_balance_residual(system, z, u),
        )
        for z, u in zip(states, inputs)
    ]
    worst = np.max(np.abs(residuals), axis=0).tolist()
    return dict(zip(_CHECK_NAMES, worst))


def cmd_checks(args):
    worst = structure_checks(benchmark_settings(args.example).system, args.seed)
    for name, value in worst.items():
        print(f"{name:16s} max |residual| = {value:.3e}")
    rows = [[name, _fmt(value)] for name, value in worst.items()]
    meta = {
        "seed": args.seed,
        "num_samples": _CHECK_SAMPLES,
        "gate": CHECKS_GATE,
        **{f"max_{k}": v for k, v in worst.items()},
    }
    verdict = (
        all(v <= CHECKS_GATE for v in worst.values()),
        f"gate {CHECKS_GATE:.0e}",
    )
    return _report(args, ["check", "value"], rows, meta, verdict)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsr-dg",
        description="benchmark driver for dissipativity-preserving integration",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, integrates=True):
        p.add_argument(
            "--example",
            required=True,
            choices=EXAMPLE_NAMES,
            help="benchmark system to run",
        )
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
        if integrates:
            p.add_argument(
                "--dg",
                choices=sorted(_DG_CHOICES),
                default="gonzalez",
                help="discrete-gradient variant",
            )
            p.add_argument(
                "--zero-input",
                action="store_true",
                help="replace the benchmark control with u = 0",
            )

    p = sub.add_parser("simulate", help="integrate and dump the trajectory")
    add_common(p)
    p.add_argument(
        "--scheme",
        choices=sorted(_SCHEME_CHOICES),
        default="dg",
        help="integration scheme",
    )
    p.add_argument("--q", type=_positive_int, default=1000, help="number of steps")
    p.add_argument("--T", type=_positive_float, default=10.0, help="horizon")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("balance", help="report the discrete power-balance defect")
    add_common(p)
    p.add_argument("--q", type=_positive_int, default=1000, help="number of steps")
    p.add_argument("--T", type=_positive_float, default=10.0, help="horizon")
    p.set_defaults(func=cmd_balance)

    p = sub.add_parser(
        "convergence", help="stepsize sweep against an extrapolated reference"
    )
    add_common(p)
    p.add_argument("--T", type=_positive_float, default=10.0, help="horizon")
    p.add_argument(
        "--s-max",
        type=_positive_int,
        default=5,
        help="coarsest stepsize is 2**s_max times the finest",
    )
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("checks", help="structure identities at sampled states")
    add_common(p, integrates=False)
    p.add_argument(
        "--seed", type=_non_negative_int, default=DEFAULT_SEED, help="sampling seed"
    )
    p.set_defaults(func=cmd_checks)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IntegrationError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 3
    except GridMismatch as exc:
        print(f"grid mismatch: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
