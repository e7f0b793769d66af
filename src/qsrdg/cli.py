"""Command line benchmark driver.

Four subcommands cover the standard experiments:

``simulate``
    integrate one example system and dump the trajectory as CSV
``balance``
    integrate with the structure-preserving scheme and report the
    per-step power-balance defect
``convergence``
    stepsize sweep against a fine implicit-midpoint reference
``checks``
    algebraic spot checks (structure identities, power balance) on
    randomly sampled states and inputs

Exit codes: 0 success, 1 a quality gate failed, 2 bad arguments,
3 the integration broke down, 4 incompatible grids.
"""

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path

import numpy as np

from . import __version__
from ._kernels import BACKEND
from .dgradients import GONZALEZ, ITOH_ABE, mean_value
from .errors import GridMismatch, IntegrationError
from .integrators import (
    DG_QSR,
    IMPLICIT_MIDPOINT,
    SchemeConfig,
    TimeGrid,
    Trajectory,
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
REFERENCE_REFINEMENT = 8

_DG_CHOICES = {
    "gonzalez": GONZALEZ,
    "itoh-abe": ITOH_ABE,
    "mean-value": mean_value(),
}

_SCHEME_CHOICES = {"dg": DG_QSR, "midpoint": IMPLICIT_MIDPOINT}


def _fmt(x):
    return f"{float(x):.16e}"


def _write_rows(path, header, rows):
    with open(path, "w", encoding="ascii", newline="\n") as stream:
        stream.write(",".join(header) + "\n")
        for row in rows:
            stream.write(",".join(row) + "\n")


def _write_meta(out, payload):
    meta_path = out.with_suffix(".meta.json")
    payload = dict(payload)
    payload["version"] = __version__
    payload["backend"] = BACKEND
    with open(meta_path, "w", encoding="ascii", newline="\n") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    return meta_path


def _resolve_out(args, stem):
    if args.out is not None:
        return Path(args.out)
    return Path.cwd() / f"{stem}.csv"


def _zero_control(num_inputs):
    def control(t):
        return (0.0,) * num_inputs

    return control


def _case(args):
    case = benchmark_settings(args.example)
    if getattr(args, "zero_input", False):
        case = case._replace(control=_zero_control(case.system.m))
    return case


def _num_steps(horizon, stepsize):
    return int(math.floor(horizon / stepsize + 1e-9))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
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

    out = _resolve_out(args, f"qsr-dg-simulate-{args.example}")
    _write_rows(out, header, rows)
    meta = _write_meta(
        out,
        {
            "command": "simulate",
            "example": args.example,
            "scheme": config.scheme,
            "dg_kind": args.dg if config.scheme == DG_QSR else None,
            "num_steps": args.q,
            "horizon": args.T,
            "zero_input": bool(args.zero_input),
        },
    )
    final = ", ".join(_fmt(v) for v in trajectory.states[-1])
    print(f"simulate {args.example}: {args.q} steps, final state [{final}]")
    print(f"wrote {out} and {meta}")
    return 0


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
    out = _resolve_out(args, f"qsr-dg-balance-{args.example}")
    _write_rows(out, ["t", "balance_residual"], rows)
    meta = _write_meta(
        out,
        {
            "command": "balance",
            "example": args.example,
            "dg_kind": args.dg,
            "num_steps": args.q,
            "horizon": args.T,
            "zero_input": bool(args.zero_input),
            "max_balance_residual": worst,
            "gate": BALANCE_GATE,
        },
    )
    print(f"balance {args.example}: max |residual| = {worst:.3e} over {args.q} steps")
    print(f"wrote {out} and {meta}")
    if worst <= BALANCE_GATE:
        print(f"PASS (gate {BALANCE_GATE:.0e})")
        return 0
    print(f"FAIL (gate {BALANCE_GATE:.0e})")
    return 1


def _cache_dir(args):
    if args.cache_dir is not None:
        return Path(args.cache_dir)
    env = os.environ.get("QSRDG_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "qsrdg"


def _reference_trajectory(args, case):
    """Fine implicit-midpoint reference, cached on disk per example, input
    and grid.

    A cache entry that cannot be read in full (corrupt, or written before
    a column existed) is deleted and rebuilt.
    """
    stepsize = TAU_MIN / REFERENCE_REFINEMENT
    num_steps = _num_steps(args.T, stepsize)
    inputs = "zero-input" if args.zero_input else "benchmark-input"
    key = f"reference-{args.example}-{inputs}-T{args.T:.17g}-tau{stepsize:.17g}.npz"
    path = _cache_dir(args) / key
    if path.exists():
        try:
            with np.load(path) as bundle:
                return Trajectory(
                    grid=TimeGrid(points=bundle["points"]),
                    states=bundle["states"],
                    averaged_inputs=bundle["averaged_inputs"],
                    discrete_outputs=bundle["discrete_outputs"],
                    newton_residuals=bundle["newton_residuals"],
                    newton_iterations=bundle["newton_iterations"],
                )
        except Exception:
            path.unlink(missing_ok=True)
    config = SchemeConfig(scheme=IMPLICIT_MIDPOINT)
    grid = TimeGrid.with_step(stepsize, num_steps)
    trajectory = integrate(case.system, config, grid, case.control, case.initial_state)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        points=trajectory.grid.points,
        states=trajectory.states,
        averaged_inputs=trajectory.averaged_inputs,
        discrete_outputs=trajectory.discrete_outputs,
        newton_residuals=trajectory.newton_residuals,
        newton_iterations=trajectory.newton_iterations,
    )
    return trajectory


def cmd_convergence(args):
    if args.s_max < 2:
        print("convergence needs --s-max of at least 2", file=sys.stderr)
        return 2
    case = _case(args)
    config = SchemeConfig(scheme=DG_QSR, dg_kind=_DG_CHOICES[args.dg])
    reference = _reference_trajectory(args, case)

    stepsizes = []
    errors = []
    for s in range(args.s_max, -1, -1):
        stepsize = (2.0**s) * TAU_MIN
        num_steps = _num_steps(args.T, stepsize)
        if num_steps < 1:
            print(
                f"stepsize {stepsize:g} exceeds the horizon {args.T:g}",
                file=sys.stderr,
            )
            return 2
        grid = TimeGrid.with_step(stepsize, num_steps)
        trajectory = integrate(
            case.system, config, grid, case.control, case.initial_state
        )
        stepsizes.append(stepsize)
        errors.append(relative_error(trajectory, reference))

    # orders[i] is the order observed between stepsizes i - 1 and i; it is
    # None for the first stepsize and for a pair with a zero error
    orders = [None] + [
        math.log2(coarse / fine) if coarse > 0.0 and fine > 0.0 else None
        for coarse, fine in zip(errors, errors[1:])
    ]
    runs = list(zip(stepsizes, errors, orders))
    rows = [
        [_fmt(tau), _fmt(err), "" if order is None else _fmt(order)]
        for tau, err, order in runs
    ]
    out = _resolve_out(args, f"qsr-dg-convergence-{args.example}")
    _write_rows(out, ["tau", "rel_error", "observed_order"], rows)

    window = orders[1:][-3:]
    median = None if None in window else statistics.median(window)
    meta = _write_meta(
        out,
        {
            "command": "convergence",
            "example": args.example,
            "dg_kind": args.dg,
            "horizon": args.T,
            "s_max": args.s_max,
            "tau_min": TAU_MIN,
            "reference_refinement": REFERENCE_REFINEMENT,
            "zero_input": bool(args.zero_input),
            "observed_orders": orders[1:],
            "median_order": median,
            "order_window": list(ORDER_WINDOW),
        },
    )
    for tau, err, order in runs:
        tail = "" if order is None else f"  order {order:.3f}"
        print(f"tau = {tau:.6g}  rel_error = {err:.6e}{tail}")
    if median is None:
        print("no median order: a pair among the finest has a zero error")
    else:
        print(f"median order (finest pairs) = {median:.3f}")
    print(f"wrote {out} and {meta}")
    low, high = ORDER_WINDOW
    if median is not None and low <= median <= high:
        print(f"PASS (window [{low}, {high}])")
        return 0
    print(f"FAIL (window [{low}, {high}])")
    return 1


def cmd_checks(args):
    case = _case(args)
    system = case.system
    rng = np.random.default_rng(args.seed)
    states = rng.uniform(-2.0, 2.0, size=(100, system.n))
    inputs = rng.uniform(-2.0, 2.0, size=(100, system.m))

    worst = {"storage_supply": 0.0, "input_output": 0.0, "feedthrough": 0.0,
             "power_balance": 0.0}
    for z, u in zip(states, inputs):
        r1, r2, r3 = hill_moylan_residual(system, z)
        pb = continuous_power_balance_residual(system, z, u)
        worst["storage_supply"] = max(worst["storage_supply"], abs(r1))
        worst["input_output"] = max(worst["input_output"], abs(r2))
        worst["feedthrough"] = max(worst["feedthrough"], abs(r3))
        worst["power_balance"] = max(worst["power_balance"], abs(pb))

    for name, value in worst.items():
        print(f"{name:16s} max |residual| = {value:.3e}")
    if args.out is not None:
        out = Path(args.out)
        rows = [[name, _fmt(value)] for name, value in worst.items()]
        _write_rows(out, ["check", "value"], rows)
        meta = _write_meta(
            out,
            {
                "command": "checks",
                "example": args.example,
                "seed": args.seed,
                "num_samples": 100,
                "gate": CHECKS_GATE,
                **{f"max_{k}": v for k, v in worst.items()},
            },
        )
        print(f"wrote {out} and {meta}")
    if max(worst.values()) <= CHECKS_GATE:
        print(f"PASS (gate {CHECKS_GATE:.0e})")
        return 0
    print(f"FAIL (gate {CHECKS_GATE:.0e})")
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsr-dg",
        description="benchmark driver for dissipativity-preserving integration",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_dg=True):
        p.add_argument(
            "--example",
            required=True,
            choices=EXAMPLE_NAMES,
            help="benchmark system to run",
        )
        if with_dg:
            p.add_argument(
                "--dg",
                choices=sorted(_DG_CHOICES),
                default="gonzalez",
                help="discrete-gradient variant",
            )
        p.add_argument("--out", type=Path, default=None, help="output CSV path")
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

    p = sub.add_parser("convergence", help="stepsize sweep against a fine reference")
    add_common(p)
    p.add_argument("--T", type=_positive_float, default=10.0, help="horizon")
    p.add_argument(
        "--s-max",
        type=_positive_int,
        default=5,
        help="coarsest stepsize is 2**s_max times the finest",
    )
    p.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for cached reference trajectories",
    )
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("checks", help="structure identities at sampled states")
    add_common(p, with_dg=False)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
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
