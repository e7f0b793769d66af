#!/usr/bin/env python3
"""Step benchmark for qsrdg: one closed loop, one caller, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all --seconds 38

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md in this directory).  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The package is imported from ``src/`` of the checkout this
file sits in; without it the script exits with status 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import failures, reference_final_state, self_test
from workloads import KINDS, WORKLOADS, setup, warmup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 10
MIN_TRACED_ROUNDS = 2


def declared_metrics(kind):
    """(name, unit) of each metric that ``BENCHMARK.json`` lists under
    ``kind``: ``end_to_end`` or ``per_layer``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(metric["name"], metric["unit"]) for metric in spec[kind]]


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser


def time_setup(workload, seed):
    """One set-up sample, taken in a fresh interpreter: the duration of
    each stage of ``workloads.setup``."""
    out = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment_record(args):
    import hashlib

    import numpy
    import qsrdg

    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "qsrdg").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "backend": qsrdg.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs operations, checks each one, and keeps per-operation timings."""

    def __init__(self, references):
        from qsrdg import discrete_power_balance_residuals, integrate

        self.integrate = integrate
        self.audit = discrete_power_balance_residuals
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def run(self, op, integrate=None, audit=None, system=None):
        """Integrate and audit ``op``; return (integrate s, audit s,
        stretches) or None when the operation failed.

        ``stretches`` splits the ``integrate`` call at each call of the
        control, which ``integrate`` makes once per step: the durations
        from the call's start to the first control call, between
        consecutive control calls, and from the last one to the return.
        They sum to the integrate time."""
        integrate = integrate or self.integrate
        audit = audit or self.audit
        system = system or op.system
        clock = time.perf_counter
        stamps = []
        stamp = stamps.append
        sample = op.control

        def control(t):
            stamp(clock())
            return sample(t)

        self.attempted += 1
        try:
            start = clock()
            trajectory = integrate(system, op.config, op.grid, control, op.initial_state)
            mid = clock()
            defects = audit(system, trajectory)
            end = clock()
        except Exception as exc:  # every raise counts as a failed operation
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        reasons = failures(op, trajectory, defects, self.references[op.label])
        if reasons:
            self._fail(op, "; ".join(reasons))
            return None
        edges = [start] + stamps + [mid]
        stretches = [b - a for a, b in zip(edges, edges[1:])]
        return mid - start, end - mid, stretches

    def _fail(self, op, message):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{op.label}: {message}")


def rounds(ops, seed):
    """Endless shuffled passes over ``ops``."""
    import random

    rng = random.Random(seed)
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield order


def fastest_stretches(repeats):
    """Duration of one piece of work from its repeats, each split into
    stretches (the steps of an operation, see :meth:`Runner.run`, or the
    stages of set-up): the sum over stretches of each one's fastest repeat.

    The host alternates between full speed and about half speed at a
    scale of milliseconds, and a whole repeat seldom runs at full speed
    throughout.  A single stretch, one step long, often does, so the
    fastest repeat of each stretch is steady across runs where the
    fastest repeat of the whole is not.  When the repeats do not split
    into the same number of stretches, the fastest whole is taken."""
    import numpy as np

    if len({len(r) for r in repeats}) != 1:
        return min(sum(r) for r in repeats)
    return float(np.min(np.array(repeats), axis=0).sum())


def summarize(ops, timings, fastest=True):
    """End-to-end figures from per-operation timings.

    Each operation contributes one figure per quantity.  With ``fastest``
    its integrate time is :func:`fastest_stretches` and its audit time
    its fastest repeat: contention from other work on the host only ever
    slows a repeat down, so across runs the fastest figures vary least.
    Without it each figure is the median repeat of the whole call, which
    moves with a cost that hits only some repeats, such as more garbage
    collection, where the fastest may not; ``record`` reports it.  Taking
    one figure per operation keeps the mix of operations fixed however
    the time budget ends.
    """
    import numpy as np

    by_label = {op.label: op for op in ops}
    per_int, per_audit, per_member = {}, {}, {}
    for label, samples in timings.items():
        if not samples:
            continue
        if fastest:
            per_int[label] = fastest_stretches([s[2] for s in samples])
            per_audit[label] = min(s[1] for s in samples)
            per_member[label] = per_int[label] + per_audit[label]
        else:
            per_int[label] = statistics.median(s[0] for s in samples)
            per_audit[label] = statistics.median(s[1] for s in samples)
            per_member[label] = statistics.median(s[0] + s[1] for s in samples)

    def per_step(figures, labels):
        steps = sum(by_label[label].steps for label in labels)
        return 1e6 * sum(figures[label] for label in labels) / steps if steps else 0.0

    labels = list(per_int)
    out = {
        "step_us": per_step(per_int, labels),
        "audit_us": per_step(per_audit, labels),
    }
    members = np.array(list(per_member.values())) * 1e3
    out["member_ms.p50"] = float(np.percentile(members, 50))
    out["member_ms.p95"] = float(np.percentile(members, 95))
    for kind in KINDS:
        out[f"step_us.{kind}"] = per_step(
            per_int, [label for label in labels if by_label[label].kind == kind]
        )
    out["members"] = len(labels)
    out["samples"] = sum(len(s) for s in timings.values())
    return out


def timed_loop(ops, runner, seconds, seed, probe):
    """Operations for ``seconds``, with ``SETUP_SAMPLES`` calls of
    ``probe`` spread evenly over that time, so that a slow spell of the
    host weighs on the set-up samples as on the operations.  The time a
    probe takes is added to the deadline."""
    clock = time.perf_counter
    timings = {op.label: [] for op in ops}
    setup_samples = []
    deadline = clock() + seconds
    spacing = seconds / SETUP_SAMPLES
    next_probe = clock()

    def take_probe():
        start = clock()
        setup_samples.append(probe())
        return clock() - start

    for number, order in enumerate(rounds(ops, seed)):
        for op in order:
            if len(setup_samples) < SETUP_SAMPLES and clock() >= next_probe:
                pause = take_probe()
                deadline += pause
                next_probe += spacing + pause
            if number > 0 and clock() >= deadline:
                break
            result = runner.run(op)
            if result is not None:
                timings[op.label].append(result)
        if clock() >= deadline:
            break
    while len(setup_samples) < SETUP_SAMPLES:
        take_probe()
    return timings, setup_samples


def traced_loop(ops, runner, seconds, seed):
    """Paired untraced and traced runs of every operation, in whole rounds.

    Whole rounds make every count an exact multiple of one round's, so the
    per-step counts repeat exactly across rounds and across runs.
    """
    import qsrdg
    from layers import Instrumentation, Tracer

    tracer = Tracer()
    inst = Instrumentation(tracer)

    tracer.select("setup")
    with inst.installed():
        for _ in range(5):
            qsrdg.benchmark_settings("lti-ocp")

    integrate = tracer.wrap(runner.integrate, "integrators.integrate")
    audit_span = tracer.wrap(runner.audit, "integrators.audit")

    def audit(system, trajectory):
        tracer.select("audit")
        return audit_span(system, trajectory)

    def traced(op):
        tracer.select("integrate")
        with inst.installed():
            return runner.run(op, integrate, audit, inst.system(op.system))

    plain = {op.label: [] for op in ops}
    paired = {op.label: [] for op in ops}
    steps = {kind: 0 for kind in KINDS}
    steps_total = 0
    deltas = []
    deadline = time.perf_counter() + seconds
    for number, order in enumerate(rounds(ops, seed)):
        if number >= MIN_TRACED_ROUNDS and time.perf_counter() >= deadline:
            break
        before = tracer.counts_snapshot()
        for op in order:
            untraced = runner.run(op)
            result = traced(op)
            if untraced is not None:
                plain[op.label].append(untraced)
            if result is not None:
                if untraced is not None:
                    paired[op.label].append((untraced[0], result[0]))
                steps_total += op.steps
                if op.kind is not None:
                    steps[op.kind] += op.steps
        after = tracer.counts_snapshot()
        deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
    return tracer, inst, plain, paired, steps, steps_total, deltas


def layer_metrics(ops, tracer, inst, plain, paired, steps, steps_total):
    """Per-layer figures of a traced run; names of absent ones are returned
    separately."""
    from layers import PER_LAYER

    counters = tracer.counters.get("integrate", {})
    missing = set(inst.missing)
    if counters.get("newton.unreadable"):
        missing.add("newton")

    def us(prefix):
        return 1e6 * tracer.self_seconds("integrate", prefix) / steps_total

    def per_step(prefix):
        return tracer.calls("integrate", prefix) / steps_total

    iterations = counters.get("newton.iterations", 0)
    dual_passes = counters.get("newton.dual_passes", 0)
    values = {
        "systems.passes.dual_per_step": per_step("systems.drift.dual"),
        "systems.passes.float_per_step": per_step("systems.drift.float"),
        "systems.maps.dual_us": us("systems.drift.dual") + us("systems.maps.dual"),
        "systems.maps.float_us": us("systems.drift.float") + us("systems.maps.float"),
        "systems.storage.dual_calls_per_step": per_step("systems.storage.dual"),
        "systems.storage.float_calls_per_step": per_step("systems.storage.float"),
        "systems.storage.us": us("systems.storage"),
        "numerics.newton.calls_per_step": per_step("numerics.newton"),
        "numerics.newton.iterations_per_step": iterations / steps_total,
        "numerics.newton.useful_pass_ratio": iterations / dual_passes if dual_passes else 0.0,
        "numerics.newton.self_us": us("numerics.newton"),
        "numerics.newton.stalls": counters.get("newton.stalls", 0),
        "numerics.lu_solve.calls_per_step": per_step("numerics.lu_solve"),
        "numerics.lu_solve.us": us("numerics.lu_solve"),
        "kernels.solve_generic.calls_per_step": per_step("kernels.solve_generic"),
        "kernels.solve_generic.us": us("kernels.solve_generic"),
        "dgradients.evaluate.calls_per_step": per_step("dgradients.evaluate"),
        "integrators.integrate.self_us": us("integrators.integrate"),
    }
    for kind in KINDS:
        seconds = tracer.self_seconds("integrate", f"dgradients.evaluate.{kind}")
        values[f"dgradients.evaluate.self_us.{kind}"] = (
            1e6 * seconds / steps[kind] if steps[kind] else 0.0
        )
    values["model.supply_value.us"] = (
        1e6 * tracer.self_seconds("audit", "model.supply_value") / steps_total
    )
    calls, seconds, _ = tracer.totals.get("setup", {}).get("riccati.solve_are", (0, 0.0, 0.0))
    values["riccati.solve_are.ms"] = 1e3 * seconds / calls if calls else 0.0
    pairs = [pair for samples in paired.values() for pair in samples]
    values["trace.overhead_pct"] = (
        100.0 * (sum(p[1] for p in pairs) / sum(p[0] for p in pairs) - 1.0) if pairs else 0.0
    )
    untraced = summarize(ops, plain)
    for kind in KINDS:
        values[f"step_us.{kind}"] = untraced[f"step_us.{kind}"]

    metrics, absent = {}, []
    for name, unit in declared_metrics("per_layer"):
        needs, _ = PER_LAYER[name]
        if missing.intersection(needs):
            absent.append(name)
        else:
            metrics[name] = {"value": values[name], "unit": unit}
    return metrics, absent


def trace_problems(tracer, deltas):
    """Self-checks of the trace: exact repeat of counts across rounds, and
    self times that add up to their root span."""
    problems = []
    if any(delta != deltas[0] for delta in deltas[1:]):
        problems.append("call counts differ between traced rounds")
    for root, top in (("integrate", "integrators.integrate"), ("audit", "integrators.audit")):
        if top in tracer.totals.get(root, {}):
            gap = tracer.span_sum_defect(root, top)
            if gap > 1e-9:
                problems.append(f"self times under {top} miss its span by {gap:.1e}")
    return problems


def run_workload(args):
    ops = setup(args.workload, args.seed)
    import qsrdg

    if Path(qsrdg.__file__).resolve().parent != (SRC / "qsrdg").resolve():
        print(f"qsrdg imported from {qsrdg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    record = environment_record(args)
    problems = [f"checker self-test: {p}" for p in self_test()]
    references = {}
    for op in ops:
        references[op.label] = reference_final_state(op)
    runner = Runner(references)
    for op in ops:
        short = warmup(op)
        try:
            runner.integrate(short.system, short.config, short.grid, short.control, short.initial_state)
        except Exception as exc:  # the timed run counts it again as a failure
            problems.append(f"warm-up of {op.label} raised {type(exc).__name__}: {exc}")

    if args.trace:
        tracer, inst, plain, paired, steps, steps_total, deltas = traced_loop(
            ops, runner, args.seconds, args.seed
        )
        if steps_total == 0:
            problems.append("no traced operation succeeded")
            metrics, absent = {}, []
        else:
            metrics, absent = layer_metrics(ops, tracer, inst, plain, paired, steps, steps_total)
            problems += trace_problems(tracer, deltas)
        record["traced_rounds"] = len(deltas)
        record["absent_boundaries"] = sorted(inst.absent)
        record["absent_metrics"] = absent
        timings = plain
    else:
        timings, setup_samples = timed_loop(
            ops, runner, args.seconds, args.seed, lambda: time_setup(args.workload, args.seed)
        )
        values = summarize(ops, timings)
        values["setup_s"] = fastest_stretches(setup_samples)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared_metrics("end_to_end")
        }
        record["setup_samples"] = len(setup_samples)
        record["setup_s.median"] = statistics.median(sum(s) for s in setup_samples)
        medians = summarize(ops, timings, fastest=False)
        record["median_repeat"] = {
            name: medians[name] for name in ("step_us", "audit_us", "member_ms.p50", "member_ms.p95")
        }
    samples = summarize(ops, timings)
    record["members"] = samples["members"]
    record["member_samples"] = samples["samples"]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  operations: {runner.attempted} attempted, {runner.failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  member_ms over {samples['members']} members ({samples['samples']} samples)")
    for message in runner.messages + problems:
        print(f"  FAIL {message}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": runner.failed == 0 and not problems and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            return out.returncode
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    # one caller on one core: keep numpy's BLAS pool from spinning extra threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (SRC / "qsrdg" / "__init__.py").is_file():
        print(f"no qsrdg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        import numpy  # noqa: F401  (a dependency: setup_s times qsrdg's own work)

        clock = time.perf_counter
        laps = [clock()]
        setup(args.workload, args.seed, lambda: laps.append(clock()))
        print(json.dumps([b - a for a, b in zip(laps, laps[1:])]))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
