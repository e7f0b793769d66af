#!/usr/bin/env python3
"""Self-test of the benchmark's checker and trace.

    python3 perfbench/selftest.py

Checks that:

- the correctness checker flags an injected balance defect and a
  perturbed final state, and passes the clean trajectory;
- two traced runs of the same operations give identical call counts,
  Newton iterations, Jacobian passes and stalls, and within each run the
  self times add up to the ``integrate`` span;
- a boundary missing from the library is reported absent, and the metrics
  that need it are left out, instead of failing the run.

Exits with status 1 when any check fails.
"""

import sys

import run
from workloads import setup


def trace_ops():
    """Every operation of the trajectory and reference workloads."""
    return setup("trajectory", 0) + setup("reference", 0)


def traced_counts(ops, references):
    runner = run.Runner(references)
    tracer, _, _, _, _, _, deltas = run.traced_loop(ops, runner, 0.0, 0)
    return deltas, run.trace_problems(tracer, deltas), runner.failed


def check_trace():
    from check import reference_final_state

    ops = trace_ops()
    references = {op.label: reference_final_state(op) for op in ops}
    problems = []
    first, first_problems, failed_a = traced_counts(ops, references)
    second, second_problems, failed_b = traced_counts(ops, references)
    problems += first_problems + second_problems
    if failed_a or failed_b:
        problems.append(f"{failed_a + failed_b} traced operations failed")
    if first[0] != second[0]:
        diff = sorted(k for k in set(first[0]) | set(second[0]) if first[0].get(k) != second[0].get(k))
        problems.append(f"counts differ between two traced runs: {diff}")
    if not first[0].get("integrate:#newton.dual_passes"):
        problems.append("no Jacobian passes counted")
    return problems


def check_absent():
    import qsrdg.systems

    from layers import PER_LAYER, Instrumentation, Tracer

    original = qsrdg.systems.solve_are
    del qsrdg.systems.solve_are
    try:
        inst = Instrumentation(Tracer())
    finally:
        qsrdg.systems.solve_are = original
    left_out = [name for name, (needs, _) in PER_LAYER.items() if inst.missing.intersection(needs)]
    if left_out != ["riccati.solve_are.ms"]:
        return [f"removing qsrdg.systems.solve_are leaves out {left_out}"]
    return []


def main():
    if not (run.SRC / "qsrdg" / "__init__.py").is_file():
        print(f"no qsrdg sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from check import self_test

    problems = []
    for name, check in (
        ("checker", self_test),
        ("trace repeatability", check_trace),
        ("absent boundary", check_absent),
    ):
        found = check()
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        for problem in found:
            print(f"  {problem}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
