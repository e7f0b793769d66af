"""Benchmark driver: argument handling, file outputs, exit codes."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qsrdg import cli
from qsrdg.errors import GridMismatch, IntegrationError
from qsrdg.systems import benchmark_settings


def run(args, **kwargs):
    return cli.main([str(a) for a in args], **kwargs)


def read_csv(path):
    with open(path, newline="") as stream:
        rows = list(csv.reader(stream))
    return rows[0], rows[1:]


def test_console_script_is_wired():
    out = subprocess.run(
        [sys.executable, "-m", "qsrdg.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert "qsr-dg" in out.stdout


def test_simulate_writes_trajectory_and_meta(tmp_path):
    out = tmp_path / "run.csv"
    code = run(
        ["simulate", "--example", "pendulum", "--q", 50, "--T", 1.0, "--out", out]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "t", "z1", "z2", "ubar", "ybar", "newton_residual", "newton_iterations"
    ]
    assert len(rows) == 51
    # interior rows carry step data, the final row only the state
    assert all(field for field in rows[0])
    assert rows[-1][3] == "" and rows[-1][4] == "" and rows[-1][5] == ""
    assert rows[-1][6] == ""
    assert all(1 <= int(row[6]) <= 10 for row in rows[:-1])
    assert float(rows[-1][0]) == 1.0

    meta = json.loads((tmp_path / "run.meta.json").read_text())
    assert meta["command"] == "simulate"
    assert meta["example"] == "pendulum"
    assert meta["scheme"] == "dg-qsr"
    assert meta["num_steps"] == 50
    assert meta["version"]
    assert set(meta) == {
        "command", "example", "scheme", "dg_kind", "num_steps", "horizon",
        "zero_input", "version",
    }


def test_simulate_midpoint_scheme_flag(tmp_path):
    out = tmp_path / "mid.csv"
    code = run(
        [
            "simulate", "--example", "synthetic", "--scheme", "midpoint",
            "--q", 20, "--T", 1.0, "--out", out,
        ]
    )
    assert code == 0
    meta = json.loads((tmp_path / "mid.meta.json").read_text())
    assert meta["scheme"] == "implicit-midpoint"
    assert meta["dg_kind"] is None


def test_simulate_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(
            ["simulate", "--example", "lti-ocp", "--q", 40, "--T", 2.0, "--out", out]
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_simulate_zero_input_holds_integrator_fixed_point(tmp_path):
    out = tmp_path / "pi.csv"
    code = run(
        ["simulate", "--example", "pi", "--zero-input", "--q", 10, "--T", 1.0,
         "--out", out]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert all(float(row[1]) == 1.0 for row in rows)
    assert all(float(row[2]) == 0.0 for row in rows[:-1])
    assert all(row[5] == "0" for row in rows[:-1])


@pytest.mark.parametrize("command", ("simulate", "balance"))
def test_unforced_synthetic_run_at_cli_defaults_exits_zero(command, tmp_path):
    # over T = 10 the state decays like e^{-3t} to about 1e-13; an absolute
    # floor on the discrete gradient once failed step 949 with exit 3
    out = tmp_path / "z.csv"
    assert run([command, "--example", "synthetic", "--zero-input", "--out", out]) == 0


@pytest.mark.parametrize("example", ("pendulum", "lti-ocp", "pi", "synthetic"))
def test_balance_gate_passes_on_all_examples(example, tmp_path):
    out = tmp_path / f"{example}.csv"
    code = run(
        ["balance", "--example", example, "--q", 400, "--T", 4.0, "--out", out]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "balance_residual"]
    assert len(rows) == 400
    assert max(abs(float(r[1])) for r in rows) <= 1e-8
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["max_balance_residual"] <= 1e-8


def test_balance_reports_failure_exit_code(tmp_path, monkeypatch):
    def fake_residuals(system, trajectory):
        return np.full(trajectory.grid.num_steps, 1e-3)

    monkeypatch.setattr(cli, "discrete_power_balance_residuals", fake_residuals)
    out = tmp_path / "bad.csv"
    code = run(["balance", "--example", "pi", "--q", 5, "--T", 1.0, "--out", out])
    assert code == 1


def test_convergence_runs_and_caches(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    code = run(
        ["convergence", "--example", "pi", "--s-max", 2, "--T", 2.0, "--out", out]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["tau", "rel_error", "observed_order"]
    assert len(rows) == 3
    assert rows[0][2] == "" and rows[1][2] != ""
    taus = [float(r[0]) for r in rows]
    assert taus == sorted(taus, reverse=True)
    orders = [float(r[2]) for r in rows[1:]]
    assert all(1.7 <= o <= 2.3 for o in orders)
    assert "PASS" in capsys.readouterr().out

    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert 1.7 <= meta["median_order"] <= 2.3
    assert meta["s_max"] == 2


def test_convergence_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert run(
            ["convergence", "--example", "pi", "--s-max", 2, "--T", 2.0, "--out", out]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reference_matches_closed_forms():
    # the forced pi run integrates its control, z(t) = 1 + int_0^t u, across
    # the kink of min(t^2, e^-t); the unforced lti-ocp regulator rotates
    # and grows at rate 0.1
    horizon = 2.0
    pi = benchmark_settings("pi")
    (kink,) = pi.breakpoints

    def pi_exact(t):
        if t <= kink:
            return [1.0 + t**3 / 3.0]
        return [1.0 + kink**3 / 3.0 + math.exp(-kink) - math.exp(-t)]

    def lti_exact(t):
        grow = math.exp(0.1 * t)
        return [grow * (math.cos(t) + math.sin(t)), grow * (math.cos(t) - math.sin(t))]

    lti = benchmark_settings("lti-ocp")._replace(control=lambda t: 0.0)
    for case, exact in ((pi, pi_exact), (lti, lti_exact)):
        reference = cli.reference_trajectory(case, horizon)
        points = reference.grid.points
        assert points[-1] == horizon
        want = np.array([exact(t) for t in points])
        worst = np.max(
            np.linalg.norm(reference.states - want, axis=1)
            / np.linalg.norm(want, axis=1)
        )
        assert worst <= 1e-12, worst


def test_convergence_gate_failure_exit_code(tmp_path, monkeypatch):
    calls = {"n": 0}
    real = cli.relative_error

    def flat_error(trajectory, reference):
        real(trajectory, reference)  # still exercise the node matching
        calls["n"] += 1
        return 1e-6  # no decay with tau: observed order 0
    monkeypatch.setattr(cli, "relative_error", flat_error)
    code = run(
        [
            "convergence", "--example", "pi", "--s-max", 2, "--T", 2.0,
            "--out", tmp_path / "flat.csv",
        ]
    )
    assert code == 1
    assert calls["n"] == 3


def test_convergence_exact_result_has_no_observed_order(tmp_path, capsys):
    # the zero-input pi run sits at a fixed point, so every error is 0:
    # no pair has an order and the gate fails without a traceback
    out = tmp_path / "exact.csv"
    code = run(
        [
            "convergence", "--example", "pi", "--zero-input", "--s-max", 2,
            "--T", 1.0, "--out", out,
        ]
    )
    assert code == 1
    _, rows = read_csv(out)
    assert [float(r[1]) for r in rows] == [0.0, 0.0, 0.0]
    assert [r[2] for r in rows] == ["", "", ""]
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert meta["observed_orders"] == [None, None]
    assert meta["median_order"] is None
    printed = capsys.readouterr().out
    assert "no median order: a pair among the finest has a zero error" in printed
    assert "FAIL" in printed


def test_checks_pass_and_report(tmp_path, capsys):
    out = tmp_path / "checks.csv"
    code = run(["checks", "--example", "synthetic", "--seed", 0, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "storage_supply" in printed
    assert "power_balance" in printed
    assert "PASS" in printed
    header, rows = read_csv(out)
    assert header == ["check", "value"]
    assert len(rows) == 4
    assert all(float(r[1]) <= 1e-9 for r in rows)


def test_checks_seed_changes_samples_not_verdict(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["checks", "--example", "pendulum", "--seed", 7]) == 0
    assert run(["checks", "--example", "pendulum", "--seed", 8]) == 0


def test_checks_nan_residual_fails_the_gate(tmp_path, capsys, monkeypatch):
    # a builtin max over NaN keeps the running value, so NaN residuals
    # once read as 0 and passed
    monkeypatch.setattr(
        cli, "hill_moylan_residual", lambda system, z: (math.nan,) * 3
    )
    out = tmp_path / "nan.csv"
    assert run(["checks", "--example", "pi", "--out", out]) == 1
    assert "FAIL" in capsys.readouterr().out
    meta = json.loads(out.with_suffix(".meta.json").read_text())
    assert math.isnan(meta["max_storage_supply"])
    assert meta["max_power_balance"] <= 1e-9


def test_checks_refuses_zero_input(tmp_path):
    # checks samples its inputs, so the flag was parsed and ignored
    with pytest.raises(SystemExit) as info:
        run(["checks", "--example", "pi", "--zero-input", "--out", tmp_path / "x.csv"])
    assert info.value.code == 2
    assert not list(tmp_path.iterdir())


def test_integration_failure_maps_to_exit_three(monkeypatch, tmp_path):
    def boom(system, config, grid, control, z0):
        raise IntegrationError(3, 0.3, "vanished direction")

    monkeypatch.setattr(cli, "integrate", boom)
    code = run(
        ["simulate", "--example", "pendulum", "--q", 5, "--T", 1.0,
         "--out", tmp_path / "x.csv"]
    )
    assert code == 3


def test_grid_mismatch_maps_to_exit_four(monkeypatch, tmp_path):
    def mismatch(trajectory, reference):
        raise GridMismatch("node not on the reference grid")

    monkeypatch.setattr(cli, "relative_error", mismatch)
    code = run(
        [
            "convergence", "--example", "pi", "--s-max", 2, "--T", 2.0,
            "--out", tmp_path / "x.csv",
        ]
    )
    assert code == 4


def test_bad_arguments_exit_two(monkeypatch):
    def no_reference(case, horizon):
        raise AssertionError("a refused sweep built its reference")

    monkeypatch.setattr(cli, "reference_trajectory", no_reference)
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--example", "rotor"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["balance", "--example", "pi", "--q", 0])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--example", "pi", "--T", -1.0])
    assert info.value.code == 2
    assert run(["convergence", "--example", "pi", "--s-max", 1]) == 2
    with pytest.raises(SystemExit) as info:
        run(["checks", "--example", "pi", "--seed", -1])
    assert info.value.code == 2
    # a sweep whose coarsest step does not fit the horizon is refused
    # before the reference is built
    for too_coarse in (["--T", 0.01, "--s-max", 5], ["--T", 1.0, "--s-max", 2000]):
        assert run(["convergence", "--example", "pi", *too_coarse]) == 2


@pytest.mark.parametrize("command", ("simulate", "balance", "convergence"))
def test_infinite_horizon_is_a_bad_argument(command, tmp_path):
    # an infinite horizon is rejected while parsing, not left to break the
    # grid construction with exit code 1, which is reserved for gates
    with pytest.raises(SystemExit) as info:
        run([command, "--example", "pi", "--T", "inf", "--out", tmp_path / "x.csv"])
    assert info.value.code == 2


def test_default_output_name_lands_in_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["simulate", "--example", "pi", "--q", 5, "--T", 0.5]) == 0
    assert (tmp_path / "qsr-dg-simulate-pi.csv").exists()
    assert (tmp_path / "qsr-dg-simulate-pi.meta.json").exists()
    assert run(["checks", "--example", "pi"]) == 0
    assert (tmp_path / "qsr-dg-checks-pi.csv").exists()
    meta = json.loads((tmp_path / "qsr-dg-checks-pi.meta.json").read_text())
    assert meta["command"] == "checks" and meta["num_samples"] == 100
