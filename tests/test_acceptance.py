"""End-to-end acceptance gate.

One test per advertised guarantee, each printing a single PASS/FAIL line
with the measured number next to the required tolerance.  Tolerances are
asserted exactly as promised; nothing here is loosened to make a red
test green.
"""

import math

import numpy as np
import pytest

from qsrdg.dgradients import (
    GONZALEZ,
    ITOH_ABE,
    discrete_gradient,
    mean_value,
)
from qsrdg.integrators import (
    IMPLICIT_MIDPOINT,
    SchemeConfig,
    TimeGrid,
    discrete_power_balance_residuals,
    integrate,
    relative_error,
)
from qsrdg.model import continuous_power_balance_residual, hill_moylan_residual
from qsrdg.riccati import solve_are
from qsrdg.systems import (
    EXAMPLE_NAMES,
    LtiOcpParams,
    PendulumParams,
    benchmark_settings,
    make_pendulum,
)

SEED = 0
HORIZON = 10.0


def report(index, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"criterion {index} ({name}): {verdict} ({detail})")


def test_criterion_1_discrete_power_balance():
    worst = {}
    for name in EXAMPLE_NAMES:
        case = benchmark_settings(name)
        grid = TimeGrid.equidistant(HORIZON, 1000)
        traj = integrate(
            case.system, SchemeConfig(), grid, case.control, case.initial_state
        )
        residuals = discrete_power_balance_residuals(case.system, traj)
        worst[name] = float(np.max(residuals))
    overall = max(worst.values())
    report(
        1,
        "discrete power balance",
        overall <= 1e-10,
        f"max over examples {overall:.3e} <= 1e-10; " + ", ".join(
            f"{k} {v:.2e}" for k, v in worst.items()
        ),
    )
    assert overall <= 1e-10


def test_criterion_2_second_order_accuracy():
    tau_min = 1e-3
    medians = {}
    for name in EXAMPLE_NAMES:
        case = benchmark_settings(name)
        ref_tau = tau_min / 8.0
        reference = integrate(
            case.system,
            SchemeConfig(scheme=IMPLICIT_MIDPOINT),
            TimeGrid.with_step(ref_tau, int(round(HORIZON / ref_tau))),
            case.control,
            case.initial_state,
        )
        errors = []
        for s in range(5, -1, -1):
            tau = (2.0**s) * tau_min
            q = int(math.floor(HORIZON / tau + 1e-9))
            traj = integrate(
                case.system,
                SchemeConfig(),
                TimeGrid.with_step(tau, q),
                case.control,
                case.initial_state,
            )
            errors.append(relative_error(traj, reference))
        orders = [
            math.log2(errors[i - 1] / errors[i]) for i in range(1, len(errors))
        ]
        finest = sorted(orders[-3:])
        medians[name] = finest[1]
    ok = all(1.7 <= v <= 2.3 for v in medians.values())
    report(
        2,
        "second-order accuracy",
        ok,
        "median order of three finest pairs in [1.7, 2.3]; " + ", ".join(
            f"{k} {v:.3f}" for k, v in medians.items()
        ),
    )
    assert ok, medians


def test_criterion_3_exact_conservation_in_conservative_limit():
    sys_ = make_pendulum(PendulumParams(damping=0.0))
    z0 = (math.pi / 4.0, -1.0)
    h0 = sys_.storage.value(z0)

    def drift_of(scheme, num_steps):
        traj = integrate(
            sys_,
            SchemeConfig(scheme=scheme),
            TimeGrid.equidistant(HORIZON, num_steps),
            lambda t: 0.0,
            z0,
        )
        return max(abs(sys_.storage.value(s.tolist()) - h0) for s in traj.states)

    dg_fine = drift_of("dg-qsr", 1000)
    dg_coarse = drift_of("dg-qsr", 100)
    mp_coarse = drift_of(IMPLICIT_MIDPOINT, 100)
    ok = dg_fine <= 1e-10 and mp_coarse >= 10.0 * dg_coarse
    report(
        3,
        "conservative-limit energy",
        ok,
        f"dg drift {dg_fine:.3e} <= 1e-10; midpoint/dg at q=100: "
        f"{mp_coarse:.3e} vs {dg_coarse:.3e}",
    )
    assert dg_fine <= 1e-10
    assert mp_coarse >= 10.0 * dg_coarse


def _axiom_samples(storage, n):
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        yield rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)


def _secant_defect(kind, storage, z, w):
    d = discrete_gradient(kind, storage, z, w)
    dh = storage.value(list(w)) - storage.value(list(z))
    return abs(dh - float(d @ (np.asarray(w) - np.asarray(z)))) / (1.0 + abs(dh))


def test_criterion_4_discrete_gradient_axioms_exact_kinds():
    worst_secant = 0.0
    worst_consistency = 0.0
    for name in EXAMPLE_NAMES:
        storage = benchmark_settings(name).system.storage
        for z, w in _axiom_samples(storage, storage.dim):
            for kind in (GONZALEZ, ITOH_ABE):
                worst_secant = max(
                    worst_secant, _secant_defect(kind, storage, z, w)
                )
            for kind in (GONZALEZ, ITOH_ABE, mean_value()):
                d = discrete_gradient(kind, storage, z, z)
                g = np.asarray(storage.gradient(list(z)), dtype=float)
                worst_consistency = max(
                    worst_consistency,
                    float(np.max(np.abs(d - g))) / (1.0 + float(np.max(np.abs(g)))),
                )
    ok = worst_secant <= 1e-12 and worst_consistency <= 1e-12
    report(
        4,
        "discrete-gradient axioms, exact kinds",
        ok,
        f"secant {worst_secant:.3e} <= 1e-12, "
        f"consistency {worst_consistency:.3e} <= 1e-12",
    )
    assert worst_secant <= 1e-12
    assert worst_consistency <= 1e-12


def test_criterion_4_discrete_gradient_axioms_mean_value_kind():
    """Secant property of the mean-value kind at order 5, required <= 1e-8.

    One order-5 Gauss panel is not exact for the non-polynomial example
    storages, and on pairs sampled from the full [-2, 2]^n box its defect
    exceeds the stated bound by orders of magnitude (the saturating
    rational storage has poles near the integration segment).  The kind
    refines its panels until the defect is below tolerance, so the bound
    holds as stated; see the sibling test for the 1e-12 exact kinds.
    """
    kind = mean_value(5)
    worst = {}
    for name in EXAMPLE_NAMES:
        storage = benchmark_settings(name).system.storage
        worst[name] = max(
            _secant_defect(kind, storage, z, w)
            for z, w in _axiom_samples(storage, storage.dim)
        )
    overall = max(worst.values())
    report(
        4,
        "discrete-gradient axioms, mean-value kind",
        overall <= 1e-8,
        f"secant {overall:.3e} <= 1e-8; " + ", ".join(
            f"{k} {v:.2e}" for k, v in worst.items()
        ),
    )
    assert overall <= 1e-8, (
        "order-5 quadrature misses the required 1e-8 on wide boxes: "
        + ", ".join(f"{k} {v:.3e}" for k, v in worst.items())
    )


def test_criterion_5_structure_identities():
    worst_hm = 0.0
    worst_pb = 0.0
    for name in EXAMPLE_NAMES:
        sys_ = benchmark_settings(name).system
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            z = rng.uniform(-2.0, 2.0, sys_.n)
            u = rng.uniform(-2.0, 2.0, sys_.m)
            worst_hm = max(worst_hm, *hill_moylan_residual(sys_, z))
            worst_pb = max(worst_pb, continuous_power_balance_residual(sys_, z, u))
    ok = worst_hm <= 1e-10 and worst_pb <= 1e-10
    report(
        5,
        "structure identities",
        ok,
        f"identities {worst_hm:.3e} <= 1e-10, balance {worst_pb:.3e} <= 1e-10",
    )
    assert worst_hm <= 1e-10
    assert worst_pb <= 1e-10


def test_criterion_6_riccati_correctness():
    params = LtiOcpParams()
    a = np.asarray(params.a, dtype=float)
    b = np.asarray(params.b, dtype=float)
    c = np.asarray(params.c, dtype=float)
    p = solve_are(a, b, c)
    asym = float(np.max(np.abs(p - p.T)))
    residual = float(
        np.max(np.abs(a.T @ p + p @ a - p @ b @ b.T @ p + c.T @ c))
    )
    eigs = np.linalg.eigvalsh(p)
    closed_loop = np.linalg.eigvals(a - b @ b.T @ p)

    p_scalar = solve_are(np.array([[0.0]]), np.array([[1.0]]), np.array([[1.0]]))
    err1 = abs(p_scalar[0, 0] - 1.0)
    p_scalar = solve_are(np.array([[-1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    err2 = abs(p_scalar[0, 0] - (math.sqrt(2.0) - 1.0))

    ok = (
        asym <= 1e-12
        and residual <= 1e-10
        and bool(np.all(eigs > 0.0))
        and bool(np.all(closed_loop.real < 0.0))
        and err1 <= 1e-12
        and err2 <= 1e-12
    )
    report(
        6,
        "Riccati correctness",
        ok,
        f"symmetry {asym:.2e} <= 1e-12, residual {residual:.2e} <= 1e-10, "
        f"eigs > 0: {bool(np.all(eigs > 0.0))}, Hurwitz: "
        f"{bool(np.all(closed_loop.real < 0.0))}, scalar errors "
        f"{err1:.2e}/{err2:.2e} <= 1e-12",
    )
    assert ok


def test_criterion_7_scheme_consistency_at_base_points(scheme_oracle):
    tau = 1e-2
    worst = 0.0
    for name in EXAMPLE_NAMES:
        case = benchmark_settings(name)
        sys_ = case.system
        rng = np.random.default_rng(SEED)
        count = 0
        while count < 20:
            z = rng.uniform(-2.0, 2.0, sys_.n)
            eta = np.asarray(sys_.storage.gradient(z), dtype=float)
            if float(np.linalg.norm(eta)) <= 1e-3:
                continue
            count += 1
            u = rng.uniform(-2.0, 2.0, sys_.m)
            fv = np.asarray(sys_.drift(z), dtype=float)
            bu = np.asarray(sys_.input_map(z), dtype=float) @ u
            _, gam = scheme_oracle(sys_, GONZALEZ, z, z)
            orth = np.eye(eta.size) - np.outer(eta, eta) / (eta @ eta)
            residual_at_base = -tau * (gam * eta + orth @ fv + bu)
            target = -tau * (fv + bu)
            worst = max(
                worst, float(np.max(np.abs(residual_at_base - target)))
            )
    report(
        7,
        "scheme consistency",
        worst <= 1e-10,
        f"max deviation {worst:.3e} <= 1e-10",
    )
    assert worst <= 1e-10
