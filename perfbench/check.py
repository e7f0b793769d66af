"""Correctness gate for one operation.

An operation fails when it raises (counted by the caller) or when
:func:`failures` returns a reason:

- a state is not finite;
- a step's Newton residual is above the configured tolerance.  This reads
  ``Trajectory.newton_residuals``, not warnings, because Python's
  once-per-location warning filter hides repeated stalls;
- on a ``dg-qsr`` run, a step's balance defect from the audit is above
  ``BALANCE_GATE``;
- the final state is farther than the operation's bound, in the max norm,
  from an independent ``scipy.integrate.solve_ivp`` solution of the same
  initial value problem.  The caller computes that reference before any
  timed region.
"""

import numpy as np

BALANCE_GATE = 1e-10


def _control_vector(control, t):
    out = control(t)
    if isinstance(out, (int, float)):
        return (float(out),)
    return tuple(float(v) for v in out)


def reference_final_state(op):
    """Final state of ``z' = f(z) + B(z) u(t)`` by DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    system, control = op.system, op.control

    def rhs(t, z):
        zl = [float(v) for v in z]
        u = _control_vector(control, t)
        fv = system.drift(zl)
        bv = system.input_map(zl)
        return [
            float(fi) + sum(float(bij) * uj for bij, uj in zip(brow, u))
            for fi, brow in zip(fv, bv)
        ]

    sol = solve_ivp(
        rhs,
        (0.0, op.grid.horizon),
        np.asarray(op.initial_state, dtype=float),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    if not sol.success:
        raise RuntimeError(f"solve_ivp failed on {op.label}: {sol.message}")
    return sol.y[:, -1]


def failures(op, trajectory, defects, reference_state):
    """Reasons the operation's result is wrong; empty when it passes."""
    reasons = []
    if not np.all(np.isfinite(trajectory.states)):
        reasons.append("non-finite state")
    tol = op.config.newton.residual_tolerance
    stalled = np.flatnonzero(~(trajectory.newton_residuals <= tol))
    if stalled.size:
        reasons.append(
            f"Newton residual above {tol:.0e} at {stalled.size} steps"
            f" (first: step {stalled[0]})"
        )
    if op.kind is not None:
        broken = np.flatnonzero(~(defects <= BALANCE_GATE))
        if broken.size:
            reasons.append(
                f"balance defect above {BALANCE_GATE:.0e} at {broken.size} steps"
                f" (first: step {broken[0]}, {defects[broken[0]]:.2e})"
            )
    error = float(np.max(np.abs(trajectory.states[-1] - reference_state)))
    if not error <= op.bound:
        reasons.append(f"final-state error {error:.2e} above bound {op.bound:.2e}")
    return reasons


def self_test():
    """Feed the checker a clean trajectory, one with an injected balance
    defect and one with a perturbed final state.  Returns a list of
    problems; empty when the checker flags exactly the broken two."""
    import dataclasses

    from qsrdg import discrete_power_balance_residuals, integrate

    from workloads import setup

    op = setup("trajectory", 0)[0]
    trajectory = integrate(op.system, op.config, op.grid, op.control, op.initial_state)
    reference = reference_final_state(op)

    def reasons_for(traj):
        return failures(op, traj, discrete_power_balance_residuals(op.system, traj), reference)

    outputs = trajectory.discrete_outputs.copy()
    outputs[op.steps // 2] += 1e-6
    defect = dataclasses.replace(trajectory, discrete_outputs=outputs)
    states = trajectory.states.copy()
    states[-1] += 10.0 * op.bound
    perturbed = dataclasses.replace(trajectory, states=states)

    problems = []
    if reasons_for(trajectory):
        problems.append(f"clean trajectory flagged: {reasons_for(trajectory)}")
    if not any("balance defect" in r for r in reasons_for(defect)):
        problems.append("injected balance defect not flagged")
    if not any("final-state error" in r for r in reasons_for(perturbed)):
        problems.append("perturbed final state not flagged")
    return problems
