"""LP duality-gap certificates.

Independent evidence source #2: the occupation-measure LP of
:mod:`repro.ctmdp.linear_program` solves the same average-cost problem
by a completely different method (HiGHS simplex/IPM over stationary
state-action probabilities) than the dynamic-programming solvers under
test. Certifying against it is N-version programming at the *algorithm*
level: a bug would have to produce the same wrong number through two
unrelated optimality theories to slip through.

Weighted mode compares the policy's independently evaluated gain (the
Bellman check's evaluation, reused by the engine) with the LP optimum
``g*``: a correct solve has ``gain - g*`` within
round-off; a corrupted policy sits strictly above ``g*``, and a gain
*below* ``g*`` is impossible, so either direction is a typed failure.
Constrained mode (Section IV of the paper) re-solves the constrained
LP and checks both the objective gap and every constraint bound
against the policy's independently computed averages. Above the
solver's dense-tier crossover HiGHS gets a sparse constraint matrix
(:func:`~repro.ctmdp.linear_program.average_cost_lp_optimum`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.certify.bellman import PolicySystem
from repro.certify.report import CertFinding, CheckResult
from repro.ctmdp.linear_program import (
    average_cost_lp_optimum,
    constrained_lp_optimum,
)


def check_lp(
    mdp,
    policy,
    policy_gain: float,
    tolerance: float,
    scale: float,
) -> CheckResult:
    """Weighted-mode duality certificate: policy gain vs LP optimum."""
    findings = []
    lp = average_cost_lp_optimum(mdp)
    gap = policy_gain - lp.gain
    data: "Dict[str, Any]" = {
        "lp_gain": lp.gain,
        "policy_gain": policy_gain,
        "duality_gap": gap,
        "lp_status": lp.status,
        "lp_internal_gap": lp.diagnostics.get("duality_gap"),
        "lp_iterations": lp.diagnostics.get("iterations"),
    }
    if gap > tolerance * scale:
        findings.append(
            CertFinding(
                code="lp-duality-gap",
                message=f"policy gain {policy_gain:.12g} exceeds the "
                f"independent LP optimum {lp.gain:.12g} by {gap:.3e} "
                "-- the policy is not optimal",
                value=gap,
            )
        )
    elif gap < -tolerance * scale:
        findings.append(
            CertFinding(
                code="lp-duality-gap",
                message=f"policy gain {policy_gain:.12g} is {-gap:.3e} "
                f"*below* the LP optimum {lp.gain:.12g}, which is "
                "impossible -- the evaluation and the LP disagree on "
                "the model",
                value=gap,
            )
        )
    status = "failed" if findings else "passed"
    return CheckResult(name="lp", status=status, findings=findings, data=data)


def check_lp_constrained(
    mdp,
    policy,
    objective: str,
    constraints: "Mapping[str, float]",
    claimed_objective: "Optional[float]",
    tolerance: float,
    scale: float,
    system: "Optional[PolicySystem]" = None,
) -> CheckResult:
    """Constrained-mode certificate: objective gap + bound satisfaction.

    The policy's averages come from *system* -- its evaluation
    equations, factored once for every channel (the engine shares one
    with its other checks) -- or from a fresh one.
    """
    findings = []
    lp = constrained_lp_optimum(mdp, objective, dict(constraints))
    if system is None:
        system = PolicySystem(mdp, policy)

    def average(channel: str) -> float:
        return system.solve(system.costs(channel))[0]

    objective_value = average(objective)
    gap = objective_value - lp.gain
    data: "Dict[str, Any]" = {
        "objective": objective,
        "objective_value": objective_value,
        "lp_objective": lp.gain,
        "duality_gap": gap,
        "lp_status": lp.status,
        "lp_internal_gap": lp.diagnostics.get("duality_gap"),
        "constraint_values": {},
    }
    if claimed_objective is not None:
        drift = abs(objective_value - claimed_objective)
        data["claimed_objective"] = float(claimed_objective)
        if drift > tolerance * scale:
            findings.append(
                CertFinding(
                    code="claimed-gain-mismatch",
                    message=f"solver claimed average {objective} "
                    f"{claimed_objective:.12g} but independent evaluation "
                    f"finds {objective_value:.12g} (drift {drift:.3e})",
                    value=drift,
                )
            )
    if abs(gap) > tolerance * scale:
        direction = "exceeds" if gap > 0 else "undershoots"
        findings.append(
            CertFinding(
                code="lp-duality-gap",
                message=f"policy's average {objective} "
                f"{objective_value:.12g} {direction} the constrained-LP "
                f"optimum {lp.gain:.12g} by {abs(gap):.3e}",
                value=gap,
            )
        )
    for name, bound in constraints.items():
        value = average(name)
        data["constraint_values"][name] = value
        if value > float(bound) + tolerance * scale:
            findings.append(
                CertFinding(
                    code="lp-constraint-violated",
                    message=f"constraint {name} <= {float(bound):.12g} "
                    f"violated: policy averages {value:.12g}",
                    value=value - float(bound),
                )
            )
    status = "failed" if findings else "passed"
    return CheckResult(name="lp", status=status, findings=findings, data=data)
