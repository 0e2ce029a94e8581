"""The certification engine: independent evidence, one verdict.

:func:`certify_solution` takes any solved ``(model, weight, policy,
claimed metrics)`` and runs up to four evidence sources that never
reuse the solver under test -- Bellman residuals
(:mod:`repro.certify.bellman`), LP duality
(:mod:`repro.certify.duality`), exact rational arithmetic
(:mod:`repro.certify.exact`), and cross-backend consensus
(:mod:`repro.certify.consensus`) -- and folds them into one
:class:`~repro.certify.report.CertificationReport`. The policy's
independent evaluation is solved once and shared by the checks that
read it. Above the solver's 256-state dense-tier crossover every check
runs on the model's nonzeros.

Failure containment mirrors the serve pipeline: a check that *cannot
run* (singular evaluation, LP solver failure) becomes a *failed* check
with a typed ``<name>-error`` finding, never an exception out of the
engine -- an uncheckable policy is an uncertified policy. Only
misconfiguration (a constrained result without its bounds, an artifact
for a different model) raises :class:`~repro.errors.CertificationError`.

Observability: each check runs under a ``certify.<name>`` span, and
``certify.runs`` / ``certify.certified`` / ``certify.failed`` plus
``certify.checks.{passed,failed,skipped}`` counters flow through the
ambient :mod:`repro.obs` context.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.certify import bellman as _bellman
from repro.certify import consensus as _consensus
from repro.certify import duality as _duality
from repro.certify import exact as _exact
from repro.certify.report import (
    CertFinding,
    CertificationReport,
    CheckResult,
    policy_table_checksum,
)
from repro.dpm.cost import POWER
from repro.errors import (
    CertificationError,
    CertificationFailedError,
    InvalidPolicyError,
    ReproError,
)
from repro.obs.runtime import active as obs_active

#: Default relative certification tolerance. Gains are O(1)-O(10) watts
#: on the paper's models and every evidence source agrees to ~1e-9, so
#: 1e-6 leaves three orders of headroom on both sides of the corrupted
#: corpus (whose gain shifts are O(0.01) and up).
DEFAULT_TOLERANCE = 1e-6

#: Exact rational arithmetic eliminates over the induced chain's
#: nonzeros, but its rationals grow with the chain: ~5 ms a call at the
#: paper's 23 states, ~0.5 s at 199 (2-core x86 host). Run it by
#: default only up to this state count.
EXACT_STATE_LIMIT = 200

#: The canonical check order; ``checks=`` subsets preserve it.
CHECK_NAMES = ("bellman", "lp", "exact", "consensus")


def _metric(claimed, name: str) -> "Optional[float]":
    """Read a named metric off a mapping or an AnalyticMetrics object."""
    if claimed is None:
        return None
    if isinstance(claimed, Mapping):
        value = claimed.get(name)
    else:
        value = getattr(claimed, name, None)
    return float(value) if value is not None else None


def _claimed_gain(claimed, weight: float) -> "Optional[float]":
    """The claimed weighted gain: ``avg_power + w * avg_queue_length``.

    The optimizer folds switching energy into the power channel, so
    this reconstruction matches the solver's internal objective to
    round-off (verified by the engine tests).
    """
    power = _metric(claimed, "average_power")
    queue = _metric(claimed, "average_queue_length")
    if power is None or queue is None:
        return None
    return power + weight * queue


def certify_solution(
    model,
    policy,
    weight: "Optional[float]" = None,
    claimed_metrics=None,
    constraints: "Optional[Mapping[str, float]]" = None,
    tolerance: float = DEFAULT_TOLERANCE,
    checks: "Sequence[str]" = CHECK_NAMES,
    exact_state_limit: int = EXACT_STATE_LIMIT,
    artifact_checksum: "Optional[str]" = None,
) -> CertificationReport:
    """Certify one solved policy with independent evidence.

    Parameters
    ----------
    model:
        The :class:`~repro.dpm.system.PowerManagedSystemModel` the
        policy was solved on (at its solved arrival rate).
    policy:
        A :class:`~repro.ctmdp.policy.Policy`,
        :class:`~repro.ctmdp.policy.RandomizedPolicy`, or a plain
        ``{state: action}`` assignment.
    weight:
        The performance weight of the solve (``None`` selects
        constrained mode, which then requires *constraints*).
    claimed_metrics:
        What the solver under test reported (an ``AnalyticMetrics`` or
        a mapping with ``average_power`` / ``average_queue_length``);
        certification checks the claim against independent evidence.
        Claims are in original units, also on a model built with a
        ``rate_scale``; the checks convert them.
    constraints:
        ``{extra_cost_name: bound}`` for Section-IV constrained solves.
    checks:
        Subset of :data:`CHECK_NAMES` to run, canonical order kept.

    Returns the report; never raises for a *failed* certification --
    use :func:`require_certified` for raise-on-failure semantics.
    """
    unknown = sorted(set(checks) - set(CHECK_NAMES))
    if unknown:
        raise CertificationError(
            f"unknown certification checks {unknown}; valid: {CHECK_NAMES}"
        )
    if weight is None and constraints is None:
        raise CertificationError(
            "certification needs the solve's objective: pass weight= for "
            "weighted solves or constraints= for constrained solves"
        )
    if tolerance <= 0 or not np.isfinite(tolerance):
        raise CertificationError(
            f"tolerance must be finite and positive, got {tolerance!r}"
        )

    mode = "constrained" if constraints is not None else "weighted"
    build_weight = 0.0 if mode == "constrained" else float(weight)
    mdp = model.build_ctmdp(build_weight)

    ins = obs_active()
    metrics = ins.metrics if ins.enabled else None
    if metrics is not None:
        metrics.counter("certify.runs").inc()

    claimed: "Dict[str, float]" = {}
    if mode == "weighted":
        claimed_gain = _claimed_gain(claimed_metrics, float(weight))
        if claimed_gain is not None:
            claimed["gain"] = claimed_gain
    else:
        claimed_gain = _metric(claimed_metrics, "average_power")
        if claimed_gain is not None:
            claimed["average_power"] = claimed_gain
        for name, bound in constraints.items():
            claimed[f"constraint:{name}"] = float(bound)

    fingerprint = _try_fingerprint(model)

    # An invalid policy table (unknown state/action) fails certification
    # with a typed finding instead of raising -- the adversarial corpus
    # contains exactly such members.
    try:
        policy_obj = _as_policy(mdp, policy)
    except InvalidPolicyError as exc:
        failed = CheckResult(
            name="policy",
            status="failed",
            findings=[
                CertFinding(
                    code="invalid-policy",
                    message=f"policy table is invalid for the model: {exc}",
                )
            ],
        )
        report = CertificationReport(
            mode=mode,
            rate=float(model.requestor.rate),
            weight=None if mode == "constrained" else float(weight),
            n_states=mdp.n_states,
            tolerance=float(tolerance),
            claimed=claimed,
            checks=[failed],
            policy_checksum="invalid",
            fingerprint=fingerprint,
            artifact_checksum=artifact_checksum,
        )
        _count_report(metrics, report)
        return report

    scale = max(1.0, abs(claimed_gain)) if claimed_gain is not None else 1.0
    # A model built with rate_scale stores every rate and cost rate
    # multiplied by it, so gains evaluated on mdp are in stored units,
    # while the claims and the extra-cost channels the constrained LP
    # reads are in original units. Checks on stored-unit gains get the
    # claim and the tolerance band in stored units; for the power-of-two
    # scales of the admission remediation the conversion is exact.
    unit = mdp.rate_scale
    shared = _SharedEvaluation(mdp, policy_obj, mode, unit)

    results: "List[CheckResult]" = []
    for name in CHECK_NAMES:
        if name not in checks:
            continue
        with ins.span(f"certify.{name}", mode=mode):
            try:
                results.append(
                    _run_check(
                        name,
                        mode,
                        mdp,
                        policy_obj,
                        claimed_gain,
                        constraints,
                        tolerance,
                        scale,
                        unit,
                        exact_state_limit,
                        shared,
                        model,
                        build_weight,
                    )
                )
            except (ReproError, np.linalg.LinAlgError) as exc:
                results.append(
                    CheckResult(
                        name=name,
                        status="failed",
                        findings=[
                            CertFinding(
                                code=f"{name}-error",
                                message=f"{name} check could not run: "
                                f"{type(exc).__name__}: {exc}",
                            )
                        ],
                    )
                )

    report = CertificationReport(
        mode=mode,
        rate=float(model.requestor.rate),
        weight=None if mode == "constrained" else float(weight),
        n_states=mdp.n_states,
        tolerance=float(tolerance),
        claimed=claimed,
        checks=results,
        policy_checksum=policy_table_checksum(mdp, policy_obj),
        fingerprint=fingerprint,
        artifact_checksum=artifact_checksum,
    )
    _count_report(metrics, report)
    return report


class _SharedEvaluation:
    """The policy's independent evaluation, computed once per report.

    The first check that needs it pays for it (so its time shows under
    that check's span); later checks reuse it. A failure is not cached:
    each check that needs the evaluation fails with its own typed
    finding, as if it had solved the system itself.
    """

    def __init__(self, mdp, policy, mode: str, unit: float) -> None:
        self._mdp, self._policy, self._mode, self._unit = mdp, policy, mode, unit
        self._memo: "Dict[str, Any]" = {}

    def system(self) -> "_bellman.PolicySystem":
        if "system" not in self._memo:
            self._memo["system"] = _bellman.PolicySystem(self._mdp, self._policy)
        return self._memo["system"]

    def evaluation(self) -> "_bellman.Evaluation":
        """``(gain, bias, residual)`` of the weighted cost."""
        if "evaluation" not in self._memo:
            system = self.system()
            self._memo["evaluation"] = system.solve(system.costs())
        return self._memo["evaluation"]

    def gain(self) -> float:
        """The policy's own objective, in stored units."""
        if "gain" not in self._memo:
            if self._mode == "weighted":
                gain = self.evaluation()[0]
            else:
                system = self.system()
                gain = self._unit * system.solve(system.costs(POWER))[0]
            self._memo["gain"] = gain
        return self._memo["gain"]


def _run_check(
    name: str,
    mode: str,
    mdp,
    policy_obj,
    claimed_gain: "Optional[float]",
    constraints: "Optional[Mapping[str, float]]",
    tolerance: float,
    scale: float,
    unit: float,
    exact_state_limit: int,
    shared: _SharedEvaluation,
    model,
    build_weight: float,
) -> CheckResult:
    stored_scale = scale * unit
    if name == "bellman":
        if mode == "constrained":
            return CheckResult(
                name="bellman",
                status="skipped",
                data={
                    "reason": "constrained optima need not satisfy the "
                    "unconstrained optimality equations; the constrained "
                    "LP is the oracle instead"
                },
            )
        stored_claim = None if claimed_gain is None else claimed_gain * unit
        return _bellman.check_bellman(
            mdp, policy_obj, stored_claim, tolerance, stored_scale,
            evaluation=shared.evaluation,
        )
    if name == "lp":
        if mode == "constrained":
            # Extra-cost averages: original units on both sides.
            return _duality.check_lp_constrained(
                mdp,
                policy_obj,
                POWER,
                constraints,
                claimed_gain,
                tolerance,
                scale,
                system=shared.system(),
            )
        return _duality.check_lp(
            mdp, policy_obj, shared.gain(), tolerance, stored_scale
        )
    if name == "exact":
        if mdp.n_states > exact_state_limit:
            return CheckResult(
                name="exact",
                status="skipped",
                data={
                    "reason": f"{mdp.n_states} states exceeds the exact-"
                    f"arithmetic limit of {exact_state_limit}"
                },
            )
        return _exact.check_exact(
            mdp, policy_obj, shared.gain(), tolerance, stored_scale
        )
    if name == "consensus":
        return _consensus.check_consensus(
            mdp, policy_obj, tolerance, stored_scale, model, build_weight
        )
    raise CertificationError(f"unknown check {name!r}")  # pragma: no cover


def _as_policy(mdp, policy):
    """Normalize the policy input onto the certifier's dense *mdp*.

    Plain assignments are validated. A :class:`Policy` solved on another
    representation (a CSR or cached sibling build) with *mdp*'s states
    is rebound by its action tuple and each action validated; one on a
    model with other states is rebound through its assignment, which
    must name exactly *mdp*'s states. Either way a bad table yields
    :class:`InvalidPolicyError` rather than a crash in a check.
    """
    from repro.ctmdp.policy import Policy, RandomizedPolicy, same_states

    if isinstance(policy, RandomizedPolicy):
        return policy
    if isinstance(policy, Policy):
        if policy.mdp is mdp:
            return policy
        if same_states(policy.mdp, mdp):
            rebound = Policy.from_actions(mdp, policy.actions)
            rebound.validate()
            return rebound
        policy = policy.as_dict()
    return Policy(mdp, dict(policy))


def _try_fingerprint(model) -> "Optional[str]":
    from repro.serve.artifact import model_fingerprint

    try:
        return model_fingerprint(model)
    except ReproError:  # models outside the serve pipeline's shape
        return None


def _count_report(metrics, report: CertificationReport) -> None:
    if metrics is None:
        return
    metrics.counter(
        "certify.certified" if report.certified else "certify.failed"
    ).inc()
    for check in report.checks:
        metrics.counter(f"certify.checks.{check.status}").inc()


def certify_result(
    model,
    result,
    constraints: "Optional[Mapping[str, float]]" = None,
    **kwargs,
) -> CertificationReport:
    """Certify an :class:`~repro.dpm.optimizer.OptimizationResult`.

    Weighted results carry their weight; constrained results
    (``result.weight is None``) need their bounds passed explicitly --
    the result object does not record them.
    """
    if result.weight is None and constraints is None:
        raise CertificationError(
            "constrained result: pass the constraints= bounds it was "
            "solved under (e.g. {'queue_length': 1.0})"
        )
    return certify_solution(
        model,
        result.policy,
        weight=result.weight,
        claimed_metrics=result.metrics,
        constraints=constraints,
        **kwargs,
    )


def certify_artifact(artifact, model, **kwargs) -> CertificationReport:
    """Certify a serve :class:`~repro.serve.artifact.PolicyArtifact`.

    Re-rates *model* to the artifact's arrival rate, checks the model
    fingerprint binding, and certifies the artifact's policy table
    against its own claimed metrics. The returned report carries
    ``artifact_checksum`` so the certificate is bound to that exact
    artifact file.
    """
    from repro.dpm.adaptive import rated_model
    from repro.serve.artifact import model_fingerprint

    expected = model_fingerprint(model)
    if artifact.fingerprint != expected:
        raise CertificationError(
            f"artifact fingerprint {artifact.fingerprint[:12]}... does not "
            f"match the serving model {expected[:12]}...; refusing to "
            "certify a policy for a different system"
        )
    rated = rated_model(model, artifact.rate)
    return certify_solution(
        rated,
        artifact.assignment(),
        weight=artifact.weight,
        claimed_metrics=artifact.metrics,
        artifact_checksum=artifact.checksum,
        **kwargs,
    )


def require_certified(report: CertificationReport) -> CertificationReport:
    """Return *report* if certified, else raise with its findings."""
    if report.certified:
        return report
    codes = ", ".join(report.finding_codes) or "no check ran"
    raise CertificationFailedError(
        f"policy failed certification ({codes})", report=report
    )
