"""The certification engine: honest solves certify, everything else fails."""

from __future__ import annotations

import numpy as np
import pytest

from repro.certify import (
    CHECK_NAMES,
    certify_artifact,
    certify_result,
    certify_solution,
    require_certified,
)
from repro.certify.corpus import CORRUPTION_KINDS, build_corpus
from repro.dpm.optimizer import (
    optimize_constrained,
    optimize_weighted,
)
from repro.dpm.presets import paper_system
from repro.dpm.service_requestor import ServiceRequestor
from repro.dpm.system import PowerManagedSystemModel
from repro.robust.admission import admit_model
from repro.errors import CertificationError, CertificationFailedError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.serve.artifact import compile_artifact


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


@pytest.fixture(scope="module")
def solved(model):
    return optimize_weighted(model, 0.5)


class TestWeightedCertification:
    @pytest.mark.parametrize("solver", ("policy_iteration", "linear_program"))
    def test_every_solver_earns_a_certificate(self, model, solver):
        result = optimize_weighted(model, 0.5, solver=solver)
        report = certify_result(model, result)
        assert report.certified, report.finding_codes
        assert [c.name for c in report.checks] == list(CHECK_NAMES)
        assert not any(c.status == "failed" for c in report.checks)
        assert report.check("lp").status == "passed"

    def test_lp_rounding_in_transient_states_does_not_fail(self, model):
        # The LP's deterministic rounding picks an arbitrary action in
        # zero-occupancy (transient) states, so the policy can violate
        # the Bellman *bound* while its gain is still optimal. The
        # bellman check must abstain (no false rejection); the LP
        # duality check certifies.
        result = optimize_weighted(model, 0.5, solver="linear_program")
        report = certify_result(model, result)
        assert report.certified, report.finding_codes
        bellman = report.check("bellman")
        if bellman.status == "skipped":  # the rounding hit a transient state
            assert "inconclusive" in bellman.data["reason"]
            assert bellman.data["dual_feasible"] is False

    def test_value_iteration_policy_certifies(self, model):
        # optimize_weighted's VI path demands span 1e-9, below this
        # model's float plateau -- drive VI directly at an achievable
        # tolerance and certify the policy it lands on.
        from repro.ctmdp.value_iteration import relative_value_iteration

        mdp = model.build_ctmdp(0.5)
        vi = relative_value_iteration(mdp, span_tolerance=5e-8)
        report = certify_solution(model, vi.policy, weight=0.5)
        assert report.certified, report.finding_codes
        assert report.check("bellman").status == "passed"

    def test_report_carries_the_operating_point(self, model, solved):
        report = certify_result(model, solved)
        assert report.mode == "weighted"
        assert report.weight == pytest.approx(0.5)
        assert report.rate == pytest.approx(model.requestor.rate)
        assert report.claimed["gain"] == pytest.approx(
            solved.metrics.average_power
            + 0.5 * solved.metrics.average_queue_length
        )

    def test_check_subset_preserves_canonical_order(self, model, solved):
        report = certify_result(model, solved, checks=("exact", "bellman"))
        assert [c.name for c in report.checks] == ["bellman", "exact"]
        assert report.certified

    def test_exact_skipped_above_state_limit(self, model, solved):
        report = certify_result(model, solved, exact_state_limit=5)
        exact = report.check("exact")
        assert exact.status == "skipped"
        assert "limit" in exact.data["reason"]
        assert report.certified  # skips don't block the verdict

    def test_wrong_claim_fails_with_typed_finding(self, model, solved):
        report = certify_solution(
            model,
            solved.policy,
            weight=0.5,
            claimed_metrics={
                "average_power": solved.metrics.average_power * 1.05,
                "average_queue_length": solved.metrics.average_queue_length,
            },
        )
        assert not report.certified
        assert "claimed-gain-mismatch" in report.finding_codes

    def test_suboptimal_policy_fails_bellman_and_lp(self, model):
        lazy = optimize_weighted(model, 50.0)  # optimal for w=50, not 0.5
        report = certify_solution(model, lazy.policy, weight=0.5)
        assert not report.certified
        assert "bellman-gap-exceeded" in report.finding_codes
        assert "lp-duality-gap" in report.finding_codes

    def test_invalid_policy_is_a_finding_not_a_crash(self, model, solved):
        table = solved.policy.as_dict()
        table[next(iter(table))] = "warp-drive"
        report = certify_solution(model, table, weight=0.5)
        assert not report.certified
        assert report.finding_codes == ["invalid-policy"]

    def test_no_claimed_metrics_still_certifies(self, model, solved):
        report = certify_solution(model, solved.policy, weight=0.5)
        assert report.certified
        assert report.claimed == {}

    def test_csr_solved_result_certifies(self, model, solved):
        # The policy is bound to the SparseCTMDP it was solved on; the
        # certifier rebinds it to its own dense build.
        result = optimize_weighted(model, 0.5, backend="sparse")
        report = certify_result(model, result)
        assert report.certified, report.finding_codes
        dense = certify_result(model, solved)
        assert report.policy_checksum == dense.policy_checksum

    def test_invalid_csr_policy_is_a_finding_not_a_crash(self, model):
        from repro.ctmdp.policy import Policy

        policy = optimize_weighted(model, 0.5, backend="sparse").policy
        actions = list(policy.actions)
        actions[0] = "warp-drive"
        report = certify_solution(
            model, Policy.from_actions(policy.mdp, actions), weight=0.5
        )
        assert not report.certified
        assert report.finding_codes == ["invalid-policy"]
        # The finding names the state by its label, as for a mapping.
        (finding,) = report.check("policy").findings
        assert f"in state {policy.mdp.states[0]!r}" in finding.message


class TestConstrainedCertification:
    def test_constrained_solution_certifies(self, model):
        result = optimize_constrained(model, 1.0)
        report = certify_result(
            model, result, constraints={"queue_length": 1.0}
        )
        assert report.certified, report.finding_codes
        assert report.mode == "constrained"
        assert report.weight is None
        assert report.check("bellman").status == "skipped"
        assert report.check("lp").status == "passed"

    def test_bound_violation_detected(self, model):
        # A policy solved under a loose bound, claimed under a tight one.
        loose = optimize_constrained(model, 3.0)
        report = certify_result(
            model, loose, constraints={"queue_length": 0.4}
        )
        assert not report.certified
        assert "lp-constraint-violated" in report.finding_codes

    def test_constrained_result_requires_bounds(self, model):
        result = optimize_constrained(model, 1.0)
        with pytest.raises(CertificationError, match="constraints"):
            certify_result(model, result)


class TestEngineContracts:
    def test_unknown_check_rejected(self, model, solved):
        with pytest.raises(CertificationError, match="unknown"):
            certify_result(model, solved, checks=("bellman", "vibes"))

    def test_missing_objective_rejected(self, model, solved):
        with pytest.raises(CertificationError, match="weight"):
            certify_solution(model, solved.policy)

    def test_bad_tolerance_rejected(self, model, solved):
        with pytest.raises(CertificationError, match="tolerance"):
            certify_result(model, solved, tolerance=0.0)

    def test_require_certified_passes_through(self, model, solved):
        report = certify_result(model, solved)
        assert require_certified(report) is report

    def test_require_certified_raises_with_report(self, model):
        lazy = optimize_weighted(model, 50.0)
        report = certify_solution(model, lazy.policy, weight=0.5)
        with pytest.raises(CertificationFailedError) as excinfo:
            require_certified(report)
        assert excinfo.value.report is report
        assert "bellman-gap-exceeded" in str(excinfo.value)

    def test_metrics_counters_flow(self, model, solved):
        with instrument(metrics=MetricsRegistry()) as ins:
            certify_result(model, solved)
            lazy = optimize_weighted(model, 50.0)
            certify_solution(model, lazy.policy, weight=0.5)
        doc = ins.metrics.to_dict()
        assert doc["certify.runs"]["value"] == 2
        assert doc["certify.certified"]["value"] == 1
        assert doc["certify.failed"]["value"] == 1
        assert doc["certify.checks.passed"]["value"] >= 4


class TestArtifactCertification:
    def test_genuine_artifact_certifies_and_links(self, model, solved):
        artifact = compile_artifact(model, solved, version=1)
        report = certify_artifact(artifact, model)
        assert report.certified
        assert report.artifact_checksum == artifact.checksum

    def test_foreign_model_refused(self, model, solved):
        artifact = compile_artifact(model, solved, version=1)
        other = paper_system(capacity=4)
        with pytest.raises(CertificationError, match="fingerprint"):
            certify_artifact(artifact, other)


def _rescaled(rate_scale):
    """The paper's 23-state model with its time unit rescaled."""
    base = paper_system()
    return PowerManagedSystemModel(
        base.provider, base.requestor, base.capacity, rate_scale=rate_scale
    )


class TestRescaledModels:
    """A rescaled model's CTMDP stores gains x rate_scale while claims
    stay in original units; the checks must compare in one system."""

    @pytest.mark.parametrize("exponent", (-4, 4))
    def test_honest_weighted_solve_certifies(self, exponent):
        model = _rescaled(2.0 ** exponent)
        report = certify_result(model, optimize_weighted(model, 1.0))
        assert report.certified, report.finding_codes
        assert [(c.name, c.status) for c in report.checks] == [
            (name, "passed") for name in CHECK_NAMES
        ]

    @pytest.mark.parametrize("exponent", (-4, 4))
    def test_gain_perturbation_still_rejected(self, exponent):
        # The whole corpus builds on a rescaled model (the action flip
        # compares gains in original units), and no member certifies.
        model = _rescaled(2.0 ** exponent)
        members = build_corpus(model, weight=1.0, seed=0)
        assert [m.kind for m in members] == list(CORRUPTION_KINDS)
        for member in members:
            report = member.certify(model)
            assert not report.certified, member.kind
        perturbed = members[CORRUPTION_KINDS.index("gain-perturbation")]
        assert "claimed-gain-mismatch" in perturbed.certify(model).finding_codes

    @pytest.mark.parametrize("exponent", (-4, 4))
    def test_honest_constrained_solve_certifies(self, exponent):
        model = _rescaled(2.0 ** exponent)
        result = optimize_constrained(model, 1.0)
        report = certify_result(
            model, result, constraints={"queue_length": 1.0}
        )
        assert report.certified, report.finding_codes
        assert report.check("lp").status == "passed"
        assert report.check("exact").status == "passed"

    def test_remediated_model_certifies(self):
        # admit_model repairs extreme magnitudes by returning the model
        # rebuilt at a power-of-two rate_scale; its solve must certify.
        base = paper_system(capacity=3)
        misscaled = PowerManagedSystemModel(
            base.provider.rescaled(40),
            ServiceRequestor(np.ldexp(base.requestor.rate, 40)),
            base.capacity,
        )
        repaired = admit_model(misscaled, weight=2.0).repaired_model
        assert repaired is not None and repaired.rate_scale != 1.0
        report = certify_result(repaired, optimize_weighted(repaired, 2.0))
        assert report.certified, report.finding_codes
