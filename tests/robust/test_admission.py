"""The model-admission gate: checks, remediation, rejection semantics."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.ctmdp.kron import kron_farm_model
from repro.ctmdp.model import CTMDP
from repro.ctmdp.sparse import SparseCTMDP
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.presets import paper_system
from repro.dpm.service_requestor import ServiceRequestor
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import InvalidModelError, ModelRejectedError
from repro.robust.admission import (
    FINDING_CODES,
    KRON_DENSIFY_LIMIT,
    AdmissionReport,
    admit_ctmdp,
    admit_inputs,
    admit_model,
)
from repro.robust.fuzz import unconstrained_system


def chain(rates_by_pair, n, costs=None):
    """A one-action-per-state CTMDP from ``{(i, j): rate}``."""
    mdp = CTMDP(list(range(n)))
    for i in range(n):
        row = np.zeros(n)
        for (a, b), r in rates_by_pair.items():
            if a == i:
                row[b] = r
        cost = 1.0 + i if costs is None else costs[i]
        mdp.add_action(i, "a", rates=row, cost_rate=cost)
    return mdp


class TestPaperPreset:
    def test_full_admission_is_ok(self):
        report = admit_model(paper_system(), level="full", weight=1.0)
        assert report.verdict == "ok"
        assert report.ok
        assert report.repaired_model is None
        assert report.diagnostics["max_exit_rate"] > 1e4
        assert report.diagnostics["stiffness_ratio"] > 1.0
        assert report.diagnostics["unichain_policies_checked"] > 0

    def test_full_sweep_runs_on_a_csr_build(self):
        # 403 states: above the crossover, so admission builds CSR rows.
        report = admit_model(paper_system(capacity=100), level="full", weight=1.0)
        assert isinstance(report.admitted_mdp, SparseCTMDP)
        assert report.diagnostics["unichain_policies_checked"] == 100
        assert "unichain_check" not in report.diagnostics

    def test_report_is_json_exportable(self):
        report = admit_model(paper_system(), level="full", weight=1.0)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["verdict"] == "ok"
        assert payload["level"] == "full"
        assert isinstance(payload["diagnostics"]["canonical_shift"], int)

    def test_entry_level_skips_model_build(self):
        report = admit_model(paper_system(), level="entry")
        assert report.verdict == "ok"
        assert report.diagnostics == {}

    def test_unknown_level_rejected(self):
        with pytest.raises(InvalidModelError, match="admission level"):
            admit_model(paper_system(), level="paranoid")


class TestEntryGate:
    def test_capacity_zero(self):
        with pytest.raises(InvalidModelError, match="capacity"):
            PowerManagedSystemModel(
                paper_system().provider, ServiceRequestor(0.1), 0
            )

    def test_requestor_optional(self):
        admit_inputs(paper_system().provider, None, 3)

    def test_simulator_runs_the_gate(self):
        from repro.policies import AlwaysOnPolicy
        from repro.sim import PoissonProcess, simulate

        provider = paper_system().provider
        with pytest.raises(InvalidModelError, match="capacity"):
            simulate(
                provider=provider,
                capacity=0,
                workload=PoissonProcess(0.1),
                policy=AlwaysOnPolicy(provider),
                n_requests=10,
            )


class TestRemediation:
    """Extreme magnitudes: repaired exactly, bit-identical solves."""

    WEIGHT = 2.0

    @pytest.fixture(scope="class")
    def misscaled(self):
        base = paper_system(capacity=3)
        return PowerManagedSystemModel(
            base.provider.rescaled(40),
            ServiceRequestor(np.ldexp(base.requestor.rate, 40)),
            base.capacity,
        )

    def test_verdict_and_ladder(self, misscaled):
        report = admit_model(
            misscaled, level="standard", weight=self.WEIGHT,
        )
        assert report.verdict == "repaired"
        assert report.repaired_model is not None
        exponent = report.remediation["rate_scale_exponent"]
        assert report.repaired_model.rate_scale == np.ldexp(1.0, exponent)
        # The repaired chain sits in the canonical magnitude window.
        assert 0.5 <= report.diagnostics["repaired_max_exit_rate"] <= 4.0

    def test_rescaled_solve_is_bit_identical(self, misscaled):
        """The acceptance criterion: exact back-transformation.

        Where the unscaled solve succeeds, the repaired model must
        produce the identical policy, bias, and stationary distribution
        bit for bit, and a gain equal after the exact power-of-two
        back-shift.
        """
        report = admit_model(misscaled, level="standard", weight=self.WEIGHT)
        direct = policy_iteration(misscaled.build_ctmdp(self.WEIGHT))
        repaired = policy_iteration(
            report.repaired_model.build_ctmdp(self.WEIGHT)
        )
        scale = report.repaired_model.rate_scale
        assert repaired.policy.as_dict() == direct.policy.as_dict()
        assert np.array_equal(repaired.bias, direct.bias)
        assert np.array_equal(repaired.stationary, direct.stationary)
        assert repaired.gain / scale == direct.gain

    def test_metrics_need_no_back_transform(self, misscaled):
        """Extra cost channels stay in original units by design."""
        from repro.dpm.analysis import evaluate_dpm_policy

        report = admit_model(misscaled, level="standard", weight=self.WEIGHT)
        direct = policy_iteration(misscaled.build_ctmdp(self.WEIGHT))
        repaired = policy_iteration(
            report.repaired_model.build_ctmdp(self.WEIGHT)
        )
        m_direct = evaluate_dpm_policy(misscaled, direct.policy)
        m_repaired = evaluate_dpm_policy(
            report.repaired_model, repaired.policy
        )
        assert m_repaired.average_power == m_direct.average_power
        assert m_repaired.average_queue_length == m_direct.average_queue_length


class TestRejections:
    def test_nan_cost(self):
        mdp = chain({(0, 1): 1.0, (1, 0): 1.0}, 2, costs=[float("nan"), 1.0])
        with pytest.raises(ModelRejectedError, match="nonfinite-cost") as exc:
            admit_model(mdp)
        report = exc.value.report
        assert report.verdict == "rejected"
        assert any(f.code == "nonfinite-cost" for f in report.errors())
        # The exception carries the JSON-ready report.
        assert exc.value.report_dict["verdict"] == "rejected"

    def test_empty_action_set(self):
        mdp = CTMDP([0, 1])
        mdp.add_action(0, "a", rates=np.array([0.0, 1.0]), cost_rate=1.0)
        report = admit_model(mdp, raise_on_reject=False)
        assert report.verdict == "rejected"
        assert any(f.code == "empty-action-set" for f in report.findings)

    def test_extreme_dynamic_range(self):
        mdp = chain({(0, 1): 1e-300, (1, 0): 1e300}, 2)
        report = admit_model(mdp, raise_on_reject=False)
        assert report.verdict == "rejected"
        assert any(
            f.code == "extreme-dynamic-range" for f in report.errors()
        )

    def test_multichain_policy_at_full_level(self):
        """Satellite: a model reducible under an admissible policy.

        With the paper's action-validity constraints removed, the
        policy that never leaves the current mode induces one recurrent
        class per mode -- multichain, so average-cost evaluation is
        ill-posed and the full-level sweep must reject the model.
        """
        from repro.dpm.service_provider import ServiceProvider

        provider = ServiceProvider(
            ("on", "off"),
            np.array([[0.0, 2.0], [3.0, 0.0]]),
            np.array([1.0, 0.0]),
            np.array([2.0, 0.1]),
            np.zeros((2, 2)),
        )
        model = unconstrained_system(provider, ServiceRequestor(0.5), 1)
        report = admit_model(
            model, level="full", weight=1.0, raise_on_reject=False,
            sample_budget=5000, seed=0,
        )
        assert report.verdict == "rejected"
        assert any(f.code == "multichain-policy" for f in report.errors())

    def test_constrained_model_passes_the_same_sweep(self):
        """The paper's constraints are exactly what the sweep verifies."""
        report = admit_model(
            paper_system(capacity=1), level="full", weight=1.0,
            sample_budget=2000, seed=0,
        )
        assert not any(
            f.code == "multichain-policy" for f in report.findings
        )


class TestWarnings:
    def test_absorbing_state_flagged(self):
        mdp = chain({(0, 1): 1.0, (1, 2): 1.0}, 3)
        report = admit_ctmdp(mdp)
        assert report.verdict == "ok"  # warnings do not reject
        assert any(f.code == "zero-exit-state" for f in report.findings)

    def test_near_zero_rate_flagged(self):
        mdp = chain({(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1e-12, (2, 0): 1.0}, 3)
        report = admit_ctmdp(mdp)
        finding = next(
            f for f in report.findings if f.code == "near-zero-rate"
        )
        assert finding.severity == "warning"
        assert finding.value == 1e-12

    def test_stiffness_recommends_slack(self):
        mdp = chain({(0, 1): 1e10, (1, 0): 1.0}, 2)
        report = admit_ctmdp(mdp)
        assert any(f.code == "high-stiffness" for f in report.findings)
        assert report.remediation["uniformization_slack"] > 1.0
        assert report.diagnostics["stiffness_ratio"] == 1e10

    def test_near_duplicate_actions_flagged(self):
        mdp = CTMDP([0, 1])
        for action in ("a", "b"):
            mdp.add_action(0, action, rates=np.array([0.0, 1.0]), cost_rate=1.0)
        mdp.add_action(1, "a", rates=np.array([1.0, 0.0]), cost_rate=2.0)
        report = admit_ctmdp(mdp)
        assert any(
            f.code == "near-duplicate-actions" and f.severity == "info"
            for f in report.findings
        )

    def test_ill_conditioned_evaluation_at_full(self):
        # Two blocks coupled only through a ~1e-16-relative rate: the
        # evaluation system is numerically singular.
        mdp = chain(
            {(0, 1): 1.0, (1, 0): 1.0, (1, 2): 1e-16,
             (2, 3): 1.0, (3, 2): 1.0, (2, 1): 1e-16},
            4,
        )
        report = admit_ctmdp(mdp, level="full")
        assert any(
            f.code == "ill-conditioned-evaluation" for f in report.findings
        )


class TestReportShape:
    def test_every_finding_code_is_documented(self):
        # The README troubleshooting table mirrors FINDING_CODES; keep
        # the registry authoritative.
        assert len(set(FINDING_CODES)) == len(FINDING_CODES)
        readme = open("README.md").read()
        for code in FINDING_CODES:
            assert f"`{code}`" in readme, f"{code} missing from README"

    def test_write_admission_report(self, tmp_path):
        from repro.obs.export import write_admission_report

        report = AdmissionReport(verdict="ok", level="standard")
        path = tmp_path / "report.json"
        write_admission_report(report, path, manifest={"run": "test"})
        payload = json.loads(path.read_text())
        assert payload["manifest"] == {"run": "test"}
        assert payload["admission"]["verdict"] == "ok"


class TestKroneckerView:
    def test_matrix_free_view_matches_sparse_view(self):
        # Both views run the same exit-rate checks: the matrix-free one
        # on the factored exit rates, the sparse one on the CSR rows.
        kmdp = kron_farm_model(4, 4)
        assert kmdp.n_states > KRON_DENSIFY_LIMIT
        kron = admit_ctmdp(kmdp)
        sparse = admit_ctmdp(kmdp.to_ctmdp())
        assert kron.diagnostics["admission_view"] == "matrix-free-kron"
        assert sparse.diagnostics["admission_view"] == "sparse"
        assert kron.verdict == sparse.verdict
        assert [f.code for f in kron.findings] == [f.code for f in sparse.findings]
        for key in ("max_exit_rate", "min_positive_exit_rate",
                    "stiffness_ratio", "canonical_shift"):
            assert kron.diagnostics[key] == sparse.diagnostics[key], key
