"""Certification above the solver's dense-tier crossover (256 states).

There every check runs on the model's CSR rows: one SuperLU
factorization, one sparse Bellman product, a CSR constraint matrix for
HiGHS, two CSR consensus votes (the bordered evaluation and the
stationary balance equations) and a sampled assembly check.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.certify import bellman, build_corpus, certify_artifact, certify_result
from repro.certify import consensus as consensus_mod
from repro.certify.consensus import ASSEMBLY_SAMPLE_PAIRS, assembly_sample
import repro.ctmdp.sparse as sparse_mod
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.sparse import SparseCTMDP
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.serve.artifact import compile_artifact, validate_artifact

#: Q = 70: 283 states, the smallest paper SYS family member above 256.
CAPACITY = 70

#: Finding codes of each corpus member at Q = 70, lambda = 1/6, w = 0.5,
#: recorded from the dense-arithmetic certificate before the checks
#: moved to the nonzeros; seeds 0 and 1 give the same codes.
EXPECTED_CODES = {
    "action-flip": ["bellman-gap-exceeded", "claimed-gain-mismatch",
                    "lp-duality-gap"],
    "gain-perturbation": ["claimed-gain-mismatch"],
    "stale-ghost": ["bellman-gap-exceeded", "claimed-gain-mismatch",
                    "lp-duality-gap"],
    "invalid-action": ["invalid-policy"],
}


def _model():
    return rated_model(paper_system(capacity=CAPACITY), 1 / 6)


@pytest.fixture(scope="module")
def model():
    return _model()


@pytest.fixture(scope="module")
def solved(model):
    return optimize_weighted(model, 0.5)


class TestSparseCertificate:
    def test_honest_solve_certifies_on_two_csr_votes(self, model, solved):
        report = certify_result(model, solved)
        assert report.n_states == 283
        assert report.certified, report.finding_codes
        consensus = report.check("consensus")
        assert consensus.data["backends"] == ["sparse", "stationary"]
        assert 0 < consensus.data["assembly_sample"] <= ASSEMBLY_SAMPLE_PAIRS

    @pytest.mark.parametrize("vote", ["sparse", "stationary"])
    def test_perturbed_vote_is_a_backend_disagreement(
            self, model, solved, monkeypatch, vote):
        # The two votes solve different linear systems on the same CSR
        # rows; a gain that strays in either one splits the vote.
        if vote == "sparse":
            evaluate = consensus_mod.evaluate_policy

            def perturbed(*args, **kwargs):
                return SimpleNamespace(
                    gain=evaluate(*args, **kwargs).gain * (1 + 1e-3))

            monkeypatch.setattr(consensus_mod, "evaluate_policy", perturbed)
        else:
            gain = consensus_mod._stationary_gain
            monkeypatch.setattr(consensus_mod, "_stationary_gain",
                                lambda *args: gain(*args) * (1 + 1e-3))
        report = certify_result(model, solved)
        assert not report.certified
        consensus = report.check("consensus")
        assert consensus.status == "failed"
        assert {f.code for f in consensus.findings} == {"backend-disagreement"}
        assert any(repr(vote) in f.message for f in consensus.findings)

    def test_wrong_bordered_system_is_a_backend_disagreement(
            self, model, solved, monkeypatch):
        # The stationary vote assembles its own balance system, so a
        # rate dropped from the evaluation's bordered system, which the
        # sparse vote factors, splits the vote. A stationary
        # distribution read off that system's transpose would move with
        # the gain and agree with it.
        policy = Policy(model.build_ctmdp(0.5), solved.policy.as_dict())
        state = int(np.argmax(evaluate_policy(
            policy, backend="sparse", compute_stationary=True).stationary))
        assemble = sparse_mod.bordered_system

        def dropped(rows, reference_state):
            system = assemble(rows, reference_state)
            n = rows.shape[0]
            cols = np.repeat(np.arange(n + 1), np.diff(system.indptr))
            # The first off-diagonal rate out of the most likely state.
            k = np.flatnonzero((system.indices == state) & (cols != state)
                               & (cols < n))[0]
            system.data[k] = 0.0
            return system

        monkeypatch.setattr(sparse_mod, "bordered_system", dropped)
        consensus = certify_result(model, solved).check("consensus")
        assert consensus.status == "failed"
        assert {f.code for f in consensus.findings} == {"backend-disagreement"}
        assert "errors" not in consensus.data
        gains = consensus.data["gains"]
        assert abs(gains["sparse"] - gains["stationary"]) > 1e-3 * gains["stationary"]

    def test_sparse_evaluation_matches_dense_arithmetic(self, model, solved):
        mdp = model.build_ctmdp(0.5)
        policy = Policy(mdp, solved.policy.as_dict())
        gain, bias, residual = bellman.independent_evaluation(mdp, policy)
        generator = policy.generator_matrix()
        n = mdp.n_states
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = generator
        bordered[:n, n] = -1.0
        bordered[n, 0] = 1.0
        dense = np.linalg.solve(
            bordered, np.concatenate([-policy.cost_vector(), [0.0]]))
        assert gain == pytest.approx(dense[n], rel=1e-9)
        np.testing.assert_allclose(bias, dense[:n], rtol=1e-7, atol=1e-9)
        assert residual < 1e-9 * max(1.0, abs(gain))
        # The sparse sweep is the dense per-pair sweep, reassociated:
        # equal far inside the 1e-6 relative certification band.
        q = bellman.pair_values(mdp, bias)
        want = [mdp.cost(s, a) + float(mdp.generator_row(s, a) @ bias)
                for s, a in mdp.state_action_pairs()]
        assert np.max(np.abs(q - want)) < 1e-8 * max(1.0, abs(gain))

    def test_corrupted_row_is_an_assembly_mismatch(self, monkeypatch):
        # A wrong SYS assembly feeds both builds, so the two CSR votes
        # agree with each other; the per-state oracles must catch it.
        model = _model()
        honest = model.build_ctmdp(0.5)
        state = assembly_sample(
            honest, Policy(honest, optimize_weighted(model, 0.5).policy.as_dict())
        )[0][0]
        target = model.index_of(state)
        assemble = model._assemble

        def corrupted():
            skeleton, *costs = assemble()
            coo = skeleton.generator.tocoo()
            off = coo.col != skeleton.pair_state[coo.row]
            rows, cols, vals = coo.row[off], coo.col[off], coo.data[off].copy()
            vals[skeleton.pair_state[rows] == target] *= 2.0
            bad = SparseCTMDP.from_coo(
                skeleton.states, skeleton.actions, rows, cols, vals,
                np.zeros(skeleton.n_pairs), rate_scale=skeleton.rate_scale,
                extra=skeleton.extra,
            )
            return (bad, *costs)

        model.clear_caches()
        monkeypatch.setattr(model, "_assemble", corrupted)
        report = certify_result(model, optimize_weighted(model, 0.5))
        assert not report.certified
        assert "assembly-mismatch" in report.finding_codes
        mismatches = [f for f in report.check("consensus").findings
                      if f.code == "assembly-mismatch"]
        assert {f.state for f in mismatches} == {repr(state)}

    def test_singular_factorization_is_a_typed_finding(
            self, model, solved, monkeypatch):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
        report = certify_result(model, solved)
        assert not report.certified
        assert {"bellman-error", "lp-error"} <= set(report.finding_codes)
        assert "LinAlgError" in report.check("bellman").findings[0].message

    def test_singular_flip_counts_as_infinite_degradation(self, monkeypatch):
        def singular(matrix):
            raise RuntimeError("Factor is exactly singular")

        model = _model()
        monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
        (member,) = build_corpus(model, weight=0.5, kinds=("action-flip",))
        assert "gain +inf" in member.description

    def test_peak_memory_stays_below_one_dense_square(self):
        # The 1,003-state artifact: validation and certification hold
        # O(nnz) arrays only -- no (pairs x n) rows, no n x n matrix.
        model = paper_system(capacity=250)
        artifact = compile_artifact(model, optimize_weighted(model, 1.0),
                                    version=1)
        model.clear_caches()
        n = model.n_states
        tracemalloc.start()
        try:
            validate_artifact(artifact, model)
            report = certify_artifact(artifact, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.certified, report.finding_codes
        assert peak < n * n * 8, f"peak {peak / 1e6:.1f} MB"


class TestCorpusAboveCrossover:
    """Zero false certifications at 283 states, with the same finding
    codes the dense arithmetic gave."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_member_rejected_with_the_dense_codes(self, model, solved, seed):
        assert certify_result(model, solved).certified
        members = build_corpus(model, weight=0.5, seed=seed)
        assert {m.kind: m.certify(model).finding_codes
                for m in members} == EXPECTED_CODES
