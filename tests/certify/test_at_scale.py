"""Certification above the solver's dense-tier crossover (256 states).

There every check runs on the dict model's nonzeros: one SuperLU
factorization, one sparse Bellman product, a CSR constraint matrix for
HiGHS, two CSR consensus votes and a sampled assembly check.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.certify import bellman, build_corpus, certify_artifact, certify_result
from repro.certify.consensus import ASSEMBLY_SAMPLE_PAIRS, assembly_sample
from repro.ctmdp.policy import Policy
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
        assert consensus.data["backends"] == ["sparse", "sparse-build"]
        assert 0 < consensus.data["assembly_sample"] <= ASSEMBLY_SAMPLE_PAIRS

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
