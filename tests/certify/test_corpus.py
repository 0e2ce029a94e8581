"""The adversarial corpus: zero false certifications, at every seed."""

from __future__ import annotations

import json

import pytest

from repro.certify import (
    CORRUPTION_KINDS,
    build_corpus,
    certify_result,
)
from repro.certify.corpus import case as corpus_case
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.errors import CertificationError
from repro.robust import campaign


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


@pytest.fixture(scope="module")
def corpus(model):
    return build_corpus(model, weight=0.5, seed=0)


class TestZeroFalseCertifications:
    def test_honest_base_certifies(self, model):
        base = optimize_weighted(model, 0.5)
        assert certify_result(model, base).certified

    def test_every_member_rejected_with_typed_finding(self, model, corpus):
        assert {m.kind for m in corpus} == set(CORRUPTION_KINDS)
        for member in corpus:
            report = member.certify(model)
            assert not report.certified, (
                f"{member.kind} falsely certified: {member.description}"
            )
            assert report.finding_codes, member.kind

    @pytest.mark.parametrize("seed", (7, 40))
    def test_rejection_holds_across_seeds(self, model, seed):
        for member in build_corpus(
            model, weight=0.5, seed=seed,
            kinds=("gain-perturbation", "invalid-action"),
        ):
            report = member.certify(model)
            assert not report.certified, member.description

    def test_expected_findings_per_kind(self, model, corpus):
        expected = {
            "action-flip": "lp-duality-gap",
            "gain-perturbation": "claimed-gain-mismatch",
            "stale-ghost": "lp-duality-gap",
            "invalid-action": "invalid-policy",
        }
        for member in corpus:
            report = member.certify(model)
            assert expected[member.kind] in report.finding_codes, (
                member.kind,
                report.finding_codes,
            )


class TestCorpusConstruction:
    def test_deterministic_in_seed(self, model, corpus):
        again = build_corpus(model, weight=0.5, seed=0)
        assert [(m.kind, m.assignment, m.claimed_metrics) for m in corpus] == [
            (m.kind, m.assignment, m.claimed_metrics) for m in again
        ]

    def test_kinds_filter(self, model):
        members = build_corpus(
            model, weight=0.5, seed=0, kinds=("invalid-action",)
        )
        assert [m.kind for m in members] == ["invalid-action"]

    def test_unknown_kind_rejected(self, model):
        with pytest.raises(CertificationError, match="unknown"):
            build_corpus(model, kinds=("action-flip", "entropy-storm"))

    def test_members_carry_provenance(self, corpus):
        for member in corpus:
            assert member.seed == 0
            assert member.description
            assert member.weight == 0.5


class TestCorpusCase:
    def test_campaign_entry_point_reports_every_verdict(self, tmp_path, capsys):
        code = campaign.main(["certify", "--out", str(tmp_path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["outcomes"] == {"certified": 1}  # the base certified
        assert not list(tmp_path.iterdir())  # no violation, no reproducer
        record = corpus_case(0)
        assert sorted(record["verdicts"]) == sorted(
            ("base",) + CORRUPTION_KINDS
        )
        assert record["verdicts"]["base"] == "certified"
        assert record["verdicts"]["action-flip"] == "failed"
