"""The adversarial fuzzer and its end-to-end invariant.

The headline test pushes 200+ seeded adversarial models through
admission -> policy iteration (both backends, cross-checked) -> value
iteration -> the simulator, asserting that every single run ends in a
finite, cross-checked solution or a typed :mod:`repro.errors`
exception -- zero NaN/inf escapes, zero untyped tracebacks.
"""

from __future__ import annotations

import json

import pytest

from repro.robust import campaign, fuzz

#: The acceptance criterion: the invariant holds over >= 200 models.
CORPUS_SIZE = 200


class TestCorpusInvariant:
    @pytest.fixture(scope="class")
    def summary(self):
        return campaign.run("fuzz", count=CORPUS_SIZE)

    def test_no_violations(self, summary):
        assert summary["failures"] == [], summary["failures"][:3]

    def test_corpus_actually_exercises_every_path(self, summary):
        # A fuzzer whose cases all get rejected (or all solve) proves
        # nothing; require real mass on each terminal outcome.
        outcomes = summary["outcomes"]
        assert outcomes.get("solved", 0) >= 50
        assert outcomes.get("repaired", 0) >= 10
        assert outcomes.get("rejected", 0) >= 30

    def test_every_kind_is_generated(self):
        assert CORPUS_SIZE >= 2 * len(fuzz.KINDS)


class TestDeterminism:
    def test_specs_are_reproducible(self):
        for kind in fuzz.KINDS:
            assert fuzz.generate_spec(kind, 7) == fuzz.generate_spec(kind, 7)

    def test_specs_round_trip_through_json(self):
        for kind in fuzz.KINDS:
            spec = fuzz.generate_spec(kind, 3)
            assert json.loads(json.dumps(spec)) == spec

    def test_case_results_are_reproducible(self):
        spec = fuzz.generate_spec("baseline", 0)
        first = fuzz.run_case(spec)
        second = fuzz.run_case(spec)
        assert first == second


class TestAdversarialKinds:
    def test_nan_cost_is_rejected(self):
        result = fuzz.run_case(fuzz.generate_spec("nan_cost", 1))
        assert result["outcome"] == "rejected"
        assert result["violations"] == []

    def test_disconnected_chain_never_solves_silently(self):
        result = fuzz.run_case(fuzz.generate_spec("disconnected_chain", 1))
        assert result["outcome"].startswith(("rejected", "typed-error"))
        assert result["violations"] == []

    def test_huge_rates_get_repaired(self):
        result = fuzz.run_case(fuzz.generate_spec("huge_rates", 2))
        assert result["outcome"] in ("repaired", "rejected")
        assert result["violations"] == []

    def test_unconstrained_kind_builds_reducible_models(self):
        spec = fuzz.generate_spec("unconstrained", 6)
        model, is_sys = fuzz.build_from_spec(spec)
        assert is_sys
        # Membership-only validity: every mode is admissible everywhere.
        state = model.states[0]
        assert set(model.valid_actions(state)) == set(model.provider.modes)


class TestReproducers:
    def test_failing_cases_are_dumped(self, tmp_path, monkeypatch):
        # Force a violation so the reproducer path is exercised.
        def broken_run_case(spec):
            return {
                "kind": spec["kind"], "seed": spec["seed"],
                "outcome": "untyped-error",
                "violations": ["injected for the reproducer test"],
            }

        monkeypatch.setattr(fuzz, "run_case", broken_run_case)
        summary = campaign.run("fuzz", count=2, base_seed=9, out=tmp_path)
        assert len(summary["failures"]) == 2
        dumps = sorted(tmp_path.glob("fuzz-*.json"))
        assert len(dumps) == 2
        payload = json.loads(dumps[0].read_text())
        # The dump alone reconstructs the model.
        fuzz.build_from_spec(payload["record"]["spec"])

    def test_cli_exit_codes(self, capsys):
        assert campaign.main(["fuzz", "--count", "3", "--base-seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 3
