"""The seeded-campaign harness: seeds, runner, reproducers, chaos checks.

Every campaign runs through one seed rule and one runner, and a case
with a violation leaves one ``<campaign>-<seed>.json`` from which the
same command line replays it.
"""

from __future__ import annotations

import json
import shlex
import zlib
from types import SimpleNamespace

import pytest

from repro.certify import corpus
from repro.dpm.presets import paper_system
from repro.robust import campaign, fuzz
from repro.serve import chaos
from repro.serve.artifact import ArtifactStore
from repro.serve.server import ServingRuntime


def _replay(capsys, reproducer):
    """Run a reproducer's command line back; its summary."""
    argv = shlex.split(reproducer["replay"])
    assert argv[:3] == ["python", "-m", "repro.robust.campaign"]
    assert argv[3:8] == [reproducer["campaign"], "--base-seed",
                         str(reproducer["seed"]), "--count", "1"]
    capsys.readouterr()
    code = campaign.main(argv[3:])
    return code, json.loads(capsys.readouterr().out)


def _only_reproducer(out, name, seed):
    assert [p.name for p in out.iterdir()] == [f"{name}-{seed}.json"]
    return json.loads((out / f"{name}-{seed}.json").read_text())


class TestSeeds:
    def test_base_seed_counts_up(self):
        assert campaign.seeds(3) == range(0, 3)
        assert campaign.seeds(2, base_seed=9) == range(9, 11)

    def test_run_id_seed_is_stable(self):
        assert campaign.seeds(1, run_id="12345") == campaign.seeds(
            1, run_id="12345")
        assert campaign.seeds(1, run_id="12345") != campaign.seeds(
            1, run_id="12346")

    def test_run_id_overrides_base_seed(self):
        start = zlib.crc32(b"12345") & 0x7FFFFFFF
        assert campaign.seeds(5, base_seed=7, run_id="12345") == range(
            start, start + 5)

    def test_cli_takes_one_seed_source(self, capsys):
        with pytest.raises(SystemExit):
            campaign.main(["fuzz", "--base-seed", "1",
                           "--seed-from-run-id", "2"])

    def test_options_are_per_campaign(self, capsys):
        with pytest.raises(SystemExit):
            campaign.main(["fuzz", "--capacity", "3"])
        with pytest.raises(SystemExit):
            campaign.main(["certify", "--duration", "10"])


class TestRunner:
    def test_escaped_exception_is_a_violation(self, tmp_path, monkeypatch,
                                              capsys):
        def broken(seed):
            raise RuntimeError(f"boom at {seed}")

        monkeypatch.setattr(fuzz, "case", broken)
        code = campaign.main(["fuzz", "--base-seed", "4", "--out",
                              str(tmp_path)])
        summary = json.loads(capsys.readouterr().out)
        assert code == 1
        assert summary["outcomes"] == {"escaped": 1}
        assert summary["failures"] == [{
            "seed": 4,
            "violations": ["RuntimeError escaped the case: boom at 4"],
        }]
        reproducer = _only_reproducer(tmp_path, "fuzz", 4)
        assert reproducer["record"]["violations"] == (
            summary["failures"][0]["violations"])

    def test_clean_run_writes_nothing(self, tmp_path, capsys):
        code = campaign.main(["fuzz", "--count", "2", "--out",
                              str(tmp_path / "out")])
        assert code == 0
        assert not (tmp_path / "out").exists()
        summary = json.loads(capsys.readouterr().out)
        assert summary["failures"] == []
        assert sum(summary["outcomes"].values()) == 2


class TestFuzzCase:
    def test_kind_cycles_with_the_seed(self):
        for seed in (0, 13, 25):
            record = fuzz.case(seed)
            assert record["spec"] == fuzz.generate_spec(
                fuzz.KINDS[seed % len(fuzz.KINDS)], seed)
            assert record["kind"] == fuzz.KINDS[seed % len(fuzz.KINDS)]

    def test_same_seed_same_record(self):
        assert fuzz.case(3) == fuzz.case(3)

    def test_forced_violation_reproduces(self, tmp_path, monkeypatch,
                                         capsys):
        real = fuzz.run_case

        def broken(spec):
            record = real(spec)
            record["violations"].append(f"forced at {spec['seed']}")
            return record

        monkeypatch.setattr(fuzz, "run_case", broken)
        assert campaign.main(["fuzz", "--base-seed", "5", "--out",
                              str(tmp_path)]) == 1
        reproducer = _only_reproducer(tmp_path, "fuzz", 5)
        assert (reproducer["campaign"], reproducer["seed"],
                reproducer["params"]) == ("fuzz", 5, {})
        code, summary = _replay(capsys, reproducer)
        assert code == 1
        assert summary["failures"] == [{
            "seed": 5, "violations": reproducer["record"]["violations"],
        }]


class TestCertifyCase:
    def test_same_seed_same_record(self):
        assert corpus.case(1) == corpus.case(1)

    def test_forced_violation_reproduces(self, tmp_path, monkeypatch,
                                         capsys):
        # A certifier that passes everything: every corrupted member
        # falsely certifies.
        passed = SimpleNamespace(certified=True, verdict="certified",
                                 finding_codes=[])
        monkeypatch.setattr(corpus.CorruptedPolicy, "certify",
                            lambda self, model, **kwargs: passed)
        assert campaign.main(["certify", "--base-seed", "2", "--capacity",
                              "3", "--out", str(tmp_path)]) == 1
        reproducer = _only_reproducer(tmp_path, "certify", 2)
        assert (reproducer["campaign"], reproducer["seed"],
                reproducer["params"]) == ("certify", 2, {"capacity": 3})
        violations = reproducer["record"]["violations"]
        assert len(violations) == len(corpus.CORRUPTION_KINDS)
        assert all("verdict certified" in v for v in violations)
        code, summary = _replay(capsys, reproducer)
        assert code == 1
        assert summary["params"] == {"capacity": 3}
        assert summary["failures"] == [{"seed": 2, "violations": violations}]


def _tampered_soak(monkeypatch, tamper):
    real = ServingRuntime.soak

    def soak(self, duration, seed=0, chaos=None, adapt_every=25):
        report = real(self, duration, seed=seed, chaos=chaos,
                      adapt_every=adapt_every)
        tamper(report, chaos)
        return report

    monkeypatch.setattr(ServingRuntime, "soak", soak)


class TestChaosCase:
    def test_chaos_soak_survives(self, capsys):
        # Ending degraded is an outcome, not a violation.
        assert campaign.main(["chaos", "--duration", "6000"]) == 0
        record = chaos.case(0, duration=6000)
        soak = record["soak"]
        assert soak["selfcheck_violations"] == 0
        assert record["outcome"] == soak["final_status"]["health"]
        assert soak["chaos"]["reload_attempts"] == (
            soak["chaos"]["reload_rejections"]
            + soak["chaos"]["reload_successes"]
        )

    def test_matches_the_served_configuration(self):
        record = chaos.case(1, duration=2000)
        soak = record["soak"]
        assert (soak["seed"], soak["duration"]) == (1, 2000.0)
        assert set(soak["chaos"]["solver_outcomes"]) <= set(chaos.OUTCOMES)
        assert record["violations"] == []

    def test_probe_before_the_first_save_is_not_an_attempt(self, tmp_path):
        model = paper_system(capacity=5)
        runtime = ServingRuntime(model, 1.0, ArtifactStore(tmp_path))
        assert runtime.bootstrap(initial_solve=False) == "heuristic"
        plan = chaos.ChaosPlan(model.requestor.rate, reload_probability=1.0)
        plan._probe_reload(runtime)
        assert plan.reload_attempts == 0
        runtime.bootstrap()
        plan._probe_reload(runtime)
        assert (plan.reload_attempts, plan.reload_successes) == (1, 1)

    @pytest.mark.parametrize("tamper,message", [
        (lambda report, plan: setattr(report, "selfcheck_violations", 2),
         "2 decision(s) inconsistent with the admitted artifact"),
        (lambda report, plan: setattr(report, "decisions", 0),
         "no decision was served"),
        (lambda report, plan: setattr(plan, "reload_attempts",
                                      plan.reload_attempts + 1),
         "reload probes but"),
    ], ids=["selfcheck", "no-decisions", "reload-probes"])
    def test_each_soak_check_is_reported(self, monkeypatch, tamper, message):
        _tampered_soak(monkeypatch, tamper)
        record = chaos.case(0, duration=2000)
        assert len(record["violations"]) == 1
        assert message in record["violations"][0]

    def test_forced_violation_reproduces(self, tmp_path, monkeypatch,
                                         capsys):
        _tampered_soak(monkeypatch, lambda report, plan: setattr(
            report, "selfcheck_violations", 1))
        assert campaign.main(["chaos", "--base-seed", "3", "--duration",
                              "2000", "--out", str(tmp_path)]) == 1
        reproducer = _only_reproducer(tmp_path, "chaos", 3)
        assert (reproducer["campaign"], reproducer["seed"],
                reproducer["params"]) == ("chaos", 3, {"duration": 2000.0})
        code, summary = _replay(capsys, reproducer)
        assert code == 1
        assert summary["failures"] == [{
            "seed": 3, "violations": reproducer["record"]["violations"],
        }]
