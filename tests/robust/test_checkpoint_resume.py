"""Checkpoint/resume tests: unit semantics plus kill-and-resume proofs.

The headline acceptance test SIGKILLs a frontier sweep mid-run and
asserts the resumed run's stdout is bit-identical to an uninterrupted
run.
"""

from __future__ import annotations

import json
import os
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.dpm.optimizer import optimize_weighted, sweep_weights
from repro.dpm.pareto import deterministic_frontier
from repro.dpm.presets import paper_system
from repro.errors import CheckpointError
from repro.policies import GreedyPolicy
from repro.robust.checkpoint import Checkpoint, config_hash, open_checkpoint
from repro.sim.batch import run_replications
from repro.sim.workload import PoissonProcess

CONFIG = {"task": "test", "rate": 0.25, "capacity": 3}


class TestConfigHash:
    def test_key_order_irrelevant(self):
        assert config_hash({"a": 1, "b": 2.5}) == config_hash({"b": 2.5, "a": 1})

    def test_value_changes_hash(self):
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_unserializable_config_rejected(self):
        with pytest.raises(CheckpointError):
            config_hash({"a": object()})


class TestCheckpointStore:
    def test_put_get_roundtrip(self, tmp_path):
        ck = Checkpoint(tmp_path / "c.json", CONFIG)
        ck.put("k", {"x": 0.1})
        assert "k" in ck
        assert ck.get("k") == {"x": 0.1}
        reloaded = Checkpoint(tmp_path / "c.json", CONFIG, resume=True)
        assert reloaded.get("k") == {"x": 0.1}

    def test_exact_float_roundtrip(self, tmp_path):
        value = 0.1 + 0.2  # not exactly 0.3
        ck = Checkpoint(tmp_path / "c.json", CONFIG)
        ck.put("k", value)
        reloaded = Checkpoint(tmp_path / "c.json", CONFIG, resume=True)
        assert reloaded.get("k") == value  # bit-identical

    def test_save_every_batches_writes(self, tmp_path):
        path = tmp_path / "c.json"
        ck = Checkpoint(path, CONFIG, save_every=3)
        ck.put("a", 1)
        ck.put("b", 2)
        assert not path.exists()
        ck.put("c", 3)
        assert path.exists()

    def test_flush_forces_write(self, tmp_path):
        path = tmp_path / "c.json"
        ck = Checkpoint(path, CONFIG, save_every=100)
        ck.put("a", 1)
        ck.flush()
        assert json.loads(path.read_text())["completed"] == {"a": 1}

    def test_config_mismatch_rejected_on_resume(self, tmp_path):
        path = tmp_path / "c.json"
        Checkpoint(path, CONFIG).put("a", 1)
        with pytest.raises(CheckpointError, match="different configuration"):
            Checkpoint(path, {**CONFIG, "rate": 0.5}, resume=True)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint(path, CONFIG, resume=True)

    def test_non_checkpoint_document_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"something": "else"}))
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            Checkpoint(path, CONFIG, resume=True)

    def test_invalid_save_every(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint(tmp_path / "c.json", CONFIG, save_every=0)

    def test_open_checkpoint_none_path(self):
        assert open_checkpoint(None, CONFIG) is None

    def test_no_stale_temp_files_after_flush(self, tmp_path):
        ck = Checkpoint(tmp_path / "c.json", CONFIG)
        for k in range(5):
            ck.put(str(k), k)
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]

    def test_flush_fsyncs_the_file_then_the_directory(self, tmp_path,
                                                      monkeypatch):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                          else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        ck = Checkpoint(tmp_path / "c.json", CONFIG)
        ck.put("0.5", {"gain": 0.1})
        assert synced == ["file", "dir"]
        expected = {"format": 1, "config_hash": config_hash(CONFIG),
                    "config": CONFIG, "completed": {"0.5": {"gain": 0.1}}}
        assert (tmp_path / "c.json").read_text() == (
            json.dumps(expected, indent=1, sort_keys=True) + "\n")

    @pytest.mark.parametrize("error", [OSError("disk full"),
                                       KeyboardInterrupt()])
    def test_interrupted_flush_removes_its_temp_file(self, tmp_path,
                                                     monkeypatch, error):
        ck = Checkpoint(tmp_path / "c.json", CONFIG)
        ck.put("a", 1)

        def broken_replace(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(type(error)):
            ck.put("b", 2)
        assert [p.name for p in tmp_path.iterdir()] == ["c.json"]


@pytest.fixture(scope="module")
def small_model():
    return paper_system(arrival_rate=0.25, capacity=2)


class TestSweepWeightsResume:
    WEIGHTS = [0.0, 0.5, 1.0, 2.0, 5.0]

    def test_checkpointed_sweep_matches_plain(self, small_model, tmp_path):
        plain = sweep_weights(small_model, self.WEIGHTS)
        ck = Checkpoint(tmp_path / "sweep.json", {"k": 1})
        checkpointed = sweep_weights(small_model, self.WEIGHTS, checkpoint=ck)
        assert [r.weight for r in checkpointed] == [r.weight for r in plain]
        assert [r.policy for r in checkpointed] == [r.policy for r in plain]
        assert [r.metrics for r in checkpointed] == [r.metrics for r in plain]

    def test_resume_solves_only_missing_weights(
        self, small_model, tmp_path, monkeypatch
    ):
        path = tmp_path / "sweep.json"
        config = {"k": 2}
        # "Interrupted" run: only the first three weights completed.
        sweep_weights(
            small_model, self.WEIGHTS[:3],
            checkpoint=Checkpoint(path, config),
        )
        solved = []
        import repro.dpm.optimizer as optimizer_module

        real = optimize_weighted

        def counting(
            model, weight, solver="policy_iteration", backend="auto", **kwargs
        ):
            solved.append(weight)
            return real(model, weight, solver=solver, backend=backend, **kwargs)

        monkeypatch.setattr(optimizer_module, "optimize_weighted", counting)
        resumed = sweep_weights(
            small_model, self.WEIGHTS,
            checkpoint=Checkpoint(path, config, resume=True),
        )
        assert solved == self.WEIGHTS[3:]  # cached weights not re-solved
        plain = sweep_weights(small_model, self.WEIGHTS)
        assert [r.metrics for r in resumed] == [r.metrics for r in plain]


    @pytest.mark.parametrize("solver, backend", [
        ("policy_iteration", "sparse"), ("linear_program", "auto")])
    def test_sweep_killed_after_two_weights_resumes(
        self, tmp_path, monkeypatch, solver, backend
    ):
        # Each weight is persisted as it is solved, and the stored action
        # tuples bind to the build the backend names, so a checkpoint
        # works on every backend.
        import repro.dpm.optimizer as optimizer_module

        kwargs = dict(solver=solver, backend=backend)
        plain = sweep_weights(paper_system(capacity=5), self.WEIGHTS, **kwargs)
        path, config = tmp_path / "sweep.json", {"k": 3}
        solved = []

        def killed_after_two(model, weight, **kwargs):
            if len(solved) == 2:
                raise _Killed
            solved.append(weight)
            return optimize_weighted(model, weight, **kwargs)

        monkeypatch.setattr(optimizer_module, "optimize_weighted",
                            killed_after_two)
        with pytest.raises(_Killed):
            sweep_weights(paper_system(capacity=5), self.WEIGHTS,
                          checkpoint=Checkpoint(path, config), **kwargs)
        monkeypatch.undo()
        completed = json.loads(path.read_text())["completed"]
        assert sorted(completed) == sorted(map(repr, self.WEIGHTS[:2]))
        resumed = sweep_weights(
            paper_system(capacity=5), self.WEIGHTS,
            checkpoint=Checkpoint(path, config, resume=True), **kwargs,
        )
        assert all(type(r.policy.mdp) is type(p.policy.mdp)
                   for r, p in zip(resumed, plain))
        assert [r.policy.actions for r in resumed] == [
            r.policy.actions for r in plain]
        assert [r.metrics for r in resumed] == [r.metrics for r in plain]


class _Killed(Exception):
    """Stands in for the process dying mid-sweep."""


class TestFrontierResume:
    def test_interrupted_frontier_resumes_identically(
        self, small_model, tmp_path
    ):
        plain = deterministic_frontier(
            small_model, max_weight=50.0, weight_tolerance=0.01
        )
        path = tmp_path / "front.json"
        config = {"front": 1}
        deterministic_frontier(
            small_model, max_weight=50.0, weight_tolerance=0.01,
            checkpoint=Checkpoint(path, config),
        )
        # Simulate a mid-sweep kill: drop half the completed entries.
        doc = json.loads(path.read_text())
        kept = dict(list(doc["completed"].items())[: len(doc["completed"]) // 2])
        doc["completed"] = kept
        path.write_text(json.dumps(doc))
        resumed = deterministic_frontier(
            small_model, max_weight=50.0, weight_tolerance=0.01,
            checkpoint=Checkpoint(path, config, resume=True),
        )
        assert [(p.weight, p.policy, p.metrics) for p in resumed] == [
            (p.weight, p.policy, p.metrics) for p in plain
        ]


class TestReplicationResume:
    def test_partial_campaign_resumes_identically(
        self, paper_provider, tmp_path
    ):
        kwargs = dict(
            provider=paper_provider,
            capacity=5,
            workload_factory=lambda: PoissonProcess(1 / 6),
            policy_factory=lambda: GreedyPolicy(paper_provider),
            n_requests=400,
            n_replications=4,
            base_seed=11,
        )
        plain = run_replications(**kwargs)
        path = tmp_path / "reps.json"
        config = {"reps": 1}
        run_replications(checkpoint=Checkpoint(path, config), **kwargs)
        doc = json.loads(path.read_text())
        assert set(doc["completed"]) == {"11", "12", "13", "14"}
        doc["completed"] = {k: doc["completed"][k] for k in ("11", "13")}
        path.write_text(json.dumps(doc))
        resumed = run_replications(
            checkpoint=Checkpoint(path, config, resume=True), **kwargs
        )
        assert resumed == plain


class TestKillAndResumeCLI:
    """The acceptance test: SIGKILL a sweep, resume, bit-identical output."""

    ARGS = [
        "frontier", "--max-weight", "50", "--weight-tolerance", "0.01",
    ]

    def _cli(self, extra, **popen_kwargs):
        env = dict(os.environ, PYTHONPATH="src")
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.ARGS, *extra],
            capture_output=True, text=True, env=env,
            cwd=Path(__file__).resolve().parents[2], **popen_kwargs,
        )

    def test_sigkilled_sweep_resumes_to_identical_output(self, tmp_path):
        reference = self._cli([])
        assert reference.returncode == 0

        ck = tmp_path / "front.json"
        env = dict(os.environ, PYTHONPATH="src")
        victim = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", *self.ARGS,
                "--checkpoint", str(ck),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            cwd=Path(__file__).resolve().parents[2],
        )
        # Kill as soon as some -- but not necessarily all -- sub-solves
        # are checkpointed, emulating preemption mid-sweep.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            if ck.exists():
                try:
                    if len(json.loads(ck.read_text())["completed"]) >= 3:
                        break
                except (ValueError, KeyError):
                    pass  # caught the file mid-replace; retry
            time.sleep(0.01)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait()
        assert ck.exists(), "no checkpoint was written before the kill"

        resumed = self._cli(["--checkpoint", str(ck), "--resume"])
        assert resumed.returncode == 0
        assert resumed.stdout == reference.stdout
