"""Policy artifacts: compile, checksum, admit, atomic store."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import stat

import numpy as np
import pytest

from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.errors import (
    ArtifactIntegrityError,
    ArtifactRejectedError,
    ArtifactSchemaError,
    InvalidPolicyError,
    ServeRequestError,
)
from repro.serve.artifact import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    PolicyArtifact,
    SimulatedCrash,
    _canonical_json,
    compile_artifact,
    load_artifact,
    model_fingerprint,
    save_artifact,
    validate_artifact,
)


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


@pytest.fixture(scope="module")
def artifact(model):
    result = optimize_weighted(model, 0.5)
    return compile_artifact(model, result, version=1)


class TestCompile:
    def test_covers_every_model_state(self, model, artifact):
        assert len(artifact.states) == model.n_states
        assert artifact.rate == model.requestor.rate
        assert artifact.fingerprint == model_fingerprint(model)

    def test_rejects_nan_metrics(self, model):
        result = optimize_weighted(model, 0.5)
        poisoned = dataclasses.replace(
            result,
            metrics=dataclasses.replace(
                result.metrics, average_power=math.nan
            ),
        )
        with pytest.raises(ArtifactRejectedError, match="non-finite"):
            compile_artifact(model, poisoned, version=1)

    def test_rejects_randomized_policy(self, model):
        result = optimize_weighted(model, 0.5)

        class FakeRandomized:
            pass

        fake = dataclasses.replace(result, policy=FakeRandomized())
        with pytest.raises(ArtifactRejectedError, match="deterministic"):
            compile_artifact(model, fake, version=1)

    def test_version_must_be_positive(self, model):
        result = optimize_weighted(model, 0.5)
        with pytest.raises(ArtifactSchemaError, match=">= 1"):
            compile_artifact(model, result, version=0)


class TestDocumentRoundtrip:
    def test_roundtrip_preserves_checksum(self, artifact):
        doc = artifact.to_document()
        clone = PolicyArtifact.from_document(doc)
        assert clone.checksum == artifact.checksum
        assert clone.states == artifact.states
        assert clone.actions == artifact.actions

    def test_schema_tag_checked(self, artifact):
        doc = artifact.to_document()
        doc["schema"] = "repro-policy/v999"
        with pytest.raises(ArtifactSchemaError, match="unknown artifact schema"):
            PolicyArtifact.from_document(doc)

    def test_missing_field_is_schema_error(self, artifact):
        doc = artifact.to_document()
        del doc["model"]
        with pytest.raises(ArtifactSchemaError, match="malformed"):
            PolicyArtifact.from_document(doc)

    def test_tampered_action_fails_checksum(self, artifact):
        doc = artifact.to_document()
        doc["actions"] = list(doc["actions"])
        doc["actions"][0] = "sleeping" if doc["actions"][0] != "sleeping" else "active"
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            PolicyArtifact.from_document(doc)

    def test_tampered_metric_fails_checksum(self, artifact):
        doc = artifact.to_document()
        doc["metrics"] = dict(doc["metrics"])
        doc["metrics"]["average_power"] *= 1.0000001
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            PolicyArtifact.from_document(doc)

    def test_schema_constant(self, artifact):
        assert artifact.to_document()["schema"] == ARTIFACT_SCHEMA == "repro-policy/v1"


class TestLookup:
    def test_stable_lookup_clamps_at_capacity(self, model, artifact):
        at_cap = artifact.action_for("active", False, model.capacity)
        beyond = artifact.action_for("active", False, model.capacity + 50)
        assert at_cap == beyond

    def test_transfer_lookup(self, artifact):
        action = artifact.action_for("active", True, 0)
        assert isinstance(action, str)

    def test_unknown_mode_is_typed(self, artifact):
        with pytest.raises(ServeRequestError, match="no joint state"):
            artifact.action_for("warp", False, 0)

    def test_transfer_in_inactive_mode_is_typed(self, artifact):
        with pytest.raises(ServeRequestError, match="no joint state"):
            artifact.action_for("sleeping", True, 0)

    def test_negative_count_is_typed(self, artifact):
        with pytest.raises(ServeRequestError, match=">= 0"):
            artifact.action_for("active", False, -1)

    def test_agrees_with_policy_table(self, model, artifact):
        assignment = artifact.assignment()
        for state, action in assignment.items():
            if state.queue.kind == "stable":
                assert (
                    artifact.action_for(state.mode, False, state.queue.index)
                    == action
                )


class TestValidate:
    def test_admits_own_model(self, model, artifact):
        rated = validate_artifact(artifact, model)
        assert rated.requestor.rate == artifact.rate

    def test_fingerprint_mismatch_rejected(self, artifact):
        other = paper_system(capacity=4)
        with pytest.raises(ArtifactRejectedError, match="different model"):
            validate_artifact(artifact, other)

    def test_invalid_policy_rejected(self, model, artifact):
        bad = PolicyArtifact(
            version=1,
            rate=artifact.rate,
            weight=artifact.weight,
            solver=artifact.solver,
            backend=artifact.backend,
            capacity=artifact.capacity,
            include_transfer_states=artifact.include_transfer_states,
            fingerprint=artifact.fingerprint,
            states=artifact.states,
            actions=["no-such-mode"] * len(artifact.actions),
            metrics=artifact.metrics,
        )
        with pytest.raises(ArtifactRejectedError, match="does not validate"):
            validate_artifact(bad, model)

    def test_nonfinite_stored_metrics_rejected(self, model, artifact):
        bad = PolicyArtifact(
            version=1,
            rate=artifact.rate,
            weight=artifact.weight,
            solver=artifact.solver,
            backend=artifact.backend,
            capacity=artifact.capacity,
            include_transfer_states=artifact.include_transfer_states,
            fingerprint=artifact.fingerprint,
            states=artifact.states,
            actions=artifact.actions,
            metrics={**artifact.metrics, "average_power": math.inf},
        )
        with pytest.raises(ArtifactRejectedError, match="non-finite"):
            validate_artifact(bad, model)


class TestStore:
    def test_save_load_roundtrip(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        assert store.load() is None
        store.save(artifact)
        loaded = store.load()
        assert loaded.checksum == artifact.checksum

    def test_corrupt_file_is_typed(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        data = store.path.read_bytes()
        store.path.write_bytes(data[: len(data) // 2])
        with pytest.raises((ArtifactIntegrityError, ArtifactSchemaError)):
            store.load()

    def test_garbage_file_is_typed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(b"\x00\xff not json")
        with pytest.raises(ArtifactIntegrityError, match="cannot read"):
            store.load()

    def test_valid_json_wrong_shape_is_schema_error(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text(json.dumps({"schema": "repro-policy/v1"}))
        with pytest.raises(ArtifactSchemaError):
            store.load()

    @pytest.mark.parametrize(
        "point", ["after-write", "after-fsync", "after-replace"]
    )
    def test_crash_at_any_point_leaves_loadable_state(
        self, tmp_path, model, artifact, point
    ):
        """The atomicity acceptance criterion: a kill at any injected
        point leaves either no artifact (crash before replace) or a
        complete new one -- never a torn file."""
        store = ArtifactStore(tmp_path)
        result = optimize_weighted(model, 2.0)
        second = compile_artifact(model, result, version=2)
        store.save(artifact)  # last-good
        store.crash_point = point
        with pytest.raises(SimulatedCrash):
            store.save(second)
        store.crash_point = None
        survivor = ArtifactStore(tmp_path).load()  # a fresh process
        assert survivor is not None
        assert survivor.checksum in (artifact.checksum, second.checksum)
        if point == "after-replace":
            assert survivor.checksum == second.checksum
        else:
            assert survivor.checksum == artifact.checksum
        validate_artifact(survivor, model)

    def test_crash_leftovers_swept(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        store.crash_point = "after-write"
        with pytest.raises(SimulatedCrash):
            store.save(artifact)
        assert list(tmp_path.glob("*.tmp"))
        store.crash_point = None
        store.save(artifact)
        assert not list(tmp_path.glob("*.tmp"))

    def test_path_level_helpers(self, tmp_path, artifact):
        path = tmp_path / "deep" / "policy-v1.json"
        save_artifact(artifact, path)
        assert load_artifact(path).checksum == artifact.checksum
        with pytest.raises(ArtifactIntegrityError, match="no artifact"):
            load_artifact(tmp_path / "missing.json")


class TestFileFormat:
    def test_file_is_the_canonical_json(self, tmp_path, artifact):
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        assert store.path.read_text() == (
            _canonical_json(artifact.to_document()) + "\n"
        )

    def test_indented_file_still_loads(self, tmp_path, artifact):
        """Files written as indented JSON (the earlier format) load
        unchanged: the checksum covers the document, not whitespace."""
        store = ArtifactStore(tmp_path)
        with open(store.path, "w") as handle:
            json.dump(artifact.to_document(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        loaded = store.load()
        assert loaded.checksum == artifact.checksum
        assert loaded.states == artifact.states
        assert loaded.actions == artifact.actions

    def test_round_trip_at_ten_thousand_states(self, tmp_path):
        model = paper_system(capacity=2500)
        assert model.n_states == 10003
        result = optimize_weighted(model, 1.0)
        compiled = compile_artifact(model, result, version=3)
        assert compiled.states == [
            (s.mode, s.queue.kind, s.queue.index) for s in model.states
        ]
        assert compiled.actions == [
            result.policy.action(s) for s in model.states
        ]
        store = ArtifactStore(tmp_path)
        store.save(compiled)
        loaded = store.load()
        assert loaded.checksum == compiled.checksum
        assert loaded.states == compiled.states
        assert loaded.actions == compiled.actions
        assert {k: v.hex() for k, v in loaded.metrics.items()} == {
            k: v.hex() for k, v in compiled.metrics.items()
        }

    def test_compile_reads_any_key_order(self, model):
        """A policy keyed out of model state order compiles to the same
        table; one missing a state is rejected, typed."""
        result = optimize_weighted(model, 0.5)
        in_order = compile_artifact(model, result, version=1)
        shuffled = dict(reversed(list(result.policy.as_dict().items())))
        reordered = dataclasses.replace(
            result, policy=type(result.policy)(result.policy.mdp, shuffled),
        )
        assert compile_artifact(model, reordered, version=1).checksum == (
            in_order.checksum
        )
        del shuffled[model.states[0]]
        with pytest.raises(InvalidPolicyError, match="misses states"):
            type(result.policy)(result.policy.mdp, shuffled)

    def test_policy_on_other_states_is_rejected(self, model):
        result = optimize_weighted(model, 0.5)
        other = paper_system(capacity=model.capacity + 1)
        with pytest.raises(ArtifactRejectedError, match="other states"):
            compile_artifact(other, result, version=1)

    def test_document_lists_are_fresh(self, artifact):
        before = artifact.to_document()
        doc = artifact.to_document()
        doc["states"][0] = ("warp", "stable", 0)
        doc["states"].append(("warp", "stable", 1))
        doc["actions"][0] = "warp"
        assert artifact.to_document() == before
        assert PolicyArtifact.from_document(before).checksum == (
            artifact.checksum
        )


class TestCertificateSave:
    def test_unencodable_document_leaves_no_temp_file(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(TypeError):
            store.save_certificate({"x": np.int64(3)})
        assert not list(tmp_path.glob("*.tmp"))
        assert not store.cert_path.exists()

    @pytest.mark.parametrize("which", ["policy", "certificate"])
    def test_failed_replace_removes_the_temp_file(
        self, tmp_path, monkeypatch, artifact, which
    ):
        store = ArtifactStore(tmp_path)

        def broken_replace(src, dst):
            raise RuntimeError("replace failed")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(RuntimeError, match="replace failed"):
            if which == "policy":
                store.save(artifact)
            else:
                store.save_certificate({"verdict": "certified"})
        assert not list(tmp_path.glob("*.tmp"))

    def test_fsyncs_the_file_then_the_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        store = ArtifactStore(tmp_path)
        document = {"verdict": "certified", "checks": [1, 2]}
        store.save_certificate(document)
        assert synced == ["file", "dir"]
        assert store.cert_path.read_text() == _canonical_json(document) + "\n"
        assert store.load_certificate() == document

    def test_sweep_clears_both_temp_prefixes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        (tmp_path / "policy.json.a1b2.tmp").write_text("{")
        (tmp_path / "policy.cert.json.c3d4.tmp").write_text("{")
        (tmp_path / "unrelated.tmp").write_text("{")
        assert store.sweep() == 2
        assert [p.name for p in tmp_path.glob("*.tmp")] == ["unrelated.tmp"]

    def test_crash_keeps_the_previous_certificate(self, tmp_path):
        """A kill mid-save leaves the last-good sidecar readable and its
        temp file on disk, where the next sweep removes it."""
        store = ArtifactStore(tmp_path)
        store.save_certificate({"verdict": "certified"})
        store.crash_point = "after-write"
        with pytest.raises(SimulatedCrash):
            store.save_certificate({"verdict": "rejected"})
        store.crash_point = None
        assert [p.name.startswith("policy.cert.json.")
                for p in tmp_path.glob("*.tmp")] == [True]
        assert ArtifactStore(tmp_path).load_certificate() == {
            "verdict": "certified"
        }
        assert store.sweep() == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestFingerprint:
    def test_rate_excluded_from_fingerprint(self):
        a = paper_system(arrival_rate=0.1, capacity=3)
        b = paper_system(arrival_rate=0.9, capacity=3)
        assert model_fingerprint(a) == model_fingerprint(b)

    def test_capacity_changes_fingerprint(self):
        a = paper_system(capacity=3)
        b = paper_system(capacity=4)
        assert model_fingerprint(a) != model_fingerprint(b)
