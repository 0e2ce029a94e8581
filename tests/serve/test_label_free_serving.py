"""From a configuration to served decisions with no SYS label built.

The artifact's ``(mode, kind, index)`` keys come from the state grid,
its bytes from one serialization of each member, and validation checks
the stored tables by position, so no :class:`SystemState` is needed
anywhere between ``paper_system`` and an installed, saved table.
"""

from __future__ import annotations

import random

import pytest

from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.errors import ArtifactRejectedError
from repro.robust.admission import admit_model
from repro.serve.artifact import (
    ArtifactStore,
    PolicyArtifact,
    _canonical_json,
    compile_artifact,
    validate_artifact,
)
from repro.serve.server import PolicyServer


def rebuilt(artifact, states, actions) -> PolicyArtifact:
    """*artifact* with other state and action tables."""
    fields = {name: getattr(artifact, name) for name in (
        "version", "rate", "weight", "solver", "backend", "capacity",
        "include_transfer_states", "fingerprint", "metrics")}
    return PolicyArtifact(states=states, actions=actions, **fields)


def test_config_to_decisions_builds_no_label(tmp_path, system_state_constructions):
    model = paper_system(capacity=2500)
    assert model.n_states == 10003
    admit_model(model, weight=1.0)
    result = optimize_weighted(model, 1.0)
    artifact = compile_artifact(model, result, version=1)
    fresh = paper_system(capacity=2500)
    validate_artifact(artifact, fresh)
    ArtifactStore(tmp_path).save(artifact)
    server = PolicyServer(model)
    server.install(artifact)
    rng = random.Random(0)
    modes = model.provider.modes
    for _ in range(1000):
        mode = rng.choice(modes)
        in_transfer = mode == "active" and rng.random() < 0.5
        server.decide(mode, in_transfer, rng.randrange(2600))
    assert system_state_constructions[0] == 0
    assert model._index is None and fresh._index is None
    assert model._states is None and fresh._states is None


@pytest.mark.parametrize("capacity", [5, 250, 2500])
def test_saved_bytes_are_the_canonical_document(tmp_path, capacity):
    model = paper_system(capacity=capacity)
    artifact = compile_artifact(model, optimize_weighted(model, 1.0), version=2)
    store = ArtifactStore(tmp_path)
    store.save(artifact)
    data = store.path.read_bytes()
    assert data == (_canonical_json(artifact.to_document()) + "\n").encode("utf-8")
    loaded = store.load()
    assert loaded.checksum == artifact.checksum
    assert loaded.to_json() == artifact.to_json()
    assert (loaded.states, loaded.actions) == (artifact.states, artifact.actions)


class TestValidateByPosition:
    @pytest.mark.parametrize("capacity", [5, 100])  # 23 and 403 states
    def test_permuted_states_are_rejected(self, capacity):
        model = paper_system(capacity=capacity)
        artifact = compile_artifact(model, optimize_weighted(model, 1.0), version=1)
        validate_artifact(artifact, model)
        # The same (state, action) pairs in another order: a mapping
        # reads the same table, the position check does not.
        pairs = list(zip(artifact.states, artifact.actions))
        pairs[0], pairs[-1] = pairs[-1], pairs[0]
        states, actions = map(list, zip(*pairs))
        permuted = rebuilt(artifact, states, actions)
        with pytest.raises(ArtifactRejectedError,
                           match="does not validate.*model order"):
            validate_artifact(permuted, model)

    @pytest.mark.parametrize("capacity", [5, 100])
    def test_unavailable_action_is_rejected_by_label(self, capacity):
        model = paper_system(capacity=capacity)
        artifact = compile_artifact(model, optimize_weighted(model, 1.0), version=1)
        # Constraint III.1: a busy active server may not power down.
        position = artifact.states.index(("active", "stable", 2))
        actions = list(artifact.actions)
        actions[position] = "sleeping"
        bad = rebuilt(artifact, artifact.states, actions)
        with pytest.raises(
            ArtifactRejectedError,
            match=r"does not validate.*'sleeping' is not available in state "
                  r"\(active,q2\)",
        ):
            validate_artifact(bad, model)
