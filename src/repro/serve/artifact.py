"""Flat, versioned, checksummed policy lookup artifacts.

A solved policy leaves the solver as a :class:`~repro.ctmdp.policy.Policy`
bound to a model instance -- the wrong shape for a serving process that
must answer lookups for hours, survive restarts, and reject corrupt
state. This module compiles an
:class:`~repro.dpm.optimizer.OptimizationResult` into a self-describing
document (schema ``repro-policy/v1``):

- **Flat.** States are encoded as ``(mode, kind, index)`` triples in
  model state order with a parallel action list; loading rebuilds an
  O(1) lookup table with no solver machinery on the serve path.
- **Versioned.** A monotonically increasing ``version`` plus the solved
  arrival rate, weight, solver, and backend -- enough to answer "what
  exactly is this process serving?" from the file alone.
- **Checksummed.** A SHA-256 over the canonical JSON of everything
  else. A torn write, a flipped bit, or a hand-edited file fails the
  check with a typed :class:`~repro.errors.ArtifactIntegrityError`
  before any action is ever served from it.
- **Admitted.** :func:`validate_artifact` is the PR 5 admission gate
  repurposed as the artifact-validation step of the serve pipeline: the
  encoded model configuration must fingerprint-match the serving model,
  pass :func:`repro.robust.admission.admit_model`, and the policy must
  validate by position against the rebuilt CTMDP. Inadmissible artifacts raise
  :class:`~repro.errors.ArtifactRejectedError` -- they are never served.

:class:`ArtifactStore` owns the on-disk lifecycle: saves are atomic
(temp file in the same directory, fsync, ``os.replace``, then a
best-effort directory fsync), so a SIGKILL at any instant leaves either
the previous artifact or the new one -- never a torn file. Leftover
temp files from a crash mid-swap are swept on the next save/load.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.dpm.service_queue import QueueState, STABLE, TRANSFER
from repro.dpm.system import PowerManagedSystemModel, SystemState
from repro.errors import (
    ArtifactIntegrityError,
    ArtifactRejectedError,
    ArtifactSchemaError,
    InvalidModelError,
    InvalidPolicyError,
    ServeRequestError,
)
from repro.obs.runtime import active as obs_active
from repro.robust.checkpoint import (
    atomic_write,
    canonical_checksum,
    canonical_json as _canonical_json,
)

#: Schema tag stamped on every artifact document.
ARTIFACT_SCHEMA = "repro-policy/v1"

PathLike = Union[str, Path]


def provider_fingerprint(provider) -> str:
    """SHA-256 of the provider's full numeric structure.

    Two providers fingerprint equal iff their mode names, switching
    rates, service rates, power rates, switching energies, and
    self-switch stand-in agree exactly (shortest-repr float identity) --
    the condition under which a policy table transfers between them.
    """
    modes = list(provider.modes)
    doc = {
        "modes": modes,
        "switching_rates": [
            [provider.switching_rate(s, d) if s != d else 0.0 for d in modes]
            for s in modes
        ],
        "service_rates": [provider.service_rate(m) for m in modes],
        "power": [provider.power_rate(m) for m in modes],
        "switching_energy": [
            [provider.switching_energy(s, d) if s != d else 0.0 for d in modes]
            for s in modes
        ],
        "self_switch_rate": provider.self_switch_rate,
    }
    return canonical_checksum(doc)


def model_fingerprint(model: PowerManagedSystemModel) -> str:
    """Fingerprint of everything about *model* except the arrival rate.

    The arrival rate is deliberately excluded: re-rated siblings (the
    drift re-solve path) share a fingerprint, and the artifact carries
    its exact solved rate separately.
    """
    doc = {
        "provider": provider_fingerprint(model.provider),
        "capacity": int(model.capacity),
        "include_transfer_states": bool(model.include_transfer_states),
    }
    return canonical_checksum(doc)


def table_action(table: "Dict[Tuple[str, str, int], str]", capacity: int,
                 mode: str, in_transfer: bool, count: int, source: str) -> str:
    """The action *table* holds for one decision request, keyed by the
    clamped ``(mode, kind, index)`` triple: a transfer's *count* waiting
    requests plus the one in service, ``min(count + 1, capacity)``, or a
    stable occupancy ``min(count, capacity)``. A negative *count*, or a
    key the table lacks (an unknown mode, or a transfer in an inactive
    mode), is a :class:`~repro.errors.ServeRequestError` naming the
    *source* policy."""
    if count < 0:
        raise ServeRequestError(f"occupancy must be >= 0, got {count}")
    if in_transfer:
        key = (mode, TRANSFER, min(int(count) + 1, capacity))
    else:
        key = (mode, STABLE, min(int(count), capacity))
    action = table.get(key)
    if action is None:
        raise ServeRequestError(
            f"no joint state for mode={mode!r}, transfer={in_transfer}, "
            f"count={count} in the {source} policy (unknown mode, or a "
            "transfer in an inactive mode)"
        )
    return action


def _canonical_object(members: "Dict[str, str]") -> str:
    """The canonical JSON of an object whose member values are given as
    canonical JSON: its ``"key":value`` members in sorted key order,
    comma-joined in braces, exactly as :func:`canonical_json` writes
    the object itself."""
    return "{" + ",".join(
        f"{json.dumps(key)}:{members[key]}" for key in sorted(members)) + "}"


class PolicyArtifact:
    """An immutable compiled policy table plus its provenance.

    Construct via :func:`compile_artifact` (from a solved result) or
    :meth:`from_document` (from a loaded JSON document); both leave the
    instance fully validated at the structural level. Admission-level
    validation against a serving model is :func:`validate_artifact`.
    """

    __slots__ = (
        "version",
        "rate",
        "weight",
        "solver",
        "backend",
        "capacity",
        "include_transfer_states",
        "fingerprint",
        "states",
        "actions",
        "metrics",
        "checksum",
        "_table",
        "_members",
    )

    def __init__(
        self,
        version: int,
        rate: float,
        weight: float,
        solver: str,
        backend: str,
        capacity: int,
        include_transfer_states: bool,
        fingerprint: str,
        states: "List[Tuple[str, str, int]]",
        actions: "List[str]",
        metrics: "Dict[str, float]",
        checksum: "Optional[str]" = None,
    ) -> None:
        if version < 1:
            raise ArtifactSchemaError(f"artifact version must be >= 1, got {version}")
        if len(states) != len(actions):
            raise ArtifactSchemaError(
                f"{len(states)} states but {len(actions)} actions"
            )
        if not states:
            raise ArtifactSchemaError("artifact has an empty policy table")
        self.version = int(version)
        self.rate = float(rate)
        self.weight = float(weight)
        self.solver = str(solver)
        self.backend = str(backend)
        self.capacity = int(capacity)
        self.include_transfer_states = bool(include_transfer_states)
        self.fingerprint = str(fingerprint)
        self.states = [
            (str(m), str(k), int(i)) for m, k, i in states
        ]
        self.actions = [str(a) for a in actions]
        self.metrics = {str(k): float(v) for k, v in metrics.items()}
        table: "Dict[Tuple[str, str, int], str]" = {}
        for key, action in zip(self.states, self.actions):
            if key in table:
                raise ArtifactSchemaError(f"duplicate state {key!r} in artifact")
            table[key] = action
        self._table = table
        # Each body member serialized once: the checksum digests the
        # body assembled from these strings, and save writes them.
        self._members = {key: _canonical_json(value)
                         for key, value in self._body().items()}
        expected = hashlib.sha256(
            _canonical_object(self._members).encode("utf-8")).hexdigest()
        if checksum is None:
            self.checksum = expected
        else:
            if checksum != expected:
                raise ArtifactIntegrityError(
                    "artifact checksum mismatch: stored "
                    f"{str(checksum)[:12]}..., computed {expected[:12]}... "
                    "-- the file is corrupt or was edited by hand"
                )
            self.checksum = checksum

    # -- (de)serialization ----------------------------------------------------

    def _body(self) -> "Dict[str, Any]":
        return {
            "schema": ARTIFACT_SCHEMA,
            "version": self.version,
            "model": {
                "arrival_rate": self.rate,
                "weight": self.weight,
                "solver": self.solver,
                "backend": self.backend,
                "capacity": self.capacity,
                "include_transfer_states": self.include_transfer_states,
                "fingerprint": self.fingerprint,
            },
            # json writes the stored tuples as arrays: the same bytes
            # as lists, without building one list per state. The outer
            # copies keep callers from mutating the artifact.
            "states": list(self.states),
            "actions": list(self.actions),
            "metrics": self.metrics,
        }

    def to_document(self) -> "Dict[str, Any]":
        doc = self._body()
        doc["checksum"] = self.checksum
        return doc

    def to_json(self) -> str:
        """``canonical_json(self.to_document())``, assembled from the
        members serialized at construction: no second json pass."""
        return _canonical_object(
            {**self._members, "checksum": json.dumps(self.checksum)})

    @classmethod
    def from_document(cls, doc: "Dict[str, Any]") -> "PolicyArtifact":
        """Parse and structurally validate a loaded artifact document.

        Integrity failures (checksum) raise
        :class:`~repro.errors.ArtifactIntegrityError`; structural ones
        (missing fields, wrong schema) raise
        :class:`~repro.errors.ArtifactSchemaError`.
        """
        if not isinstance(doc, dict):
            raise ArtifactSchemaError(
                f"artifact document must be an object, got {type(doc).__name__}"
            )
        if doc.get("schema") != ARTIFACT_SCHEMA:
            raise ArtifactSchemaError(
                f"unknown artifact schema {doc.get('schema')!r}; expected "
                f"{ARTIFACT_SCHEMA!r}"
            )
        if "checksum" not in doc:
            raise ArtifactSchemaError("artifact document has no checksum")
        try:
            model = doc["model"]
            return cls(
                version=doc["version"],
                rate=model["arrival_rate"],
                weight=model["weight"],
                solver=model["solver"],
                backend=model["backend"],
                capacity=model["capacity"],
                include_transfer_states=model["include_transfer_states"],
                fingerprint=model["fingerprint"],
                states=[tuple(s) for s in doc["states"]],
                actions=doc["actions"],
                metrics=doc["metrics"],
                checksum=doc["checksum"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactSchemaError(
                f"artifact document is malformed: {exc!r}"
            ) from exc

    # -- the serve-path lookup ------------------------------------------------

    def action_for(self, mode: str, in_transfer: bool, count: int) -> str:
        """The commanded mode for a joint state, with boundary clamping.

        ``count`` is the occupancy for stable states and the waiting
        count during a transfer; both clamp at the solved capacity,
        mirroring :func:`repro.policies.optimal.view_to_system_state`.
        Unknown modes or impossible (mode, transfer) combinations raise
        a typed :class:`~repro.errors.ServeRequestError` -- the table
        never guesses (:func:`table_action`).
        """
        return table_action(
            self._table, self.capacity, mode, in_transfer, count, "served"
        )

    def assignment(self) -> "Dict[SystemState, str]":
        """The policy table keyed by model :class:`SystemState` values."""
        return {
            SystemState(mode, QueueState(kind, index)): action
            for (mode, kind, index), action in self._table.items()
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PolicyArtifact(version={self.version}, rate={self.rate:g}, "
            f"weight={self.weight:g}, states={len(self.states)})"
        )


def compile_artifact(
    model: PowerManagedSystemModel,
    result,
    version: int = 1,
    solver: str = "policy_iteration",
    backend: str = "auto",
) -> PolicyArtifact:
    """Compile a solved *result* on *model* into a lookup artifact.

    The artifact's actions are the policy's action tuple, in model
    state order. Rejects (with typed errors) the outputs a broken solver
    could produce: randomized policies, policies on a model with other
    states, and non-finite metrics (a NaN gain is a solver failure, not
    a servable policy).
    """
    from repro.ctmdp.policy import Policy, same_states

    policy = result.policy
    if not isinstance(policy, Policy):
        raise ArtifactRejectedError(
            "only deterministic policies are servable; got "
            f"{type(policy).__name__}"
        )
    if not same_states(policy.mdp, model):
        raise ArtifactRejectedError(
            "solved policy is bound to a model with other states than "
            "the one compiled for"
        )
    actions = list(map(str, policy.actions))
    states = model.state_keys()
    metrics = {
        "average_power": result.metrics.average_power,
        "average_queue_length": result.metrics.average_queue_length,
        "average_waiting_time": result.metrics.average_waiting_time,
        "loss_rate": result.metrics.loss_rate,
    }
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise ArtifactRejectedError(
                f"solved metrics are non-finite ({name} = {value!r}); "
                "refusing to compile a policy whose evaluation failed"
            )
    return PolicyArtifact(
        version=version,
        rate=model.requestor.rate,
        weight=result.weight if result.weight is not None else 0.0,
        solver=solver,
        backend=backend,
        capacity=model.capacity,
        include_transfer_states=model.include_transfer_states,
        fingerprint=model_fingerprint(model),
        states=states,
        actions=actions,
        metrics=metrics,
    )


def validate_artifact(
    artifact: PolicyArtifact,
    model: PowerManagedSystemModel,
    level: str = "standard",
) -> PowerManagedSystemModel:
    """Admit *artifact* for serving against *model*; returns the rated model.

    The artifact-validation step of the serve pipeline (DESIGN §13):

    1. the artifact's model fingerprint must match *model* (same
       provider numbers, capacity, transfer-state choice);
    2. the model re-rated to the artifact's solved rate must pass the
       admission gate at *level* (verdict ``ok`` or ``repaired``);
    3. the policy table must validate by position against the
       ``backend="auto"`` build of the re-rated model: its states must
       be the model's :meth:`~PowerManagedSystemModel.state_keys` in
       model order (what :func:`compile_artifact` writes; a permutation
       is rejected), and each action must be available in the state at
       its position;
    4. the stored metrics must be finite.

    Any failure raises :class:`~repro.errors.ArtifactRejectedError`
    (carrying the admission report when one exists); success returns
    the re-rated model so callers can reuse the build. That model is
    :func:`repro.dpm.adaptive.rated_model`'s sibling for the artifact's
    rate, the one a supervised solve and its certificate also run on:
    after a solve at that rate, steps 2 and 3 read its cached CTMDP and
    lowering instead of assembling the SYS again.
    """
    from repro.dpm.adaptive import rated_model
    from repro.robust.admission import admit_model

    ins = obs_active()
    metrics = ins.metrics if ins.enabled else None
    with ins.span("serve.validate_artifact", version=artifact.version):
        if artifact.fingerprint != model_fingerprint(model):
            if metrics is not None:
                metrics.counter("serve.artifact.rejected").inc()
            raise ArtifactRejectedError(
                "artifact was compiled for a different model "
                "(provider/capacity fingerprint mismatch); refusing to "
                "serve it"
            )
        for name, value in artifact.metrics.items():
            if not math.isfinite(value):
                if metrics is not None:
                    metrics.counter("serve.artifact.rejected").inc()
                raise ArtifactRejectedError(
                    f"artifact metrics are non-finite ({name} = {value!r})"
                )
        try:
            rated = rated_model(model, artifact.rate)
        except InvalidModelError as exc:
            if metrics is not None:
                metrics.counter("serve.artifact.rejected").inc()
            raise ArtifactRejectedError(
                f"artifact encodes an invalid arrival rate: {exc}"
            ) from exc
        report = admit_model(
            rated,
            level=level,
            weight=artifact.weight,
            raise_on_reject=False,
        )
        if report.verdict == "rejected":
            if metrics is not None:
                metrics.counter("serve.artifact.rejected").inc()
            raise ArtifactRejectedError(
                "artifact's model configuration was rejected by the "
                f"admission gate ({len(report.findings)} finding(s))",
                report=report,
            )
        from repro.ctmdp.policy import Policy

        try:
            if artifact.states != rated.state_keys():
                raise InvalidPolicyError(
                    "its states are not the model's states in model order")
            mdp = rated.build_ctmdp(artifact.weight, backend="auto")
            Policy.from_actions(mdp, artifact.actions).validate()
        except (InvalidPolicyError, InvalidModelError) as exc:
            if metrics is not None:
                metrics.counter("serve.artifact.rejected").inc()
            raise ArtifactRejectedError(
                f"artifact policy does not validate against its model: {exc}"
            ) from exc
        if metrics is not None:
            metrics.counter("serve.artifact.admitted").inc()
        return rated


# -- the on-disk store -------------------------------------------------------


class SimulatedCrash(BaseException):
    """Raised by the test-only crash hook to model a SIGKILL mid-swap.

    Derives from ``BaseException`` so no recovery code path can absorb
    it: whatever partial on-disk state exists when it fires is exactly
    the state a real SIGKILL would leave.
    """


class ArtifactStore:
    """Atomic single-slot artifact storage in a directory.

    The current artifact lives at ``<directory>/policy.json``. Saves
    write a temp file in the same directory, fsync it, ``os.replace``
    it into place, and fsync the directory (best effort), so a crash at
    any instant leaves a loadable last-good artifact. Temp leftovers
    from a crash are swept opportunistically.

    ``crash_point`` is a test hook: set it to ``"after-write"``,
    ``"after-fsync"``, or ``"after-replace"`` and the next save (of the
    policy or of its certificate) raises :class:`SimulatedCrash` at that
    point, faithfully modeling a kill.
    """

    FILENAME = "policy.json"
    #: Sidecar holding the current artifact's certification report
    #: (schema ``repro-cert/v1``); saved after the artifact itself so a
    #: crash between the two leaves a policy without a certificate --
    #: which the runtime treats as uncertified -- never the reverse.
    CERT_FILENAME = "policy.cert.json"

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME
        self.cert_path = self.directory / self.CERT_FILENAME
        self.crash_point: "Optional[str]" = None

    def _maybe_crash(self, point: str) -> None:
        if self.crash_point == point:
            raise SimulatedCrash(point)

    def sweep(self) -> int:
        """Remove temp leftovers from crashed saves; returns the count."""
        removed = 0
        if self.directory.is_dir():
            for name in (self.FILENAME, self.CERT_FILENAME):
                for leftover in self.directory.glob(name + ".*.tmp"):
                    try:
                        leftover.unlink()
                        removed += 1
                    except OSError:  # pragma: no cover - racing sweeps
                        pass
        return removed

    def _write(self, path: Path, text: str) -> None:
        """Atomically replace *path* with the canonical JSON *text* and a
        newline. Callers serialize whole first: a document json cannot
        encode fails before any temp file exists, and the compact form
        runs json's C encoder (``indent`` would fall back to the
        pure-Python one)."""
        data = (text + "\n").encode("utf-8")
        atomic_write(path, data, crash_hook=self._maybe_crash)

    def save(self, artifact: PolicyArtifact) -> None:
        """Atomically persist *artifact* as the current policy: the
        bytes of ``canonical_json(artifact.to_document())`` and a
        newline, from the members serialized at construction."""
        ins = obs_active()
        with ins.span("serve.swap", version=artifact.version):
            self.sweep()
            self._write(self.path, artifact.to_json())
            if ins.enabled and ins.metrics is not None:
                ins.metrics.counter("serve.artifact.saves").inc()

    def load(self) -> "Optional[PolicyArtifact]":
        """The stored artifact, ``None`` when none was ever saved.

        Corruption (unreadable JSON, checksum mismatch) raises
        :class:`~repro.errors.ArtifactIntegrityError`; schema drift
        raises :class:`~repro.errors.ArtifactSchemaError`. Both leave
        the file in place for forensics -- the caller decides whether
        to keep serving its in-memory last-good copy.
        """
        self.sweep()
        ins = obs_active()
        metrics = ins.metrics if ins.enabled else None
        if not self.path.exists():
            return None
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            if metrics is not None:
                metrics.counter("serve.artifact.load_failures").inc()
            raise ArtifactIntegrityError(
                f"cannot read artifact {self.path}: {exc}"
            ) from exc
        try:
            artifact = PolicyArtifact.from_document(document)
        except ArtifactIntegrityError:
            if metrics is not None:
                metrics.counter("serve.artifact.load_failures").inc()
            raise
        except ArtifactSchemaError:
            if metrics is not None:
                metrics.counter("serve.artifact.load_failures").inc()
            raise
        if metrics is not None:
            metrics.counter("serve.artifact.loads").inc()
        return artifact

    def save_certificate(self, document: "Dict[str, Any]") -> None:
        """Atomically persist a certification document beside the policy.

        The same temp-write/fsync/replace/directory-fsync sequence as
        :meth:`save`; callers pass ``CertificationReport.to_document()``.
        """
        self._write(self.cert_path, _canonical_json(document))

    def load_certificate(self) -> "Optional[Dict[str, Any]]":
        """The stored certificate document, ``None`` when absent.

        Returns the raw document; callers parse and integrity-check it
        with ``CertificationReport.from_document``. An unreadable file
        raises :class:`~repro.errors.ArtifactIntegrityError` -- like a
        corrupt artifact, it is kept on disk for forensics.
        """
        if not self.cert_path.exists():
            return None
        try:
            document = json.loads(self.cert_path.read_text())
        except (OSError, ValueError) as exc:
            raise ArtifactIntegrityError(
                f"cannot read certificate {self.cert_path}: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ArtifactIntegrityError(
                f"certificate {self.cert_path} holds "
                f"{type(document).__name__}, not an object"
            )
        return document


def save_artifact(artifact: PolicyArtifact, path: PathLike) -> None:
    """Atomically write *artifact* to an explicit file path."""
    path = Path(path)
    store = ArtifactStore(path.parent)
    # Reuse the store's atomic dance with the custom filename.
    store.path = path
    store.FILENAME = path.name  # type: ignore[misc]
    store.save(artifact)


def load_artifact(path: PathLike) -> PolicyArtifact:
    """Load and structurally validate an artifact from an explicit path.

    Unlike :meth:`ArtifactStore.load`, a missing file is an error here:
    the caller named a specific artifact and should know it is gone.
    """
    path = Path(path)
    store = ArtifactStore(path.parent)
    store.path = path
    store.FILENAME = path.name  # type: ignore[misc]
    artifact = store.load()
    if artifact is None:
        raise ArtifactIntegrityError(f"no artifact at {path}")
    return artifact
