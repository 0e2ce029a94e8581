"""Config-hash-keyed JSON checkpoints for long-running drivers.

A frontier sweep, a weight search, or a replication campaign is a long
sequence of independent, deterministic sub-solves. Losing hours of them
to a SIGKILL (preemption, OOM, operator error) is pure waste: every
completed sub-result was fully determined by the configuration and can
be reused verbatim. :class:`Checkpoint` makes that reuse safe:

- **Keyed by configuration.** A checkpoint records the SHA-256 of the
  canonical JSON of the driver's configuration
  (:func:`config_hash`). Loading under a different configuration raises
  :class:`~repro.errors.CheckpointError` instead of silently mixing
  incompatible partial results.
- **Atomic saves.** State is written to a temporary file in the same
  directory, fsynced and ``os.replace``d into place
  (:func:`atomic_write`, which the serving runtime's artifact store
  uses too), so a crash mid-write leaves either the previous checkpoint
  or the new one -- never a torn file. A SIGKILL at any instant is
  therefore recoverable.
- **Exact floats.** State is JSON with Python's shortest-round-trip
  float repr, so a resumed run reconstructs cached sub-results
  *bit-identically*: the surrounding deterministic driver then produces
  final output byte-identical to an uninterrupted run (asserted by
  ``tests/robust/test_checkpoint_resume.py``).

The stored document::

    {
      "format": 1,
      "config_hash": "<sha256 hex>",
      "config": {...},          # the driver's config, for humans
      "completed": {key: payload, ...}
    }

``completed`` maps driver-chosen string keys (``repr(weight)``, seed
numbers) to JSON payloads; the driver owns the payload schema. Drivers
expose ``checkpoint=``/``resume=`` parameters and the CLI surfaces them
as ``--checkpoint PATH`` / ``--resume``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.errors import CheckpointError

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def atomic_write(path: Path, data: bytes,
                 crash_hook: "Optional[Callable[[str], None]]" = None) -> None:
    """Replace *path* with *data* so that a crash at any instant leaves
    the old file or the new one: a temp file beside it is fsynced and
    ``os.replace``d into place, then the directory is fsynced (best
    effort). An ``Exception`` or ``KeyboardInterrupt`` removes the temp
    file; any other ``BaseException`` from the test hook *crash_hook*
    (called at ``"after-write"``, ``"after-fsync"`` and
    ``"after-replace"``) leaves it, as a SIGKILL would."""
    hook = crash_hook or (lambda point: None)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            hook("after-write")
            os.fsync(handle.fileno())
        hook("after-fsync")
        os.replace(tmp_name, path)
        hook("after-replace")
    except (Exception, KeyboardInterrupt):
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass


def canonical_json(payload: Any) -> str:
    """*payload* as canonical JSON: sorted keys, compact separators and
    shortest-repr floats -- the one form that every checksum,
    fingerprint and config hash in the package digests."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def canonical_checksum(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json` of *payload*."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def document_checksum(document: "Mapping[str, Any]") -> str:
    """The checksum a self-verifying document stores: the canonical
    checksum of *document* without its own ``checksum`` key."""
    return canonical_checksum(
        {k: v for k, v in document.items() if k != "checksum"}
    )


def config_hash(config: "Mapping[str, Any]") -> str:
    """SHA-256 of the canonical (sorted-key, exact-float) JSON of *config*."""
    try:
        return canonical_checksum(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"configuration is not JSON-serializable: {exc}")


class Checkpoint:
    """Incremental store of completed sub-results for one driver run.

    Parameters
    ----------
    path:
        The checkpoint file. Created on the first :meth:`save`.
    config:
        The driver configuration identifying the run. Two runs resume
        from each other's checkpoints iff their configs hash equal.
    resume:
        When true and *path* exists, load its completed entries
        (validating the config hash); when false, start empty and
        overwrite *path* on the first save.
    save_every:
        Persist after every ``save_every``-th new entry (1 = after each
        entry). :meth:`flush` forces a write regardless.
    """

    def __init__(
        self,
        path: PathLike,
        config: "Mapping[str, Any]",
        resume: bool = False,
        save_every: int = 1,
    ) -> None:
        if save_every < 1:
            raise CheckpointError(f"save_every must be >= 1, got {save_every}")
        self.path = Path(path)
        self.config: "Dict[str, Any]" = dict(config)
        self.config_hash = config_hash(config)
        self.save_every = save_every
        self._completed: "Dict[str, Any]" = {}
        self._unsaved = 0
        if resume and self.path.exists():
            self._completed = self._load()

    def _load(self) -> "Dict[str, Any]":
        try:
            document = json.loads(self.path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}")
        if not isinstance(document, dict) or "completed" not in document:
            raise CheckpointError(
                f"checkpoint {self.path} is not a checkpoint document"
            )
        if document.get("format") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {self.path} has format "
                f"{document.get('format')!r}, expected {FORMAT_VERSION}"
            )
        stored = document.get("config_hash")
        if stored != self.config_hash:
            raise CheckpointError(
                f"checkpoint {self.path} belongs to a different "
                f"configuration (stored hash {str(stored)[:12]}..., this "
                f"run {self.config_hash[:12]}...); pass a fresh "
                "--checkpoint path or rerun with the original settings"
            )
        return dict(document["completed"])

    # -- driver API ----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def get(self, key: str) -> Any:
        """The stored payload for *key* (``None`` when absent)."""
        return self._completed.get(key)

    def put(self, key: str, payload: Any) -> None:
        """Record a completed sub-result and persist per ``save_every``."""
        self._completed[key] = payload
        self._unsaved += 1
        if self._unsaved >= self.save_every:
            self.flush()

    def flush(self) -> None:
        """Atomically write the checkpoint document to :attr:`path`."""
        document = {
            "format": FORMAT_VERSION,
            "config_hash": self.config_hash,
            "config": self.config,
            "completed": self._completed,
        }
        text = json.dumps(document, indent=1, sort_keys=True) + "\n"
        atomic_write(self.path, text.encode("utf-8"))
        self._unsaved = 0


def open_checkpoint(
    path: "Optional[PathLike]",
    config: "Mapping[str, Any]",
    resume: bool = False,
    save_every: int = 1,
) -> "Optional[Checkpoint]":
    """A :class:`Checkpoint` when *path* is set, else ``None``.

    The drivers' ``checkpoint=None`` fast path stays a plain ``is not
    None`` check; this helper keeps their argument handling one line.
    """
    if path is None:
        return None
    return Checkpoint(path, config, resume=resume, save_every=save_every)
