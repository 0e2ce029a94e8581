"""Persisting registries, traces, and run manifests.

Output formats:

- **metrics JSON** -- one object with a ``manifest`` block (what ran:
  git sha and dirty flag, argv, seed, package versions) and a
  ``metrics`` block (the :meth:`MetricsRegistry.to_dict` snapshot,
  names sorted);
- **trace JSONL** -- one span object per line (see
  :mod:`repro.obs.trace`), preceded by a single ``{"type": "manifest"}``
  line so a trace file is self-describing on its own.

Everything is plain stdlib JSON -- no dependencies, diff-friendly, and
loadable by any downstream tooling.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _git(*args: str) -> "Optional[str]":
    """Output of ``git *args`` run in this package's directory, or
    ``None`` when git fails (outside a checkout, or no git)."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_sha() -> "Optional[str]":
    """The repo HEAD sha, or ``None`` outside a git checkout."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    return sha or None


def _git_dirty() -> "Optional[bool]":
    """Whether tracked files differ from HEAD, so a manifest stamped
    with HEAD's sha was written by code not yet committed; ``None``
    outside a git checkout."""
    status = _git("status", "--porcelain", "--untracked-files=no")
    return None if status is None else bool(status.strip())


def _package_versions() -> "Dict[str, str]":
    versions = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        if module is None:
            try:
                module = __import__(name)
            except ImportError:  # pragma: no cover - both ship with the repo
                continue
        versions[name] = getattr(module, "__version__", "unknown")
    return versions


def run_manifest(
    argv: "Optional[Sequence[str]]" = None,
    seed: "Optional[int]" = None,
    **extra: Any,
) -> "Dict[str, Any]":
    """Provenance for one run: git sha and whether the tracked tree
    differs from it (``git_dirty``), args, seed, versions, platform."""
    manifest: Dict[str, Any] = {
        "git_sha": _git_sha(),
        "git_dirty": _git_dirty(),
        "argv": list(argv) if argv is not None else list(sys.argv),
        "seed": seed,
        "versions": _package_versions(),
        "platform": platform.platform(),
    }
    manifest.update(extra)
    return manifest


def write_metrics(
    registry: MetricsRegistry,
    path: "str | os.PathLike",
    manifest: "Optional[Dict[str, Any]]" = None,
) -> None:
    """Write the registry snapshot (plus manifest) as indented JSON."""
    payload = {
        "manifest": manifest if manifest is not None else run_manifest(),
        "metrics": registry.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trace(
    tracer: Tracer,
    path: "str | os.PathLike",
    manifest: "Optional[Dict[str, Any]]" = None,
) -> None:
    """Write the trace as JSONL: a manifest line, then one span per line."""
    head = dict(manifest if manifest is not None else run_manifest())
    head["type"] = "manifest"
    with open(path, "w") as fh:
        fh.write(json.dumps(head, sort_keys=True) + "\n")
        fh.write(tracer.to_jsonl())


def write_profile(
    profiler,
    path: "str | os.PathLike",
    manifest: "Optional[Dict[str, Any]]" = None,
) -> None:
    """Write a :class:`~repro.obs.profile.PhaseProfiler` tree as JSON.

    Same envelope as :func:`write_metrics`: a ``manifest`` block plus
    the ``profile`` document from :meth:`PhaseProfiler.to_profile` (or
    any pre-built profile dict -- both are accepted so tests can write
    synthetic trees).
    """
    profile = (
        profiler.to_profile() if hasattr(profiler, "to_profile") else profiler
    )
    payload = {
        "manifest": manifest if manifest is not None else run_manifest(),
        "profile": profile,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_admission_report(
    report,
    path: "str | os.PathLike",
    manifest: "Optional[Dict[str, Any]]" = None,
) -> None:
    """Write an :class:`~repro.robust.admission.AdmissionReport` as JSON.

    Same envelope as :func:`write_metrics`: a ``manifest`` block for
    provenance plus the report's :meth:`to_dict` payload, so failing
    models uploaded from CI identify the commit that produced them.
    """
    payload = {
        "manifest": manifest if manifest is not None else run_manifest(),
        "admission": report.to_dict(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_metrics(path: "str | os.PathLike") -> "Dict[str, Any]":
    """Load a metrics JSON file back into a plain dict."""
    with open(path) as fh:
        return json.load(fh)


def read_trace(path: "str | os.PathLike") -> "tuple[Dict[str, Any], list]":
    """Load a trace JSONL file: ``(manifest, spans)``."""
    manifest: Dict[str, Any] = {}
    spans = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("type") == "manifest":
                manifest = obj
            else:
                spans.append(obj)
    return manifest, spans
