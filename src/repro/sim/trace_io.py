"""Trace and result persistence (CSV / JSON) with content checksums.

A small, dependency-free I/O layer so workloads and measurements are
portable:

- arrival traces: one timestamp per line (CSV with a ``time`` header),
  round-tripping :class:`~repro.sim.workload.TraceArrivals`;
- simulation results: JSON round-trip of
  :class:`~repro.sim.simulator.SimulationResult` (all scalar fields and
  the mode-residency map), so experiment sweeps can be archived and
  diffed across code versions.

Every file written here carries a SHA-256 content checksum -- a
``# sha256=... count=...`` footer comment on traces, a ``checksum``
key on result JSON -- and loading verifies it, so truncation, torn
writes, and hand edits surface as
:class:`~repro.errors.TraceIntegrityError` naming the offending path
(and line, for traces) instead of silently skewed statistics or a raw
``ValueError``/``KeyError`` escaping to the CLI. Files written by
older versions carry no checksum and still load; they simply get no
integrity guarantee.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import SimulationError, TraceIntegrityError
from repro.robust.checkpoint import document_checksum
from repro.sim.simulator import SimulationResult
from repro.sim.workload import TraceArrivals

PathLike = Union[str, Path]


def _trace_digest(cells: "List[str]") -> str:
    """Digest over the raw cell strings, one per line, order-sensitive."""
    return hashlib.sha256("\n".join(cells).encode("utf-8")).hexdigest()


def save_trace(trace: TraceArrivals, path: PathLike) -> None:
    """Write an arrival trace as a one-column CSV with a header.

    Appends a ``# sha256=<digest> count=<n>`` footer so
    :func:`load_trace` can detect truncated or corrupted files.
    """
    cells = [repr(t) for t in trace.times]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time"])
        for cell in cells:
            writer.writerow([cell])
        handle.write(f"# sha256={_trace_digest(cells)} count={len(cells)}\n")


def _parse_footer(path: PathLike, text: str) -> "Optional[tuple]":
    """``(digest, count)`` from a footer comment, ``None`` if absent."""
    fields = dict(
        part.split("=", 1) for part in text[1:].split() if "=" in part
    )
    if "sha256" not in fields:
        return None
    try:
        return fields["sha256"], int(fields["count"])
    except (KeyError, ValueError) as exc:
        raise TraceIntegrityError(
            f"{path}: malformed checksum footer {text!r}"
        ) from exc


def load_trace(path: PathLike) -> TraceArrivals:
    """Read a trace written by :func:`save_trace` (or any one-column
    CSV of non-decreasing times under a ``time`` header).

    Verifies the checksum footer when present; unparseable cells and
    checksum mismatches raise :class:`~repro.errors.TraceIntegrityError`
    with the path and line number. Unreadable files surface as
    :class:`~repro.errors.SimulationError`.
    """
    times: "List[float]" = []
    cells: "List[str]" = []
    footer = None
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or header[0].strip().lower() != "time":
                raise SimulationError(
                    f"{path}: expected a 'time' header, got {header!r}"
                )
            for row in reader:
                if not row or not row[0].strip():
                    continue
                cell = row[0].strip()
                if cell.startswith("#"):
                    footer = _parse_footer(path, ",".join(row).strip())
                    continue
                try:
                    times.append(float(row[0]))
                except ValueError as exc:
                    raise TraceIntegrityError(
                        f"{path}:{reader.line_num}: unparseable time "
                        f"{row[0]!r}"
                    ) from exc
                cells.append(row[0])
    except OSError as exc:
        raise SimulationError(f"{path}: cannot read trace: {exc}") from exc
    if footer is not None:
        digest, count = footer
        if count != len(cells):
            raise TraceIntegrityError(
                f"{path}: trace is truncated or padded: footer promises "
                f"{count} rows, found {len(cells)}"
            )
        if digest != _trace_digest(cells):
            raise TraceIntegrityError(
                f"{path}: trace checksum mismatch -- the file was "
                "modified after it was written"
            )
    return TraceArrivals(times)


def save_result(result: SimulationResult, path: PathLike) -> None:
    """Write a :class:`SimulationResult` as pretty-printed JSON with a
    content ``checksum`` key."""
    payload = dataclasses.asdict(result)
    payload["checksum"] = document_checksum(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_result(path: PathLike) -> SimulationResult:
    """Read a result written by :func:`save_result`.

    Field-validates first (so a schema drift reads as ``unknown`` /
    ``missing`` fields, not a checksum failure), then verifies the
    content checksum when one is present. Unparseable JSON and
    checksum mismatches raise
    :class:`~repro.errors.TraceIntegrityError` with the path.
    """
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise SimulationError(f"{path}: cannot read result: {exc}") from exc
    except ValueError as exc:
        raise TraceIntegrityError(
            f"{path}: result file is not valid JSON "
            f"(truncated or corrupt): {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise TraceIntegrityError(
            f"{path}: result file holds {type(payload).__name__}, "
            "not an object"
        )
    stored = payload.pop("checksum", None)
    field_names = {f.name for f in dataclasses.fields(SimulationResult)}
    unknown = set(payload) - field_names
    if unknown:
        raise SimulationError(f"{path}: unknown result fields {sorted(unknown)}")
    missing = field_names - set(payload)
    if missing:
        raise SimulationError(f"{path}: missing result fields {sorted(missing)}")
    if stored is not None and stored != document_checksum(payload):
        raise TraceIntegrityError(
            f"{path}: result checksum mismatch -- the file was modified "
            "after it was written"
        )
    return SimulationResult(**payload)
