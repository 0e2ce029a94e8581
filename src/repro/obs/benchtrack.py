"""Bench-trajectory tracking: canonical BENCH records + regression diffs.

The bench suites under ``benchmarks/`` each used to hand-roll a
"read JSON, set key, write JSON" appender, which left
``BENCH_*.json`` as bags of nested floats with no units, no provenance,
and no way to ask *did this get slower?*. This module gives the
trajectory three layers:

1. **A canonical schema** (``repro-bench/v1``). A bench file is one
   document: a ``manifest`` (who/what/where produced the numbers -- see
   :func:`repro.obs.export.run_manifest`), the raw nested ``suites``
   payloads exactly as the bench wrote them, and a flat ``metrics``
   block mapping dotted metric names to ``{value, unit, tolerance,
   direction}`` records -- the comparable surface.
2. **An appender**, :func:`record_suite`, the bench suites write
   through. It migrates legacy files in place, re-flattens the updated
   suite into ``metrics``, and stamps a fresh manifest.
3. **A noise-aware comparator**, :func:`compare`, plus the report
   renderer behind the ``repro bench-report`` CLI. Only metrics with a
   tolerance are *checked* (timings and byte counts by default --
   their unit is inferred from the ``_s``/``_ns``/``_bytes`` name
   suffix); counts, gains, and ratios are reported as informational so
   machine-dependent values (``cpu_count``, event totals) never fail a
   nightly run. Tiny absolute values are exempted via a per-unit noise
   floor: a 0.8ms phase jumping 30% is jitter, not a regression.

Legacy (pre-schema) files load transparently: the whole document is
flattened with default specs, so committed baselines from older
commits remain comparable.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

#: Schema tag stamped on canonical bench documents.
BENCH_SCHEMA = "repro-bench/v1"

#: Default relative regression threshold for checked (timing) metrics;
#: the nightly backend-scaling gate the tentpole asks for is "fail on a
#: >20% slowdown".
DEFAULT_TIME_TOLERANCE = 0.20

#: unit -> (tolerance, direction, noise floor in the metric's unit).
#: ``None`` tolerance = informational (reported, never failed).
_UNIT_POLICY: "Dict[str, Tuple[Optional[float], str, float]]" = {
    "s": (DEFAULT_TIME_TOLERANCE, "lower", 0.05),
    "ns": (0.50, "lower", 5.0),
    "bytes": (DEFAULT_TIME_TOLERANCE, "lower", 1e6),
    "ratio": (None, "lower", 0.0),
    "count": (None, "both", 0.0),
    "value": (None, "both", 0.0),
}


def infer_unit(name: str) -> str:
    """Infer a metric's unit from its (dotted) name's leaf suffix."""
    leaf = name.rsplit(".", 1)[-1]
    if leaf == "s" or leaf.endswith("_s"):
        return "s"
    if leaf == "ns" or leaf.endswith("_ns"):
        return "ns"
    if leaf.endswith("_bytes"):
        return "bytes"
    if (
        leaf.endswith("_fraction")
        or leaf.endswith("_ratio")
        or "speedup" in leaf
        or leaf in ("budget", "tolerance")
    ):
        return "ratio"
    if leaf.startswith("n_") or leaf.endswith("_count") or leaf in (
        "iterations",
        "calls",
        "capacity",
        "level",
    ):
        return "count"
    return "value"


@dataclass
class MetricRecord:
    """One comparable bench metric."""

    name: str
    value: float
    unit: str = "value"
    #: Relative threshold beyond which a move in the *bad* direction is
    #: a regression; ``None`` = informational only.
    tolerance: "Optional[float]" = None
    #: "lower" = lower is better, "higher" = higher is better,
    #: "both" = any large move is flagged (when a tolerance is set).
    direction: str = "lower"
    #: Values below this (in the metric's unit) are treated as noise.
    floor: float = 0.0

    def to_dict(self) -> "Dict[str, Any]":
        out: "Dict[str, Any]" = {"value": self.value, "unit": self.unit}
        # Serialize whenever it differs from the unit default -- a
        # ``null`` here is an explicit demotion to informational and
        # must survive the load round-trip.
        default_tol = _UNIT_POLICY.get(self.unit, (None, "both", 0.0))[0]
        if self.tolerance != default_tol:
            out["tolerance"] = self.tolerance
        elif self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.direction != "lower":
            out["direction"] = self.direction
        if self.floor:
            out["floor"] = self.floor
        return out


def default_record(name: str, value: float) -> MetricRecord:
    """A :class:`MetricRecord` with unit-policy defaults applied."""
    unit = infer_unit(name)
    tolerance, direction, floor = _UNIT_POLICY.get(
        unit, (None, "both", 0.0)
    )
    return MetricRecord(
        name=name,
        value=value,
        unit=unit,
        tolerance=tolerance,
        direction=direction,
        floor=floor,
    )


def flatten(payload: Any, prefix: str = "") -> "Dict[str, float]":
    """Numeric leaves of a nested payload as ``dotted.name -> value``.

    Booleans and strings are skipped (not comparable as magnitudes);
    dict keys join with ``.``.
    """
    flat: "Dict[str, float]" = {}
    if isinstance(payload, Mapping):
        for key in payload:
            sub = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten(payload[key], sub))
    elif isinstance(payload, bool):
        pass
    elif isinstance(payload, (int, float)):
        if prefix and math.isfinite(float(payload)):
            flat[prefix] = float(payload)
    return flat


# -- canonical documents -----------------------------------------------------


def _canonical(doc: "Dict[str, Any]") -> "Dict[str, Any]":
    """Coerce a loaded bench document into canonical shape.

    Legacy files (no ``schema`` key) become ``suites`` wholesale, with
    ``metrics`` regenerated from a default-spec flatten.
    """
    if doc.get("schema") == BENCH_SCHEMA:
        doc.setdefault("suites", {})
        doc.setdefault("metrics", {})
        return doc
    suites = dict(doc)
    metrics = {
        name: default_record(name, value).to_dict()
        for name, value in flatten(suites).items()
    }
    return {
        "schema": BENCH_SCHEMA,
        "manifest": None,
        "suites": suites,
        "metrics": metrics,
    }


def record_suite(
    path: "str | os.PathLike",
    key: str,
    payload: "Dict[str, Any]",
    manifest: "Optional[Dict[str, Any]]" = None,
    tolerances: "Optional[Dict[str, Optional[float]]]" = None,
    floors: "Optional[Dict[str, float]]" = None,
) -> "Dict[str, Any]":
    """Merge one suite's payload into a canonical bench file.

    The nested *payload* is stored verbatim under ``suites[key]`` (so
    bench output stays human-readable), its numeric leaves are
    re-flattened into ``metrics`` (replacing stale entries under the
    same ``key.`` prefix), and the document manifest is refreshed.
    *tolerances* overrides the per-unit default threshold for specific
    flattened names (``None`` demotes a metric to informational), and
    *floors* their noise floor (a median timing well under the unit's
    default floor is otherwise never compared).
    """
    path = Path(path)
    if path.exists():
        doc = _canonical(json.loads(path.read_text()))
    else:
        doc = {
            "schema": BENCH_SCHEMA,
            "manifest": None,
            "suites": {},
            "metrics": {},
        }
    doc["suites"][key] = payload
    prefix = key + "."
    doc["metrics"] = {
        name: spec
        for name, spec in doc["metrics"].items()
        if not (name == key or name.startswith(prefix))
    }
    overrides = tolerances or {}
    floor_overrides = floors or {}
    for name, value in flatten(payload, key).items():
        record = default_record(name, value)
        if name in overrides:
            record.tolerance = overrides[name]
        if name in floor_overrides:
            record.floor = floor_overrides[name]
        doc["metrics"][name] = record.to_dict()
    if manifest is None:
        # Imported lazily: export pulls in subprocess/platform, which
        # the comparator path never needs.
        from repro.obs.export import run_manifest

        manifest = run_manifest()
    doc["manifest"] = manifest
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def load_bench(path: "str | os.PathLike") -> "Dict[str, MetricRecord]":
    """Load one bench file (canonical or legacy) as comparable records."""
    with open(path) as fh:
        doc = _canonical(json.load(fh))
    records: "Dict[str, MetricRecord]" = {}
    for name, spec in doc["metrics"].items():
        base = default_record(name, float(spec["value"]))
        base.unit = spec.get("unit", base.unit)
        if "tolerance" in spec:
            base.tolerance = spec["tolerance"]
        base.direction = spec.get("direction", base.direction)
        base.floor = spec.get("floor", base.floor)
        records[name] = base
    return records


def load_bench_dir(
    bench_dir: "str | os.PathLike",
    pattern: str = "BENCH_*.json",
) -> "Dict[str, Dict[str, MetricRecord]]":
    """All bench files in a directory, keyed by file name."""
    out: "Dict[str, Dict[str, MetricRecord]]" = {}
    root = Path(bench_dir)
    if not root.is_dir():
        return out
    for path in sorted(root.glob(pattern)):
        out[path.name] = load_bench(path)
    return out


# -- comparison --------------------------------------------------------------

#: Delta statuses that fail ``repro bench-report --check``.
FAILING_STATUSES = ("regressed",)


@dataclass
class Delta:
    """One metric's baseline-vs-current comparison."""

    name: str
    status: str  # ok | improved | regressed | new | missing | info
    baseline: "Optional[float]" = None
    current: "Optional[float]" = None
    unit: str = "value"
    rel_change: "Optional[float]" = None
    tolerance: "Optional[float]" = None


def compare(
    baseline: "Dict[str, MetricRecord]",
    current: "Dict[str, MetricRecord]",
) -> "List[Delta]":
    """Noise-aware diff of two metric sets (sorted by name).

    Rules, in order: a metric only in *current* is ``new``; only in
    *baseline* is ``missing`` (both informational -- benches get added
    and retired). Untolerated metrics are ``info``. Both values under
    the unit's noise floor are ``ok`` regardless of ratio. A zero
    baseline compares absolutely against the floor. Otherwise the
    relative change in the *bad* direction beyond the tolerance is a
    ``regressed``; beyond it in the good direction, ``improved``.
    """
    deltas: "List[Delta]" = []
    for name in sorted(set(baseline) | set(current)):
        if name not in baseline:
            rec = current[name]
            deltas.append(
                Delta(name, "new", None, rec.value, rec.unit)
            )
            continue
        if name not in current:
            rec = baseline[name]
            deltas.append(
                Delta(name, "missing", rec.value, None, rec.unit)
            )
            continue
        base, cur = baseline[name], current[name]
        tolerance = (
            cur.tolerance if cur.tolerance is not None else base.tolerance
        )
        delta = Delta(
            name,
            "ok",
            base.value,
            cur.value,
            cur.unit,
            tolerance=tolerance,
        )
        if base.value != 0:
            delta.rel_change = (cur.value - base.value) / abs(base.value)
        elif cur.value == 0:
            delta.rel_change = 0.0
        if tolerance is None:
            delta.status = "info"
            deltas.append(delta)
            continue
        floor = max(cur.floor, base.floor)
        if abs(base.value) <= floor and abs(cur.value) <= floor:
            deltas.append(delta)  # both in the noise: ok
            continue
        if base.value == 0:
            # Zero baseline: relative change is undefined; any move
            # past the noise floor counts as a full-size move.
            moved = abs(cur.value) > floor
            signed = math.copysign(1.0, cur.value) if moved else 0.0
        else:
            moved = abs(delta.rel_change) > tolerance
            signed = math.copysign(1.0, delta.rel_change) if moved else 0.0
        if not moved:
            deltas.append(delta)
            continue
        direction = cur.direction or base.direction
        if direction == "both":
            delta.status = "regressed"
        elif direction == "higher":
            delta.status = "regressed" if signed < 0 else "improved"
        else:  # lower is better
            delta.status = "regressed" if signed > 0 else "improved"
        deltas.append(delta)
    return deltas


def _fmt_value(value: "Optional[float]") -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.3e}"
    return f"{value:.4g}"


def format_trend(metrics: "Dict[str, MetricRecord]") -> "List[str]":
    """A current-values table (no baseline to diff against)."""
    lines = [f"{'metric':<64} {'value':>12} {'unit':>6}"]
    for name in sorted(metrics):
        rec = metrics[name]
        lines.append(
            f"{name:<64} {_fmt_value(rec.value):>12} {rec.unit:>6}"
        )
    return lines


def format_deltas(deltas: "List[Delta]", verbose: bool = False) -> "List[str]":
    """A comparison table; quiet mode hides unremarkable rows."""
    lines = [
        f"{'metric':<64} {'baseline':>12} {'current':>12} "
        f"{'change':>8} {'status':>9}"
    ]
    shown = 0
    for delta in deltas:
        if not verbose and delta.status in ("ok", "info"):
            continue
        change = (
            f"{delta.rel_change * 100:+.1f}%"
            if delta.rel_change is not None
            else "-"
        )
        lines.append(
            f"{delta.name:<64} {_fmt_value(delta.baseline):>12} "
            f"{_fmt_value(delta.current):>12} {change:>8} "
            f"{delta.status:>9}"
        )
        shown += 1
    if shown == 0:
        lines.append("(no notable changes)")
    return lines


def bench_report(
    bench_dir: "str | os.PathLike",
    baseline_dir: "Optional[str | os.PathLike]" = None,
    only: "Optional[str]" = None,
    verbose: bool = False,
) -> "Tuple[str, List[Delta]]":
    """Build the ``repro bench-report`` text and the raw deltas.

    Without *baseline_dir*, prints trend tables of current values. With
    it, compares each ``BENCH_*.json`` in *bench_dir* against the same
    file name in *baseline_dir*. *only* filters metric names with an
    ``fnmatch`` pattern (substring match if no wildcard present).
    """

    def keep(name: str) -> bool:
        if not only:
            return True
        if any(ch in only for ch in "*?["):
            return fnmatch.fnmatch(name, only)
        return only in name

    current = load_bench_dir(bench_dir)
    lines: "List[str]" = []
    all_deltas: "List[Delta]" = []
    if baseline_dir is None:
        for fname, metrics in current.items():
            metrics = {n: r for n, r in metrics.items() if keep(n)}
            lines.append(f"== {fname} ==")
            lines.extend(format_trend(metrics))
            lines.append("")
        if not current:
            lines.append(f"no BENCH_*.json files under {bench_dir}")
        return "\n".join(lines), all_deltas

    baseline = load_bench_dir(baseline_dir)
    for fname in sorted(set(current) | set(baseline)):
        base = {
            n: r for n, r in baseline.get(fname, {}).items() if keep(n)
        }
        cur = {n: r for n, r in current.get(fname, {}).items() if keep(n)}
        deltas = compare(base, cur)
        all_deltas.extend(deltas)
        lines.append(f"== {fname} ==")
        lines.extend(format_deltas(deltas, verbose=verbose))
        lines.append("")
    regressed = [d for d in all_deltas if d.status in FAILING_STATUSES]
    improved = [d for d in all_deltas if d.status == "improved"]
    lines.append(
        f"{len(all_deltas)} metrics compared: "
        f"{len(regressed)} regressed, {len(improved)} improved"
    )
    return "\n".join(lines), all_deltas


def regressions(deltas: "Iterable[Delta]") -> "List[Delta]":
    """The deltas that fail a ``--check`` run."""
    return [d for d in deltas if d.status in FAILING_STATUSES]
