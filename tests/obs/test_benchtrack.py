"""Tests for bench-trajectory tracking: schema, appender, comparator."""

from __future__ import annotations

import json

from repro.obs.benchtrack import (
    BENCH_SCHEMA,
    MetricRecord,
    bench_report,
    compare,
    default_record,
    flatten,
    infer_unit,
    load_bench,
    record_suite,
    regressions,
)


class TestInference:
    def test_unit_from_suffix(self):
        assert infer_unit("suite.solve_s") == "s"
        assert infer_unit("suite.guard_ns") == "ns"
        assert infer_unit("suite.peak_bytes") == "bytes"
        assert infer_unit("suite.overhead_fraction") == "ratio"
        assert infer_unit("suite.speedup") == "ratio"
        assert infer_unit("suite.n_states") == "count"
        assert infer_unit("suite.iterations") == "count"
        assert infer_unit("suite.gain") == "value"

    def test_only_timings_and_bytes_checked_by_default(self):
        assert default_record("x.solve_s", 1.0).tolerance is not None
        assert default_record("x.peak_bytes", 1.0).tolerance is not None
        # Machine-dependent counts must never fail a nightly run.
        assert default_record("x.n_events", 5.0).tolerance is None
        assert default_record("x.gain", 2.3).tolerance is None

    def test_flatten_numeric_leaves_only(self):
        flat = flatten(
            {"a": {"b": 1, "skip": True, "name": "str"}, "c": 2.5},
            "root",
        )
        assert flat == {"root.a.b": 1.0, "root.c": 2.5}


class TestRecordSuite:
    def test_creates_canonical_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_suite(path, "suite", {"solve_s": 0.5, "n": 3},
                     manifest={"git_sha": "abc"})
        doc = json.loads(path.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["manifest"] == {"git_sha": "abc"}
        assert doc["suites"]["suite"] == {"solve_s": 0.5, "n": 3}
        assert doc["metrics"]["suite.solve_s"]["unit"] == "s"
        assert "tolerance" in doc["metrics"]["suite.solve_s"]

    def test_migrates_legacy_file_in_place(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"old": {"build_s": 1.0}}))
        record_suite(path, "new", {"solve_s": 0.5}, manifest={})
        doc = json.loads(path.read_text())
        assert doc["schema"] == BENCH_SCHEMA
        assert doc["suites"]["old"] == {"build_s": 1.0}  # preserved
        assert "old.build_s" in doc["metrics"]
        assert "new.solve_s" in doc["metrics"]

    def test_rerecord_replaces_stale_metrics(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_suite(path, "s", {"solve_s": 0.5, "gone_s": 1.0},
                     manifest={})
        record_suite(path, "s", {"solve_s": 0.6}, manifest={})
        doc = json.loads(path.read_text())
        assert doc["metrics"]["s.solve_s"]["value"] == 0.6
        assert "s.gone_s" not in doc["metrics"]

    def test_tolerance_overrides(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_suite(
            path, "s", {"solve_s": 0.5, "gain": 2.0}, manifest={},
            tolerances={"s.solve_s": None, "s.gain": 0.01},
        )
        records = load_bench(path)
        assert records["s.solve_s"].tolerance is None
        assert records["s.gain"].tolerance == 0.01

    def test_floor_overrides(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        record_suite(
            path, "s", {"resolve_s": 0.02, "solve_s": 0.02}, manifest={},
            floors={"s.resolve_s": 0.002},
        )
        records = load_bench(path)
        assert records["s.resolve_s"].floor == 0.002
        assert records["s.solve_s"].floor == 0.05  # the unit default
        # Under its own floor a 2x slowdown of a 20 ms timing is caught.
        slower = dict(records, **{"s.resolve_s": _rec(
            "s.resolve_s", 0.04, floor=0.002)})
        statuses = {d.name: d.status for d in compare(records, slower)}
        assert statuses["s.resolve_s"] == "regressed"

    def test_legacy_file_loads_with_default_specs(self, tmp_path):
        path = tmp_path / "BENCH_legacy.json"
        path.write_text(json.dumps({"suite": {"solve_s": 2.0, "n": 4}}))
        records = load_bench(path)
        assert records["suite.solve_s"].tolerance is not None
        assert records["suite.n"].unit == "value"


def _rec(name, value, **kw):
    base = default_record(name, value)
    for key, val in kw.items():
        setattr(base, key, val)
    return base


class TestCompare:
    def test_within_tolerance_is_ok(self):
        (delta,) = compare(
            {"a.solve_s": _rec("a.solve_s", 1.0)},
            {"a.solve_s": _rec("a.solve_s", 1.1)},
        )
        assert delta.status == "ok"
        assert abs(delta.rel_change - 0.1) < 1e-12

    def test_regression_beyond_tolerance(self):
        (delta,) = compare(
            {"a.solve_s": _rec("a.solve_s", 1.0)},
            {"a.solve_s": _rec("a.solve_s", 1.25)},
        )
        assert delta.status == "regressed"
        assert regressions([delta]) == [delta]

    def test_improvement_beyond_tolerance(self):
        (delta,) = compare(
            {"a.solve_s": _rec("a.solve_s", 1.0)},
            {"a.solve_s": _rec("a.solve_s", 0.5)},
        )
        assert delta.status == "improved"
        assert regressions([delta]) == []

    def test_missing_baseline_metric_is_new(self):
        (delta,) = compare({}, {"a.solve_s": _rec("a.solve_s", 1.0)})
        assert delta.status == "new"
        assert delta.baseline is None

    def test_missing_current_metric_is_missing(self):
        (delta,) = compare({"a.solve_s": _rec("a.solve_s", 1.0)}, {})
        assert delta.status == "missing"
        assert delta.current is None

    def test_new_and_missing_never_fail_check(self):
        deltas = compare(
            {"gone_s": _rec("gone_s", 1.0)},
            {"born_s": _rec("born_s", 1.0)},
        )
        assert regressions(deltas) == []

    def test_zero_baseline_compares_against_floor(self):
        # peak_bytes floor is 1e6: 0 -> 0.5MB is noise, 0 -> 5MB is not.
        (quiet,) = compare(
            {"a.peak_bytes": _rec("a.peak_bytes", 0.0)},
            {"a.peak_bytes": _rec("a.peak_bytes", 5e5)},
        )
        assert quiet.status == "ok"
        (loud,) = compare(
            {"a.peak_bytes": _rec("a.peak_bytes", 0.0)},
            {"a.peak_bytes": _rec("a.peak_bytes", 5e6)},
        )
        assert loud.status == "regressed"

    def test_zero_to_zero_is_ok(self):
        (delta,) = compare(
            {"a.solve_s": _rec("a.solve_s", 0.0)},
            {"a.solve_s": _rec("a.solve_s", 0.0)},
        )
        assert delta.status == "ok"
        assert delta.rel_change == 0.0

    def test_noise_floor_suppresses_tiny_timings(self):
        # 0.8ms -> 1.6ms is +100% but both are under the 50ms floor.
        (delta,) = compare(
            {"a.solve_s": _rec("a.solve_s", 0.0008)},
            {"a.solve_s": _rec("a.solve_s", 0.0016)},
        )
        assert delta.status == "ok"

    def test_untolerated_metric_is_informational(self):
        (delta,) = compare(
            {"a.n_events": _rec("a.n_events", 100.0)},
            {"a.n_events": _rec("a.n_events", 900.0)},
        )
        assert delta.status == "info"

    def test_higher_is_better_direction(self):
        base = MetricRecord("a.throughput", 100.0, unit="value",
                            tolerance=0.2, direction="higher")
        cur = MetricRecord("a.throughput", 50.0, unit="value",
                           tolerance=0.2, direction="higher")
        (delta,) = compare({"a.throughput": base}, {"a.throughput": cur})
        assert delta.status == "regressed"


class TestBenchReport:
    def _write(self, bench_dir, solve_s):
        bench_dir.mkdir(exist_ok=True)
        record_suite(
            bench_dir / "BENCH_x.json", "suite",
            {"solve_s": solve_s, "n_states": 10}, manifest={},
        )

    def test_trend_without_baseline(self, tmp_path):
        self._write(tmp_path / "bench", 1.0)
        text, deltas = bench_report(tmp_path / "bench")
        assert "BENCH_x.json" in text
        assert "suite.solve_s" in text
        assert deltas == []

    def test_compare_flags_regression(self, tmp_path):
        self._write(tmp_path / "base", 1.0)
        self._write(tmp_path / "cur", 1.3)
        text, deltas = bench_report(
            tmp_path / "cur", baseline_dir=tmp_path / "base"
        )
        assert "+30.0%" in text
        assert len(regressions(deltas)) == 1

    def test_self_compare_is_clean(self, tmp_path):
        self._write(tmp_path / "bench", 1.0)
        _, deltas = bench_report(
            tmp_path / "bench", baseline_dir=tmp_path / "bench"
        )
        assert regressions(deltas) == []

    def test_only_filter(self, tmp_path):
        self._write(tmp_path / "base", 1.0)
        self._write(tmp_path / "cur", 1.3)
        _, deltas = bench_report(
            tmp_path / "cur", baseline_dir=tmp_path / "base",
            only="n_states",
        )
        assert [d.name for d in deltas] == ["suite.n_states"]
        _, glob_deltas = bench_report(
            tmp_path / "cur", baseline_dir=tmp_path / "base",
            only="*.solve_s",
        )
        assert [d.name for d in glob_deltas] == ["suite.solve_s"]

    def test_empty_dir_reports_no_files(self, tmp_path):
        text, _ = bench_report(tmp_path / "nowhere")
        assert "no BENCH_*.json files" in text
