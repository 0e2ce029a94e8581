"""Tests for the ambient instrumentation context and the exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs.export import (
    read_metrics,
    read_trace,
    run_manifest,
    write_metrics,
    write_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import DISABLED, active, instrument
from repro.obs.trace import Tracer


class TestRuntime:
    def test_disabled_by_default(self):
        ins = active()
        assert ins is DISABLED
        assert not ins.enabled
        assert ins.metrics is None
        assert ins.tracer is None

    def test_disabled_span_is_noop(self):
        with active().span("anything", k=1) as span:
            span.attrs.update(extra=2)
        assert active() is DISABLED

    def test_instrument_activates_and_restores(self):
        registry = MetricsRegistry()
        with instrument(metrics=registry) as ins:
            assert active() is ins
            assert ins.enabled
            assert ins.metrics is registry
            assert ins.tracer is None
        assert active() is DISABLED

    def test_nested_instrument_stacks(self):
        outer_reg, inner_reg = MetricsRegistry(), MetricsRegistry()
        with instrument(metrics=outer_reg):
            with instrument(metrics=inner_reg):
                active().metrics.counter("c").inc()
            assert active().metrics is outer_reg
        assert "c" in inner_reg
        assert "c" not in outer_reg

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with instrument(metrics=MetricsRegistry()):
                raise RuntimeError()
        assert active() is DISABLED

    def test_tracer_span_via_instrumentation(self):
        tracer = Tracer()
        with instrument(tracer=tracer) as ins:
            with ins.span("timed"):
                pass
        assert tracer.records[0].name == "timed"


class TestManifest:
    def test_fields(self):
        manifest = run_manifest(argv=["solve"], seed=7, extra_key="x")
        assert manifest["argv"] == ["solve"]
        assert manifest["seed"] == 7
        assert manifest["extra_key"] == "x"
        assert "python" in manifest["versions"]
        assert "numpy" in manifest["versions"]
        assert manifest["platform"]

    def test_git_sha_present_in_checkout(self):
        # The test suite runs from the repo checkout, so a sha resolves.
        sha = run_manifest()["git_sha"]
        assert sha is None or (len(sha) == 40 and set(sha) <= set("0123456789abcdef"))

    def test_git_dirty_is_a_flag_beside_the_sha(self):
        manifest = run_manifest()
        if manifest["git_sha"] is None:
            assert manifest["git_dirty"] is None
        else:
            assert manifest["git_dirty"] in (True, False)

    @staticmethod
    def _export_in(directory):
        """The export module loaded from a copy in *directory*, so its
        git calls run there."""
        import importlib.util
        import shutil

        from repro.obs import export

        path = directory / "export_copy.py"
        shutil.copy(export.__file__, path)
        spec = importlib.util.spec_from_file_location("export_copy", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_git_dirty_follows_tracked_changes(self, tmp_path):
        import shutil
        import subprocess

        if shutil.which("git") is None:
            pytest.skip("git is not installed")
        outside = tmp_path / "outside"
        outside.mkdir()
        manifest = self._export_in(outside).run_manifest()
        assert manifest["git_sha"] is None and manifest["git_dirty"] is None

        repo = tmp_path / "repo"
        repo.mkdir()

        def git(*args):
            subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                            "-c", "user.email=t@example.com",
                            "-c", "commit.gpgsign=false", *args],
                           check=True, capture_output=True)

        git("init", "-q")
        module = self._export_in(repo)
        git("add", "export_copy.py")
        git("commit", "-q", "-m", "export")
        assert module.run_manifest()["git_dirty"] is False
        (repo / "notes.txt").write_text("untracked files do not count\n")
        assert module.run_manifest()["git_dirty"] is False
        with open(repo / "export_copy.py", "a") as handle:
            handle.write("# edited\n")
        manifest = module.run_manifest()
        assert manifest["git_dirty"] is True and len(manifest["git_sha"]) == 40


class TestExporters:
    def test_metrics_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("events").inc(3)
        registry.histogram("lat", bounds=(1.0,)).observe(0.5)
        path = tmp_path / "metrics.json"
        write_metrics(registry, path, manifest=run_manifest(argv=[], seed=1))
        data = read_metrics(path)
        assert data["manifest"]["seed"] == 1
        assert data["metrics"]["events"]["value"] == 3
        assert data["metrics"]["lat"]["count"] == 1

    def test_trace_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        write_trace(tracer, path, manifest=run_manifest(argv=["x"]))
        manifest, spans = read_trace(path)
        assert manifest["type"] == "manifest"
        assert manifest["argv"] == ["x"]
        assert [s["name"] for s in spans] == ["outer", "inner"]
        # File is genuine JSONL: every line parses on its own.
        with open(path) as fh:
            for line in fh:
                json.loads(line)
