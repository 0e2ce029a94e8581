"""Solver-deep telemetry: decision records, ladder series, gate counters.

These tests pin the observability contract of the solver stack: every
backend resolution leaves an auditable record, every sparse policy
evaluation emits a residual-trajectory row naming the rung that fired,
the Kronecker tier counts its generator matvecs, and the admission gate
publishes its verdict and finding codes as labeled counters. They also
pin the merge semantics: Krylov series rows collected in forked workers
merge back bit-identically to a serial run.
"""

from __future__ import annotations

import json
import logging
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmdp.backends import DECISION_SERIES, resolve_backend
from repro.ctmdp.kron import kron_farm_model
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.sparse import KRYLOV_SERIES, solve_sparse_with_fallback
from repro.dpm.presets import paper_system
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import active, instrument
from repro.obs.trace import Tracer
from repro.robust.admission import admit_ctmdp
from repro.sim.parallel import parallel_map


def _instrumented():
    return MetricsRegistry(), Tracer()


def _spd_system(seed: int = 0):
    """A small diagonally dominant CSR system (direct rung succeeds)."""
    rng = np.random.default_rng(1234 + seed)
    n = 30
    m = sp.random(n, n, density=0.2, random_state=rng, format="csr")
    m = m + sp.eye_array(n, format="csr") * (abs(m).sum(axis=1).max() + 1.0)
    b = rng.standard_normal(n)
    return sp.csr_array(m), b


class TestBackendDecisions:
    def _decisions(self, registry):
        return registry.series(DECISION_SERIES).records

    def test_auto_small_model_lands_dense_with_reason(self):
        mdp = SimpleNamespace(n_states=40)
        registry, _ = _instrumented()
        with instrument(metrics=registry):
            assert resolve_backend(mdp, "auto") == "compiled"
        (row,) = self._decisions(registry)
        assert row["requested"] == "auto"
        assert row["resolved"] == "compiled"
        assert row["n_states"] == 40
        assert "fits the dense tier" in row["reason"]
        assert registry.counter("solver.backend.selected.compiled").value == 1

    def test_auto_large_model_lands_sparse(self):
        registry, _ = _instrumented()
        with instrument(metrics=registry):
            assert (
                resolve_backend(SimpleNamespace(n_states=50_000), "auto")
                == "sparse"
            )
        (row,) = self._decisions(registry)
        assert row["resolved"] == "sparse"
        assert "exceeds the dense tier" in row["reason"]

    def test_kron_model_recorded(self):
        kmdp = kron_farm_model(2, 2)
        registry, _ = _instrumented()
        with instrument(metrics=registry):
            assert resolve_backend(kmdp, "auto", who="test") == "kron"
        (row,) = self._decisions(registry)
        assert row["resolved"] == "kron"
        assert row["reason"] == "kronecker-model"
        assert row["who"] == "test"

    def test_explicit_request_recorded(self):
        registry, _ = _instrumented()
        with instrument(metrics=registry):
            resolve_backend(SimpleNamespace(n_states=10), "reference")
        (row,) = self._decisions(registry)
        assert row["requested"] == "reference"
        assert row["reason"] == "explicit request"

    def test_auto_selection_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.ctmdp.backends"):
            resolve_backend(SimpleNamespace(n_states=40), "auto")
        assert any(
            "backend auto-selected" in rec.message for rec in caplog.records
        )

    def test_disabled_records_nothing(self):
        registry = MetricsRegistry()
        resolve_backend(SimpleNamespace(n_states=40), "auto")
        assert registry.names() == []


class TestSparseLadderTelemetry:
    def test_direct_rung_emits_trajectory_row(self):
        m, b = _spd_system()
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer):
            solve_sparse_with_fallback(m, b, what="unit test")
        (row,) = registry.series(KRYLOV_SERIES).records
        assert row["rung"] == "direct"
        assert row["what"] == "unit test"
        assert row["iterations"] == 0
        assert len(row["residuals"]) == 1
        assert row["residual"] == row["residuals"][0]
        assert registry.counter("solver.sparse.direct_solves").value == 1
        hist = registry.histogram("solver.sparse.lu_fill_factor")
        assert hist.count == 1
        (span,) = [r for r in tracer.records if r.name == "sparse_solve"]
        assert span.attrs["rung"] == "direct"
        assert span.attrs["nnz"] == int(sp.csc_array(m).nnz)

    def test_forced_gmres_rung_records_residual_trajectory(
        self, monkeypatch, caplog
    ):
        def boom(a_csc, b):
            raise RuntimeError("forced for test")

        monkeypatch.setattr("repro.ctmdp.sparse._direct_solve", boom)
        m, b = _spd_system()
        registry, tracer = _instrumented()
        with caplog.at_level(logging.INFO, logger="repro.ctmdp.sparse"):
            with instrument(metrics=registry, tracer=tracer):
                x = solve_sparse_with_fallback(m, b, what="unit test")
        assert np.all(np.isfinite(x))
        (row,) = registry.series(KRYLOV_SERIES).records
        assert row["rung"] == "gmres"
        assert row["reason"] == "forced for test"
        assert row["iterations"] == len(row["residuals"]) > 0
        # The trajectory is the per-iteration preconditioned norms.
        assert all(r >= 0.0 for r in row["residuals"])
        assert registry.counter("solver.sparse.gmres_fallbacks").value == 1
        (span,) = [r for r in tracer.records if r.name == "sparse_solve"]
        assert span.attrs["rung"] == "gmres"
        assert span.attrs["iterations"] == row["iterations"]
        assert any(
            "fell back to ILU-GMRES" in rec.message for rec in caplog.records
        )

    def test_sparse_solve_span_nests_under_caller(self):
        m, b = _spd_system()
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer) as ins:
            with ins.span("policy_iteration") as outer:
                solve_sparse_with_fallback(m, b)
        (solve_span,) = [
            r for r in tracer.records if r.name == "sparse_solve"
        ]
        assert solve_span.parent_id == outer.span_id

    def test_disabled_path_attaches_no_callback(self, monkeypatch):
        """Without instrumentation the GMRES callback must stay None."""
        seen = {}
        import repro.ctmdp.sparse as sparse_mod

        real_gmres = sparse_mod.gmres

        def spy(*args, **kwargs):
            seen["callback"] = kwargs.get("callback")
            return real_gmres(*args, **kwargs)

        monkeypatch.setattr(sparse_mod, "gmres", spy)
        monkeypatch.setattr(
            sparse_mod,
            "_direct_solve",
            lambda a, b: (_ for _ in ()).throw(RuntimeError("forced")),
        )
        m, b = _spd_system()
        solve_sparse_with_fallback(m, b)
        assert seen["callback"] is None


class TestKronTelemetry:
    def test_policy_iteration_counts_matvecs_and_sets_gauge(self):
        kmdp = kron_farm_model(2, 3)  # 4^2 = 16 states
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer):
            result = policy_iteration(kmdp)
        assert np.isfinite(result.gain)
        assert registry.counter("solver.kron.matvecs").value > 0
        assert registry.counter("solver.kron.gmres_solves").value > 0
        assert registry.gauge("solver.kron.uniformization_rate").value > 0
        rows = registry.series("solver.kron.krylov.residuals").records
        assert rows and all(r["converged"] for r in rows)
        assert all(len(r["residuals"]) == r["iterations"] for r in rows)

    def test_gmres_span_nests_under_policy_evaluation(self):
        kmdp = kron_farm_model(2, 3)
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer):
            policy_iteration(kmdp)
        spans = tracer.to_dicts()
        evals = {
            s["span_id"]: s
            for s in spans
            if s["name"] == "policy_evaluation"
        }
        assert evals
        # Every Krylov solve nests under the phase that issued it: the
        # elimination system under policy_evaluation, the occupation
        # solve under stationary_solve.
        solver_parents = dict(evals)
        solver_parents.update(
            (s["span_id"], s)
            for s in spans
            if s["name"] == "stationary_solve"
        )
        gmres_spans = [s for s in spans if s["name"] == "gmres_solve"]
        assert gmres_spans
        assert all(s["parent_id"] in solver_parents for s in gmres_spans)
        assert any(s["parent_id"] in evals for s in gmres_spans)
        assert all(
            s["attrs"].get("backend") == "kron" for s in evals.values()
        )


class TestAdmissionTelemetry:
    def test_gate_counters_and_phase_spans(self):
        mdp = paper_system(capacity=2).build_ctmdp(weight=1.0)
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer):
            report = admit_ctmdp(mdp, level="standard")
        assert registry.counter("admission.gates").value == 1
        assert (
            registry.counter(f"admission.verdict.{report.verdict}").value
            == 1
        )
        for finding in report.findings:
            assert (
                registry.counter(f"admission.findings.{finding.code}").value
                >= 1
            )
        spans = tracer.to_dicts()
        (gate,) = [s for s in spans if s["name"] == "admission.gate"]
        assert gate["attrs"]["verdict"] == report.verdict
        phase_names = {
            s["name"] for s in spans if s["parent_id"] == gate["span_id"]
        }
        assert {"admission.compile", "admission.structural"} <= phase_names


def _krylov_work(i: int) -> float:
    """One forced-GMRES sparse solve; emits a Krylov series row."""
    m, b = _spd_system(seed=i)
    x = solve_sparse_with_fallback(m, b, what=f"item-{i}")
    return float(x[0])


class TestParallelKrylovSeriesMerge:
    def _run(self, n_jobs, monkeypatch):
        def boom(a_csc, b):
            raise RuntimeError("forced for test")

        # Patched in the parent before the pool forks, so both the
        # serial path and every worker hit the GMRES rung.
        monkeypatch.setattr("repro.ctmdp.sparse._direct_solve", boom)
        registry, tracer = _instrumented()
        with instrument(metrics=registry, tracer=tracer):
            results = parallel_map(_krylov_work, range(8), n_jobs=n_jobs)
        return results, json.dumps(registry.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("n_jobs", [2, 3])
    def test_worker_series_merge_bit_identical(self, n_jobs, monkeypatch):
        serial_results, serial_metrics = self._run(1, monkeypatch)
        par_results, par_metrics = self._run(n_jobs, monkeypatch)
        assert par_results == serial_results
        assert par_metrics == serial_metrics
        rows = json.loads(par_metrics)[KRYLOV_SERIES]["records"]
        assert [r["what"] for r in rows] == [
            f"item-{i}" for i in range(8)
        ]
        assert all(r["rung"] == "gmres" for r in rows)
