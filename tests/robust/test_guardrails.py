"""Tests for the solver guardrails: fallback ladder, budgets, cycles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.kron import KroneckerCTMDP
from repro.ctmdp.policy import evaluate_policy
from repro.ctmdp.policy_iteration import _CycleDetector, policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.errors import SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.robust import guardrails
from repro.robust.guardrails import (
    guardrails_disabled,
    solve_with_fallback,
    system_diagnostics,
)


class TestSolveWithFallback:
    def test_healthy_system_uses_direct_solve(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([3.0, 5.0])
        registry = MetricsRegistry()
        with instrument(metrics=registry):
            x = solve_with_fallback(a, b)
        np.testing.assert_array_equal(x, np.linalg.solve(a, b))
        assert "solver.lstsq_fallbacks" not in registry

    def test_singular_consistent_system_recovered_by_lstsq(self):
        # Duplicated equation: singular but consistent; lstsq returns
        # the exact minimum-norm solution and the counter records it.
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([2.0, 2.0])
        registry = MetricsRegistry()
        with instrument(metrics=registry):
            x = solve_with_fallback(a, b)
        assert np.allclose(a @ x, b)
        assert registry.counter("solver.lstsq_fallbacks").value == 1

    def test_inconsistent_system_raises_with_diagnostics(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(SolverError) as excinfo:
            solve_with_fallback(a, b, context={"iteration": 7})
        diag = excinfo.value.diagnostics
        assert diag["what"] == "linear system"
        assert diag["iteration"] == 7
        assert diag["shape"] == [2, 2]
        assert diag["rank"] == 1
        # Numerically singular: the smallest singular value may be a
        # few ulps above zero, so accept any astronomical conditioning.
        assert diag["condition_number"] > 1e12
        assert diag["lstsq_residual"] > guardrails.RESIDUAL_RTOL

    def test_forced_fallback_on_healthy_system(self, monkeypatch):
        # Monkeypatching the direct solver to fail exercises the ladder
        # on a well-posed system: lstsq must agree with the true answer.
        def broken(a, b):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(guardrails, "_dense_solve", broken)
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        b = np.array([2.0, 8.0])
        x = solve_with_fallback(a, b)
        assert np.allclose(x, [1.0, 2.0])

    def test_guardrails_disabled_skips_acceptance(self, monkeypatch):
        # Bench-only escape hatch: the raw direct solution is returned
        # without the residual check (and restored afterwards).
        calls = []
        real = guardrails._relative_residual

        def spying(a, x, b, a_max=None):
            calls.append(1)
            return real(a, x, b, a_max=a_max)

        monkeypatch.setattr(guardrails, "_relative_residual", spying)
        a = np.eye(2)
        b = np.ones(2)
        with guardrails_disabled():
            solve_with_fallback(a, b)
        assert not calls
        solve_with_fallback(a, b)
        assert calls


class TestSystemDiagnostics:
    def test_reports_rank_and_conditioning(self):
        diag = system_diagnostics(np.diag([4.0, 2.0, 0.0]))
        assert diag["rank"] == 2
        assert diag["sigma_max"] == 4.0
        assert diag["condition_number"] == float("inf")

    def test_well_conditioned_matrix(self):
        diag = system_diagnostics(np.eye(3))
        assert diag["rank"] == 3
        assert diag["condition_number"] == pytest.approx(1.0)


class TestPolicyIterationWithFallback:
    """Acceptance: a degraded evaluation solve no longer aborts PI."""

    @pytest.fixture()
    def reference(self, paper_mdp):
        return policy_iteration(paper_mdp)

    def test_pi_completes_via_lstsq_when_direct_solver_broken(
        self, paper_mdp, reference, monkeypatch
    ):
        def broken(a, b):
            raise np.linalg.LinAlgError("injected")

        monkeypatch.setattr(guardrails, "_dense_solve", broken)
        registry = MetricsRegistry()
        with instrument(metrics=registry):
            degraded = policy_iteration(paper_mdp)
        assert degraded.policy == reference.policy
        assert degraded.gain == pytest.approx(reference.gain, rel=1e-9)
        # One fallback per evaluation solve, and PI evaluates at least
        # the initial policy plus one improvement round.
        assert registry.counter("solver.lstsq_fallbacks").value >= 2

    def test_evaluate_policy_survives_broken_direct_solver(
        self, paper_mdp, reference, monkeypatch
    ):
        healthy = evaluate_policy(reference.policy)
        monkeypatch.setattr(
            guardrails, "_dense_solve",
            lambda a, b: np.full(b.shape, np.nan),  # silent garbage
        )
        degraded = evaluate_policy(reference.policy)
        assert degraded.gain == pytest.approx(healthy.gain, rel=1e-9)


def on_tier(mdp, backend):
    """*mdp* as the model *backend* runs: Kronecker-wrapped for kron."""
    return KroneckerCTMDP.from_ctmdp(mdp) if backend == "kron" else mdp


class TestBudgets:
    @pytest.mark.parametrize(
        "backend", ["compiled", "reference", "sparse", "kron"]
    )
    def test_policy_iteration_time_budget(self, paper_mdp, backend):
        with pytest.raises(SolverError) as excinfo:
            policy_iteration(
                on_tier(paper_mdp, backend), backend=backend,
                time_budget_s=0.0,
            )
        diag = excinfo.value.diagnostics
        assert diag["reason"] == "time_budget_exceeded"
        assert diag["iteration"] == 1
        assert diag["elapsed_s"] > 0.0
        assert len(diag["gain_history"]) == 1

    @pytest.mark.parametrize(
        "backend", ["compiled", "reference", "sparse", "kron"]
    )
    def test_value_iteration_time_budget(self, paper_mdp, backend):
        with pytest.raises(SolverError) as excinfo:
            relative_value_iteration(
                on_tier(paper_mdp, backend), backend=backend,
                time_budget_s=0.0,
            )
        assert excinfo.value.diagnostics["reason"] == "time_budget_exceeded"

    def test_no_budget_means_no_limit(self, paper_mdp):
        assert policy_iteration(paper_mdp, time_budget_s=None).iterations >= 1


class TestNonConvergenceDiagnostics:
    def test_policy_iteration_exhaustion_payload(self, paper_mdp):
        with pytest.raises(SolverError) as excinfo:
            policy_iteration(paper_mdp, max_iterations=0)
        diag = excinfo.value.diagnostics
        assert diag["reason"] == "max_iterations_exhausted"
        assert diag["policy"]  # the offending policy is included

    def test_value_iteration_exhaustion_payload(self, paper_mdp):
        with pytest.raises(SolverError) as excinfo:
            relative_value_iteration(paper_mdp, max_iterations=2)
        diag = excinfo.value.diagnostics
        assert diag["reason"] == "max_iterations_exhausted"
        assert len(diag["span_history"]) == 2


class TestCycleDetection:
    def test_revisit_raises_with_cycle_payload(self):
        detector = _CycleDetector()
        detector.check("policy-a", 0, [1.0], None)
        detector.check("policy-b", 1, [1.0, 0.9], None)
        with pytest.raises(SolverError) as excinfo:
            detector.check(
                "policy-a", 2, [1.0, 0.9, 1.0], lambda: [["s", "a"]]
            )
        diag = excinfo.value.diagnostics
        assert diag["reason"] == "policy_cycle"
        assert diag["first_seen"] == 0
        assert diag["cycle_length"] == 2
        assert diag["policy"] == [["s", "a"]]

    def test_healthy_solve_never_trips_the_detector(self, paper_mdp):
        # Converging PI re-selects its final policy on the last round;
        # the detector must not flag that as a cycle.
        result = policy_iteration(paper_mdp)
        assert result.iterations >= 1
