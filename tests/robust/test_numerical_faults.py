"""Numerical fault injection into the solve ladder.

The parallel layer's harness covers crash/hang/NaN faults; the
numerical ladder (direct LU -> ILU-GMRES -> typed failure, plus policy
iteration's fail-fast on a singular LU) is covered here. These tests
arm :class:`repro.robust.faultinject.NumericalFaultPlan` faults at each
rung's injection point and assert the rescue/fallback behavior the
ladder documents: correct results out of the surviving rungs, typed
:class:`~repro.errors.SolverError` when the ladder is exhausted, and
bit-identical sweep results when a warm-started solve hits an injected
singular LU and falls back cold. Every tier runs the same ladder, so
the ``direct-fail`` and ``krylov-stall`` hooks reach the dense and
Kronecker solves too.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.ctmdp.kron import kron_farm_model
from repro.ctmdp.policy import evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.sparse import solve_sparse_with_fallback
from repro.dpm.optimizer import optimize_weighted, serialize_result
from repro.dpm.presets import paper_system
from repro.errors import SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.robust.faultinject import (
    FaultInjectionError,
    NumericalFaultPlan,
    inject_numerical,
    numerical_fault,
)


def _well_conditioned_system(n: int = 40, seed: int = 0):
    """A diagonally dominant sparse system every rung can solve."""
    rng = np.random.default_rng(seed)
    a = sp.random(n, n, density=0.15, random_state=rng, format="lil")
    a.setdiag(np.asarray(np.abs(a).sum(axis=1)).ravel() + 1.0)
    b = rng.standard_normal(n)
    return sp.csr_array(a), b


class TestNumericalFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultInjectionError, match="unknown numerical"):
            NumericalFaultPlan().arm("segfault")

    def test_times_must_be_positive(self):
        with pytest.raises(FaultInjectionError, match=">= 1"):
            NumericalFaultPlan().arm("direct-fail", times=0)

    def test_consume_counts_down_and_records(self):
        plan = NumericalFaultPlan().arm("direct-fail", times=2)
        assert plan.consume("direct-fail")
        assert plan.consume("direct-fail")
        assert not plan.consume("direct-fail")
        assert plan.fired == {"direct-fail": 2}

    def test_no_plan_means_no_fault(self):
        assert not numerical_fault("direct-fail")

    def test_inject_restores_previous_plan(self):
        outer = NumericalFaultPlan().arm("direct-fail")
        with inject_numerical(outer):
            with inject_numerical(NumericalFaultPlan()):
                assert not numerical_fault("direct-fail")
            assert numerical_fault("direct-fail")
        assert not numerical_fault("direct-fail")


class TestSparseLadderFaults:
    def test_direct_fail_rescued_by_gmres(self):
        a, b = _well_conditioned_system()
        clean = solve_sparse_with_fallback(a, b)
        plan = NumericalFaultPlan().arm("direct-fail")
        registry = MetricsRegistry()
        with inject_numerical(plan), instrument(metrics=registry):
            rescued = solve_sparse_with_fallback(a, b)
        assert plan.fired == {"direct-fail": 1}
        assert np.allclose(rescued, clean, rtol=1e-8, atol=1e-10)
        doc = registry.to_dict()
        assert doc["solver.sparse.gmres_fallbacks"]["value"] == 1

    def test_ilu_breakdown_rescued_by_jacobi(self):
        a, b = _well_conditioned_system()
        clean = solve_sparse_with_fallback(a, b)
        plan = (
            NumericalFaultPlan()
            .arm("direct-fail")
            .arm("ilu-breakdown")
        )
        registry = MetricsRegistry()
        with inject_numerical(plan), instrument(metrics=registry):
            rescued = solve_sparse_with_fallback(a, b)
        assert plan.fired == {"direct-fail": 1, "ilu-breakdown": 1}
        assert np.allclose(rescued, clean, rtol=1e-8, atol=1e-10)
        # The rescue really ran on the Jacobi preconditioner.
        rows = registry.to_dict()["solver.sparse.krylov.residuals"]["records"]
        assert rows[-1]["preconditioner"] == "jacobi"
        assert rows[-1]["rung"] == "gmres"

    def test_krylov_stall_is_a_typed_failure(self):
        a, b = _well_conditioned_system()
        plan = (
            NumericalFaultPlan()
            .arm("direct-fail")
            .arm("krylov-stall")
        )
        with inject_numerical(plan):
            with pytest.raises(SolverError) as excinfo:
                solve_sparse_with_fallback(a, b)
        assert plan.fired["krylov-stall"] == 1
        assert excinfo.value.diagnostics["backend"] == "sparse"

    def test_faults_disarm_after_firing(self):
        a, b = _well_conditioned_system()
        clean = solve_sparse_with_fallback(a, b)
        plan = NumericalFaultPlan().arm("direct-fail")
        with inject_numerical(plan):
            solve_sparse_with_fallback(a, b)
            again = solve_sparse_with_fallback(a, b)
        assert np.array_equal(again, clean)  # direct rung, bit-identical


class TestReuseCacheFaults:
    """Sparse policy iteration under an injected singular LU."""

    def test_cold_solve_surfaces_typed_error(self):
        model = paper_system(capacity=4)
        plan = NumericalFaultPlan().arm("singular-lu")
        with inject_numerical(plan):
            with pytest.raises(SolverError) as excinfo:
                optimize_weighted(model, 0.5, backend="sparse")
        assert plan.fired == {"singular-lu": 1}
        assert excinfo.value.diagnostics["reason"] == "singular_system"

    def test_warm_start_falls_back_cold_bit_identical(self):
        model = paper_system(capacity=4)
        clean = optimize_weighted(model, 0.5, backend="sparse")
        seed = optimize_weighted(model, 0.4, backend="sparse").policy
        plan = NumericalFaultPlan().arm("singular-lu")
        registry = MetricsRegistry()
        with inject_numerical(plan), instrument(metrics=registry):
            warm = optimize_weighted(
                model, 0.5, backend="sparse", initial_policy=seed
            )
        assert plan.fired == {"singular-lu": 1}
        # The advisory-seed contract held: the injected singular system
        # rejected the seed, the cold fallback ran, and the result is
        # bit-identical to an uninjected solve.
        assert serialize_result(warm) == serialize_result(clean)
        doc = registry.to_dict()
        assert doc["solver.reuse.warm_start_rejected"]["value"] == 1


class TestEveryTierFaults:
    """The shared ladder's hooks on the dense and Kronecker tiers."""

    def test_direct_fail_on_dense_evaluation_rescued_by_lstsq(self):
        mdp = paper_system().build_ctmdp(weight=1.0)
        policy = policy_iteration(mdp).policy
        clean = evaluate_policy(policy, backend="compiled")
        plan = NumericalFaultPlan().arm("direct-fail")
        registry = MetricsRegistry()
        with inject_numerical(plan), instrument(metrics=registry):
            rescued = evaluate_policy(policy, backend="compiled")
        assert plan.fired == {"direct-fail": 1}
        assert registry.counter("solver.lstsq_fallbacks").value == 1
        assert rescued.gain == pytest.approx(clean.gain, rel=1e-9)
        np.testing.assert_array_equal(rescued.stationary, clean.stationary)

    def test_krylov_stall_on_kron_evaluation_is_typed(self):
        kmdp = kron_farm_model(2, 3)
        plan = NumericalFaultPlan().arm("krylov-stall")
        with inject_numerical(plan):
            with pytest.raises(SolverError) as kron_err:
                kmdp.evaluate(kmdp.selection(), 0)
        assert plan.fired == {"krylov-stall": 1}
        # The same chain exhausted on the CSR tier.
        smdp = kmdp.to_ctmdp().pair_table()
        plan = NumericalFaultPlan().arm("direct-fail").arm("krylov-stall")
        with inject_numerical(plan):
            with pytest.raises(SolverError) as csr_err:
                smdp.evaluate(smdp.selection(), 0)
        kron, csr = kron_err.value.diagnostics, csr_err.value.diagnostics
        assert kron["reason"] == csr["reason"] == "ladder_exhausted"
        assert (kron["backend"], csr["backend"]) == ("kron", "sparse")
        assert kron["gmres_residual"] == csr["gmres_residual"] == float("inf")
        assert kron["reference_state"] == csr["reference_state"] == 0
        # One payload layout: the CSR tier adds only its direct rung, its
        # preconditioner and its nnz; the Kronecker rung adds only
        # whether GMRES was warm-started.
        assert set(csr) - set(kron) == {
            "direct_error", "direct_residual", "nnz", "preconditioner",
            "ilu_drop_tol", "ilu_fill_factor",
        }
        assert set(kron) - set(csr) == {"warm_started"}
