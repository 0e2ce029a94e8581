"""Tests for the policy-optimization workflow (Figure 3)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.dpm.analysis import evaluate_dpm_policy
from repro.dpm.optimizer import (
    find_weight_for_constraint,
    nearest_seed,
    optimize_constrained,
    optimize_weighted,
    sweep_weights,
)
from repro.dpm.presets import paper_system
from repro.errors import InfeasibleConstraintError, SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument


class TestOptimizeWeighted:
    def test_solvers_agree_on_gain(self, paper_model):
        results = {
            solver: optimize_weighted(paper_model, 1.0, solver=solver)
            for solver in ("policy_iteration", "linear_program")
        }
        powers = {s: r.metrics.average_power for s, r in results.items()}
        assert powers["policy_iteration"] == pytest.approx(
            powers["linear_program"], rel=1e-6
        )

    def test_unknown_solver_rejected(self, paper_model):
        with pytest.raises(SolverError, match="unknown solver"):
            optimize_weighted(paper_model, 1.0, solver="quantum")

    def test_weight_zero_minimizes_power_only(self, paper_model):
        r0 = optimize_weighted(paper_model, 0.0)
        r5 = optimize_weighted(paper_model, 5.0)
        assert r0.metrics.average_power <= r5.metrics.average_power + 1e-9

    def test_result_carries_weight(self, paper_model):
        assert optimize_weighted(paper_model, 2.5).weight == 2.5


class TestMetricsFromTheSolve:
    """Policy iteration's stationary distribution feeds the metrics:
    no second stationary solve, and the same floats as a fresh
    evaluation of the returned policy."""

    @staticmethod
    def assert_same_floats(got, want):
        for field in dataclasses.fields(got):
            assert float(getattr(got, field.name)).hex() == float(
                getattr(want, field.name)
            ).hex(), field.name

    @pytest.mark.parametrize(
        "backend, capacity",
        [
            ("compiled", 5),
            ("reference", 5),
            ("sparse", 5),
            ("auto", 5),  # dense tier
            ("auto", 100),  # 403 states: the CSR tier
        ],
    )
    @pytest.mark.parametrize("weight", [0.0, 1.0, 25.0])
    def test_metrics_equal_a_fresh_evaluation(self, backend, capacity, weight):
        model = paper_system(capacity=capacity)
        result = optimize_weighted(model, weight, backend=backend)
        self.assert_same_floats(
            result.metrics, evaluate_dpm_policy(model, result.policy)
        )

    def test_given_stationary_still_validates_the_dense_generator(self):
        from repro.ctmdp.policy import Policy
        from repro.errors import InvalidGeneratorError

        class NonConservative(Policy):
            def generator_matrix(self):
                g = super().generator_matrix()
                g[0, 0] -= 1.0
                return g

        model = paper_system(capacity=5)
        result = optimize_weighted(model, 1.0, backend="compiled")
        tampered = NonConservative.from_actions(
            result.policy.mdp, result.policy.actions
        )
        with pytest.raises(InvalidGeneratorError, match="row 0 sums"):
            evaluate_dpm_policy(model, tampered)
        # A given distribution skips the solve, not the check.
        uniform = np.full(model.n_states, 1.0 / model.n_states)
        with pytest.raises(InvalidGeneratorError, match="row 0 sums"):
            evaluate_dpm_policy(model, tampered, stationary=uniform)

    def test_seeded_solve_metrics_equal_a_fresh_evaluation(self):
        model = paper_system(capacity=100)
        seed = optimize_weighted(model, 1.0).policy
        result = optimize_weighted(model, 2.0, initial_policy=seed)
        self.assert_same_floats(
            result.metrics, evaluate_dpm_policy(model, result.policy)
        )

    @pytest.mark.parametrize("backend", ["sparse", "auto"])
    def test_one_stationary_solve_per_csr_policy(self, backend):
        model = paper_system(capacity=100)
        weights = [0.5, 1.0, 2.0]
        with instrument(metrics=MetricsRegistry()) as ins:
            for weight in weights:
                optimize_weighted(model, weight, backend=backend)
            solves = ins.metrics.counter("solver.sparse.stationary_solves")
            assert solves.value == len(weights)

    def test_value_iteration_keeps_its_own_evaluation(self):
        # A moderate self-switch stand-in keeps value iteration unstiff.
        model = paper_system(capacity=5, self_switch_rate=50.0)
        with instrument(metrics=MetricsRegistry()) as ins:
            result = optimize_weighted(
                model, 1.0, solver="value_iteration", backend="sparse"
            )
            solves = ins.metrics.counter("solver.sparse.stationary_solves")
            assert solves.value == 1
        self.assert_same_floats(
            result.metrics, evaluate_dpm_policy(model, result.policy)
        )


class TestSweepWeights:
    def test_tradeoff_monotone(self, paper_model):
        results = sweep_weights(paper_model, [0.1, 0.5, 1.0, 2.0, 5.0])
        powers = [r.metrics.average_power for r in results]
        delays = [r.metrics.average_queue_length for r in results]
        for i in range(len(results) - 1):
            assert powers[i + 1] >= powers[i] - 1e-9
            assert delays[i + 1] <= delays[i] + 1e-9


class TestConstrained:
    def test_lp_hits_bound_or_better(self, paper_model):
        result = optimize_constrained(paper_model, 1.0)
        assert result.metrics.average_queue_length <= 1.0 + 1e-6
        assert result.weight is None

    def test_tighter_bound_costs_power(self, paper_model):
        loose = optimize_constrained(paper_model, 2.0)
        tight = optimize_constrained(paper_model, 0.6)
        assert tight.metrics.average_power >= loose.metrics.average_power - 1e-9

    def test_infeasible_bound_raises(self, paper_model):
        # Queue length can never be negative.
        with pytest.raises(InfeasibleConstraintError):
            optimize_constrained(paper_model, -0.5)

    def test_lp_beats_or_matches_weight_bisection(self, paper_model):
        # The randomized constrained optimum is at least as good as the
        # best deterministic policy found by weight tuning.
        lp = optimize_constrained(paper_model, 1.0)
        det = find_weight_for_constraint(paper_model, 1.0)
        assert lp.metrics.average_power <= det.metrics.average_power + 1e-9


class TestFindWeightForConstraint:
    def test_constraint_satisfied(self, paper_model):
        result = find_weight_for_constraint(paper_model, 1.0)
        assert result.metrics.average_queue_length <= 1.0 + 1e-9
        assert result.weight is not None

    def test_loose_bound_returns_weight_zero(self, paper_model):
        result = find_weight_for_constraint(paper_model, 100.0)
        assert result.weight == 0.0

    def test_unreachable_bound_raises(self, paper_model):
        with pytest.raises(InfeasibleConstraintError):
            find_weight_for_constraint(
                paper_model, 0.0, weight_upper_bound=10.0
            )

    def test_bisection_seeds_from_the_latest_solve(self):
        # perfbench's constrained-1k search. Each midpoint is equidistant
        # from both ends; seeded from the w = 0 end while it stays the
        # low end, the search re-walked the same improvement rounds (85
        # evaluations); seeded from the latest solve it makes 49.
        model = paper_system(arrival_rate=1 / 6, capacity=250)
        with instrument(metrics=MetricsRegistry()) as ins:
            result = find_weight_for_constraint(model, 1.0)
            solves = ins.metrics.counter("solver.sparse.direct_solves").value
            weighted = ins.metrics.counter("optimizer.weighted_solves").value
        assert result.weight == 0.6163120269775391
        assert weighted == 26
        assert solves <= 49


class TestNearestSeed:
    def test_ties_go_to_the_latest_entry(self):
        solved = [(0.0, "low"), (8.0, "high")]
        assert nearest_seed(solved, 4.0) == "high"
        solved.append((4.0, "mid"))
        assert nearest_seed(solved + [(0.0, "low again")], 2.0) == "low again"
        assert nearest_seed(solved, 6.0) == "mid"
