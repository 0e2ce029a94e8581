"""Tests for the occupation-measure LP solver."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.linear_program import (
    average_cost_lp_optimum,
    constrained_lp_optimum,
    solve_average_cost_lp,
    solve_constrained_lp,
)
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.errors import InfeasibleConstraintError, SolverError


def random_unichain_mdp(seed: int, n_states: int = 5, n_actions: int = 3) -> CTMDP:
    rng = np.random.default_rng(seed)
    mdp = CTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            rates = rng.uniform(0.1, 2.0, size=n_states)
            rates[s] = 0.0
            mdp.add_action(
                s,
                a,
                rates=rates,
                cost_rate=float(rng.uniform(0, 10)),
                extra_costs={
                    "power": float(rng.uniform(0, 5)),
                    "delay": float(rng.uniform(0, 3)),
                },
            )
    return mdp


class TestAverageCostLP:
    def test_matches_policy_iteration(self):
        for seed in range(6):
            mdp = random_unichain_mdp(seed)
            lp = solve_average_cost_lp(mdp)
            pi = policy_iteration(mdp)
            assert lp.gain == pytest.approx(pi.gain, abs=1e-7), f"seed {seed}"

    def test_occupation_is_probability(self):
        mdp = random_unichain_mdp(1)
        lp = solve_average_cost_lp(mdp)
        total = sum(lp.occupation.values())
        assert total == pytest.approx(1.0, abs=1e-8)
        assert all(v >= 0 for v in lp.occupation.values())

    def test_deterministic_policy_achieves_gain(self):
        mdp = random_unichain_mdp(4)
        lp = solve_average_cost_lp(mdp)
        assert evaluate_policy(lp.deterministic_policy).gain == pytest.approx(
            lp.gain, abs=1e-7
        )

    def test_extra_cost_values_reported(self):
        mdp = random_unichain_mdp(2)
        lp = solve_average_cost_lp(mdp)
        assert set(lp.extra_cost_values) == {"power", "delay"}

    def test_paper_model_matches_pi(self, paper_mdp):
        lp = solve_average_cost_lp(paper_mdp)
        pi = policy_iteration(paper_mdp)
        assert lp.gain == pytest.approx(pi.gain, rel=1e-8)


class TestConstrainedLP:
    def test_constraint_satisfied(self):
        mdp = random_unichain_mdp(0)
        unconstrained = solve_constrained_lp(mdp, "power", {})
        # Bind delay strictly below its unconstrained level.
        delay0 = unconstrained.extra_cost_values["delay"]
        bound = 0.9 * delay0
        lp = solve_constrained_lp(mdp, "power", {"delay": bound})
        assert lp.extra_cost_values["delay"] <= bound + 1e-8
        # Power can only get worse when the constraint binds.
        assert lp.gain >= unconstrained.gain - 1e-9

    def test_infeasible_raises(self):
        mdp = random_unichain_mdp(3)
        with pytest.raises(InfeasibleConstraintError):
            solve_constrained_lp(mdp, "power", {"delay": -1.0})

    def test_tighter_bound_costs_more_power(self):
        mdp = random_unichain_mdp(5)
        base = solve_constrained_lp(mdp, "power", {})
        d0 = base.extra_cost_values["delay"]
        loose = solve_constrained_lp(mdp, "power", {"delay": 0.95 * d0})
        tight = solve_constrained_lp(mdp, "power", {"delay": 0.85 * d0})
        assert tight.gain >= loose.gain - 1e-9

    def test_randomized_policy_valid_distributions(self, paper_mdp):
        lp = solve_constrained_lp(paper_mdp, "power", {"queue_length": 1.0})
        for state in paper_mdp.states:
            dist = lp.policy.distribution(state)
            assert sum(dist.values()) == pytest.approx(1.0)
            assert all(p >= 0 for p in dist.values())

    def test_paper_constrained_gain_between_extremes(self, paper_model, paper_mdp):
        # The constrained optimum must be at least the unconstrained
        # minimum power, at most the always-on power.
        lp = solve_constrained_lp(paper_mdp, "power", {"queue_length": 1.0})
        unconstrained = solve_average_cost_lp(paper_model.build_ctmdp(0.0))
        assert lp.gain >= unconstrained.gain - 1e-9
        assert lp.gain <= 40.0


class TestStatusAndDiagnostics:
    def test_successful_solve_reports_optimal(self):
        mdp = random_unichain_mdp(0)
        lp = solve_average_cost_lp(mdp)
        assert lp.status == "optimal"
        assert lp.diagnostics["highs_status"] == 0
        assert lp.diagnostics["iterations"] > 0

    def test_strong_duality_holds_at_the_optimum(self):
        mdp = random_unichain_mdp(3)
        lp = solve_average_cost_lp(mdp)
        scale = max(1.0, abs(lp.gain))
        assert lp.diagnostics["dual_objective"] == pytest.approx(
            lp.gain, abs=1e-9 * scale
        )
        assert abs(lp.diagnostics["duality_gap"]) < 1e-9 * scale
        # The normalization row's multiplier *is* the gain (LP duality).
        assert lp.diagnostics["gain_dual"] == pytest.approx(
            lp.gain, abs=1e-9 * scale
        )

    def test_constrained_solve_carries_diagnostics(self):
        mdp = random_unichain_mdp(2)
        lp = solve_constrained_lp(mdp, "power", {"delay": 2.0})
        assert lp.status == "optimal"
        scale = max(1.0, abs(lp.gain))
        assert abs(lp.diagnostics["duality_gap"]) < 1e-9 * scale

    def test_infeasible_failure_carries_diagnostics(self):
        mdp = random_unichain_mdp(5)
        with pytest.raises(InfeasibleConstraintError) as excinfo:
            solve_constrained_lp(mdp, "power", {"delay": -1.0})
        diag = excinfo.value.diagnostics
        assert diag["highs_status"] == 2
        assert "message" in diag
        # No duality_gap claim on a failed solve.
        assert "duality_gap" not in diag


class TestNonFiniteCosts:
    """Both LPs reject non-finite costs with policy iteration's typed
    error before HiGHS sees them (scipy raises a bare ``ValueError``)."""

    @pytest.mark.parametrize("seed", [10, 22])
    def test_nan_cost_fuzz_models(self, seed):
        from repro.robust.fuzz import build_from_spec, generate_spec

        mdp = build_from_spec(generate_spec("nan_cost", seed))[0]
        with pytest.raises(SolverError):
            policy_iteration(mdp)
        with pytest.raises(SolverError, match="effective cost rate has 1 "
                                              "non-finite entry"):
            average_cost_lp_optimum(mdp)
        with pytest.raises(SolverError, match="non-finite"):
            solve_average_cost_lp(mdp)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_channels_in_the_constrained_lp(self, value):
        mdp = random_unichain_mdp(0)
        broken = CTMDP(mdp.states)
        for state, action in mdp.state_action_pairs():
            data = mdp.data(state, action)
            extra = dict(data.extra_costs)
            if (state, action) == (2, 1):
                extra["delay"] = value
            broken.add_action(state, action, data.rates, data.cost_rate,
                              extra_costs=extra)
        constrained_lp_optimum(broken, "power", {})  # delay unused: fine
        with pytest.raises(SolverError, match="objective channel 'delay'"):
            constrained_lp_optimum(broken, "delay", {})
        with pytest.raises(SolverError, match="constraint channel 'delay'"):
            solve_constrained_lp(broken, "power", {"delay": 1.0})
