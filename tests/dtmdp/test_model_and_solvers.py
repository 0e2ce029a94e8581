"""Tests for the discrete-time MDP substrate."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.ctmdp.linear_program import solve_average_cost_lp, solve_constrained_lp
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.uniformization import uniformize_ctmdp
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm.presets import paper_system
from repro.dtmdp.model import DTMDP
from repro.errors import (
    InfeasibleConstraintError,
    InvalidModelError,
    InvalidPolicyError,
)


@pytest.fixture
def two_state_dtmdp() -> DTMDP:
    """Stay (expensive in 'up') or hop; all rows aperiodic."""
    mdp = DTMDP(["up", "down"])
    mdp.add_action("up", "stay", [0.9, 0.1], cost=10.0,
                   extra_costs={"power": 10.0, "delay": 0.0})
    mdp.add_action("up", "hop", [0.2, 0.8], cost=11.0,
                   extra_costs={"power": 11.0, "delay": 0.0})
    mdp.add_action("down", "stay", [0.1, 0.9], cost=1.0,
                   extra_costs={"power": 1.0, "delay": 2.0})
    mdp.add_action("down", "hop", [0.8, 0.2], cost=2.0,
                   extra_costs={"power": 2.0, "delay": 1.0})
    return mdp


def random_dtmdp(seed: int, n_states: int = 5, n_actions: int = 3) -> DTMDP:
    rng = np.random.default_rng(seed)
    mdp = DTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            row = rng.uniform(0.05, 1.0, n_states)
            row /= row.sum()
            mdp.add_action(s, a, row, cost=float(rng.uniform(0, 10)))
    return mdp


def brute_force_gain(mdp: DTMDP) -> float:
    best = np.inf
    for actions in itertools.product(*(mdp.actions(s) for s in mdp.states)):
        assignment = dict(zip(mdp.states, actions))
        try:
            gain = evaluate_policy(Policy(mdp, assignment)).gain
        except Exception:
            continue
        best = min(best, gain)
    return best


class TestDTMDPModel:
    def test_rejects_bad_rows(self):
        mdp = DTMDP(["a", "b"])
        with pytest.raises(InvalidModelError, match="sums to"):
            mdp.add_action("a", "x", [0.5, 0.4], cost=0.0)
        with pytest.raises(InvalidModelError, match="negative"):
            mdp.add_action("a", "x", [1.5, -0.5], cost=0.0)
        with pytest.raises(InvalidModelError, match="shape"):
            mdp.add_action("a", "x", [1.0], cost=0.0)

    def test_rejects_nonfinite_row(self):
        mdp = DTMDP(["a", "b"])
        with pytest.raises(InvalidModelError, match="non-finite"):
            mdp.add_action("a", "x", [np.nan, 1.0], cost=0.0)

    def test_duplicate_action_rejected(self, two_state_dtmdp):
        with pytest.raises(InvalidModelError, match="already defined"):
            two_state_dtmdp.add_action("up", "stay", [1.0, 0.0], cost=0.0)

    def test_validate_requires_actions_everywhere(self):
        mdp = DTMDP(["a", "b"])
        mdp.add_action("a", "x", [0.5, 0.5], cost=0.0)
        with pytest.raises(InvalidModelError, match="no actions"):
            mdp.validate()

    def test_policy_matrix_and_costs(self, two_state_dtmdp):
        assignment = {"up": "hop", "down": "stay"}
        p = two_state_dtmdp.policy_matrix(assignment)
        np.testing.assert_allclose(p, [[0.2, 0.8], [0.1, 0.9]])
        np.testing.assert_allclose(
            two_state_dtmdp.policy_costs(assignment), [11.0, 1.0]
        )

    def test_incomplete_policy_rejected(self, two_state_dtmdp):
        with pytest.raises(InvalidPolicyError):
            two_state_dtmdp.policy_matrix({"up": "stay"})


class TestDTEvaluation:
    def test_evaluation_equation(self, two_state_dtmdp):
        assignment = {"up": "hop", "down": "hop"}
        ev = evaluate_policy(Policy(two_state_dtmdp, assignment))
        p = two_state_dtmdp.policy_matrix(assignment)
        c = two_state_dtmdp.policy_costs(assignment)
        lhs = ev.bias + ev.gain
        rhs = c + p @ ev.bias
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_gain_is_stationary_cost(self, two_state_dtmdp):
        assignment = {"up": "hop", "down": "hop"}
        ev = evaluate_policy(Policy(two_state_dtmdp, assignment))
        assert ev.gain == pytest.approx(
            float(ev.stationary @ two_state_dtmdp.policy_costs(assignment))
        )


class TestDTPolicyIteration:
    def test_matches_brute_force(self):
        for seed in range(6):
            mdp = random_dtmdp(seed)
            result = policy_iteration(mdp)
            assert result.gain == pytest.approx(
                brute_force_gain(mdp), abs=1e-9
            ), f"seed {seed}"

    def test_two_state_prefers_cheap_sink(self, two_state_dtmdp):
        result = policy_iteration(two_state_dtmdp)
        # Staying down (cost 1, sticky) is the cheap regime.
        assert result.policy.as_dict()["down"] == "stay"

    def test_fixed_point(self):
        mdp = random_dtmdp(3)
        first = policy_iteration(mdp)
        again = policy_iteration(mdp, initial_policy=first.policy)
        assert again.iterations == 1


class TestDTValueIteration:
    def test_agrees_with_policy_iteration(self):
        for seed in range(4):
            mdp = random_dtmdp(seed + 20)
            vi = relative_value_iteration(mdp, span_tolerance=1e-12)
            pi = policy_iteration(mdp)
            assert vi.gain == pytest.approx(pi.gain, abs=1e-8)

    def test_periodic_chain_converges(self):
        # Uniformizing at 1.05 x the largest exit rate adds a self-loop.
        mdp = DTMDP(["a", "b"])
        mdp.add_action("a", "go", [0.0, 1.0], cost=1.0)
        mdp.add_action("b", "go", [1.0, 0.0], cost=3.0)
        assert relative_value_iteration(mdp).gain == pytest.approx(2.0)


class TestDTLinearProgram:
    def test_agrees_with_policy_iteration(self):
        for seed in range(4):
            mdp = random_dtmdp(seed + 40)
            lp = solve_average_cost_lp(mdp)
            pi = policy_iteration(mdp)
            assert lp.gain == pytest.approx(pi.gain, abs=1e-7)

    def test_occupation_normalizes(self):
        mdp = random_dtmdp(1)
        lp = solve_average_cost_lp(mdp)
        assert sum(lp.occupation.values()) == pytest.approx(1.0, abs=1e-8)

    def test_constrained_version(self, two_state_dtmdp):
        base = solve_constrained_lp(two_state_dtmdp, "power", {})
        bound = 0.5 * base.extra_cost_values["delay"]
        constrained = solve_constrained_lp(
            two_state_dtmdp, "power", {"delay": bound}
        )
        assert constrained.extra_cost_values["delay"] <= bound + 1e-8
        assert constrained.gain >= base.gain - 1e-9

    def test_infeasible_raises(self, two_state_dtmdp):
        with pytest.raises(InfeasibleConstraintError):
            solve_constrained_lp(two_state_dtmdp, "power", {"delay": -1.0})


def uniformized_dtmdp(ct):
    """The DTMDP of *ct* uniformized at ``1.05 x`` its largest exit rate:
    ``P = I + G / Lambda`` and per-step cost ``c / Lambda``."""
    uni = uniformize_ctmdp(ct)
    dt = DTMDP(ct.states)
    for i, state in enumerate(ct.states):
        for action in ct.actions(state):
            dt.add_action(state, action, uni.transition[(i, action)],
                          uni.step_cost[(i, action)])
    return dt, uni.rate


class TestUniformizedIdentity:
    """A DT chain with matrix P is the CT chain with generator P - I, so
    policy iteration on the uniformized DTMDP solves the CTMDP."""

    @pytest.mark.parametrize("capacity, weight, transfer", [
        (5, 1.0, True),    # the paper SYS, 23 states
        (8, 0.3, False),   # the lumped model, 27 states
    ])
    def test_pi_on_uniformized_chain_solves_ctmdp(self, capacity, weight,
                                                  transfer):
        ct = paper_system(capacity=capacity,
                          include_transfer_states=transfer).build_ctmdp(weight)
        dt, lam = uniformized_dtmdp(ct)
        ct_result = policy_iteration(ct)
        dt_result = policy_iteration(dt)
        assert dt_result.policy.as_dict() == ct_result.policy.as_dict()
        assert lam * dt_result.gain == pytest.approx(ct_result.gain, rel=1e-10)
