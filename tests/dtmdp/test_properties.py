"""Property-based tests (hypothesis) for the DTMDP substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmdp.linear_program import solve_average_cost_lp
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dtmdp.model import DTMDP


def random_dtmdp(seed: int, n_states: int, n_actions: int) -> DTMDP:
    rng = np.random.default_rng(seed)
    mdp = DTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            row = rng.uniform(0.05, 1.0, n_states)
            row /= row.sum()
            mdp.add_action(s, a, row, cost=float(rng.uniform(-5, 10)))
    return mdp


params = st.tuples(
    st.integers(0, 10_000), st.integers(2, 5), st.integers(1, 4)
)


class TestDTMDPProperties:
    @given(p=params)
    @settings(max_examples=20, deadline=None)
    def test_optimal_lower_bounds_random_policies(self, p):
        seed, n_states, n_actions = p
        mdp = random_dtmdp(seed, n_states, n_actions)
        optimal = policy_iteration(mdp)
        rng = np.random.default_rng(seed + 1)
        for _ in range(4):
            assignment = {
                s: mdp.actions(s)[rng.integers(len(mdp.actions(s)))]
                for s in mdp.states
            }
            assert optimal.gain <= evaluate_policy(Policy(mdp, assignment)).gain + 1e-8

    @given(p=params)
    @settings(max_examples=15, deadline=None)
    def test_lp_agrees_with_pi(self, p):
        seed, n_states, n_actions = p
        mdp = random_dtmdp(seed, n_states, n_actions)
        assert solve_average_cost_lp(mdp).gain == pytest.approx(
            policy_iteration(mdp).gain, abs=1e-6
        )

    @given(p=params, shift=st.floats(-5.0, 5.0))
    @settings(max_examples=15, deadline=None)
    def test_cost_shift_shifts_gain(self, p, shift):
        seed, n_states, n_actions = p
        base = random_dtmdp(seed, n_states, n_actions)
        shifted = DTMDP(list(base.states))
        for s in base.states:
            for a in base.actions(s):
                shifted.add_action(
                    s, a, base.transition_row(s, a), base.cost(s, a) + shift
                )
        assert policy_iteration(shifted).gain == pytest.approx(
            policy_iteration(base).gain + shift, abs=1e-8
        )

    @given(p=params)
    @settings(max_examples=15, deadline=None)
    def test_stationary_distribution_valid(self, p):
        seed, n_states, n_actions = p
        mdp = random_dtmdp(seed, n_states, n_actions)
        result = policy_iteration(mdp)
        assert result.stationary.sum() == pytest.approx(1.0)
        assert np.all(result.stationary >= -1e-12)
        pi = result.stationary
        pmat = mdp.policy_matrix(result.policy.as_dict())
        np.testing.assert_allclose(pi @ pmat, pi, atol=1e-9)
