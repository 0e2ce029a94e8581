"""Tests for first-passage times and hitting probabilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverError
from repro.markov.passage import (
    hitting_probabilities,
    mean_first_passage_matrix,
    mean_first_passage_times,
)


class TestMeanFirstPassage:
    def test_two_state_closed_form(self, two_state_generator):
        # From 0 to 1: exit rate toward 1 is 2 => mean 1/2. And back: 1/3.
        m = mean_first_passage_times(two_state_generator, [1])
        np.testing.assert_allclose(m, [0.5, 0.0])
        m = mean_first_passage_times(two_state_generator, [0])
        np.testing.assert_allclose(m, [0.0, 1.0 / 3.0])

    def test_cycle_passage_adds_holding_times(self, three_state_cycle):
        # 0 -> 1 -> 2 with unit rates: from 0 to 2 takes 2 on average.
        m = mean_first_passage_times(three_state_cycle, [2])
        np.testing.assert_allclose(m, [2.0, 1.0, 0.0])

    def test_multiple_targets_take_nearest(self, three_state_cycle):
        m = mean_first_passage_times(three_state_cycle, [1, 2])
        np.testing.assert_allclose(m, [1.0, 0.0, 0.0])

    def test_unreachable_target_is_infinite(self, absorbing_generator):
        # From the absorbing state 1, state 0 is never reached.
        m = mean_first_passage_times(absorbing_generator, [0])
        assert m[0] == 0.0
        assert np.isinf(m[1])

    def test_target_reached_with_probability_below_one_is_infinite(self):
        # From 0 the chain enters the target 1 or the trap 2, each with
        # probability 1/2, so its mean time to reach 1 is infinite.
        g = np.array([[-2.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        assert hitting_probabilities(g, goal=[1], avoid=[2])[0] == 0.5
        m = mean_first_passage_times(g, [1])
        assert m[1] == 0.0
        assert np.isinf(m[0]) and np.isinf(m[2])
        assert np.isinf(mean_first_passage_matrix(g)[0, 1])

    def test_validation(self, two_state_generator):
        with pytest.raises(SolverError):
            mean_first_passage_times(two_state_generator, [])
        with pytest.raises(SolverError):
            mean_first_passage_times(two_state_generator, [5])

    def test_matches_simulation(self, two_state_generator):
        from repro.markov.sampling import TrajectorySampler

        sampler = TrajectorySampler(two_state_generator, np.random.default_rng(0))
        samples = []
        for _ in range(3000):
            path = sampler.sample(0, 100.0)
            hits = [t for s, t in zip(path.states, path.times) if s == 1]
            if hits:
                samples.append(hits[0])
        expected = mean_first_passage_times(two_state_generator, [1])[0]
        assert np.mean(samples) == pytest.approx(expected, rel=0.05)


class TestMeanFirstPassageMatrix:
    def test_diagonal_zero_and_consistency(self, two_state_generator):
        mat = mean_first_passage_matrix(two_state_generator)
        np.testing.assert_allclose(np.diag(mat), 0.0)
        assert mat[0, 1] == pytest.approx(0.5)
        assert mat[1, 0] == pytest.approx(1.0 / 3.0)


class TestHittingProbabilities:
    def test_competing_absorption(self):
        # 1 <- 0 -> 2 with rates 1 and 3: P(hit 2 first) = 3/4 from 0.
        g = np.array(
            [
                [-4.0, 1.0, 3.0],
                [0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
            ]
        )
        h = hitting_probabilities(g, goal=[2], avoid=[1])
        np.testing.assert_allclose(h, [0.75, 0.0, 1.0])

    def test_goal_certain_without_avoid_states_in_path(self, three_state_cycle):
        h = hitting_probabilities(three_state_cycle, goal=[2], avoid=[])
        np.testing.assert_allclose(h, [1.0, 1.0, 1.0])

    def test_validation(self, two_state_generator):
        with pytest.raises(SolverError):
            hitting_probabilities(two_state_generator, goal=[], avoid=[0])
        with pytest.raises(SolverError):
            hitting_probabilities(two_state_generator, goal=[0], avoid=[0])


class TestDPMUsage:
    def test_wakeup_latency_of_paper_policy(self, paper_model, paper_mdp):
        # Expected time from (sleeping, q1) until the SP first serves
        # (reaches an active-mode state) under the optimal policy.
        from repro.ctmdp.policy_iteration import policy_iteration
        from repro.dpm.service_queue import stable
        from repro.dpm.system import SystemState

        policy = policy_iteration(paper_mdp).policy
        g = policy.generator_matrix()
        active_states = [
            k
            for k, x in enumerate(paper_model.states)
            if paper_model.provider.is_active(x.mode)
        ]
        m = mean_first_passage_times(g, active_states)
        start = paper_model.index_of(SystemState("sleeping", stable(1)))
        # Waking from sleep takes 1.1 s on average; under the optimal
        # policy the passage time from (sleeping, q1) is at least that
        # (it may linger asleep first) and finite.
        assert m[start] >= 1.1 - 1e-9
        assert np.isfinite(m[start])