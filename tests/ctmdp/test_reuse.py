"""Seeded sparse policy iteration returns exactly what a cold solve does.

Every sparse round, seeded or cold, evaluates its policy with one fresh
SuperLU factorization, so a seed changes the improvement path and the
round count but never the converged policy's values (DESIGN §12).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.policy import Policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.presets import paper_system


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("capacity,weight", [(40, 0.5), (75, 1.0)])
    def test_sparse_pi_reuse_is_bit_identical(self, capacity, weight):
        mdp = paper_system(capacity=capacity).build_ctmdp(
            weight=weight, backend="sparse"
        )
        # Last-listed action everywhere: a different path than cold.
        seed = Policy.from_actions(mdp, [acts[-1] for acts in mdp.actions])
        cold = policy_iteration(mdp)
        warm = policy_iteration(mdp, initial_policy=seed)
        assert seed.as_dict() != cold.policy.as_dict()
        assert warm.policy.as_dict() == cold.policy.as_dict()
        assert warm.gain == cold.gain
        np.testing.assert_array_equal(warm.bias, cold.bias)
        np.testing.assert_array_equal(warm.stationary, cold.stationary)

    def test_seeded_start_converges_to_same_fixed_point(self):
        mdp = paper_system(capacity=40).build_ctmdp(
            weight=1.0, backend="sparse"
        )
        cold = policy_iteration(mdp)
        seeded = policy_iteration(mdp, initial_policy=cold.policy)
        assert seeded.policy.as_dict() == cold.policy.as_dict()
        assert seeded.gain == cold.gain
        np.testing.assert_array_equal(seeded.bias, cold.bias)
        # Starting at the fixed point converges in one no-change round.
        assert seeded.iterations == 1
