"""Tests for Policy, RandomizedPolicy and exact policy evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, RandomizedPolicy, evaluate_policy
from repro.errors import InvalidPolicyError


@pytest.fixture
def power_mdp() -> CTMDP:
    """On/off server: off saves power but a wake costs energy."""
    mdp = CTMDP(["up", "down"])
    mdp.add_action("up", "stay", rates=[0.0, 0.0], cost_rate=10.0)
    mdp.add_action("up", "sleep", rates=[0.0, 4.0], cost_rate=10.0,
                   impulse_costs=[0.0, 2.0])
    mdp.add_action("down", "stay", rates=[0.0, 0.0], cost_rate=1.0)
    mdp.add_action("down", "wake", rates=[5.0, 0.0], cost_rate=1.0,
                   impulse_costs=[3.0, 0.0])
    return mdp


@pytest.fixture
def cycling_policy(power_mdp) -> Policy:
    return Policy(power_mdp, {"up": "sleep", "down": "wake"})


class TestPolicy:
    def test_missing_state_rejected(self, power_mdp):
        with pytest.raises(InvalidPolicyError, match="misses"):
            Policy(power_mdp, {"up": "stay"})

    def test_unknown_state_rejected(self, power_mdp):
        with pytest.raises(InvalidPolicyError, match="unknown"):
            Policy(power_mdp, {"up": "stay", "down": "stay", "ghost": "stay"})

    def test_unavailable_action_rejected(self, power_mdp):
        with pytest.raises(InvalidPolicyError, match="not available"):
            Policy(power_mdp, {"up": "wake", "down": "stay"})

    def test_generator_matrix(self, cycling_policy):
        np.testing.assert_allclose(
            cycling_policy.generator_matrix(), [[-4.0, 4.0], [5.0, -5.0]]
        )

    def test_cost_vector_includes_impulses(self, cycling_policy):
        np.testing.assert_allclose(cycling_policy.cost_vector(), [18.0, 16.0])

    def test_induced_chain_stationary(self, cycling_policy):
        chain = cycling_policy.induced_chain()
        probs = chain.stationary_probabilities()
        assert probs["up"] == pytest.approx(5.0 / 9.0)

    def test_equality_and_dict(self, power_mdp, cycling_policy):
        same = Policy(power_mdp, {"up": "sleep", "down": "wake"})
        other = Policy(power_mdp, {"up": "stay", "down": "wake"})
        assert cycling_policy == same
        assert cycling_policy != other
        assert cycling_policy.as_dict() == {"up": "sleep", "down": "wake"}


class TestRandomizedPolicy:
    def test_mixture_generator(self, power_mdp):
        rp = RandomizedPolicy(
            power_mdp,
            {"up": {"stay": 0.5, "sleep": 0.5}, "down": {"wake": 1.0}},
        )
        np.testing.assert_allclose(
            rp.generator_matrix(), [[-2.0, 2.0], [5.0, -5.0]]
        )

    def test_mixture_cost(self, power_mdp):
        rp = RandomizedPolicy(
            power_mdp,
            {"up": {"stay": 0.5, "sleep": 0.5}, "down": {"wake": 1.0}},
        )
        np.testing.assert_allclose(rp.cost_vector(), [14.0, 16.0])

    def test_probabilities_must_normalize(self, power_mdp):
        with pytest.raises(InvalidPolicyError, match="sum to"):
            RandomizedPolicy(
                power_mdp, {"up": {"stay": 0.6}, "down": {"wake": 1.0}}
            )

    def test_unavailable_action_rejected(self, power_mdp):
        with pytest.raises(InvalidPolicyError, match="not available"):
            RandomizedPolicy(
                power_mdp, {"up": {"wake": 1.0}, "down": {"wake": 1.0}}
            )

    def test_deterministic_rounding(self, power_mdp):
        rp = RandomizedPolicy(
            power_mdp,
            {"up": {"stay": 0.2, "sleep": 0.8}, "down": {"wake": 1.0}},
        )
        assert rp.deterministic_rounding().as_dict() == {
            "up": "sleep",
            "down": "wake",
        }

    def test_sample_action_distribution(self, power_mdp):
        rp = RandomizedPolicy(
            power_mdp,
            {"up": {"stay": 0.3, "sleep": 0.7}, "down": {"wake": 1.0}},
        )
        rng = np.random.default_rng(0)
        draws = [rp.sample_action("up", rng) for _ in range(4000)]
        frac = draws.count("sleep") / len(draws)
        assert frac == pytest.approx(0.7, abs=0.03)


class TestEvaluatePolicy:
    def test_gain_equals_stationary_cost(self, cycling_policy):
        ev = evaluate_policy(cycling_policy)
        expected = float(ev.stationary @ cycling_policy.cost_vector())
        assert ev.gain == pytest.approx(expected)

    def test_bias_reference_is_zero(self, cycling_policy):
        ev = evaluate_policy(cycling_policy, reference_state=0)
        assert ev.bias[0] == pytest.approx(0.0)
        ev1 = evaluate_policy(cycling_policy, reference_state=1)
        assert ev1.bias[1] == pytest.approx(0.0)

    def test_evaluation_equation_holds(self, cycling_policy):
        # c + G h = g 1.
        ev = evaluate_policy(cycling_policy)
        lhs = cycling_policy.cost_vector() + cycling_policy.generator_matrix() @ ev.bias
        np.testing.assert_allclose(lhs, ev.gain, atol=1e-10)

    def test_gain_reference_independent(self, cycling_policy):
        g0 = evaluate_policy(cycling_policy, reference_state=0).gain
        g1 = evaluate_policy(cycling_policy, reference_state=1).gain
        assert g0 == pytest.approx(g1)

    def test_unichain_with_transient_state(self):
        # "trap" drains into the recurrent pair; evaluation still works.
        mdp = CTMDP(["a", "b", "trap"])
        mdp.add_action("a", "go", rates=[0.0, 1.0, 0.0], cost_rate=2.0)
        mdp.add_action("b", "go", rates=[1.0, 0.0, 0.0], cost_rate=4.0)
        mdp.add_action("trap", "leave", rates=[1.0, 0.0, 0.0], cost_rate=100.0)
        policy = Policy(mdp, {"a": "go", "b": "go", "trap": "leave"})
        ev = evaluate_policy(policy)
        assert ev.gain == pytest.approx(3.0)
        assert ev.stationary[2] == pytest.approx(0.0, abs=1e-12)
