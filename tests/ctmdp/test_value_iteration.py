"""Tests for relative value iteration (and agreement with PI)."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.uniformization import APERIODICITY_SLACK
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.errors import SolverError


def random_unichain_mdp(seed: int, n_states: int = 5, n_actions: int = 3) -> CTMDP:
    rng = np.random.default_rng(seed)
    mdp = CTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            rates = rng.uniform(0.1, 2.0, size=n_states)
            rates[s] = 0.0
            mdp.add_action(s, a, rates=rates, cost_rate=float(rng.uniform(0, 10)))
    return mdp


class TestRelativeValueIteration:
    def test_gain_matches_policy_iteration(self):
        for seed in range(6):
            mdp = random_unichain_mdp(seed)
            vi = relative_value_iteration(mdp, span_tolerance=1e-12)
            pi = policy_iteration(mdp)
            assert vi.gain == pytest.approx(pi.gain, abs=1e-8), f"seed {seed}"

    def test_policy_matches_policy_iteration_gain(self):
        # The greedy VI policy, evaluated exactly, achieves the optimal gain
        # (the policies themselves may differ at ties).
        from repro.ctmdp.policy import evaluate_policy

        for seed in range(6):
            mdp = random_unichain_mdp(seed + 100)
            vi = relative_value_iteration(mdp, span_tolerance=1e-12)
            pi = policy_iteration(mdp)
            assert evaluate_policy(vi.policy).gain == pytest.approx(
                pi.gain, abs=1e-8
            )

    def test_span_history_decreases_overall(self):
        mdp = random_unichain_mdp(2)
        vi = relative_value_iteration(mdp)
        assert vi.span_history[-1] < vi.span_history[0]

    def test_values_normalized(self):
        mdp = random_unichain_mdp(5)
        vi = relative_value_iteration(mdp)
        assert vi.values[0] == pytest.approx(0.0)

    def test_max_iterations_raises(self):
        mdp = random_unichain_mdp(1)
        with pytest.raises(SolverError, match="did not reach"):
            relative_value_iteration(mdp, span_tolerance=1e-15, max_iterations=2)

    def test_explicit_uniformization_rate(self):
        mdp = random_unichain_mdp(9)
        vi = relative_value_iteration(mdp, uniformization_rate=100.0)
        pi = policy_iteration(mdp)
        assert vi.gain == pytest.approx(pi.gain, abs=1e-7)

    def test_paper_model_agrees_with_pi(self):
        # The default self-switch stand-in rate (1e4) makes the
        # uniformized chain too stiff for value iteration (the solver
        # ablation bench quantifies this); a softer stand-in keeps VI
        # practical while policy iteration is unaffected by stiffness.
        from repro.dpm.presets import paper_system

        model = paper_system(self_switch_rate=50.0)
        mdp = model.build_ctmdp(weight=1.0)
        vi = relative_value_iteration(mdp, span_tolerance=1e-9)
        pi = policy_iteration(mdp)
        assert vi.gain == pytest.approx(pi.gain, rel=1e-5)


class TestKronBackup:
    def test_exact_ties_go_to_the_first_action(self):
        # Two identical actions under distinct labels: the strict
        # first-wins argmin keeps the first in global order in every
        # state.
        one = kron_farm_model(2, 3, speeds=(1.0,), powers=(1.0,))
        kmdp = KroneckerCTMDP(
            one.factor_states, ("first", "second"), one.generators * 2,
            np.vstack([one.costs, one.costs]),
        )
        vi = relative_value_iteration(kmdp, span_tolerance=1e-9)
        assert not kmdp.selection(vi.policy).any()
        assert set(vi.policy.actions) == {"first"}

    def test_steady_state_backups_allocate_no_n_vector(self):
        # The matrix-free backup writes into buffers allocated once per
        # solve, so after a warm-up sweep five more (renormalized in
        # place, as the loop does) allocate less than one n-vector.
        kmdp = kron_farm_model(4, 9)  # 10^4 states
        n = kmdp.n_states
        backup = kmdp.uniformized_backup(
            APERIODICITY_SLACK * kmdp.max_exit_rate()
        )
        w = np.zeros(n)

        def sweep():
            new_w, _ = backup(w)
            np.subtract(new_w, new_w[0], out=w)

        sweep()
        tracemalloc.start()
        try:
            for _ in range(5):
                sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n
