"""Tests for average-cost policy iteration."""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

import repro.ctmdp.kron as kron_mod
from repro.ctmdp.compiled import PairIndexedCTMDP
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.errors import SolverError

# The package re-exports the function under the submodule's name.
pi_mod = sys.modules["repro.ctmdp.policy_iteration"]


def brute_force_optimal_gain(mdp: CTMDP) -> float:
    """Enumerate every deterministic policy and evaluate exactly."""
    states = mdp.states
    best = np.inf
    for actions in itertools.product(*(mdp.actions(s) for s in states)):
        policy = Policy(mdp, dict(zip(states, actions)))
        try:
            gain = evaluate_policy(policy).gain
        except Exception:
            continue  # multichain combination; PI never visits these here
        best = min(best, gain)
    return best


@pytest.fixture
def power_mdp() -> CTMDP:
    """On/off server whose every deterministic policy is unichain.

    'up' decays spontaneously (rate 0.5) even under 'stay', so no
    action combination produces two disjoint recurrent classes.
    """
    mdp = CTMDP(["up", "down"])
    mdp.add_action("up", "stay", rates=[0.0, 0.5], cost_rate=10.0)
    mdp.add_action("up", "sleep", rates=[0.0, 4.0], cost_rate=10.0,
                   impulse_costs=[0.0, 2.0])
    mdp.add_action("down", "stay", rates=[0.0, 0.0], cost_rate=1.0)
    mdp.add_action("down", "wake", rates=[5.0, 0.0], cost_rate=1.0,
                   impulse_costs=[3.0, 0.0])
    return mdp


def random_unichain_mdp(seed: int, n_states: int = 5, n_actions: int = 3) -> CTMDP:
    """A dense random CTMDP; dense positive rates keep it unichain."""
    rng = np.random.default_rng(seed)
    mdp = CTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            rates = rng.uniform(0.1, 2.0, size=n_states)
            rates[s] = 0.0
            mdp.add_action(s, a, rates=rates, cost_rate=float(rng.uniform(0, 10)))
    return mdp


class TestPolicyIteration:
    def test_prefers_cheap_state(self, power_mdp):
        # Staying down forever costs 1/s, the global optimum here
        # (waking costs both power and impulses).
        result = policy_iteration(power_mdp)
        assert result.gain == pytest.approx(
            brute_force_optimal_gain(power_mdp)
        )

    def test_matches_brute_force_on_random_models(self):
        for seed in range(8):
            mdp = random_unichain_mdp(seed)
            result = policy_iteration(mdp)
            assert result.gain == pytest.approx(
                brute_force_optimal_gain(mdp), abs=1e-9
            ), f"seed {seed}"

    def test_gain_history_non_increasing(self):
        mdp = random_unichain_mdp(42, n_states=6, n_actions=4)
        result = policy_iteration(mdp)
        for earlier, later in zip(result.gain_history, result.gain_history[1:]):
            assert later <= earlier + 1e-9

    def test_converges_in_few_iterations(self):
        mdp = random_unichain_mdp(7)
        result = policy_iteration(mdp)
        assert result.iterations <= 10

    def test_initial_policy_respected_but_still_optimal(self, power_mdp):
        bad_start = Policy(power_mdp, {"up": "stay", "down": "wake"})
        result = policy_iteration(power_mdp, initial_policy=bad_start)
        assert result.gain == pytest.approx(1.0)

    def test_optimal_policy_is_fixed_point(self):
        mdp = random_unichain_mdp(3)
        first = policy_iteration(mdp)
        again = policy_iteration(mdp, initial_policy=first.policy)
        assert again.iterations == 1
        assert again.policy == first.policy

    def test_stationary_returned(self, power_mdp):
        result = policy_iteration(power_mdp)
        assert result.stationary.sum() == pytest.approx(1.0)

    def test_paper_model_solves(self, paper_mdp):
        result = policy_iteration(paper_mdp)
        assert result.iterations <= 20
        assert 0.0 < result.gain < 50.0


#: The class whose ``improve`` sweep each array tier runs.
LOWERING_CLASS = {
    "compiled": PairIndexedCTMDP,
    "sparse": PairIndexedCTMDP,
    "kron": KroneckerCTMDP,
}


def on_tier(mdp: CTMDP, backend: str):
    """*mdp* as the model *backend* runs: Kronecker-wrapped for kron."""
    return KroneckerCTMDP.from_ctmdp(mdp) if backend == "kron" else mdp


def force_cycle(monkeypatch, backend: str) -> None:
    """The first sweep improves as usual; the second returns to the
    initial selection, a revisit of iteration 0."""
    cls = LOWERING_CLASS[backend]
    improve = cls.improve
    sweeps = []

    def cycling(self, pair_values, sel, atol):
        sweeps.append(1)
        if len(sweeps) == 1:
            return improve(self, pair_values, sel, atol)
        return self.selection(), True

    monkeypatch.setattr(cls, "improve", cycling)


class TestCyclePayloadIsLazy:
    """The cycle detector renders the policy only when it raises."""

    @pytest.fixture
    def payload_calls(self, monkeypatch):
        calls = []
        original = pi_mod._policy_payload

        def counting(policy, limit=200):
            calls.append(len(policy.actions))
            return original(policy, limit)

        monkeypatch.setattr(pi_mod, "_policy_payload", counting)
        return calls

    @pytest.mark.parametrize("backend", ["compiled", "sparse", "kron"])
    def test_converging_run_never_renders_the_policy(
        self, paper_model, payload_calls, backend
    ):
        result = policy_iteration(
            on_tier(paper_model.build_ctmdp(weight=1.0), backend),
            backend=backend,
        )
        assert result.iterations > 1  # rounds with policy changes ran
        assert payload_calls == []

    @pytest.mark.parametrize("backend", ["compiled", "sparse", "kron"])
    def test_cycling_run_carries_the_policy(
        self, paper_model, payload_calls, monkeypatch, backend
    ):
        force_cycle(monkeypatch, backend)
        mdp = on_tier(paper_model.build_ctmdp(weight=1.0), backend)
        with pytest.raises(SolverError) as err:
            policy_iteration(mdp, backend=backend)
        diagnostics = err.value.diagnostics
        assert diagnostics["reason"] == "policy_cycle"
        assert diagnostics["first_seen"] == 0
        assert payload_calls == [mdp.n_states]
        assert len(diagnostics["policy"]) == mdp.n_states


class TestFailureDiagnostics:
    """Every array tier's typed failures carry the same payload."""

    KEYS = {"reason", "iteration", "backend", "gain_history", "policy"}

    @pytest.fixture(params=["compiled", "sparse", "kron"])
    def backend(self, request):
        return request.param

    def _solve_failing(self, mdp, backend, **kwargs):
        with pytest.raises(SolverError) as err:
            policy_iteration(mdp, backend=backend, **kwargs)
        diagnostics = err.value.diagnostics
        assert self.KEYS <= set(diagnostics)
        assert diagnostics["backend"] == backend
        return diagnostics

    def test_exhausted_run(self, paper_model, backend):
        mdp = on_tier(paper_model.build_ctmdp(weight=1.0), backend)
        diagnostics = self._solve_failing(mdp, backend, max_iterations=0)
        assert diagnostics["reason"] == "max_iterations_exhausted"
        assert diagnostics["iteration"] == 0
        assert len(diagnostics["gain_history"]) == 1
        assert len(diagnostics["policy"]) == mdp.n_states

    def test_cycling_run(self, paper_model, monkeypatch, backend):
        force_cycle(monkeypatch, backend)
        mdp = on_tier(paper_model.build_ctmdp(weight=1.0), backend)
        diagnostics = self._solve_failing(mdp, backend)
        assert diagnostics["reason"] == "policy_cycle"
        assert diagnostics["iteration"] == 2
        assert len(diagnostics["gain_history"]) == 2
        assert len(diagnostics["policy"]) == mdp.n_states

    @pytest.mark.parametrize("failure", ["exhausted", "cycle"])
    def test_kron_payload_past_label_limit(self, monkeypatch, failure):
        # Past LABEL_LIMIT the joint labels are never materialized; the
        # payload still names each state through state_label.
        monkeypatch.setattr(kron_mod, "LABEL_LIMIT", 4)
        kmdp = kron_farm_model(2, 3)  # 16 states
        kwargs = {}
        if failure == "cycle":
            force_cycle(monkeypatch, "kron")
        else:
            kwargs["max_iterations"] = 0
        diagnostics = self._solve_failing(kmdp, "kron", **kwargs)
        assert diagnostics["policy"][:2] == [
            [repr((0, 0)), repr(kmdp.action_set[0])],
            [repr((0, 1)), repr(kmdp.action_set[0])],
        ]
        assert len(diagnostics["policy"]) == kmdp.n_states
