"""Equivalence suite: compiled solver backends vs the reference path.

The compiled lowering (:mod:`repro.ctmdp.compiled`) is a pure
performance layer -- every solver result must match the dict-based
reference path exactly (policies, gains, biases, stationary vectors,
iteration counts), with value iteration allowed floating-point roundoff
on values only (dgemv vs per-row ddot accumulate in different orders).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctmdp.compiled import CompiledCTMDP, compile_ctmdp
from repro.ctmdp.discounted import discounted_policy_iteration
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm.presets import (
    disk_drive_provider,
    paper_system,
    wireless_nic_provider,
)
from repro.dpm.service_requestor import ServiceRequestor
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import InvalidPolicyError, SolverError


def preset_mdps():
    """One CTMDP per preset system model (ids for parametrize)."""
    return [
        ("paper-w1", paper_system().build_ctmdp(weight=1.0)),
        ("paper-w0", paper_system().build_ctmdp(weight=0.0)),
        (
            "paper-no-transfer",
            paper_system(include_transfer_states=False).build_ctmdp(weight=0.5),
        ),
        (
            "disk-drive",
            PowerManagedSystemModel(
                disk_drive_provider(), ServiceRequestor(0.25), capacity=3
            ).build_ctmdp(weight=1.0),
        ),
        (
            "wireless-nic",
            PowerManagedSystemModel(
                wireless_nic_provider(), ServiceRequestor(10.0), capacity=3
            ).build_ctmdp(weight=2.0),
        ),
    ]


PRESETS = preset_mdps()
PRESET_IDS = [name for name, _ in PRESETS]
PRESET_MDPS = [mdp for _, mdp in PRESETS]


def random_mdp(seed: int, n_states: int, n_actions: int) -> CTMDP:
    """Dense random unichain CTMDP with impulse and extra costs."""
    rng = np.random.default_rng(seed)
    mdp = CTMDP(list(range(n_states)))
    for s in range(n_states):
        for a in range(n_actions):
            rates = rng.uniform(0.05, 3.0, size=n_states)
            rates[s] = 0.0
            impulses = rng.uniform(0.0, 2.0, size=n_states)
            mdp.add_action(
                s,
                a,
                rates=rates,
                cost_rate=float(rng.uniform(-5, 10)),
                impulse_costs=impulses if a % 2 == 0 else None,
                extra_costs={"power": float(rng.uniform(0, 4))},
            )
    return mdp


@pytest.mark.parametrize("mdp", PRESET_MDPS, ids=PRESET_IDS)
class TestBackendEquivalence:
    def test_policy_iteration_identical(self, mdp):
        ref = policy_iteration(mdp, backend="reference")
        cmp_ = policy_iteration(mdp, backend="compiled")
        assert cmp_.policy.as_dict() == ref.policy.as_dict()
        assert cmp_.gain == ref.gain
        assert np.array_equal(cmp_.bias, ref.bias)
        assert np.array_equal(cmp_.stationary, ref.stationary)
        assert cmp_.iterations == ref.iterations
        assert cmp_.gain_history == ref.gain_history

    def test_discounted_identical(self, mdp):
        ref = discounted_policy_iteration(mdp, discount=0.1, backend="reference")
        cmp_ = discounted_policy_iteration(mdp, discount=0.1, backend="compiled")
        assert cmp_.policy.as_dict() == ref.policy.as_dict()
        assert np.array_equal(cmp_.values, ref.values)
        assert cmp_.iterations == ref.iterations

    def test_evaluate_policy_identical(self, mdp):
        policy = Policy(mdp, {s: mdp.actions(s)[0] for s in mdp.states})
        ref = evaluate_policy(policy, backend="reference")
        cmp_ = evaluate_policy(policy, backend="compiled")
        assert cmp_.gain == ref.gain
        assert np.array_equal(cmp_.bias, ref.bias)
        assert np.array_equal(cmp_.stationary, ref.stationary)


# The default paper model's stiff self-switch rate makes plain value
# iteration converge too slowly for a tight span; use the soft-rate
# variant the reference VI tests use, plus the non-paper presets.
VI_PRESETS = [
    ("paper-soft", paper_system(self_switch_rate=50.0).build_ctmdp(weight=1.0)),
    PRESETS[2],
    PRESETS[3],
    PRESETS[4],
]


@pytest.mark.parametrize(
    "mdp", [m for _, m in VI_PRESETS], ids=[n for n, _ in VI_PRESETS]
)
class TestValueIterationEquivalence:
    def test_value_iteration_agrees(self, mdp):
        # One matrix-vector product per sweep accumulates in a different
        # order than the per-row reference dots, so values may differ in
        # the last bits; the greedy policy and sweep count must agree
        # exactly and the gain to tight relative tolerance.
        ref = relative_value_iteration(mdp, span_tolerance=1e-8, backend="reference")
        cmp_ = relative_value_iteration(mdp, span_tolerance=1e-8, backend="compiled")
        assert cmp_.policy.as_dict() == ref.policy.as_dict()
        assert cmp_.iterations == ref.iterations
        assert cmp_.gain == pytest.approx(ref.gain, rel=1e-9, abs=1e-12)
        assert cmp_.values == pytest.approx(ref.values, rel=1e-9, abs=1e-9)


class TestRandomizedEquivalence:
    @given(
        params=st.tuples(
            st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 4)
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_policy_iteration_identical_on_random_models(self, params):
        seed, n_states, n_actions = params
        mdp = random_mdp(seed, n_states, n_actions)
        ref = policy_iteration(mdp, backend="reference")
        cmp_ = policy_iteration(mdp, backend="compiled")
        assert cmp_.policy.as_dict() == ref.policy.as_dict()
        assert cmp_.gain == ref.gain
        assert np.array_equal(cmp_.bias, ref.bias)
        assert np.array_equal(cmp_.stationary, ref.stationary)
        assert cmp_.gain_history == ref.gain_history

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_initial_policy_respected(self, seed):
        mdp = random_mdp(seed, 4, 3)
        rng = np.random.default_rng(seed + 7)
        initial = Policy(
            mdp,
            {
                s: mdp.actions(s)[rng.integers(len(mdp.actions(s)))]
                for s in mdp.states
            },
        )
        ref = policy_iteration(mdp, initial_policy=initial, backend="reference")
        cmp_ = policy_iteration(mdp, initial_policy=initial, backend="compiled")
        assert cmp_.policy.as_dict() == ref.policy.as_dict()
        assert cmp_.gain_history == ref.gain_history


class TestCompiledStructure:
    @pytest.fixture(scope="class")
    def mdp(self):
        return paper_system().build_ctmdp(weight=1.0)

    @pytest.fixture(scope="class")
    def comp(self, mdp):
        return compile_ctmdp(mdp)

    def test_compile_is_cached_on_the_model(self, mdp, comp):
        assert compile_ctmdp(mdp) is comp

    def test_arrays_match_reference_accessors(self, mdp, comp):
        for p, (state, action) in enumerate(mdp.state_action_pairs()):
            assert comp.states[comp.pair_state[p]] == state
            assert np.array_equal(
                comp.generator[p], mdp.generator_row(state, action)
            )
            assert comp.cost[p] == mdp.cost(state, action)
            for name, channel in comp.extra.items():
                assert channel[p] == mdp.extra_cost(state, action, name)
        assert comp.max_exit_rate() == mdp.max_exit_rate()

    def test_arrays_are_read_only(self, comp):
        for array in (comp.generator, comp.cost, comp.pair_state, comp.pad_index):
            with pytest.raises(ValueError):
                array[tuple(0 for _ in array.shape)] = 1.0

    def test_policy_rows_roundtrip(self, mdp, comp):
        assignment = {s: mdp.actions(s)[-1] for s in mdp.states}
        sel = comp.policy_rows(assignment)
        assert comp.assignment_from_rows(sel) == assignment

    def test_policy_rows_rejects_unknown_action(self, comp):
        assignment = {s: "no-such-mode" for s in comp.states}
        with pytest.raises(InvalidPolicyError):
            comp.policy_rows(assignment)

    @pytest.fixture(scope="class", params=["compiled", "sparse"])
    def lowering(self, request, mdp, comp):
        from repro.ctmdp.sparse import compile_sparse_ctmdp

        return comp if request.param == "compiled" else compile_sparse_ctmdp(mdp)

    @pytest.mark.parametrize("index", [-1, -23, 23, 10_000])
    def test_pair_rejects_state_index_out_of_range(self, lowering, index):
        # A negative index must not wrap around to the last states.
        with pytest.raises(InvalidPolicyError, match="out of range"):
            lowering.pair(index, "active")

    def test_pair_rejects_unknown_action(self, lowering):
        with pytest.raises(InvalidPolicyError, match="not available"):
            lowering.pair(0, "no-such-mode")

    def test_add_action_invalidates_compiled_cache(self):
        mdp = random_mdp(3, 3, 2)
        first = compile_ctmdp(mdp)
        rates = np.array([1.0, 1.0, 0.0])
        mdp.add_action(2, "late", rates=rates, cost_rate=1.0)
        second = compile_ctmdp(mdp)
        assert second is not first
        assert second.n_pairs == first.n_pairs + 1


class TestSweepSemantics:
    def test_improve_applies_incumbent_atol_rule(self):
        # State 0: action b is better than incumbent a by less than atol
        # -> incumbent retained. State 1: clear winner -> displaced.
        mdp = CTMDP([0, 1])
        mdp.add_action(0, "a", rates=np.array([0.0, 1.0]), cost_rate=1.0)
        mdp.add_action(0, "b", rates=np.array([0.0, 1.0]), cost_rate=1.0)
        mdp.add_action(1, "a", rates=np.array([1.0, 0.0]), cost_rate=5.0)
        mdp.add_action(1, "b", rates=np.array([1.0, 0.0]), cost_rate=0.0)
        comp = compile_ctmdp(mdp)
        sel = comp.pair_offset[:-1].copy()
        values = comp.cost.copy()
        values[1] = values[0] - 1e-12  # state 0 action b: within atol
        new_sel, changed = comp.improve(values, sel, atol=1e-9)
        assert changed
        assert comp.assignment_from_rows(new_sel) == {0: "a", 1: "b"}

    def test_greedy_first_wins_on_ties(self):
        mdp = CTMDP([0])
        mdp.add_action(0, "a", rates=np.zeros(1), cost_rate=2.0)
        mdp.add_action(0, "b", rates=np.zeros(1), cost_rate=2.0)
        comp = compile_ctmdp(mdp)
        values = np.array([1.5, 1.5])
        best_val, best_col = comp.greedy(values)
        assert best_val[0] == 1.5
        assert best_col[0] == 0  # insertion order wins exact ties

    def test_unknown_backend_rejected(self):
        mdp = random_mdp(0, 2, 2)
        with pytest.raises(SolverError):
            policy_iteration(mdp, backend="numba")
        with pytest.raises(SolverError):
            relative_value_iteration(mdp, backend="numba")
        with pytest.raises(SolverError):
            discounted_policy_iteration(mdp, 0.1, backend="numba")


class TestGeneratorRowCache:
    def test_row_is_cached_and_write_protected(self):
        mdp = random_mdp(11, 3, 2)
        row = mdp.generator_row(0, 0)
        assert mdp.generator_row(0, 0) is row  # cached, not rebuilt
        with pytest.raises(ValueError):
            row[0] = 123.0  # read-only: silent mutation would poison the cache
        assert row[0] == -row[1:].sum() or np.isclose(row.sum(), 0.0)

    def test_cached_row_survives_caller_copy_mutation(self):
        mdp = random_mdp(12, 3, 2)
        row = mdp.generator_row(1, 0)
        mutable = row.copy()
        mutable[0] = 1e9
        assert np.array_equal(mdp.generator_row(1, 0), row)

    def test_row_cache_not_pickled(self):
        import pickle

        mdp = random_mdp(13, 3, 2)
        mdp.generator_row(0, 0)
        compile_ctmdp(mdp)
        clone = pickle.loads(pickle.dumps(mdp))
        assert clone._row_cache == {}
        assert clone._compiled is None
        assert np.array_equal(
            clone.generator_row(0, 0), mdp.generator_row(0, 0)
        )
