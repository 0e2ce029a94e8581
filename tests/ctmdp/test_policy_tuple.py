"""One policy type on every tier: a policy is its actions in state order.

Each tier lowering turns a selection into a :class:`Policy` by gathering
the chosen action labels, and reads a policy back by position. These
tests pin the round trip, the mapping a policy presents, equality across
tiers, and the typed rejection of a policy on a model with other states
(``optimize_weighted`` turns that rejection of a warm-start seed into a
cold solve: ``tests/dpm/test_warm_sweeps.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.backends import lower
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.policy import Policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.presets import paper_system
from repro.errors import InvalidModelError, InvalidPolicyError


@pytest.fixture(scope="module")
def mdp():
    return paper_system(capacity=5).build_ctmdp(weight=1.0)


def last_action_selection(model) -> np.ndarray:
    """A selection other than the default: each state's last action."""
    if isinstance(model, KroneckerCTMDP):
        k = model.n_actions - 1 - np.argmax(model.available[::-1], axis=0)
        return k.astype(np.intp)
    return model.pair_offset[1:] - 1


def expected_mapping(model, sel) -> dict:
    """The ``state -> action`` table of *sel*, from the lowering's arrays."""
    if isinstance(model, KroneckerCTMDP):
        return {s: model.action_set[a] for s, a in zip(model.states, sel)}
    return {
        s: acts[int(col)]
        for s, acts, col in zip(model.states, model.actions, model.pair_col[sel])
    }


class TestRoundTrip:
    @pytest.mark.parametrize("tier", ["compiled", "sparse"])
    def test_pair_tiers(self, mdp, tier):
        model = lower(mdp, tier)
        sel = last_action_selection(model)
        policy = model.policy(mdp, sel)
        np.testing.assert_array_equal(model.selection(policy), sel)
        assert policy.as_dict() == expected_mapping(model, sel)
        assert policy.mdp is mdp

    def test_reference_policy_reads_back_on_every_lowering(self, mdp):
        # The validated constructor the reference loops use holds the
        # same tuple the lowerings gather.
        comp = lower(mdp, "compiled")
        sel = last_action_selection(comp)
        policy = Policy(mdp, expected_mapping(comp, sel))
        assert policy.actions == comp.policy(mdp, sel).actions
        for tier in ("compiled", "sparse"):
            np.testing.assert_array_equal(
                lower(mdp, tier).selection(policy), sel
            )

    @pytest.mark.parametrize("lift", [False, True])
    def test_kron(self, mdp, lift):
        kmdp = KroneckerCTMDP.from_ctmdp(mdp) if lift else kron_farm_model(3, 3)
        sel = last_action_selection(kmdp)
        policy = kmdp.policy(kmdp, sel)
        np.testing.assert_array_equal(kmdp.selection(policy), sel)
        assert policy.as_dict() == expected_mapping(kmdp, sel)

    def test_kron_lift_reads_a_dict_model_policy(self, mdp):
        kmdp = KroneckerCTMDP.from_ctmdp(mdp)
        comp = lower(mdp, "compiled")
        policy = comp.policy(mdp, last_action_selection(comp))
        assert kmdp.policy(kmdp, kmdp.selection(policy)) == policy

    @pytest.mark.parametrize("tier", ["compiled", "sparse", "kron"])
    def test_mutating_the_selection_leaves_the_policy(self, mdp, tier):
        model = KroneckerCTMDP.from_ctmdp(mdp) if tier == "kron" else lower(mdp, tier)
        sel = last_action_selection(model)
        policy = model.policy(mdp, sel)
        before = policy.actions
        sel[:] = model.selection()
        assert policy.actions == before
        assert not np.array_equal(model.selection(policy), sel)


class TestKronActionLabels:
    def test_duplicate_labels_are_rejected(self):
        # A label names one global action, so a selection and its
        # policy convert both ways without loss.
        with pytest.raises(InvalidModelError, match="duplicate action labels"):
            kron_farm_model(2, 3, speeds=(1.0, 1.0), powers=(1.0, 1.0))


class TestEqualityAcrossTiers:
    def test_optima_compare_and_hash_equal(self, mdp):
        optima = [
            policy_iteration(mdp, backend=tier).policy
            for tier in ("compiled", "sparse", "reference")
        ]
        optima.append(policy_iteration(KroneckerCTMDP.from_ctmdp(mdp)).policy)
        for policy in optima[1:]:
            assert policy == optima[0]
            assert hash(policy) == hash(optima[0])
        assert len(set(optima)) == 1

    def test_native_kron_and_densified_optima_agree(self):
        kmdp = kron_farm_model(3, 3)
        native = policy_iteration(kmdp).policy
        dense = policy_iteration(kmdp.to_ctmdp()).policy
        assert native == dense
        assert hash(native) == hash(dense)

    def test_other_states_compare_unequal(self):
        small = policy_iteration(paper_system(capacity=2).build_ctmdp(1.0))
        big = policy_iteration(paper_system(capacity=3).build_ctmdp(1.0))
        assert small.policy != big.policy


class TestOtherStates:
    @pytest.fixture
    def foreign(self):
        return policy_iteration(paper_system(capacity=2).build_ctmdp(1.0)).policy

    @pytest.mark.parametrize("tier", ["compiled", "sparse", "kron"])
    def test_selection_rejects(self, mdp, foreign, tier):
        model = KroneckerCTMDP.from_ctmdp(mdp) if tier == "kron" else lower(mdp, tier)
        with pytest.raises(InvalidPolicyError, match="misses state"):
            model.selection(foreign)

    def test_same_states_in_another_order_rebind_by_label(self, mdp):
        # A dict model listing the states backwards: its policy is read
        # through the mapping, never by position.
        from repro.ctmdp.model import CTMDP

        states = list(reversed(mdp.states))
        backwards = CTMDP(states)
        for s in states:
            for a in mdp.actions(s):
                d = mdp.data(s, a)
                rates = np.zeros(len(states))
                for j, v in zip(d.cols.tolist(), d.vals.tolist()):
                    rates[len(states) - 1 - j] = v
                backwards.add_action(s, a, rates=rates, cost_rate=d.cost_rate)
        comp = lower(mdp, "compiled")
        sel = last_action_selection(comp)
        policy = comp.policy(mdp, sel)
        rebound = Policy(backwards, policy.as_dict())
        np.testing.assert_array_equal(comp.selection(rebound), sel)
        kmdp = KroneckerCTMDP.from_ctmdp(mdp)
        np.testing.assert_array_equal(
            kmdp.selection(rebound), kmdp.selection(policy)
        )


class TestLabelsPastLimit:
    def test_equality_and_hash_build_no_joint_labels(self, monkeypatch):
        import repro.ctmdp.kron as kron_mod

        monkeypatch.setattr(kron_mod, "LABEL_LIMIT", 4)
        first = policy_iteration(kron_farm_model(2, 3)).policy
        second = policy_iteration(kron_farm_model(2, 3)).policy
        assert first.mdp is not second.mdp
        assert first == second
        assert hash(first) == hash(second)
        # Sixteen states on four binary axes: other labels, unequal.
        other = policy_iteration(kron_farm_model(4, 1)).policy
        assert other.mdp.n_states == first.mdp.n_states
        assert first != other
        assert first.mdp._states is None  # never materialized

    def test_failure_payload_holds_the_first_200_states(self):
        from repro.errors import SolverError

        mdp = paper_system(capacity=60).build_ctmdp(1.0)
        assert mdp.n_states > 200
        for tier in ("compiled", "sparse", "reference"):
            with pytest.raises(SolverError) as err:
                policy_iteration(mdp, backend=tier, max_iterations=0)
            payload = err.value.diagnostics["policy"]
            assert len(payload) == 200
            assert payload[0] == [repr(mdp.states[0]), repr(mdp.actions(mdp.states[0])[0])]


class TestKronLabelLookup:
    """A lift keeps its source's labels; a native model's are tuples."""

    def test_lift_of_a_sys_build_looks_labels_up_as_given(self, mdp):
        lift = KroneckerCTMDP.from_ctmdp(mdp)
        optimum = policy_iteration(mdp).policy
        for i, state in enumerate(mdp.states):
            assert lift.index_of(state) == i
            assert list(lift.actions(state)) == mdp.actions(state)
        policy = Policy(lift, optimum.as_dict())
        assert policy.actions == optimum.actions
        assert policy.action(mdp.states[7]) == optimum.action(mdp.states[7])

    def test_native_model_takes_tuple_labels(self):
        farm = kron_farm_model(3, 3)
        for i in (0, 5, farm.n_states - 1):
            assert farm.index_of(farm.states[i]) == i
        state = farm.states[5]
        assert isinstance(state, tuple)
        assert farm.actions(state)

    @pytest.mark.parametrize("label", ["nope", [0, 0, 0], (9, 9, 9)])
    def test_unknown_label_is_typed(self, label):
        with pytest.raises(InvalidPolicyError, match="unknown state"):
            kron_farm_model(3, 3).index_of(label)


class TestPolicyOnCsrBuild:
    """A policy bound to ``build_ctmdp(w, backend="sparse")`` validates
    and exposes the same arrays as one on the dict build."""

    @pytest.fixture(scope="class")
    def builds(self):
        model = paper_system(capacity=5)
        dict_mdp = model.build_ctmdp(1.0)
        csr_mdp = model.build_ctmdp(1.0, backend="sparse")
        mapping = policy_iteration(dict_mdp).policy.as_dict()
        return Policy(dict_mdp, mapping), Policy(csr_mdp, mapping)

    def test_arrays_match_the_dict_build(self, builds):
        on_dict, on_csr = builds
        on_csr.validate()
        g_dict, g_csr = on_dict.generator_matrix(), on_csr.generator_matrix()
        off = ~np.eye(len(g_dict), dtype=bool)
        np.testing.assert_array_equal(g_csr[off], g_dict[off])
        np.testing.assert_allclose(np.diag(g_csr), np.diag(g_dict),
                                   rtol=1e-12, atol=0)
        np.testing.assert_array_equal(on_csr.cost_vector(),
                                      on_dict.cost_vector())
        for name in ("power", "queue_length", "loss", "absent"):
            np.testing.assert_array_equal(
                on_csr.extra_cost_vector(name),
                on_dict.extra_cost_vector(name))

    def test_invalid_action_names_the_state(self, builds):
        messages = []
        for policy in builds:
            mapping = policy.as_dict()
            state = policy.mdp.states[4]
            mapping[state] = "warp"
            with pytest.raises(InvalidPolicyError) as err:
                Policy(policy.mdp, mapping)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert repr(builds[0].mdp.states[4]) in messages[0]
