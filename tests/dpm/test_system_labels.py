"""SYS labels on demand: the label key, ``same_states`` and lifetimes.

A SYS model's states are a pure function of its
:class:`~repro.dpm.system.SystemLabels` key. The model, its CSR and
dict builds and its re-rated siblings carry that key, build their
:class:`SystemState` lists only when read, and compare in O(1) through
:func:`~repro.ctmdp.policy.same_states`.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.ctmdp.kron import KroneckerCTMDP
from repro.ctmdp.policy import same_states
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.dpm.system import SystemLabels
from repro.robust.fuzz import unconstrained_system


class TestGridStateCount:
    @pytest.mark.parametrize("capacity", [1, 2, 5, 17])
    @pytest.mark.parametrize("transfer", [True, False])
    def test_grid_count_is_the_label_count(self, capacity, transfer):
        model = paper_system(capacity=capacity, include_transfer_states=transfer)
        n = model.n_states
        assert model._states is None  # counted from the grid
        assert n == len(model.states) == len(model.state_keys())
        csr = model.build_ctmdp(1.0, backend="sparse")
        assert csr.n_states == n == len(csr.actions) == len(csr.states)

    @pytest.mark.parametrize("capacity", [1, 4])
    def test_unconstrained_subclass(self, capacity):
        base = paper_system(capacity=capacity)
        model = unconstrained_system(base.provider, base.requestor, capacity)
        assert model.n_states == len(model.states) == base.n_states
        assert model.build_ctmdp(1.0, backend="sparse").n_states == model.n_states
        assert same_states(model, base)

    def test_labels_are_the_key_listing(self):
        model = paper_system(capacity=3)
        key = model.label_key
        assert key == SystemLabels(("active", "waiting", "sleeping"), ("active",), 3)
        assert model.states == key()
        assert [model.index_of(x) for x in model.states] == list(range(model.n_states))
        without = paper_system(capacity=3, include_transfer_states=False)
        assert without.label_key.transfer_modes == ()


class TestSameStates:
    def test_model_builds_and_sibling_compare_by_key(
        self, system_state_constructions
    ):
        model = paper_system(capacity=5)
        sibling = rated_model(model, 0.2)
        csr = model.build_ctmdp(1.0, backend="sparse")
        sibling_csr = sibling.build_ctmdp(0.5, backend="sparse")
        for a, b in [(model, csr), (csr, model), (model, sibling),
                     (sibling_csr, csr), (sibling, csr)]:
            assert same_states(a, b)
        assert system_state_constructions[0] == 0
        assert model._states is csr._states is sibling._states is None
        # A dict build lists its labels (its index needs them) and
        # carries the key of the CSR rows it wraps.
        dense = model.build_ctmdp(1.0)
        assert dense.label_key == model.label_key
        assert same_states(dense, sibling_csr) and same_states(model, dense)

    @pytest.mark.parametrize("other", [
        {"capacity": 6},
        {"capacity": 5, "include_transfer_states": False},
    ])
    def test_other_capacity_or_transfer_flag_is_unequal(self, other):
        model = paper_system(capacity=5)
        changed = paper_system(**other)
        assert not same_states(model, changed)
        assert not same_states(model.build_ctmdp(1.0, backend="sparse"),
                               changed.build_ctmdp(1.0, backend="sparse"))
        assert not same_states(model.build_ctmdp(1.0), changed)

    def test_models_without_a_key_compare_labels(self):
        model = paper_system(capacity=5)
        lift = KroneckerCTMDP.from_ctmdp(model.build_ctmdp(1.0))
        assert getattr(lift, "label_key", None) is None
        assert same_states(lift, model) and same_states(model, lift)
        smaller = KroneckerCTMDP.from_ctmdp(paper_system(capacity=4).build_ctmdp(1.0))
        assert not same_states(smaller, model)


class TestLifetime:
    def test_csr_build_holds_the_key_not_the_model(self):
        model = paper_system(capacity=5)
        csr = model.build_ctmdp(1.0, backend="sparse")
        assert csr.label_key is model.label_key
        assert model not in gc.get_referents(csr)
        restored = pickle.loads(pickle.dumps(csr))
        assert restored.label_key == model.label_key
        assert restored.states == tuple(model.states)

    def test_dropped_model_is_freed_without_the_collector(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = paper_system(capacity=25)
            optimize_weighted(model, 1.0)
            model.build_ctmdp(0.5)
            model.build_ctmdp(0.5, backend="sparse")
            rated_model(model, 0.2).build_ctmdp(1.0, backend="sparse")
            model.state_keys()
            model.index_of(model.states[3])
            ref = weakref.ref(model)
            del model
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_pickle_drops_the_label_views(self):
        model = paper_system(capacity=5)
        model.index_of(model.states[0])
        model.state_keys()
        restored = pickle.loads(pickle.dumps(model))
        assert restored._states is restored._index is restored._keys is None
        assert restored.states == model.states
        assert restored.state_keys() == model.state_keys()
