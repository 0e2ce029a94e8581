"""Structural tests of the joint SYS model against Section III.

These tests pin down the paper's four SQ transition types, the state-
space composition ``X = S x Q_stable U S_active x Q_transfer``, the
three action-validity constraints, and the tensor (Kronecker) structure
of the stable-stable block. ``TestVectorizedAssembly`` then requires the
vectorized build of both backends to equal a pair-by-pair walk through
the per-state methods, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpm.presets import paper_system
from repro.dpm.service_queue import stable, transfer
from repro.dpm.system import PowerManagedSystemModel, SystemState
from repro.errors import InvalidModelError
from repro.markov.tensor import tensor_sum


@pytest.fixture
def model(paper_model) -> PowerManagedSystemModel:
    return paper_model


LAM = 1.0 / 6.0
MU = 1.0 / 1.5


class TestStateSpace:
    def test_composition(self, model):
        # 3 modes x 6 stable + 1 active mode x 5 transfer = 23.
        assert model.n_states == 23
        stable_count = sum(1 for x in model.states if x.queue.is_stable)
        transfer_count = sum(1 for x in model.states if x.queue.is_transfer)
        assert stable_count == 18
        assert transfer_count == 5

    def test_transfer_states_only_for_active_modes(self, model):
        for x in model.states:
            if x.queue.is_transfer:
                assert model.provider.is_active(x.mode)

    def test_without_transfer_states(self):
        m = paper_system(include_transfer_states=False)
        assert m.n_states == 18
        assert all(x.queue.is_stable for x in m.states)

    def test_capacity_validation(self, paper_provider):
        from repro.dpm.service_requestor import ServiceRequestor

        with pytest.raises(InvalidModelError):
            PowerManagedSystemModel(paper_provider, ServiceRequestor(1.0), 0)

    def test_unknown_state_raises(self, model):
        with pytest.raises(InvalidModelError):
            model.index_of(SystemState("active", stable(99)))


class TestTransitionTypes:
    """The four SQ transition classes of Section III."""

    def test_type1_arrival_in_stable_state(self, model):
        rates = model.transition_rates(SystemState("sleeping", stable(2)), "sleeping")
        assert rates[SystemState("sleeping", stable(3))] == pytest.approx(LAM)

    def test_type1_no_arrival_transition_when_full(self, model):
        rates = model.transition_rates(SystemState("sleeping", stable(5)), "active")
        assert SystemState("sleeping", stable(6)) not in rates

    def test_type2_service_completion_to_transfer(self, model):
        rates = model.transition_rates(SystemState("active", stable(3)), "active")
        assert rates[SystemState("active", transfer(3))] == pytest.approx(MU)

    def test_type2_absent_for_inactive_modes(self, model):
        rates = model.transition_rates(SystemState("waiting", stable(3)), "waiting")
        assert all(not dest.queue.is_transfer for dest in rates)

    def test_type2_absent_at_empty_queue(self, model):
        rates = model.transition_rates(SystemState("active", stable(0)), "active")
        assert all(not dest.queue.is_transfer for dest in rates)

    def test_type3_transfer_resolution_at_switch_rate(self, model):
        rates = model.transition_rates(SystemState("active", transfer(3)), "sleeping")
        dest = SystemState("sleeping", stable(2))
        assert rates[dest] == pytest.approx(1.0 / 0.2)  # chi(active, sleeping)

    def test_type3_self_switch_uses_standin_rate(self, model):
        rates = model.transition_rates(SystemState("active", transfer(3)), "active")
        dest = SystemState("active", stable(2))
        assert rates[dest] == pytest.approx(model.provider.self_switch_rate)

    def test_type4_arrival_in_transfer_state(self, model):
        rates = model.transition_rates(SystemState("active", transfer(2)), "sleeping")
        assert rates[SystemState("active", transfer(3))] == pytest.approx(LAM)

    def test_type4_boundary_drops_arrival(self, model):
        # q_{Q -> Q-1}: the paper leaves this arrival unspecified; we drop it.
        rates = model.transition_rates(SystemState("active", transfer(5)), "active")
        assert all(dest.queue.index <= 5 for dest in rates)

    def test_sp_switch_in_stable_state(self, model):
        rates = model.transition_rates(SystemState("sleeping", stable(1)), "active")
        dest = SystemState("active", stable(1))
        assert rates[dest] == pytest.approx(1.0 / 1.1)

    def test_stay_in_stable_state_has_no_sp_transition(self, model):
        rates = model.transition_rates(SystemState("sleeping", stable(1)), "sleeping")
        assert all(dest.mode == "sleeping" for dest in rates)


class TestActionConstraints:
    def test_constraint1_no_powerdown_in_stable_states(self, model):
        # Active SP, stable queue: inactive destinations forbidden.
        for i in range(6):
            actions = model.valid_actions(SystemState("active", stable(i)))
            assert actions == ["active"]

    def test_constraint1_dropped_without_transfer_states(self):
        m = paper_system(include_transfer_states=False)
        actions = m.valid_actions(SystemState("active", stable(2)))
        assert "sleeping" in actions

    def test_constraint2_full_queue_forces_progress(self, model):
        # waiting at q_Q: only 'active' (sleeping has longer wakeup,
        # staying is no progress).
        assert model.valid_actions(SystemState("waiting", stable(5))) == ["active"]
        # sleeping at q_Q: 'active' or the shorter-wakeup 'waiting'.
        assert model.valid_actions(SystemState("sleeping", stable(5))) == [
            "active",
            "waiting",
        ]

    def test_constraint2_only_at_full_queue(self, model):
        actions = model.valid_actions(SystemState("waiting", stable(4)))
        assert set(actions) == {"active", "waiting", "sleeping"}

    def test_constraint3_no_slower_active_at_full_transfer(self):
        # Build a 2-active-mode provider: 'fast' and 'slow'.
        import numpy as np

        from repro.dpm.service_provider import ServiceProvider
        from repro.dpm.service_requestor import ServiceRequestor

        sp = ServiceProvider(
            ("fast", "slow", "off"),
            switching_rates=np.array(
                [[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [2.0, 2.0, 0.0]]
            ),
            service_rates=(2.0, 1.0, 0.0),
            power=(10.0, 5.0, 0.0),
            switching_energy=np.zeros((3, 3)),
        )
        m = PowerManagedSystemModel(sp, ServiceRequestor(1.0), capacity=3)
        # In transfer q_{Q->Q-1} from 'fast', 'slow' is forbidden.
        actions_full = m.valid_actions(SystemState("fast", transfer(3)))
        assert "slow" not in actions_full
        # But allowed in a non-boundary transfer state.
        actions_inner = m.valid_actions(SystemState("fast", transfer(2)))
        assert "slow" in actions_inner

    def test_transfer_states_allow_powerdown(self, model):
        actions = model.valid_actions(SystemState("active", transfer(1)))
        assert set(actions) == {"active", "waiting", "sleeping"}

    def test_fastest_active_always_valid(self, model):
        for state in model.states:
            assert model.is_valid_action(state, "active")


class TestCosts:
    def test_effective_power_includes_switch_energy(self, model):
        # pow(active) + chi(active, sleeping) * ene(active, sleeping).
        got = model.effective_power_rate(SystemState("active", transfer(1)), "sleeping")
        assert got == pytest.approx(40.0 + (1.0 / 0.2) * 0.5)

    def test_effective_power_stay_is_mode_power(self, model):
        got = model.effective_power_rate(SystemState("waiting", stable(0)), "waiting")
        assert got == pytest.approx(15.0)

    def test_delay_cost_follows_waiting_count(self, model):
        assert model.delay_cost(SystemState("active", stable(4))) == 4.0
        assert model.delay_cost(SystemState("active", transfer(4))) == 3.0

    def test_loss_rate_only_at_capacity(self, model):
        assert model.loss_rate(SystemState("sleeping", stable(5))) == pytest.approx(LAM)
        assert model.loss_rate(SystemState("active", transfer(5))) == pytest.approx(LAM)
        assert model.loss_rate(SystemState("sleeping", stable(4))) == 0.0


class TestBuildCTMDP:
    def test_negative_weight_rejected(self, model):
        with pytest.raises(InvalidModelError):
            model.build_ctmdp(-1.0)

    def test_rows_conserve(self, paper_mdp):
        for state, action in paper_mdp.state_action_pairs():
            row = paper_mdp.generator_row(state, action)
            assert row.sum() == pytest.approx(0.0, abs=1e-9)

    def test_cost_rate_combines_power_and_weighted_delay(self, model):
        mdp = model.build_ctmdp(weight=2.0)
        state = SystemState("active", stable(3))
        data = mdp.data(state, "active")
        assert data.cost_rate == pytest.approx(40.0 + 2.0 * 3.0)

    def test_impulse_costs_are_switch_energies(self, model, paper_mdp):
        state = SystemState("active", transfer(2))
        data = paper_mdp.data(state, "sleeping")
        dest = model.index_of(SystemState("sleeping", stable(1)))
        assert data.impulse_costs[dest] == pytest.approx(0.5)

    def test_extra_cost_channels_present(self, paper_mdp):
        state, action = paper_mdp.state_action_pairs()[0]
        extras = paper_mdp.data(state, action).extra_costs
        assert set(extras) == {"power", "queue_length", "loss"}

    def test_induced_chains_are_connected_for_all_single_action_rows(
        self, model, paper_mdp
    ):
        # Any valid policy must induce a unichain process; spot-check the
        # 'first action everywhere' policy used to seed policy iteration.
        from repro.ctmdp.policy import Policy
        from repro.markov.classify import classify_states

        assignment = {s: paper_mdp.actions(s)[0] for s in paper_mdp.states}
        g = Policy(paper_mdp, assignment).generator_matrix()
        kinds = classify_states(g)
        recurrent_classes = {
            frozenset(c)
            for c in __import__(
                "repro.markov.classify", fromlist=["communicating_classes"]
            ).communicating_classes(g)
            if all(kinds[i] == "recurrent" for i in c)
        }
        assert len(recurrent_classes) == 1


class TestTensorStructure:
    """The stable-stable block follows the paper's Kronecker layout."""

    def test_inactive_mode_block_is_tensor_sum(self, model):
        # For a policy that keeps every mode fixed (action = own mode),
        # inactive modes have no service and no switches: the joint
        # stable-block dynamics restricted to one inactive mode is the
        # pure-birth arrival chain; across modes it is
        # G_SP(stay)=0 (+) G_arrivals -- verified entry-wise here.
        q = model.capacity
        arrivals = np.zeros((q + 1, q + 1))
        for i in range(q):
            arrivals[i, i + 1] = LAM
        np.fill_diagonal(arrivals, -arrivals.sum(axis=1))
        joint = tensor_sum(np.zeros((1, 1)), arrivals)  # one mode, stay put
        for i in range(q + 1):
            rates = model.transition_rates(
                SystemState("sleeping", stable(i)), "sleeping"
            )
            for j in range(q + 1):
                expected = joint[i, j] if i != j else 0.0
                got = rates.get(SystemState("sleeping", stable(j)), 0.0)
                if i != j:
                    assert got == pytest.approx(expected)

    def test_sp_switch_appears_as_identity_block(self, model):
        # Under action 'active' from 'sleeping', every queue level gets
        # the same chi rate: G_SP(a) (x) I_Q structure.
        chi = model.provider.switching_rate("sleeping", "active")
        for i in range(model.capacity + 1):
            rates = model.transition_rates(
                SystemState("sleeping", stable(i)), "active"
            )
            assert rates[SystemState("active", stable(i))] == pytest.approx(chi)


def reference_layout(model):
    """The SYS layout walked pair by pair through the public per-state
    methods (``valid_actions``, ``transition_rates``,
    ``effective_power_rate``, ``delay_cost``, ``loss_rate``): the oracle
    the vectorized assembly must reproduce bit for bit.

    Returns ``(actions, coo, base_power, delay, terms, extra, dense)``:
    the per-state action tuples; off-diagonal ``(pair_rows, cols,
    rates)`` with each pair's entries in ascending destination index;
    the cost decomposition and its switching-energy ``(term_pairs,
    term_vals)``; the three extra channels; and per pair the dense
    ``(state, action, rates, impulses)`` rows.
    """
    sp, scale, n = model.provider, model.rate_scale, model.n_states
    actions, rows, cols, vals = [], [], [], []
    base_power, delay, term_pairs, term_vals, dense = [], [], [], [], []
    extra = {"power": [], "queue_length": [], "loss": []}
    for state in model.states:
        acts = tuple(model.valid_actions(state))
        actions.append(acts)
        for action in acts:
            pair = len(dense)
            base_power.append(scale * sp.power_rate(state.mode))
            delay.append(model.delay_cost(state))
            rates, impulses = np.zeros(n), np.zeros(n)
            for j, dest, rate in sorted(
                (model.index_of(dest), dest, rate)
                for dest, rate in model.transition_rates(state, action).items()
            ):
                scaled = rate * scale if scale != 1.0 else rate
                rows.append(pair)
                cols.append(j)
                vals.append(scaled)
                rates[j] += rate
                if dest.mode != state.mode:
                    energy = sp.switching_energy(state.mode, dest.mode)
                    term_pairs.append(pair)
                    term_vals.append(scaled * energy)
                    impulses[j] = energy
            extra["power"].append(model.effective_power_rate(state, action))
            extra["queue_length"].append(model.delay_cost(state))
            extra["loss"].append(model.loss_rate(state))
            dense.append(
                (state, action, rates * scale if scale != 1.0 else rates,
                 impulses)
            )
    coo = (
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp),
        np.asarray(vals, dtype=float),
    )
    terms = (np.asarray(term_pairs, dtype=np.intp), np.asarray(term_vals))
    extra = {name: np.asarray(ch) for name, ch in extra.items()}
    return (actions, coo, np.asarray(base_power), np.asarray(delay), terms,
            extra, dense)


def reference_sparse(model, weight, layout=None):
    """:func:`reference_layout` lowered with the cost overlay at *weight*."""
    from repro.ctmdp.sparse import SparseCTMDP

    actions, coo, base_power, delay, terms, extra, _ = (
        layout or reference_layout(model)
    )
    cost = base_power + (model.rate_scale * weight) * delay
    np.add.at(cost, *terms)
    return SparseCTMDP.from_coo(
        model.states, actions, *coo, cost, rate_scale=model.rate_scale,
        extra=extra,
    )


def assert_sparse_equal(got, want):
    assert got.actions == want.actions
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(
            getattr(got.generator, name), getattr(want.generator, name)
        )
    np.testing.assert_array_equal(got.cost, want.cost)
    assert got.extra.keys() == want.extra.keys()
    for name in want.extra:
        np.testing.assert_array_equal(got.extra[name], want.extra[name])
    g_got, c_got, shift_got = got.canonical()
    g_want, c_want, shift_want = want.canonical()
    assert shift_got == shift_want
    np.testing.assert_array_equal(g_got.data, g_want.data)
    np.testing.assert_array_equal(c_got, c_want)


def assert_dense_equal(mdp, model, weight, layout):
    dense = layout[-1]
    assert mdp.state_action_pairs() == [(s, a) for s, a, _, _ in dense]
    scale = model.rate_scale
    for state, action, rates, impulses in dense:
        data = mdp.data(state, action)
        np.testing.assert_array_equal(data.rates, rates)
        np.testing.assert_array_equal(data.impulse_costs, impulses)
        assert data.cost_rate == (
            scale * model.provider.power_rate(state.mode)
            + (scale * weight) * model.delay_cost(state)
        )
        assert data.extra_costs == {
            "power": model.effective_power_rate(state, action),
            "queue_length": model.delay_cost(state),
            "loss": model.loss_rate(state),
        }


def _preset_models():
    from repro.dpm.presets import disk_drive_provider, wireless_nic_provider
    from repro.dpm.service_requestor import ServiceRequestor

    models = {f"paper-Q{q}": paper_system(capacity=q) for q in (1, 2, 5, 8, 250)}
    models["no-transfer"] = paper_system(include_transfer_states=False)
    models["self-switch-50"] = paper_system(self_switch_rate=50.0)
    models["disk-drive"] = PowerManagedSystemModel(
        disk_drive_provider(), ServiceRequestor(0.25), capacity=4
    )
    models["wireless-nic"] = PowerManagedSystemModel(
        wireless_nic_provider(), ServiceRequestor(10.0), capacity=4
    )
    for scale in (0.25, 8.0):
        base = paper_system()
        models[f"rate-scale-{scale:g}"] = PowerManagedSystemModel(
            base.provider, base.requestor, base.capacity, rate_scale=scale
        )
    return models


ASSEMBLY_MODELS = _preset_models()


class TestVectorizedAssembly:
    """Both build backends equal the per-state walk bit for bit."""

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0, 7.5])
    @pytest.mark.parametrize("name", list(ASSEMBLY_MODELS))
    def test_sparse_skeleton_matches_walk(self, name, weight):
        model = ASSEMBLY_MODELS[name]
        got = model.build_ctmdp(weight, backend="sparse")
        assert_sparse_equal(got, reference_sparse(model, weight))

    @pytest.mark.parametrize("weight", [0.0, 1.0, 7.5])
    @pytest.mark.parametrize("name", list(ASSEMBLY_MODELS))
    def test_dense_rows_match_walk(self, name, weight):
        model = ASSEMBLY_MODELS[name]
        mdp = model.build_ctmdp(weight, backend="dense")
        assert_dense_equal(mdp, model, weight, reference_layout(model))

    @pytest.mark.parametrize("name", list(ASSEMBLY_MODELS))
    def test_dict_lowerings_round_as_dense_rows(self, name):
        # The dict build holds sparse rows, yet both of its lowerings
        # equal the dense-row formulas bit for bit: diagonals -rates.sum()
        # (NumPy's pairwise order) and costs c_ii + rates @ impulses.
        from repro.ctmdp.compiled import compile_ctmdp
        from repro.ctmdp.sparse import compile_sparse_ctmdp

        model = ASSEMBLY_MODELS[name]
        mdp = model.build_ctmdp(1.0)
        rows, costs = [], []
        for state, action, rates, impulses in reference_layout(model)[-1]:
            row = rates.copy()
            row[model.index_of(state)] = -rates.sum()
            rows.append(row)
            costs.append(mdp.data(state, action).cost_rate + float(rates @ impulses))
        dense = compile_ctmdp(mdp)
        np.testing.assert_array_equal(dense.generator, np.vstack(rows))
        np.testing.assert_array_equal(dense.cost, costs)
        csr = compile_sparse_ctmdp(mdp).generator
        np.testing.assert_array_equal(csr.toarray(), dense.generator)
        assert csr.nnz == np.count_nonzero(dense.generator)

    def test_subclass_validity_is_honoured(self):
        # The fuzzer drops III.1-III.3 by overriding is_valid_action; the
        # assembly must build exactly the actions that override allows.
        from repro.robust.fuzz import unconstrained_system

        base = paper_system(capacity=3)
        model = unconstrained_system(base.provider, base.requestor, 3)
        assert_sparse_equal(
            model.build_ctmdp(1.0, backend="sparse"),
            reference_sparse(model, 1.0),
        )
        assert model.build_ctmdp(1.0).actions(SystemState("active", stable(0))) == [
            "active", "waiting", "sleeping",
        ]

    @pytest.mark.parametrize("name", list(ASSEMBLY_MODELS))
    def test_state_keys_match_states(self, name):
        model = ASSEMBLY_MODELS[name]
        keys = model.state_keys()
        assert keys == [
            (x.mode, x.queue.kind, x.queue.index) for x in model.states
        ]
        assert all(type(index) is int for _, _, index in keys)

    def test_state_without_valid_action_raises(self, monkeypatch):
        # Constraints III.1-III.3 always leave an active mode valid, and
        # admission refuses providers without one. A provider that loses
        # its active mode after admission, with tied wakeup times, has
        # III.2 forbid every action at a full queue: both the walk and
        # the assembly fail typed on the same state.
        model = paper_system(capacity=2, include_transfer_states=False)
        monkeypatch.setattr(model.provider, "service_rate", lambda mode: 0.0)
        monkeypatch.setattr(model.provider, "wakeup_time", lambda mode: 1.0)
        message = r"state \(active,q2\) has no valid action"
        with pytest.raises(InvalidModelError, match=message):
            model.valid_actions(SystemState("active", stable(2)))
        with pytest.raises(InvalidModelError, match=message):
            model.build_ctmdp(1.0, backend="sparse")
