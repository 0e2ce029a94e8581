"""Tests for heuristic policy assignments on the joint model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpm.analysis import evaluate_dpm_policy
from repro.dpm.model_policies import (
    always_on_assignment,
    as_policy,
    default_valid_action,
    greedy_assignment,
    n_policy_assignment,
)
from repro.dpm.presets import (
    disk_drive_provider,
    paper_service_provider,
    paper_system,
)
from repro.dpm.service_provider import ServiceProvider
from repro.dpm.service_queue import stable, transfer
from repro.dpm.service_requestor import ServiceRequestor
from repro.dpm.system import PowerManagedSystemModel, SystemState
from repro.errors import InvalidPolicyError
from repro.robust.fuzz import unconstrained_system
from repro.serve.server import PolicyServer


class TestNPolicyAssignment:
    def test_respects_model_constraints(self, paper_model):
        for n in range(1, 6):
            assignment = n_policy_assignment(paper_model, n)
            for state, action in assignment.items():
                assert paper_model.is_valid_action(state, action), (state, action)

    def test_wakes_at_threshold(self, paper_model):
        assignment = n_policy_assignment(paper_model, 3)
        assert assignment[SystemState("sleeping", stable(2))] == "sleeping"
        assert assignment[SystemState("sleeping", stable(3))] == "active"
        assert assignment[SystemState("sleeping", stable(4))] == "active"

    def test_sleeps_when_system_empties(self, paper_model):
        assignment = n_policy_assignment(paper_model, 3)
        assert assignment[SystemState("active", transfer(1))] == "sleeping"
        # Work remaining: keep serving.
        assert assignment[SystemState("active", transfer(2))] == "active"

    def test_active_states_keep_serving(self, paper_model):
        assignment = n_policy_assignment(paper_model, 2)
        for i in range(6):
            assert assignment[SystemState("active", stable(i))] == "active"

    def test_n_bounds_checked(self, paper_model):
        with pytest.raises(InvalidPolicyError):
            n_policy_assignment(paper_model, 0)
        with pytest.raises(InvalidPolicyError):
            n_policy_assignment(paper_model, 6)

    def test_mode_sanity_checks(self, paper_model):
        with pytest.raises(InvalidPolicyError, match="is active"):
            n_policy_assignment(paper_model, 2, sleep_mode="active")
        with pytest.raises(InvalidPolicyError, match="is inactive"):
            n_policy_assignment(paper_model, 2, active_mode="waiting")

    def test_larger_n_saves_power_costs_delay(self, paper_model):
        mdp = paper_model.build_ctmdp(0.0)
        prev_power = None
        prev_delay = None
        for n in range(1, 6):
            metrics = evaluate_dpm_policy(
                paper_model, as_policy(mdp, n_policy_assignment(paper_model, n))
            )
            if prev_power is not None:
                assert metrics.average_power < prev_power
                assert metrics.average_queue_length > prev_delay
            prev_power = metrics.average_power
            prev_delay = metrics.average_queue_length


class TestGreedyAndAlwaysOn:
    def test_greedy_is_n1(self, paper_model):
        assert greedy_assignment(paper_model) == n_policy_assignment(paper_model, 1)

    def test_always_on_targets_active_everywhere(self, paper_model):
        assignment = always_on_assignment(paper_model)
        assert set(assignment.values()) == {"active"}

    def test_always_on_is_most_powerful_and_fastest(self, paper_model):
        mdp = paper_model.build_ctmdp(0.0)
        on = evaluate_dpm_policy(
            paper_model, as_policy(mdp, always_on_assignment(paper_model))
        )
        greedy = evaluate_dpm_policy(
            paper_model, as_policy(mdp, greedy_assignment(paper_model))
        )
        assert on.average_power > greedy.average_power
        assert on.average_queue_length < greedy.average_queue_length


class TestDefaultValidAction:
    def test_stays_when_valid(self, paper_model):
        state = SystemState("sleeping", stable(0))
        assert default_valid_action(paper_model, state) == "sleeping"

    def test_falls_back_to_fastest_active(self, paper_model):
        # waiting at q_Q cannot stay (constraint 2, strict form).
        state = SystemState("waiting", stable(5))
        assert default_valid_action(paper_model, state) == "active"

    def test_invalid_explicit_assignment_rejected(self, paper_model):
        from repro.dpm.model_policies import _complete

        with pytest.raises(InvalidPolicyError, match="invalid action"):
            _complete(
                paper_model,
                {SystemState("active", stable(2)): "sleeping"},  # constraint 1
            )


# -- the N-policy over the state grid against a per-state oracle -------------


def _oracle_n_policy(model, n, sleep_mode=None, active_mode=None):
    """The N-policy as a loop over the joint states, one state at a time
    -- the construction that predates the state-grid one, kept here as
    the oracle it must reproduce (table and error messages)."""
    if not 1 <= n <= model.capacity:
        raise InvalidPolicyError(
            f"N must be in 1..{model.capacity} for capacity {model.capacity}, got {n}"
        )
    sp = model.provider
    sleep = sleep_mode if sleep_mode is not None else sp.deepest_sleep_mode()
    active = active_mode if active_mode is not None else sp.fastest_active_mode()
    if sp.is_active(sleep):
        raise InvalidPolicyError(f"sleep mode {sleep!r} is active")
    if not sp.is_active(active):
        raise InvalidPolicyError(f"active mode {active!r} is inactive")
    partial = {}
    for state in model.states:
        q = state.queue
        if q.is_transfer:
            if sp.is_active(state.mode):
                partial[state] = sleep if q.waiting_count == 0 else state.mode
        elif not sp.is_active(state.mode):
            if q.index >= n:
                partial[state] = active
            elif model.is_valid_action(state, state.mode):
                partial[state] = state.mode
    assignment = {}
    for state in model.states:
        action = partial.get(state)
        if action is None:
            action = (
                state.mode if model.is_valid_action(state, state.mode)
                else sp.fastest_active_mode()
            )
        elif not model.is_valid_action(state, action):
            raise InvalidPolicyError(
                f"heuristic assigns invalid action {action!r} to {state!r}"
            )
        assignment[state] = action
    return assignment


def _two_active_provider():
    return ServiceProvider(
        ("fast", "slow", "off"),
        switching_rates=np.array(
            [[0.0, 5.0, 5.0], [5.0, 0.0, 5.0], [2.0, 2.0, 0.0]]
        ),
        service_rates=(2.0, 1.0, 0.0),
        power=(10.0, 5.0, 0.0),
        switching_energy=np.zeros((3, 3)),
    )


def _model(kind):
    if kind == "paper":
        return paper_system(capacity=5)
    if kind == "no-transfer":
        return paper_system(capacity=5, include_transfer_states=False)
    if kind == "disk":
        return PowerManagedSystemModel(
            disk_drive_provider(), ServiceRequestor(2.0), capacity=4
        )
    if kind == "two-active":
        return PowerManagedSystemModel(
            _two_active_provider(), ServiceRequestor(1.0), capacity=3
        )
    if kind == "unconstrained":
        return unconstrained_system(
            paper_service_provider(), ServiceRequestor(0.2), capacity=4
        )
    raise AssertionError(kind)


def _outcome(fn, *args, **kwargs):
    """``("ok", value)`` or ``(exception type, message)``."""
    try:
        return "ok", fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared with the oracle's
        return type(exc), str(exc)


MODEL_KINDS = ("paper", "no-transfer", "disk", "two-active", "unconstrained")


class TestNPolicyAgainstOracle:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_tables_equal_for_every_threshold(self, kind):
        model = _model(kind)
        for n in sorted({1, 2, model.capacity}):
            got = n_policy_assignment(model, n)
            want = _oracle_n_policy(model, n)
            assert got == want
            assert list(got) == model.states

    @pytest.mark.parametrize(
        "kind, sleep, active",
        [
            ("paper", "waiting", None),
            ("paper", "sleeping", "active"),
            ("disk", "standby", None),
            ("disk", "idle", "active"),
            ("two-active", None, "slow"),
            ("two-active", "off", "fast"),
            ("unconstrained", "waiting", "active"),
        ],
    )
    def test_explicit_modes(self, kind, sleep, active):
        model = _model(kind)
        for n in sorted({1, 2, model.capacity}):
            assert n_policy_assignment(
                model, n, sleep_mode=sleep, active_mode=active
            ) == _oracle_n_policy(model, n, sleep, active)

    @pytest.mark.parametrize(
        "n, sleep, active",
        [
            (0, None, None),
            (6, None, None),
            (2, "active", None),
            (2, None, "waiting"),
            (2, "no-such-mode", None),
            (2, None, "no-such-mode"),
        ],
    )
    def test_errors_equal(self, n, sleep, active):
        model = _model("paper")
        got = _outcome(n_policy_assignment, model, n, sleep, active)
        want = _outcome(_oracle_n_policy, model, n, sleep, active)
        assert got[0] != "ok" and want[0] != "ok"
        assert got == want

    def test_invalid_assigned_action_error_equal(self):
        """A subclass whose validity forbids the N-policy's power-down
        (into the sleep mode from q_{1->0}) fails with the oracle's
        message, naming the first offending state."""

        class NoSleepFromTransfer(PowerManagedSystemModel):
            def is_valid_action(self, state, action):
                if state.queue.is_transfer and action == "sleeping":
                    return False
                return super().is_valid_action(state, action)

        model = NoSleepFromTransfer(
            paper_service_provider(), ServiceRequestor(0.2), capacity=4
        )
        got = _outcome(n_policy_assignment, model, 2)
        want = _outcome(_oracle_n_policy, model, 2)
        assert got[0] is InvalidPolicyError
        assert got == want
        assert "heuristic assigns invalid action 'sleeping'" in got[1]
        # Another sleep mode is valid there, and matches the oracle.
        assert n_policy_assignment(
            model, 2, sleep_mode="waiting"
        ) == _oracle_n_policy(model, 2, "waiting")

    def test_default_fallback_is_not_validated(self):
        """A state where staying is invalid falls back to the fastest
        active mode unchecked, as the oracle's default does."""

        class NothingValidAtEmpty(PowerManagedSystemModel):
            def is_valid_action(self, state, action):
                if state.queue.is_stable and state.queue.index == 0:
                    return False
                return super().is_valid_action(state, action)

        model = NothingValidAtEmpty(
            paper_service_provider(), ServiceRequestor(0.2), capacity=3
        )
        got = n_policy_assignment(model, 2)
        assert got == _oracle_n_policy(model, 2)
        assert got[SystemState("sleeping", stable(0))] == "active"

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_policy_server_heuristic_matches_oracle(self, kind):
        model = _model(kind)
        for n in sorted({1, model.capacity}):
            server = PolicyServer(model, heuristic_n=n)
            for state, action in _oracle_n_policy(model, n).items():
                q = state.queue
                decision = server.decide(
                    state.mode, q.is_transfer,
                    q.index - 1 if q.is_transfer else q.index,
                )
                assert decision.source == "heuristic"
                assert decision.action == action, state

    def test_policy_server_reads_validity_once(self):
        """A subclass's per-state validity rule runs one pass per
        server construction: the table keys come from the state grid."""
        calls = []

        class Counting(PowerManagedSystemModel):
            def is_valid_action(self, state, action):
                calls.append(state)
                return super().is_valid_action(state, action)

        model = Counting(
            paper_service_provider(), ServiceRequestor(0.2), capacity=4
        )
        PolicyServer(model, heuristic_n=2)
        assert len(calls) == model.n_states * len(model.provider.modes)
