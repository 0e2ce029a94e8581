"""Tests for the CTMDP model type."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.model import CTMDP, StateActionData
from repro.errors import InvalidModelError


@pytest.fixture
def toy_mdp() -> CTMDP:
    """Two states, two actions each: a minimal on/off power model.

    State "up" (cost 10/s) can stay or head down; state "down"
    (cost 1/s) can stay or head up. Heading down/up pays an impulse.
    """
    mdp = CTMDP(["up", "down"])
    mdp.add_action("up", "stay", rates=[0.0, 0.0], cost_rate=10.0)
    mdp.add_action(
        "up",
        "power_down",
        rates=[0.0, 4.0],
        cost_rate=10.0,
        impulse_costs=[0.0, 2.0],
        extra_costs={"power": 10.0},
    )
    mdp.add_action("down", "stay", rates=[0.0, 0.0], cost_rate=1.0)
    mdp.add_action(
        "down",
        "power_up",
        rates=[5.0, 0.0],
        cost_rate=1.0,
        impulse_costs=[3.0, 0.0],
    )
    return mdp


class TestConstruction:
    def test_requires_states(self):
        with pytest.raises(InvalidModelError):
            CTMDP([])

    def test_unique_states(self):
        with pytest.raises(InvalidModelError, match="unique"):
            CTMDP(["a", "a"])

    def test_duplicate_action_rejected(self, toy_mdp):
        with pytest.raises(InvalidModelError, match="already defined"):
            toy_mdp.add_action("up", "stay", rates=[0.0, 0.0], cost_rate=0.0)

    def test_rates_shape_checked(self):
        mdp = CTMDP(["a", "b"])
        with pytest.raises(InvalidModelError, match="shape"):
            mdp.add_action("a", "x", rates=[1.0], cost_rate=0.0)

    def test_negative_rate_rejected(self):
        mdp = CTMDP(["a", "b"])
        with pytest.raises(InvalidModelError, match="negative rate"):
            mdp.add_action("a", "x", rates=[0.0, -1.0], cost_rate=0.0)

    def test_nonzero_self_rate_rejected(self):
        mdp = CTMDP(["a", "b"])
        with pytest.raises(InvalidModelError, match="self-rate"):
            mdp.add_action("a", "x", rates=[1.0, 0.0], cost_rate=0.0)

    def test_validate_flags_actionless_states(self):
        mdp = CTMDP(["a", "b"])
        mdp.add_action("a", "x", rates=[0.0, 1.0], cost_rate=0.0)
        with pytest.raises(InvalidModelError, match="no actions"):
            mdp.validate()

    def test_unknown_state_and_action(self, toy_mdp):
        with pytest.raises(InvalidModelError, match="unknown state"):
            toy_mdp.index_of("missing")
        with pytest.raises(InvalidModelError, match="not available"):
            toy_mdp.data("up", "warp")


class TestAccessors:
    def test_actions_in_insertion_order(self, toy_mdp):
        assert toy_mdp.actions("up") == ["stay", "power_down"]

    def test_generator_row_has_eqn_2_4_diagonal(self, toy_mdp):
        row = toy_mdp.generator_row("up", "power_down")
        np.testing.assert_allclose(row, [-4.0, 4.0])

    def test_cost_folds_impulses(self, toy_mdp):
        # c = c_ii + sum_j s_ij c_ij = 10 + 4 * 2.
        assert toy_mdp.cost("up", "power_down") == pytest.approx(18.0)
        assert toy_mdp.cost("up", "stay") == pytest.approx(10.0)

    def test_extra_cost_defaults_to_zero(self, toy_mdp):
        assert toy_mdp.extra_cost("up", "power_down", "power") == 10.0
        assert toy_mdp.extra_cost("up", "power_down", "missing") == 0.0

    def test_state_action_pairs_order(self, toy_mdp):
        pairs = toy_mdp.state_action_pairs()
        assert pairs == [
            ("up", "stay"),
            ("up", "power_down"),
            ("down", "stay"),
            ("down", "power_up"),
        ]

    def test_max_exit_rate(self, toy_mdp):
        assert toy_mdp.max_exit_rate() == pytest.approx(5.0)


class TestStateActionData:
    def test_effective_cost_without_impulses(self):
        data = StateActionData(rates=np.array([0.0, 2.0]), cost_rate=3.0)
        assert data.effective_cost_rate() == pytest.approx(3.0)

    def test_effective_cost_with_impulses(self):
        data = StateActionData(
            rates=np.array([0.0, 2.0]),
            cost_rate=3.0,
            impulse_costs=np.array([0.0, 5.0]),
        )
        assert data.effective_cost_rate() == pytest.approx(13.0)

    def test_row_is_held_sparsely(self):
        data = StateActionData(
            rates=np.array([0.0, 2.0, 0.0, 0.5]),
            cost_rate=1.0,
            impulse_costs=np.array([7.0, 5.0, 0.0, 1.0]),
        )
        np.testing.assert_array_equal(data.cols, [1, 3])
        np.testing.assert_array_equal(data.vals, [2.0, 0.5])
        np.testing.assert_array_equal(data.impulses, [5.0, 1.0])
        assert data.exit_rate == 2.5
        # The dense forms are rebuilt on demand.
        np.testing.assert_array_equal(data.rates, [0.0, 2.0, 0.0, 0.5])
        np.testing.assert_array_equal(data.impulse_costs, [0.0, 5.0, 0.0, 1.0])


class TestStackedRows:
    """``pair_table()`` stacks an ``add_action`` model into CSR rows."""

    def test_stacks_rows_in_pair_order(self, toy_mdp):
        rows = toy_mdp.pair_table()
        assert rows.actions == (("stay", "power_down"), ("stay", "power_up"))
        np.testing.assert_array_equal(rows.pair_state, [0, 0, 1, 1])
        np.testing.assert_array_equal(rows.cost, [10.0, 18.0, 1.0, 16.0])
        np.testing.assert_array_equal(rows.extra["power"], [0.0, 10.0, 0.0, 0.0])
        dense = np.vstack([toy_mdp.generator_row(s, a)
                           for s, a in toy_mdp.state_action_pairs()])
        np.testing.assert_array_equal(rows.generator.toarray(), dense)
        np.testing.assert_array_equal(
            rows.exit_rates(),
            [toy_mdp.data(s, a).exit_rate for s, a in toy_mdp.state_action_pairs()],
        )

    def test_from_rows_round_trips(self, toy_mdp):
        rows = toy_mdp.pair_table()
        rebuilt = CTMDP.from_rows(
            rows,
            rows.off_diagonal(),
            [toy_mdp.data(s, a).cost_rate for s, a in toy_mdp.state_action_pairs()],
        )
        assert rebuilt.pair_table() is rows
        assert rebuilt.state_action_pairs() == toy_mdp.state_action_pairs()
        for state, action in toy_mdp.state_action_pairs():
            np.testing.assert_array_equal(
                rebuilt.generator_row(state, action),
                toy_mdp.generator_row(state, action),
            )
            assert rebuilt.cost(state, action) == toy_mdp.cost(state, action)

    def test_from_rows_rejects_self_rates(self, toy_mdp):
        rows = toy_mdp.pair_table()
        with pytest.raises(InvalidModelError, match="self-rates"):
            CTMDP.from_rows(rows, ([0, 1, 1, 1, 1], [0], [1.0]), np.zeros(4))
