"""Tests for the CTMDP -> DTMDP time-slicing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.presets import paper_system
from repro.dtmdp.discretize import discretize_ctmdp, slice_metric_rates
from repro.errors import InvalidModelError


@pytest.fixture(scope="module")
def lumped_model():
    return paper_system(include_transfer_states=False)


@pytest.fixture(scope="module")
def discretized(lumped_model):
    return discretize_ctmdp(lumped_model, slice_length=0.5, weight=1.0)


class TestDiscretization:
    def test_states_preserved(self, lumped_model, discretized):
        assert list(discretized.mdp.states) == lumped_model.states

    def test_rows_are_stochastic(self, discretized):
        for state, action in discretized.mdp.state_action_pairs():
            row = discretized.mdp.transition_row(state, action)
            assert row.sum() == pytest.approx(1.0)
            assert np.all(row >= 0)

    def test_actions_follow_validity(self, lumped_model, discretized):
        for state in lumped_model.states:
            assert discretized.mdp.actions(state) == lumped_model.valid_actions(
                state
            )

    def test_invalid_slice_rejected(self, lumped_model):
        with pytest.raises(InvalidModelError):
            discretize_ctmdp(lumped_model, slice_length=0.0)

    def test_slice_cost_bounded_by_extreme_rates(self, lumped_model, discretized):
        # Per-slice cost is an average of rates over the slice, so it is
        # bounded by L times the extreme instantaneous rates.
        ct = lumped_model.build_ctmdp(1.0)
        all_rates = [ct.cost(s, a) for s, a in ct.state_action_pairs()]
        lo, hi = min(all_rates), max(all_rates)
        for state, action in discretized.mdp.state_action_pairs():
            c = discretized.mdp.cost(state, action)
            assert lo * 0.5 - 1e-9 <= c <= hi * 0.5 + 1e-9

    def test_tiny_slice_recovers_ct_optimum(self, lumped_model):
        ct_gain = policy_iteration(lumped_model.build_ctmdp(1.0)).gain
        d = discretize_ctmdp(lumped_model, slice_length=0.01, weight=1.0)
        dt_gain_rate = d.gain_rate(policy_iteration(d.mdp).gain)
        assert dt_gain_rate == pytest.approx(ct_gain, rel=0.01)

    def test_coarser_slices_cost_more(self, lumped_model):
        rates = []
        for slice_length in (1.0, 0.25, 0.05):
            d = discretize_ctmdp(lumped_model, slice_length, weight=1.0)
            rates.append(d.gain_rate(policy_iteration(d.mdp).gain))
        assert rates == sorted(rates, reverse=True)

    def test_ct_optimum_lower_bounds_all_slices(self, lumped_model):
        ct_gain = policy_iteration(lumped_model.build_ctmdp(1.0)).gain
        for slice_length in (2.0, 0.5):
            d = discretize_ctmdp(lumped_model, slice_length, weight=1.0)
            assert d.gain_rate(policy_iteration(d.mdp).gain) >= ct_gain - 1e-6


class TestSliceMetricRates:
    def test_rates_are_consistent_with_gain(self, lumped_model, discretized):
        result = policy_iteration(discretized.mdp)
        rates = slice_metric_rates(discretized, result.policy.as_dict())
        # power + w * queue must equal the gain rate.
        combined = rates["power"] + discretized.weight * rates["queue_length"]
        assert combined == pytest.approx(discretized.gain_rate(result.gain), rel=1e-6)

    def test_rates_physical(self, discretized):
        result = policy_iteration(discretized.mdp)
        rates = slice_metric_rates(discretized, result.policy.as_dict())
        assert 0 < rates["power"] <= 45.0
        assert 0 <= rates["queue_length"] <= 5.0
        assert 0 <= rates["loss"] <= 1.0 / 6.0
