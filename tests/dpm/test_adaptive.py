"""Tests for online rate estimation and adaptive re-solving."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dpm.adaptive import (
    AdaptivePolicySolver,
    AdaptiveRateEstimator,
    rated_model,
)
from repro.dpm.presets import paper_system
from repro.errors import InvalidModelError


class TestAdaptiveRateEstimator:
    def test_initial_rate_before_samples(self):
        est = AdaptiveRateEstimator(initial_rate=2.5)
        assert est.rate() == 2.5
        assert not est.warmed_up

    def test_exact_rate_for_regular_arrivals(self):
        est = AdaptiveRateEstimator(window=10)
        for k in range(11):
            est.observe_arrival(2.0 * k)  # one arrival every 2 s
        assert est.rate() == pytest.approx(0.5)
        assert est.warmed_up
        assert est.mean_interarrival() == pytest.approx(2.0)

    def test_window_slides(self):
        est = AdaptiveRateEstimator(window=5)
        t = 0.0
        for _ in range(6):
            t += 10.0
            est.observe_arrival(t)
        for _ in range(5):  # five fast gaps push out all slow ones
            t += 1.0
            est.observe_arrival(t)
        assert est.rate() == pytest.approx(1.0)

    def test_paper_50_event_accuracy_claim(self):
        # Section III: ~5 % error after observing 50 events. Check the
        # median error over repeated trials at the paper's default window.
        rng = np.random.default_rng(0)
        true_rate = 1.0 / 6.0
        errors = []
        for _ in range(200):
            est = AdaptiveRateEstimator()
            t = 0.0
            for __ in range(51):
                t += rng.exponential(1.0 / true_rate)
                est.observe_arrival(t)
            errors.append(abs(est.rate() - true_rate) / true_rate)
        assert np.median(errors) < 0.12
        assert np.mean(errors) < 0.15

    def test_rejects_decreasing_timestamps(self):
        est = AdaptiveRateEstimator()
        est.observe_arrival(5.0)
        with pytest.raises(InvalidModelError):
            est.observe_arrival(4.0)

    def test_validation(self):
        with pytest.raises(InvalidModelError):
            AdaptiveRateEstimator(window=0)
        with pytest.raises(InvalidModelError):
            AdaptiveRateEstimator(initial_rate=0.0)


class TestAdaptivePolicySolver:
    @pytest.fixture
    def solver(self):
        return AdaptivePolicySolver(paper_system(), weight=1.0, band_width=0.2)

    def test_caches_within_band(self, solver):
        r1 = solver.policy_for_rate(0.167)
        r2 = solver.policy_for_rate(0.168)
        assert r1 is r2
        assert solver.n_solves == 1

    def test_resolves_for_distant_rate(self, solver):
        solver.policy_for_rate(1.0 / 6.0)
        solver.policy_for_rate(1.0 / 3.0)
        assert solver.n_solves == 2

    def test_band_policy_is_reasonable(self, solver):
        # The band-center policy evaluated on the band-center model must
        # beat always-on power.
        result = solver.policy_for_rate(1.0 / 6.0)
        assert result.metrics.average_power < 40.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidModelError):
            AdaptivePolicySolver(paper_system(), weight=1.0, band_width=1.5)
        solver = AdaptivePolicySolver(paper_system(), weight=1.0)
        with pytest.raises(InvalidModelError):
            solver.policy_for_rate(0.0)


class TestRatedModel:
    """One re-rated sibling per (base model, rate), held in a slot."""

    def test_same_rate_returns_the_same_sibling(self):
        base = paper_system()
        sibling = rated_model(base, 0.2)
        assert rated_model(base, 0.2) is sibling
        assert sibling.requestor.rate == 0.2
        # The sibling's builds are shared by every caller at that rate.
        mdp = sibling.build_ctmdp(1.0)
        assert rated_model(base, 0.2).build_ctmdp(1.0) is mdp

    def test_new_rate_evicts_the_old_sibling(self):
        base = paper_system()
        old = rated_model(base, 0.2)
        new = rated_model(base, 0.25)
        assert new is not old
        assert new.requestor.rate == 0.25
        assert rated_model(base, 0.25) is new
        assert rated_model(base, 0.2) is not old  # one slot, not a cache

    def test_never_the_base(self):
        base = paper_system()
        sibling = rated_model(base, base.requestor.rate)
        assert sibling is not base
        assert rated_model(base, base.requestor.rate) is sibling
        assert sibling.requestor.rate == base.requestor.rate
        assert sibling.provider is base.provider
        assert sibling.capacity == base.capacity
        assert sibling.include_transfer_states == base.include_transfer_states

    def test_sibling_keeps_the_rate_scale(self):
        # A repaired model's siblings stay in its rescaled time unit.
        from repro.dpm.system import PowerManagedSystemModel

        base = paper_system()
        scaled = PowerManagedSystemModel(
            base.provider, base.requestor, base.capacity, rate_scale=2.0 ** -4
        )
        sibling = rated_model(scaled, 0.2)
        assert sibling.rate_scale == scaled.rate_scale
        assert sibling.build_ctmdp(1.0).rate_scale == 2.0 ** -4

    def test_clear_caches_drops_the_slot(self):
        base = paper_system()
        old = rated_model(base, 0.2)
        base.clear_caches()
        fresh = rated_model(base, 0.2)
        assert fresh is not old
        assert fresh.requestor.rate == 0.2

    def test_pickle_drops_the_slot(self):
        base = paper_system()
        sibling = rated_model(base, 0.2)
        sibling.build_ctmdp(1.0)
        clone = pickle.loads(pickle.dumps(base))
        assert clone._rated is None
        assert rated_model(base, 0.2) is sibling  # the original keeps it
        again = rated_model(clone, 0.2)
        assert again is not sibling
        assert again.states == sibling.states

    def test_rejects_non_positive_rates(self):
        base = paper_system()
        for rate in (0.0, -0.2):
            with pytest.raises(InvalidModelError):
                rated_model(base, rate)
