"""Tests for the cost model (Eqn. 3.1) and the service requestor."""

from __future__ import annotations

import pytest

from repro.dpm.cost import weighted_cost
from repro.dpm.service_requestor import ServiceRequestor
from repro.errors import InvalidModelError


class TestWeightedCost:
    def test_eqn_3_1(self):
        assert weighted_cost(power=10.0, delay=3.0, weight=2.0) == 16.0

    def test_zero_weight_is_pure_power(self):
        assert weighted_cost(10.0, 99.0, 0.0) == 10.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_cost(1.0, 1.0, -0.1)


class TestServiceRequestor:
    def test_rate_and_mean(self):
        sr = ServiceRequestor(0.25)
        assert sr.rate == 0.25
        assert sr.mean_interarrival_time == 4.0

    def test_with_rate_returns_new_instance(self):
        sr = ServiceRequestor(1.0)
        sr2 = sr.with_rate(2.0)
        assert sr2.rate == 2.0
        assert sr.rate == 1.0

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(InvalidModelError):
            ServiceRequestor(0.0)
        with pytest.raises(InvalidModelError):
            ServiceRequestor(-1.0)
