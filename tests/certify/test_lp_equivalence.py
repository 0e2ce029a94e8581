"""LP-vs-policy-iteration equivalence on the paper's operating points.

The certification engine's LP oracle is only as good as the claim that
the occupation-measure LP and the paper's policy-iteration solver agree
on the optimal gain. This pins that equivalence down across Table 1
arrival rates and a spread of Figure 4 weights: at every operating
point the PI solution must earn an LP duality-gap certificate within
tolerance, and the constrained variant must satisfy its bound exactly
at the LP optimum.
"""

from __future__ import annotations

import pytest

from repro.certify import certify_result
from repro.certify.duality import check_lp
from repro.ctmdp.linear_program import solve_average_cost_lp
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_constrained, optimize_weighted
from repro.dpm.presets import paper_system
from repro.experiments.setup import (
    INPUT_RATES,
    QUEUE_LENGTH_BOUND,
)

#: A spread of Figure 4 weights covering lazy through eager policies.
WEIGHTS = (0.05, 0.5, 2.5)

TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


class TestTable1OperatingPoints:
    @pytest.mark.parametrize("rate", INPUT_RATES)
    def test_pi_gain_matches_lp_optimum(self, model, rate):
        rated = rated_model(model, rate)
        result = optimize_weighted(rated, 0.5)
        report = certify_result(rated, result, tolerance=TOLERANCE)
        assert report.certified, (rate, report.finding_codes)
        lp = report.check("lp")
        gain = report.check("bellman").data["gain"]
        assert abs(lp.data["duality_gap"]) <= TOLERANCE * max(1.0, abs(gain))

    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_equivalence_across_weights(self, model, weight):
        result = optimize_weighted(model, weight)
        mdp = model.build_ctmdp(weight)
        lp = solve_average_cost_lp(mdp)
        pi_gain = (
            result.metrics.average_power
            + weight * result.metrics.average_queue_length
        )
        scale = max(1.0, abs(pi_gain))
        assert lp.gain == pytest.approx(pi_gain, abs=TOLERANCE * scale)
        check = check_lp(mdp, result.policy, pi_gain, TOLERANCE, scale)
        assert check.status == "passed", check.findings
        assert check.data["lp_status"] == "optimal"
        # The LP's own primal-dual gap closes to machine precision.
        assert abs(check.data["lp_internal_gap"]) < 1e-9

    def test_constrained_optimum_certifies_on_the_paper_bound(self, model):
        result = optimize_constrained(model, QUEUE_LENGTH_BOUND)
        report = certify_result(
            model,
            result,
            constraints={"queue_length": QUEUE_LENGTH_BOUND},
            tolerance=TOLERANCE,
        )
        assert report.certified, report.finding_codes
        lp = report.check("lp")
        assert lp.status == "passed"
        scale = max(1.0, abs(result.metrics.average_power))
        assert abs(lp.data["duality_gap"]) <= TOLERANCE * scale


class TestFeasibilityTolerance:
    """HiGHS's default 1e-7 feasibility tolerance let the ~400-state LP
    stop ~1e-6 (relative) below the optimal gain, so certification
    rejected the optimal policy with ``lp-duality-gap``."""

    def test_optimal_policy_certifies_at_400_states(self):
        model = paper_system(arrival_rate=0.2, capacity=100)
        result = optimize_weighted(model, 1.0)
        report = certify_result(model, result)
        assert report.certified, report.finding_codes
        lp = solve_average_cost_lp(model.build_ctmdp(1.0))
        pi_gain = (
            result.metrics.average_power + result.metrics.average_queue_length
        )
        assert lp.gain == pytest.approx(pi_gain, rel=1e-9)
