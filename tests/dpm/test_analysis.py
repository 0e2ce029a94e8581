"""Tests for analytic policy evaluation on the SYS model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.policy import Policy
from repro.dpm.analysis import evaluate_dpm_policy, state_probabilities
from repro.dpm.model_policies import always_on_assignment, as_policy
from repro.dpm.presets import paper_system
from repro.queueing.mm1k import MM1KQueue

LAM = 1.0 / 6.0
MU = 1.0 / 1.5


class TestAlwaysOnAgainstMM1K:
    """Always-on reduces the SYS model to a plain M/M/1/K queue, so the
    closed-form results must be reproduced (up to the negligible
    self-switch dwell)."""

    @pytest.fixture(scope="class")
    def metrics(self):
        model = paper_system()
        mdp = model.build_ctmdp(0.0)
        policy = as_policy(mdp, always_on_assignment(model))
        return evaluate_dpm_policy(model, policy)

    @pytest.fixture(scope="class")
    def reference(self):
        return MM1KQueue(LAM, MU, capacity=5)

    def test_queue_length_matches_mm1k(self, metrics, reference):
        assert metrics.average_queue_length == pytest.approx(
            reference.mean_number_in_system(), rel=1e-3
        )

    def test_loss_rate_matches_mm1k(self, metrics, reference):
        expected = LAM * reference.blocking_probability()
        assert metrics.loss_rate == pytest.approx(expected, rel=1e-3)

    def test_waiting_time_matches_mm1k(self, metrics, reference):
        assert metrics.average_waiting_time == pytest.approx(
            reference.mean_sojourn_time(), rel=1e-3
        )

    def test_power_is_active_power(self, metrics):
        # Never switches: exactly the active-mode power.
        assert metrics.average_power == pytest.approx(40.0, rel=1e-6)

    def test_accepted_rate_consistent(self, metrics):
        assert metrics.accepted_rate == pytest.approx(
            LAM - metrics.loss_rate, abs=1e-12
        )

    def test_paper_approximation_uses_raw_lambda(self, metrics):
        assert metrics.paper_waiting_time_approximation == pytest.approx(
            metrics.average_queue_length / LAM
        )


class TestWakeupLatency:
    def test_always_on_has_no_inactive_states_occupied(self, paper_model):
        from repro.dpm.analysis import wakeup_latency
        from repro.dpm.model_policies import always_on_assignment, as_policy

        mdp = paper_model.build_ctmdp(0.0)
        policy = as_policy(mdp, always_on_assignment(paper_model))
        latencies = wakeup_latency(paper_model, policy)
        # Keyed by inactive-mode states only.
        assert all(not paper_model.provider.is_active(s.mode) for s in latencies)
        # Under always-on every inactive state immediately heads active:
        # the latency is just the switch time to active.
        from repro.dpm.service_queue import stable
        from repro.dpm.system import SystemState

        assert latencies[SystemState("sleeping", stable(0))] == pytest.approx(1.1)
        assert latencies[SystemState("waiting", stable(0))] == pytest.approx(0.5)

    def test_lazier_policies_wait_longer(self, paper_model):
        from repro.dpm.analysis import wakeup_latency
        from repro.dpm.model_policies import as_policy, n_policy_assignment
        from repro.dpm.service_queue import stable
        from repro.dpm.system import SystemState

        mdp = paper_model.build_ctmdp(0.0)
        state = SystemState("sleeping", stable(1))
        lat1 = wakeup_latency(
            paper_model, as_policy(mdp, n_policy_assignment(paper_model, 1))
        )[state]
        lat4 = wakeup_latency(
            paper_model, as_policy(mdp, n_policy_assignment(paper_model, 4))
        )[state]
        # N=1 wakes immediately from (sleeping, q1); N=4 waits for three
        # more arrivals (~18 s) first.
        assert lat1 == pytest.approx(1.1)
        assert lat4 > lat1 + 10.0


class TestStateProbabilities:
    def test_probabilities_normalize(self, paper_model, paper_mdp):
        from repro.ctmdp.policy_iteration import policy_iteration

        policy = policy_iteration(paper_mdp).policy
        probs = state_probabilities(policy)
        assert sum(probs.values()) == pytest.approx(1.0)
        assert all(p >= -1e-12 for p in probs.values())

    def test_keyed_by_system_state(self, paper_model, paper_mdp):
        from repro.ctmdp.policy_iteration import policy_iteration

        policy = policy_iteration(paper_mdp).policy
        probs = state_probabilities(policy)
        assert set(probs) == set(paper_model.states)


class TestThreadIndependentMetrics:
    """The metrics' reductions read the same bits on any BLAS thread
    count, so a served artifact's bytes do not depend on the host."""

    SCRIPT = (
        "import numpy as np\n"
        "from repro.dpm.analysis import _stationary_average\n"
        "rng = np.random.default_rng(7)\n"
        "p = rng.random(100003); p /= p.sum()\n"
        "x = rng.random(100003) * 10.0\n"
        "print(_stationary_average(p, x).hex())\n"
    )

    def run(self, threads: int) -> str:
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads), PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", self.SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        return out.stdout.strip()

    def test_one_and_two_threads_agree(self):
        assert self.run(1) == self.run(2)

    @pytest.mark.parametrize("capacity", [5, 100])  # dense and CSR tiers
    def test_metrics_are_those_reductions(self, capacity):
        from repro.ctmdp.backends import lower, resolve_backend
        from repro.dpm.analysis import _stationary_average
        from repro.dpm.optimizer import optimize_weighted

        model = paper_system(capacity=capacity)
        result = optimize_weighted(model, 1.0)
        mdp = result.policy.mdp
        tier = lower(mdp, resolve_backend(mdp, "auto"))
        sel = tier.selection(result.policy)
        p = tier.stationary(sel)
        for name, got in [("power", result.metrics.average_power),
                          ("queue_length", result.metrics.average_queue_length),
                          ("loss", result.metrics.loss_rate)]:
            assert got == _stationary_average(p, tier.extra[name][sel]), name
