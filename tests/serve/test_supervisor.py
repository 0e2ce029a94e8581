"""Supervised re-solves: retry, watchdog, breaker, hot-swap."""

from __future__ import annotations

import threading
import time

import pytest

from repro.certify import certify_solution
from repro.dpm.adaptive import DriftDetector, rated_model, solve_rated
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import ArtifactError, SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.serve.artifact import ArtifactStore, compile_artifact
from repro.serve.supervisor import (
    BREAKER_STATES,
    CircuitBreaker,
    RetryPolicy,
    Supervisor,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


def make_supervisor(model, tmp_path, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=3, base_delay=0.01, sleep=lambda s: None)
    )
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=2))
    return Supervisor(model, 0.5, ArtifactStore(tmp_path), **kwargs)


class TestCircuitBreaker:
    def test_opens_after_threshold(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0, clock=clock)
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.n_opened == 1

    def test_half_open_admits_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == "half-open"
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0, clock=clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == "half-open"
        breaker.record_failure()  # the probe failed
        assert breaker.state == "open"
        assert breaker.n_opened == 2

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.state == "half-open"
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert breaker.n_closed == 1
        assert breaker.consecutive_failures == 0

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_state_gauge_published(self):
        clock = FakeClock()
        with instrument(metrics=MetricsRegistry()) as ins:
            breaker = CircuitBreaker(
                failure_threshold=1, reset_timeout=1.0, clock=clock
            )
            breaker.record_failure()
            doc = ins.metrics.to_dict()
            assert doc["serve.breaker.state"]["value"] == BREAKER_STATES["open"]
            assert doc["serve.breaker.opened"]["value"] == 1

    def test_invalid_parameters_typed(self):
        with pytest.raises(ArtifactError, match=">= 1"):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ArtifactError, match=">= 0"):
            CircuitBreaker(reset_timeout=-1.0)


class TestRetryPolicy:
    def test_exponential_backoff_schedule(self):
        retry = RetryPolicy(attempts=4, base_delay=0.1, multiplier=2.0)
        assert retry.delay_before(1) == 0.0
        assert retry.delay_before(2) == pytest.approx(0.1)
        assert retry.delay_before(3) == pytest.approx(0.2)
        assert retry.delay_before(4) == pytest.approx(0.4)

    def test_invalid_parameters_typed(self):
        with pytest.raises(ArtifactError, match=">= 1"):
            RetryPolicy(attempts=0)
        with pytest.raises(ArtifactError, match="invalid backoff"):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ArtifactError, match="invalid backoff"):
            RetryPolicy(multiplier=0.5)


class TestSupervisorResolve:
    def test_success_installs_and_persists(self, model, tmp_path):
        sup = make_supervisor(model, tmp_path)
        installed = []
        report = sup.resolve(model.requestor.rate, install=installed.append)
        assert report.ok
        assert report.attempts == 1
        assert report.artifact_version == 1
        assert installed and installed[0] is sup.last_artifact
        assert sup.store.load().checksum == sup.last_artifact.checksum

    def test_versions_increment_across_resolves(self, model, tmp_path):
        sup = make_supervisor(model, tmp_path)
        assert sup.resolve(1 / 6).artifact_version == 1
        assert sup.resolve(0.25).artifact_version == 2
        assert sup.last_artifact.version == 2

    def test_detector_rebased_on_success(self, model, tmp_path):
        sup = make_supervisor(model, tmp_path)
        detector = DriftDetector(reference_rate=1 / 6, threshold=0.25)
        sup.resolve(0.3, detector=detector)
        assert detector.reference_rate == pytest.approx(0.3)

    def test_crash_retries_then_succeeds(self, model, tmp_path):
        calls = []

        def flaky(rate, seed=None):
            calls.append(rate)
            if len(calls) < 3:
                raise SolverError("chaos", diagnostics={"reason": "chaos"})
            return solve_rated(model, rate, 0.5)

        slept = []
        sup = make_supervisor(
            model,
            tmp_path,
            solve=flaky,
            retry=RetryPolicy(attempts=3, base_delay=0.01, sleep=slept.append),
        )
        report = sup.resolve(1 / 6)
        assert report.ok
        assert report.attempts == 3
        assert slept == pytest.approx([0.01, 0.02])
        assert sup.breaker.state == "closed"

    def test_exhausted_retries_fail_closed(self, model, tmp_path):
        def always_crash(rate, seed=None):
            raise SolverError("chaos", diagnostics={"reason": "chaos"})

        with instrument(metrics=MetricsRegistry()) as ins:
            sup = make_supervisor(model, tmp_path, solve=always_crash)
            report = sup.resolve(1 / 6)
        assert not report.ok
        assert report.failure == "crash"
        assert "SolverError" in report.error
        assert report.attempts == 3
        assert sup.last_artifact is None
        assert sup.store.load() is None
        doc = ins.metrics.to_dict()
        assert doc["serve.resolve.attempts"]["value"] == 3
        assert doc["serve.resolve.retries"]["value"] == 2
        assert doc["serve.resolve.failures"]["value"] == 1

    def test_raw_numerical_crash_is_contained(self, model, tmp_path):
        def numpy_blowup(rate, seed=None):
            raise FloatingPointError("overflow in solve")

        sup = make_supervisor(model, tmp_path, solve=numpy_blowup)
        report = sup.resolve(1 / 6)
        assert report.failure == "crash"
        assert "FloatingPointError" in report.error

    def test_hung_solve_abandoned_at_timeout(self, model, tmp_path):
        def hang(rate, seed=None):
            time.sleep(0.5)
            return solve_rated(model, rate, 0.5)

        with instrument(metrics=MetricsRegistry()) as ins:
            sup = make_supervisor(
                model,
                tmp_path,
                solve=hang,
                retry=RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda s: None),
                attempt_timeout=0.05,
            )
            report = sup.resolve(1 / 6)
        assert not report.ok
        assert report.failure == "timeout"
        assert ins.metrics.to_dict()["serve.resolve.timeouts"]["value"] == 2

    def test_rejected_result_not_retried(self, model, tmp_path):
        calls = []

        def wrong_model_result(rate, seed=None):
            calls.append(rate)
            other = paper_system(capacity=4)
            return solve_rated(other, rate, 0.5)

        sup = make_supervisor(model, tmp_path, solve=wrong_model_result)
        report = sup.resolve(1 / 6)
        assert not report.ok
        assert report.failure == "rejected"
        assert len(calls) == 1  # deterministic failure: no second attempt
        assert sup.store.load() is None

    def test_breaker_open_refuses_without_attempting(self, model, tmp_path):
        calls = []

        def crash(rate, seed=None):
            calls.append(rate)
            raise SolverError("chaos", diagnostics={"reason": "chaos"})

        with instrument(metrics=MetricsRegistry()) as ins:
            sup = make_supervisor(
                model,
                tmp_path,
                solve=crash,
                breaker=CircuitBreaker(failure_threshold=1, reset_timeout=60.0),
            )
            sup.resolve(1 / 6)  # opens the breaker
            attempts_before = len(calls)
            refused = sup.resolve(1 / 6)
        assert refused.failure == "breaker-open"
        assert refused.attempts == 0
        assert len(calls) == attempts_before
        assert ins.metrics.to_dict()["serve.resolve.refused"]["value"] == 1

    def test_recovery_after_breaker_reset(self, model, tmp_path):
        clock = FakeClock()
        fail = {"on": True}

        def sometimes(rate, seed=None):
            if fail["on"]:
                raise SolverError("chaos", diagnostics={"reason": "chaos"})
            return solve_rated(model, rate, 0.5)

        sup = make_supervisor(
            model,
            tmp_path,
            solve=sometimes,
            retry=RetryPolicy(attempts=1, sleep=lambda s: None),
            breaker=CircuitBreaker(
                failure_threshold=1, reset_timeout=5.0, clock=clock
            ),
        )
        assert sup.resolve(1 / 6).failure == "crash"
        assert sup.resolve(1 / 6).failure == "breaker-open"
        clock.advance(6.0)
        fail["on"] = False
        report = sup.resolve(1 / 6)  # the half-open probe
        assert report.ok
        assert sup.breaker.state == "closed"

    def test_seed_from_last_artifact(self, model, tmp_path):
        seeds = []

        def recording(rate, seed=None):
            seeds.append(seed)
            return solve_rated(model, rate, 0.5, initial_policy=seed)

        sup = make_supervisor(model, tmp_path, solve=recording)
        sup.resolve(1 / 6)
        served = sup.last_artifact
        sup.resolve(0.2)
        assert seeds[0] is None
        # Warm-started from the served table itself, not a rebuilt Policy.
        assert seeds[1] == served.assignment()

    def test_failure_keeps_last_good_artifact(self, model, tmp_path):
        sup = make_supervisor(model, tmp_path)
        sup.resolve(1 / 6)
        good = sup.last_artifact

        def crash(rate, seed=None):
            raise SolverError("chaos", diagnostics={"reason": "chaos"})

        sup._solve = crash
        report = sup.resolve(0.4)
        assert not report.ok
        assert sup.last_artifact is good
        assert sup.store.load().checksum == good.checksum

    def test_history_records_every_request(self, model, tmp_path):
        sup = make_supervisor(model, tmp_path)
        sup.resolve(1 / 6)
        sup.resolve(0.2)
        assert len(sup.history) == 2
        assert all(r.ok for r in sup.history)


def _fresh_clone(model, rate):
    """The re-rated model built directly, sharing nothing with *model*."""
    return PowerManagedSystemModel(
        model.provider,
        model.requestor.with_rate(rate),
        model.capacity,
        include_transfer_states=model.include_transfer_states,
    )


def _reference(model, rate, weight, version):
    """Artifact checksum and check statuses of a cold solve, compile and
    certificate on a fresh clone."""
    clone = _fresh_clone(model, rate)
    artifact = compile_artifact(
        clone, optimize_weighted(clone, weight), version=version
    )
    report = certify_solution(
        clone,
        artifact.assignment(),
        weight=artifact.weight,
        claimed_metrics=artifact.metrics,
        artifact_checksum=artifact.checksum,
    )
    return artifact.checksum, [(c.name, c.status) for c in report.checks]


def _stored_statuses(store):
    return [
        (check["name"], check["status"])
        for check in store.load_certificate()["checks"]
    ]


class TestRepairedModel:
    def test_resolve_over_repaired_model_certifies_and_installs(self, tmp_path):
        # admit_model repairs extreme magnitudes with a power-of-two
        # rate_scale; the supervisor's re-rated siblings keep it, so the
        # re-solve admits, certifies and installs.
        import numpy as np

        from repro.dpm.service_requestor import ServiceRequestor
        from repro.robust.admission import admit_model

        base = paper_system(capacity=3)
        misscaled = PowerManagedSystemModel(
            base.provider.rescaled(40),
            ServiceRequestor(np.ldexp(base.requestor.rate, 40)),
            base.capacity,
        )
        repaired = admit_model(misscaled, weight=0.5).repaired_model
        assert repaired is not None and repaired.rate_scale != 1.0
        sup = make_supervisor(repaired, tmp_path)
        installed = []
        report = sup.resolve(repaired.requestor.rate, install=installed.append)
        assert report.ok, report.failure
        assert installed and installed[0] is sup.last_artifact
        assert _stored_statuses(sup.store)
        assert all(status != "failed" for _, status in _stored_statuses(sup.store))


class TestOneSiblingPerResolve:
    """A re-solve's solve, admission gate and certificate share one
    re-rated model, so the SYS is assembled once per new rate."""

    def test_one_assembly_per_new_rate(self, tmp_path):
        model = paper_system(capacity=3)
        sup = make_supervisor(model, tmp_path)

        def builds(rate):
            with instrument(metrics=MetricsRegistry()) as ins:
                assert sup.resolve(rate).ok
            counter = ins.metrics.to_dict().get(
                "solver.reuse.skeleton_builds", {"value": 0}
            )
            return counter["value"]

        assert builds(1 / 6) == 1  # cold: no seed
        assert builds(0.2) == 1  # seeded from the served table
        assert builds(0.2) == 0  # the rate repeats: everything is cached

    def test_artifacts_and_certificates_match_fresh_clones(self, tmp_path):
        model = paper_system(capacity=3)
        sup = make_supervisor(model, tmp_path)
        for version, rate in enumerate(
            (1 / 6, 0.2, 0.25, 0.2, 1 / 8, 1 / 3), start=1
        ):
            report = sup.resolve(rate)
            assert report.ok and report.artifact_version == version
            checksum, statuses = _reference(model, rate, 0.5, version)
            assert sup.last_artifact.checksum == checksum
            assert _stored_statuses(sup.store) == statuses
            assert all(status == "passed" for _, status in statuses)

    def test_stale_seed_falls_back_to_cold_start(self, tmp_path):
        model = paper_system(capacity=3)
        cold = make_supervisor(model, tmp_path / "cold")
        assert cold.resolve(0.2).ok
        stale = cold.last_artifact.assignment()
        state = next(iter(stale))
        stale[state] = "__retired-mode__"  # a mode the model lost
        sup = make_supervisor(model, tmp_path / "stale")
        with instrument(metrics=MetricsRegistry()) as ins:
            report = sup.resolve(0.2, seed_policy=stale)
        assert report.ok
        assert sup.last_artifact.checksum == cold.last_artifact.checksum
        doc = ins.metrics.to_dict()
        assert doc["solver.reuse.warm_start_rejected"]["value"] == 1

    def test_abandoned_attempt_cannot_change_the_retry(self, tmp_path):
        model = paper_system(capacity=3)
        rate = 0.25
        release, stop = threading.Event(), threading.Event()
        shared, abandoned_solves, done = [], [], threading.Event()

        def solve(rate, seed=None):
            if not shared:
                # The first attempt takes the sibling before any of its
                # caches exist, outlives the watchdog, then keeps solving
                # on it while the retry solves, admits and certifies.
                shared.append(rated_model(model, rate))
                try:
                    release.wait(10)
                    while not stop.is_set() and len(abandoned_solves) < 200:
                        abandoned_solves.append(
                            solve_rated(model, rate, 0.5).policy
                        )
                finally:
                    done.set()
                raise AssertionError("the abandoned result must be discarded")
            assert rated_model(model, rate) is shared[0]
            release.set()
            return solve_rated(model, rate, 0.5, initial_policy=seed)

        sup = make_supervisor(
            model,
            tmp_path,
            solve=solve,
            retry=RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda s: None),
            attempt_timeout=0.3,
        )
        try:
            report = sup.resolve(rate)
        finally:
            stop.set()
            assert done.wait(30)
        assert report.ok, report.error
        assert report.attempts == 2
        assert abandoned_solves  # it did run beside the retry
        checksum, statuses = _reference(model, rate, 0.5, 1)
        assert sup.last_artifact.checksum == checksum
        assert _stored_statuses(sup.store) == statuses
        assert sup.store.load().checksum == checksum
