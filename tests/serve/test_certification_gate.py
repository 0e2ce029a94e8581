"""The hot-swap is provably gated on certification.

Acceptance criterion of the certification engine: a re-solve whose
solution fails (or crashes) independent certification must leave the
last-good artifact serving, the store untouched, and the breaker
informed -- and the bootstrap path must refuse a stored artifact that
cannot show (or earn) a valid certificate.
"""

from __future__ import annotations

import json

import pytest

from repro.certify import CertificationReport, certify_artifact
from repro.dpm.presets import paper_system
from repro.errors import CertificationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.serve.artifact import ArtifactStore
from repro.serve.server import ServingRuntime
from repro.serve.supervisor import CircuitBreaker, RetryPolicy, Supervisor


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


class FailedCertificate:
    """Stub report: certification came back with findings."""

    certified = False
    finding_codes = ["bellman-gap-exceeded", "lp-duality-gap"]


def make_supervisor(model, tmp_path, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=2, base_delay=0.01, sleep=lambda s: None)
    )
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=3))
    return Supervisor(model, 0.5, ArtifactStore(tmp_path), **kwargs)


def make_runtime(model, store, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=2, base_delay=0.01, sleep=lambda s: None)
    )
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=3))
    return ServingRuntime(model, 0.5, store, **kwargs)


class TestResolveGate:
    def test_failed_certificate_leaves_last_good_serving(self, model, tmp_path):
        supervisor = make_supervisor(model, tmp_path)
        first = supervisor.resolve(model.requestor.rate)
        assert first.ok
        good = supervisor.store.load()

        # From now on every solution fails certification.
        supervisor._certifier = lambda artifact: FailedCertificate()
        installed = []
        report = supervisor.resolve(
            model.requestor.rate * 2.0, install=installed.append
        )
        assert not report.ok
        assert report.failure == "uncertified"
        assert report.details["certification"] == FailedCertificate.finding_codes
        assert "bellman-gap-exceeded" in report.error
        # Nothing reached the server or the store; last-good serves on.
        assert installed == []
        assert supervisor.store.load().checksum == good.checksum
        assert supervisor.last_artifact.checksum == good.checksum
        assert supervisor.breaker.consecutive_failures == 1

    def test_certifier_crash_is_uncertified_not_raised(self, model, tmp_path):
        supervisor = make_supervisor(model, tmp_path)

        def explode(artifact):
            raise CertificationError("oracle melted")

        supervisor._certifier = explode
        report = supervisor.resolve(model.requestor.rate)
        assert report.failure == "uncertified"
        assert "CertificationError" in report.error
        assert supervisor.store.load() is None

    def test_uncertified_counter_flows(self, model, tmp_path):
        with instrument(metrics=MetricsRegistry()) as ins:
            supervisor = make_supervisor(model, tmp_path)
            supervisor._certifier = lambda artifact: FailedCertificate()
            supervisor.resolve(model.requestor.rate)
            doc = ins.metrics.to_dict()
        assert doc["serve.resolve.uncertified"]["value"] == 1
        assert doc["serve.resolve.failures"]["value"] == 1

    def test_certificate_sidecar_saved_and_bound(self, model, tmp_path):
        supervisor = make_supervisor(model, tmp_path)
        assert supervisor.resolve(model.requestor.rate).ok
        document = supervisor.store.load_certificate()
        assert document is not None
        report = CertificationReport.from_document(document)
        assert report.certified
        assert report.artifact_checksum == supervisor.store.load().checksum


class TestBootstrapGate:
    def seed_store(self, model, tmp_path, rate=None):
        """A store holding a genuinely certified artifact."""
        supervisor = make_supervisor(model, tmp_path)
        assert supervisor.resolve(rate or model.requestor.rate).ok
        return supervisor.store

    def test_valid_sidecar_accepted_without_recertifying(self, model, tmp_path):
        store = self.seed_store(model, tmp_path)
        calls = []

        def spy(artifact):
            calls.append(artifact)
            return certify_artifact(artifact, model)

        runtime = make_runtime(model, store, certifier=spy)
        assert runtime.bootstrap(initial_solve=False) == "fresh"
        assert runtime.bootstrap_source == "stored"
        assert calls == []  # the persisted certificate carried the proof

    def test_missing_sidecar_triggers_recertification(self, model, tmp_path):
        store = self.seed_store(model, tmp_path)
        store.cert_path.unlink()
        calls = []

        def spy(artifact):
            calls.append(artifact)
            return certify_artifact(artifact, model)

        runtime = make_runtime(model, store, certifier=spy)
        assert runtime.bootstrap(initial_solve=False) == "fresh"
        assert len(calls) == 1
        assert store.load_certificate() is not None  # re-persisted

    def test_corrupt_sidecar_falls_back_to_recertification(self, model, tmp_path):
        store = self.seed_store(model, tmp_path)
        store.cert_path.write_text("{not json")
        runtime = make_runtime(model, store)
        assert runtime.bootstrap(initial_solve=False) == "fresh"
        document = store.load_certificate()
        assert json.loads(store.cert_path.read_text()) == document

    def test_foreign_certificate_not_trusted(self, model, tmp_path):
        # A sidecar bound to a *different* artifact checksum must not
        # vouch for the stored one: bootstrap re-certifies.
        store = self.seed_store(model, tmp_path)
        document = store.load_certificate()
        report = CertificationReport.from_document(document)
        stored = store.load()
        forged = CertificationReport(
            mode=report.mode,
            rate=report.rate,
            weight=report.weight,
            n_states=report.n_states,
            tolerance=report.tolerance,
            claimed=report.claimed,
            checks=report.checks,
            policy_checksum=report.policy_checksum,
            fingerprint=report.fingerprint,
            artifact_checksum="0" * 64,
        )
        store.save_certificate(forged.to_document())
        calls = []

        def spy(artifact):
            calls.append(artifact)
            return certify_artifact(artifact, model)

        runtime = make_runtime(model, store, certifier=spy)
        assert runtime.bootstrap(initial_solve=False) == "fresh"
        assert len(calls) == 1
        fresh = CertificationReport.from_document(store.load_certificate())
        assert fresh.artifact_checksum == stored.checksum

    def test_uncertifiable_stored_artifact_resolves_fresh(self, model, tmp_path):
        # Seed at a drifted rate so the bootstrap's fresh solve (at the
        # base rate) yields a *different* artifact than the stored one.
        store = self.seed_store(model, tmp_path, rate=model.requestor.rate * 2)
        stored = store.load()
        store.cert_path.unlink()

        def certifier(artifact):
            if artifact.checksum == stored.checksum:
                return FailedCertificate()
            return certify_artifact(artifact, model)

        runtime = make_runtime(model, store, certifier=certifier)
        assert runtime.bootstrap(initial_solve=True) == "fresh"
        assert runtime.bootstrap_source == "solved"
        assert "failed certification" in runtime.bootstrap_error
        assert store.load().checksum != stored.checksum
