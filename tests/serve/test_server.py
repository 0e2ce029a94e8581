"""Degradation ladder, runtime lifecycle, and the JSON-lines protocol."""

from __future__ import annotations

import json

import pytest

from repro.ctmdp.policy import Policy
from repro.dpm.adaptive import solve_rated
from repro.dpm.analysis import evaluate_dpm_policy
from repro.dpm.model_policies import n_policy_assignment
from repro.dpm.optimizer import OptimizationResult, optimize_weighted
from repro.dpm.presets import paper_system
from repro.errors import ReproError, ServeRequestError, SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.serve.artifact import ArtifactStore, compile_artifact
from repro.serve.server import SOURCE_LEVELS, PolicyServer, ServingRuntime
from repro.serve.supervisor import CircuitBreaker, RetryPolicy


@pytest.fixture(scope="module")
def model():
    return paper_system(capacity=3)


@pytest.fixture(scope="module")
def artifact(model):
    return compile_artifact(model, optimize_weighted(model, 0.5), version=1)


def make_runtime(model, tmp_path, **kwargs):
    kwargs.setdefault(
        "retry", RetryPolicy(attempts=2, base_delay=0.0, sleep=lambda s: None)
    )
    kwargs.setdefault("breaker", CircuitBreaker(failure_threshold=2))
    return ServingRuntime(model, 0.5, ArtifactStore(tmp_path), **kwargs)


class TestPolicyServerLadder:
    def test_starts_on_heuristic_rung(self, model):
        server = PolicyServer(model)
        assert server.source == "heuristic"
        decision = server.decide("active", False, 0)
        assert decision.source == "heuristic"
        assert decision.version is None
        assert decision.artifact is None

    def test_heuristic_matches_n_policy(self, model):
        server = PolicyServer(model, heuristic_n=1)
        table = n_policy_assignment(model, 1)
        for state, action in table.items():
            got = server.decide(
                state.mode, state.queue.kind == "transfer",
                state.queue.index - 1 if state.queue.kind == "transfer" else state.queue.index,
            )
            assert got.action == action

    def test_install_moves_to_fresh(self, model, artifact):
        server = PolicyServer(model)
        server.install(artifact)
        assert server.source == "fresh"
        decision = server.decide("active", False, 1)
        assert decision.source == "fresh"
        assert decision.version == 1
        assert decision.artifact is artifact
        assert decision.action == artifact.action_for("active", False, 1)

    def test_mark_stale_keeps_serving_from_table(self, model, artifact):
        server = PolicyServer(model)
        server.install(artifact)
        server.mark_stale()
        assert server.source == "stale"
        decision = server.decide("active", False, 1)
        assert decision.source == "stale"
        assert decision.action == artifact.action_for("active", False, 1)
        server.mark_fresh()
        assert server.source == "fresh"

    def test_mark_stale_without_artifact_is_noop(self, model):
        server = PolicyServer(model)
        server.mark_stale()
        assert server.source == "heuristic"

    def test_typed_rejection_on_bad_request(self, model, artifact):
        server = PolicyServer(model)
        with pytest.raises(ServeRequestError):
            server.decide("warp", False, 0)
        server.install(artifact)
        with pytest.raises(ServeRequestError):
            server.decide("warp", False, 0)
        with pytest.raises(ServeRequestError, match=">= 0"):
            server.decide("active", False, -2)

    def test_decision_counters_and_gauges(self, model, artifact):
        with instrument(metrics=MetricsRegistry()) as ins:
            server = PolicyServer(model)
            server.decide("active", False, 0)
            server.install(artifact)
            server.decide("active", False, 0)
            server.mark_stale()
            server.decide("active", False, 0)
            doc = ins.metrics.to_dict()
        assert doc["serve.decisions"]["value"] == 3
        assert doc["serve.decisions.heuristic"]["value"] == 1
        assert doc["serve.decisions.fresh"]["value"] == 1
        assert doc["serve.decisions.stale"]["value"] == 1
        assert doc["serve.staleness"]["value"] == SOURCE_LEVELS["stale"]
        assert doc["serve.artifact.version"]["value"] == 1.0
        assert "serve.lookup_latency_s" in doc
        assert server.n_decisions == 3
        assert server.n_swaps == 1


class TestLookupKey:
    """The heuristic rung and an artifact compiled from the same
    N-policy read one clamped ``(mode, kind, index)`` key."""

    @pytest.mark.parametrize("include_transfer_states", [True, False])
    def test_heuristic_and_artifact_answer_alike(self, include_transfer_states):
        model = paper_system(include_transfer_states=include_transfer_states)
        policy = Policy(model.build_ctmdp(1.0), n_policy_assignment(model, 1))
        artifact = compile_artifact(model, OptimizationResult(
            policy=policy, metrics=evaluate_dpm_policy(model, policy),
            weight=1.0,
        ))
        server = PolicyServer(model, heuristic_n=1)
        checked = 0
        for mode in (*model.provider.modes, "warp"):
            for in_transfer in (False, True):
                for count in range(-1, model.capacity + 3):
                    outcomes = []
                    for lookup in (
                        lambda *a: server.decide(*a).action,
                        artifact.action_for,
                    ):
                        try:
                            outcomes.append(lookup(mode, in_transfer, count))
                        except ReproError as exc:
                            outcomes.append(type(exc))
                    assert outcomes[0] == outcomes[1], (mode, in_transfer, count)
                    checked += isinstance(outcomes[0], str)
        assert server.n_by_source["heuristic"] == server.n_decisions
        assert checked > 0


class TestRuntimeBootstrap:
    def test_bootstrap_from_store(self, model, tmp_path, artifact):
        ArtifactStore(tmp_path).save(artifact)
        runtime = make_runtime(model, tmp_path)
        assert runtime.bootstrap() == "fresh"
        assert runtime.bootstrap_source == "stored"
        assert runtime.supervisor.last_artifact.checksum == artifact.checksum
        assert runtime.detector.reference_rate == pytest.approx(artifact.rate)

    def test_bootstrap_solves_when_store_empty(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        assert runtime.bootstrap() == "fresh"
        assert runtime.bootstrap_source == "solved"
        assert runtime.store.load() is not None

    def test_bootstrap_skips_solve_when_disabled(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        assert runtime.bootstrap(initial_solve=False) == "heuristic"
        assert runtime.bootstrap_source == "heuristic"
        assert runtime.health() == "degraded"

    def test_bootstrap_rejects_corrupt_store_then_solves(
        self, model, tmp_path, artifact
    ):
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        data = store.path.read_bytes()
        store.path.write_bytes(data[: len(data) // 2])
        runtime = make_runtime(model, tmp_path)
        assert runtime.bootstrap() == "fresh"
        assert runtime.bootstrap_source == "solved"
        assert runtime.bootstrap_error is not None

    def test_bootstrap_rejects_foreign_artifact(self, model, tmp_path):
        other = paper_system(capacity=4)
        foreign = compile_artifact(other, optimize_weighted(other, 0.5), version=1)
        ArtifactStore(tmp_path).save(foreign)
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap(initial_solve=False)
        assert runtime.bootstrap_source == "heuristic"
        assert "ArtifactRejectedError" in runtime.bootstrap_error

    def test_bootstrap_heuristic_when_solver_down(self, model, tmp_path):
        def crash(rate, seed=None):
            raise SolverError("chaos", diagnostics={"reason": "chaos"})

        runtime = make_runtime(model, tmp_path, solve=crash)
        assert runtime.bootstrap() == "heuristic"
        assert runtime.bootstrap_source == "heuristic"
        assert runtime.health() == "degraded"
        # Serving still works on the heuristic rung.
        assert runtime.decide("active", False, 0).source == "heuristic"


class TestRuntimeAdaptation:
    def _feed_arrivals(self, runtime, rate, n=60, start=0.0):
        """Deterministic arrivals at an exact inter-arrival spacing."""
        t = start
        for _ in range(n):
            t += 1.0 / rate
            runtime.observe_arrival(t)
        return t

    def test_no_adapt_before_warmup(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap()
        runtime.observe_arrival(1.0)
        assert runtime.maybe_adapt() is None

    def test_no_adapt_without_drift(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap()
        self._feed_arrivals(runtime, model.requestor.rate)
        assert runtime.maybe_adapt() is None
        assert runtime.server.source == "fresh"

    def test_confirmed_drift_resolves_and_swaps(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path, drift_consecutive=2)
        runtime.bootstrap()
        v1 = runtime.server.artifact.version
        drifted = model.requestor.rate * 3.0
        t = self._feed_arrivals(runtime, drifted)
        report = None
        for _ in range(4):
            report = runtime.maybe_adapt()
            if report is not None:
                break
            t = self._feed_arrivals(runtime, drifted, n=10, start=t)
        assert report is not None and report.ok
        assert runtime.server.artifact.version == v1 + 1
        assert runtime.server.source == "fresh"
        assert runtime.server.artifact.rate == pytest.approx(drifted, rel=0.2)

    def test_failed_resolve_leaves_stale_flag(self, model, tmp_path):
        calls = {"n": 0}

        def crash_after_first(rate, seed=None):
            calls["n"] += 1
            if calls["n"] == 1:
                return solve_rated(model, rate, 0.5)
            raise SolverError("chaos", diagnostics={"reason": "chaos"})

        runtime = make_runtime(
            model, tmp_path, solve=crash_after_first, drift_consecutive=2
        )
        runtime.bootstrap()
        drifted = model.requestor.rate * 3.0
        t = self._feed_arrivals(runtime, drifted)
        report = None
        for _ in range(4):
            report = runtime.maybe_adapt()
            if report is not None:
                break
            t = self._feed_arrivals(runtime, drifted, n=10, start=t)
        assert report is not None and not report.ok
        assert runtime.server.source == "stale"
        assert runtime.health() == "stale"
        # Answers still come from the admitted (v1) table.
        decision = runtime.decide("active", False, 1)
        assert decision.source == "stale"
        assert decision.version == 1

    def test_background_resolve_swaps_eventually(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path, drift_consecutive=2)
        runtime.bootstrap()
        drifted = model.requestor.rate * 3.0
        t = self._feed_arrivals(runtime, drifted)
        for _ in range(6):
            runtime.maybe_adapt(background=True)
            runtime.join_background(timeout=10.0)
            if runtime.server.artifact.version > 1:
                break
            t = self._feed_arrivals(runtime, drifted, n=10, start=t)
        assert runtime.server.artifact.version == 2
        assert runtime.server.source == "fresh"


class TestStatusAndHealth:
    def test_status_document_shape(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap()
        runtime.decide("active", False, 0)
        status = runtime.status()
        assert status["source"] == "fresh"
        assert status["health"] == "ok"
        assert status["artifact_version"] == 1
        assert status["breaker"] == "closed"
        assert status["decisions"] == 1
        assert status["decisions_by_source"]["fresh"] == 1
        assert status["bootstrap"] == "solved"
        json.dumps(status)  # must be wire-serializable

    def test_health_ladder(self, model, tmp_path, artifact):
        runtime = make_runtime(model, tmp_path)
        assert runtime.health() == "degraded"
        runtime.server.install(artifact)
        assert runtime.health() == "ok"
        runtime.server.mark_stale()
        assert runtime.health() == "stale"


class TestProtocol:
    def _runtime(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap()
        return runtime

    def test_decide_roundtrip(self, model, tmp_path):
        runtime = self._runtime(model, tmp_path)
        response = runtime._handle_request_line(
            b'{"mode": "active", "transfer": false, "count": 1}\n'
        )
        assert response["source"] == "fresh"
        assert response["version"] == 1
        assert response["action"] == runtime.server.artifact.action_for(
            "active", False, 1
        )

    def test_decide_defaults(self, model, tmp_path):
        runtime = self._runtime(model, tmp_path)
        response = runtime._handle_request_line(b'{"mode": "active"}\n')
        assert "action" in response

    def test_health_op(self, model, tmp_path):
        runtime = self._runtime(model, tmp_path)
        response = runtime._handle_request_line(b'{"op": "health"}\n')
        assert response["health"] == "ok"

    @pytest.mark.parametrize(
        "line",
        [
            b"not json\n",
            b"[1, 2]\n",
            b'{"op": "launch-missiles"}\n',
            b"{}\n",
            b'{"mode": 7}\n',
            b'{"mode": "active", "transfer": "yes"}\n',
            b'{"mode": "active", "count": 1.5}\n',
            b'{"mode": "warp"}\n',
            b'{"mode": "active", "count": -3}\n',
        ],
    )
    def test_malformed_requests_get_typed_errors(self, model, tmp_path, line):
        runtime = self._runtime(model, tmp_path)
        response = runtime._handle_request_line(line)
        assert set(response) == {"error"}
        assert response["error"]["type"] == "ServeRequestError"
        assert isinstance(response["error"]["message"], str)
        json.dumps(response)


class TestSoak:
    def test_soak_is_deterministic(self, model, tmp_path):
        a = make_runtime(model, tmp_path / "a")
        a.bootstrap()
        b = make_runtime(model, tmp_path / "b")
        b.bootstrap()
        ra = a.soak(600.0, seed=7)
        rb = b.soak(600.0, seed=7)
        assert ra.to_dict() == rb.to_dict()
        assert ra.arrivals > 0
        assert ra.selfcheck_violations == 0

    def test_soak_serves_only_fresh_without_chaos(self, model, tmp_path):
        runtime = make_runtime(model, tmp_path)
        runtime.bootstrap()
        report = runtime.soak(600.0, seed=1)
        assert report.by_source["heuristic"] == 0
        assert report.by_source["fresh"] == report.decisions
        assert report.final_status["health"] == "ok"
