"""The decision surface: degradation ladder, runtime, asyncio server.

:class:`PolicyServer` answers state→action lookups from whatever the
best currently-admitted source is, walking the degradation ladder
(DESIGN §13):

1. **fresh** -- the installed artifact tracks the estimated workload;
2. **stale** -- the installed artifact predates a confirmed drift whose
   re-solve has not succeeded (breaker open, retries exhausted);
   answers still come from the admitted table, flagged so callers and
   the staleness gauge can see it;
3. **heuristic** -- no artifact was ever admitted; answers come from
   the paper's deterministic N-policy computed directly on the model
   (no solver in the loop, cannot fail).

Every decision is tagged with its source and the artifact version it
came from, so the chaos harness can prove the invariant that matters:
*an answer is always consistent with the currently-admitted artifact
(or the deterministic heuristic) -- never a half-swapped or rejected
table, never an untyped error.*

:class:`ServingRuntime` composes the ladder with the adaptive estimator,
drift detector, and supervisor into the long-lived process behind
``repro-dpm serve``; it bootstraps from the artifact store (crash
recovery), re-solves in the background on confirmed drift, and exposes
a JSON-lines asyncio endpoint plus a deterministic virtual-time soak
loop for the chaos harness and CI.
"""

from __future__ import annotations

import asyncio
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dpm.adaptive import AdaptiveRateEstimator, DriftDetector
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import ArtifactError, ReproError, ServeRequestError
from repro.obs.runtime import active as obs_active
from repro.serve.artifact import (
    ArtifactStore,
    PolicyArtifact,
    table_action,
    validate_artifact,
)
from repro.serve.supervisor import CircuitBreaker, ResolveReport, RetryPolicy, Supervisor

#: Gauge encoding of the serving rung (higher = more degraded).
SOURCE_LEVELS = {"fresh": 0.0, "stale": 1.0, "heuristic": 2.0}


@dataclass(frozen=True)
class ServeDecision:
    """One answered lookup: the action plus its provenance.

    ``artifact`` is the exact :class:`PolicyArtifact` snapshot the
    action came from (``None`` on the heuristic rung) so harnesses can
    verify consistency against the table itself, not a re-read of
    mutable server state.
    """

    action: str
    source: str
    version: "Optional[int]"
    artifact: "Optional[PolicyArtifact]" = None


class PolicyServer:
    """The degradation ladder over one installed artifact pointer.

    The installed state is a single ``(artifact, stale?)`` tuple
    rebound atomically (CPython attribute assignment), so a decision
    concurrent with a hot-swap sees either the old admitted table or
    the new one -- never a mixture. The heuristic rung is precomputed
    at construction -- the N-policy's actions
    (:func:`repro.dpm.model_policies.n_policy_actions`) keyed by
    :meth:`~repro.dpm.system.PowerManagedSystemModel.state_keys`, both
    in state order -- and involves no solver, so it cannot fail at
    decision time. The model builds its key list once, so a server
    constructed after :func:`~repro.serve.artifact.compile_artifact`
    on the same model copies the keys compile built.
    """

    def __init__(
        self, model: PowerManagedSystemModel, heuristic_n: int = 1
    ) -> None:
        from repro.dpm.model_policies import n_policy_actions

        self.model = model
        self.capacity = int(model.capacity)
        self.heuristic_n = int(heuristic_n)
        self._heuristic: "Dict[Tuple[str, str, int], str]" = dict(
            zip(model.state_keys(), n_policy_actions(model, heuristic_n))
        )
        # (artifact, stale flag) -- rebound as one tuple, never mutated.
        self._installed: "Tuple[Optional[PolicyArtifact], bool]" = (None, False)
        self.n_decisions = 0
        self.n_by_source = {"fresh": 0, "stale": 0, "heuristic": 0}
        self.n_swaps = 0

    # -- pointer management (called by the supervisor/runtime) --------------

    @property
    def artifact(self) -> "Optional[PolicyArtifact]":
        return self._installed[0]

    @property
    def stale(self) -> bool:
        return self._installed[1]

    @property
    def source(self) -> str:
        """The rung the next decision will be served from."""
        artifact, stale = self._installed
        if artifact is None:
            return "heuristic"
        return "stale" if stale else "fresh"

    def _publish_level(self) -> None:
        ins = obs_active()
        if ins.metrics is not None:
            ins.metrics.gauge("serve.staleness").set(
                SOURCE_LEVELS[self.source]
            )
            artifact = self._installed[0]
            if artifact is not None:
                ins.metrics.gauge("serve.artifact.version").set(
                    float(artifact.version)
                )

    def install(self, artifact: PolicyArtifact) -> None:
        """Hot-swap *artifact* in as the fresh serving table."""
        self._installed = (artifact, False)
        self.n_swaps += 1
        self._publish_level()

    def mark_stale(self) -> None:
        """Flag the installed artifact as lagging a confirmed drift."""
        artifact, _ = self._installed
        if artifact is not None:
            self._installed = (artifact, True)
        self._publish_level()

    def mark_fresh(self) -> None:
        artifact, _ = self._installed
        if artifact is not None:
            self._installed = (artifact, False)
        self._publish_level()

    # -- the decision path ---------------------------------------------------

    def decide(
        self, mode: str, in_transfer: bool = False, count: int = 0
    ) -> ServeDecision:
        """Answer one lookup from the best available rung.

        Malformed requests raise :class:`~repro.errors.ServeRequestError`
        (typed, never a traceback past the protocol layer); valid
        requests always get an action.
        """
        ins = obs_active()
        started = time.perf_counter() if ins.enabled else 0.0
        artifact, stale = self._installed
        if artifact is not None:
            action = artifact.action_for(mode, in_transfer, count)
            source = "stale" if stale else "fresh"
            decision = ServeDecision(
                action=action,
                source=source,
                version=artifact.version,
                artifact=artifact,
            )
        else:
            decision = ServeDecision(
                action=self._heuristic_action(mode, in_transfer, count),
                source="heuristic",
                version=None,
            )
        self.n_decisions += 1
        self.n_by_source[decision.source] += 1
        if ins.enabled and ins.metrics is not None:
            metrics = ins.metrics
            metrics.counter("serve.decisions").inc()
            metrics.counter(f"serve.decisions.{decision.source}").inc()
            metrics.histogram(
                "serve.lookup_latency_s", profiling=True
            ).observe(time.perf_counter() - started)
        return decision

    def _heuristic_action(
        self, mode: str, in_transfer: bool, count: int
    ) -> str:
        return table_action(
            self._heuristic, self.capacity, mode, in_transfer, count,
            "heuristic",
        )


class ServingRuntime:
    """Estimator + detector + supervisor + ladder, wired together.

    The composition behind ``repro-dpm serve``: feed arrivals in via
    :meth:`observe_arrival`, answer lookups via :meth:`decide`, and
    call :meth:`maybe_adapt` periodically -- it confirms drift through
    the detector, runs the supervised re-solve (inline, or on a
    background thread with ``background=True`` so serving never
    blocks), and walks the ladder on failure.

    Parameters mirror :class:`~repro.serve.supervisor.Supervisor`;
    ``solve`` stays injectable for the chaos harness.
    """

    def __init__(
        self,
        base_model: PowerManagedSystemModel,
        weight: float,
        store: ArtifactStore,
        backend: str = "auto",
        heuristic_n: int = 1,
        drift_threshold: float = 0.25,
        drift_consecutive: int = 3,
        estimator_window: int = 50,
        retry: "Optional[RetryPolicy]" = None,
        breaker: "Optional[CircuitBreaker]" = None,
        attempt_timeout: "Optional[float]" = None,
        solve: "Optional[Callable[..., Any]]" = None,
        certifier: "Optional[Callable[..., Any]]" = None,
    ) -> None:
        self.base_model = base_model
        self.weight = float(weight)
        self.store = store
        base_rate = base_model.requestor.rate
        self.estimator = AdaptiveRateEstimator(
            window=estimator_window, initial_rate=base_rate
        )
        self.detector = DriftDetector(
            base_rate, threshold=drift_threshold, consecutive=drift_consecutive
        )
        self.supervisor = Supervisor(
            base_model,
            weight,
            store,
            backend=backend,
            retry=retry,
            breaker=breaker,
            attempt_timeout=attempt_timeout,
            solve=solve,
            certifier=certifier,
        )
        self.server = PolicyServer(base_model, heuristic_n=heuristic_n)
        self.bootstrap_source: "Optional[str]" = None
        self.bootstrap_error: "Optional[str]" = None
        self._lock = threading.Lock()
        self._resolving = False
        self._background: "Optional[threading.Thread]" = None

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self, initial_solve: bool = True) -> str:
        """Recover or establish a serving table; returns the rung.

        Order: (1) a stored last-good artifact that still passes the
        admission gate *and* holds or earns a valid certificate -- the
        crash-recovery path, also what makes a SIGKILL mid-swap
        survivable; (2) a fresh initial solve when *initial_solve*;
        (3) the heuristic rung. Never raises for artifact or solver
        trouble.
        """
        try:
            stored = self.store.load()
        except ArtifactError as exc:
            self.bootstrap_error = f"{type(exc).__name__}: {exc}"
            stored = None
        if stored is not None:
            try:
                validate_artifact(stored, self.base_model)
            except ArtifactError as exc:
                self.bootstrap_error = f"{type(exc).__name__}: {exc}"
            else:
                if self._bootstrap_certified(stored):
                    self.server.install(stored)
                    self.supervisor.last_artifact = stored
                    self.detector.rebase(stored.rate)
                    self.bootstrap_source = "stored"
                    return self.server.source
        if initial_solve:
            report = self.supervisor.resolve(
                self.base_model.requestor.rate,
                detector=self.detector,
                install=self.server.install,
            )
            if report.ok:
                self.bootstrap_source = "solved"
                return self.server.source
            self.bootstrap_error = report.error or report.failure
        self.bootstrap_source = "heuristic"
        return self.server.source

    def _bootstrap_certified(self, stored) -> bool:
        """Is the stored artifact covered by a valid certificate?

        Accepts the stored sidecar certificate when it parses, is
        bound to this exact artifact (``artifact_checksum``), and says
        certified; otherwise re-certifies from scratch and persists the
        fresh certificate. Returns ``False`` -- sending bootstrap down
        the initial-solve rung -- when certification fails or errors.
        """
        from repro.certify import CertificationReport

        try:
            document = self.store.load_certificate()
        except ArtifactError:
            document = None  # corrupt sidecar: fall through to re-certify
        if document is not None:
            try:
                report = CertificationReport.from_document(document)
            except ReproError:
                report = None
            if (
                report is not None
                and report.artifact_checksum == stored.checksum
                and report.certified
            ):
                return True
        try:
            report = self.supervisor._certifier(stored)
        except ReproError as exc:
            self.bootstrap_error = f"{type(exc).__name__}: {exc}"
            return False
        if not report.certified:
            self.bootstrap_error = (
                "stored artifact failed certification: "
                + ", ".join(report.finding_codes)
            )
            return False
        self.store.save_certificate(report.to_document())
        return True

    def observe_arrival(self, timestamp: float) -> None:
        self.estimator.observe_arrival(timestamp)

    def decide(
        self, mode: str, in_transfer: bool = False, count: int = 0
    ) -> ServeDecision:
        return self.server.decide(mode, in_transfer, count)

    # -- adaptation ----------------------------------------------------------

    def maybe_adapt(self, background: bool = False) -> "Optional[ResolveReport]":
        """Check for confirmed drift and run the supervised re-solve.

        Inline by default (deterministic for tests); with
        ``background=True`` the re-solve runs on a daemon thread and
        this returns immediately (``None``) -- at most one background
        re-solve is in flight at a time.
        """
        if not self.estimator.warmed_up:
            return None
        rate = self.estimator.rate()
        if not self.detector.observe(rate):
            return None
        # Drift is confirmed: whatever is installed no longer tracks
        # the workload until a re-solve lands.
        if self.server.artifact is not None and not self.server.stale:
            self.server.mark_stale()
        if background:
            with self._lock:
                if self._resolving:
                    return None
                self._resolving = True
            thread = threading.Thread(
                target=self._resolve_and_install,
                args=(rate,),
                name="serve-adapt",
                daemon=True,
            )
            self._background = thread
            thread.start()
            return None
        return self._resolve_and_install(rate)

    def _resolve_and_install(self, rate: float) -> ResolveReport:
        try:
            report = self.supervisor.resolve(
                rate, detector=self.detector, install=self._install_fresh
            )
            return report
        finally:
            with self._lock:
                self._resolving = False

    def _install_fresh(self, artifact: PolicyArtifact) -> None:
        self.server.install(artifact)

    def join_background(self, timeout: "Optional[float]" = None) -> None:
        """Wait for an in-flight background re-solve (tests/shutdown)."""
        thread = self._background
        if thread is not None:
            thread.join(timeout)

    # -- introspection -------------------------------------------------------

    def status(self) -> "Dict[str, Any]":
        """The health/status document served by ``{"op": "health"}``."""
        artifact = self.server.artifact
        return {
            "source": self.server.source,
            "health": self.health(),
            "artifact_version": artifact.version if artifact else None,
            "artifact_rate": artifact.rate if artifact else None,
            "breaker": self.supervisor.breaker.state,
            "breaker_opened": self.supervisor.breaker.n_opened,
            "breaker_closed": self.supervisor.breaker.n_closed,
            "estimated_rate": self.estimator.rate(),
            "drift_fraction": self.detector.drift_fraction,
            "decisions": self.server.n_decisions,
            "decisions_by_source": dict(self.server.n_by_source),
            "swaps": self.server.n_swaps,
            "resolves": len(self.supervisor.history),
            "bootstrap": self.bootstrap_source,
        }

    def health(self) -> str:
        """``"ok"`` (fresh), ``"stale"``, or ``"degraded"`` (heuristic)."""
        source = self.server.source
        if source == "fresh":
            return "ok"
        if source == "stale":
            return "stale"
        return "degraded"

    # -- the asyncio endpoint ------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """JSON-lines protocol: one request object per line.

        ``{"mode": "busy", "transfer": false, "count": 2}`` →
        ``{"action": ..., "source": ..., "version": ...}``;
        ``{"op": "health"}`` → the :meth:`status` document. Malformed
        input gets ``{"error": {"type": ..., "message": ...}}`` -- the
        connection never sees a traceback and never closes on a bad
        request.
        """
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._handle_request_line(line)
                writer.write(json.dumps(response).encode("utf-8") + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _handle_request_line(self, line: bytes) -> "Dict[str, Any]":
        try:
            request = json.loads(line)
        except ValueError as exc:
            return _error_payload("ServeRequestError", f"invalid JSON: {exc}")
        if not isinstance(request, dict):
            return _error_payload(
                "ServeRequestError", "request must be a JSON object"
            )
        op = request.get("op", "decide")
        if op == "health":
            return self.status()
        if op != "decide":
            return _error_payload("ServeRequestError", f"unknown op {op!r}")
        mode = request.get("mode")
        if not isinstance(mode, str):
            return _error_payload(
                "ServeRequestError", "request needs a string 'mode'"
            )
        transfer = request.get("transfer", False)
        count = request.get("count", 0)
        if not isinstance(transfer, bool) or not isinstance(count, int):
            return _error_payload(
                "ServeRequestError",
                "'transfer' must be a boolean and 'count' an integer",
            )
        try:
            decision = self.decide(mode, transfer, count)
        except ServeRequestError as exc:
            return _error_payload(type(exc).__name__, str(exc))
        return {
            "action": decision.action,
            "source": decision.source,
            "version": decision.version,
        }

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 0):
        """Run the asyncio endpoint until cancelled."""
        server = await asyncio.start_server(self.handle_connection, host, port)
        async with server:
            await server.serve_forever()

    # -- the deterministic soak loop -----------------------------------------

    def soak(
        self,
        duration: float,
        seed: int = 0,
        chaos=None,
        adapt_every: int = 25,
    ) -> "SoakReport":
        """Drive the runtime through *duration* of virtual Poisson time.

        Arrivals are drawn from a seeded exponential stream whose true
        rate the optional *chaos* plan controls (drift storms); every
        arrival answers one lookup at a seeded random joint state, and
        every ``adapt_every`` arrivals the adaptation path runs
        inline. Each decision is self-checked against the exact
        artifact snapshot it reports -- a mismatch is recorded as a
        violation (and bumps ``serve.selfcheck.violations``), which the
        chaos harness asserts stays zero.

        Virtual time means the loop is deterministic and fast: a 60 s
        CI soak is 60 s of *modeled* time, not wall-clock sleeping.
        """
        rng = random.Random(seed)
        report = SoakReport(duration=float(duration), seed=int(seed))
        ins = obs_active()
        metrics = ins.metrics if ins.enabled else None
        modes = list(self.base_model.provider.modes)
        vt = 0.0
        while vt < duration:
            rate = (
                chaos.rate_at(vt)
                if chaos is not None
                else self.base_model.requestor.rate
            )
            vt += rng.expovariate(rate)
            if vt >= duration:
                break
            self.observe_arrival(vt)
            report.arrivals += 1
            mode = rng.choice(modes)
            # Occasionally query transfer states; modes that have none
            # exercise the typed-rejection path instead of an action.
            in_transfer = rng.random() < 0.2
            count = rng.randrange(0, self.base_model.capacity + 1)
            try:
                decision = self.decide(mode, in_transfer, count)
            except ServeRequestError:
                report.typed_rejections += 1
                continue
            report.decisions += 1
            report.by_source[decision.source] += 1
            if decision.artifact is not None:
                expected = decision.artifact.action_for(
                    mode, in_transfer, count
                )
                if decision.action != expected:
                    report.selfcheck_violations += 1
                    if metrics is not None:
                        metrics.counter("serve.selfcheck.violations").inc()
            if chaos is not None:
                chaos.on_arrival(self, vt, rng, report)
            if report.arrivals % adapt_every == 0:
                resolve = self.maybe_adapt()
                if resolve is not None:
                    report.resolves += 1
                    if resolve.ok:
                        report.resolve_successes += 1
        report.final_status = self.status()
        return report


@dataclass
class SoakReport:
    """What a :meth:`ServingRuntime.soak` run did, for assertions/CI."""

    duration: float
    seed: int
    arrivals: int = 0
    decisions: int = 0
    typed_rejections: int = 0
    selfcheck_violations: int = 0
    resolves: int = 0
    resolve_successes: int = 0
    by_source: "Dict[str, int]" = field(
        default_factory=lambda: {"fresh": 0, "stale": 0, "heuristic": 0}
    )
    final_status: "Dict[str, Any]" = field(default_factory=dict)

    def to_dict(self) -> "Dict[str, Any]":
        return {
            "duration": self.duration,
            "seed": self.seed,
            "arrivals": self.arrivals,
            "decisions": self.decisions,
            "typed_rejections": self.typed_rejections,
            "selfcheck_violations": self.selfcheck_violations,
            "resolves": self.resolves,
            "resolve_successes": self.resolve_successes,
            "by_source": dict(self.by_source),
            "final_status": self.final_status,
        }


def _error_payload(kind: str, message: str) -> "Dict[str, Any]":
    return {"error": {"type": kind, "message": message}}
