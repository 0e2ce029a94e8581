"""The supervised re-solve loop: retry, circuit breaker, hot-swap.

The serving runtime must keep answering while the workload drifts, so
re-solves happen *around* serving, never in its path. The supervisor
owns that background pipeline (DESIGN §13 state machine):

    drift confirmed → breaker closed? → solve (retry w/ backoff,
    per-attempt timeout) → compile artifact → admission-validate →
    atomic store.save → install in the server → detector rebased

Every stage can fail, and each failure has exactly one behavior:

- a crashed solve retries with exponential backoff up to the
  :class:`RetryPolicy` budget;
- a hung solve is abandoned at the attempt timeout (the worker thread
  is daemonized and its eventual result discarded) and counts as a
  failed attempt;
- an inadmissible result (NaN metrics, rejected model, invalid policy)
  is *not* retried -- the same inputs would fail again -- and counts
  as a failure toward the breaker;
- when failures accumulate past the breaker threshold the breaker
  opens: re-solve requests are refused without consuming any work, the
  server keeps answering from the last-good artifact (flagged stale),
  and after ``reset_timeout`` of quiet one probe attempt is allowed
  (half-open) to decide between closing and re-opening.

Nothing in this pipeline can make the server serve a worse answer than
it already has: the swap happens only after the admission gate passed,
and the swap itself is atomic (:meth:`repro.serve.artifact.ArtifactStore.save`).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.dpm.adaptive import DriftDetector, rated_model, solve_rated
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import ArtifactError, ReproError
from repro.obs.runtime import active as obs_active
from repro.serve.artifact import (
    ArtifactStore,
    PolicyArtifact,
    compile_artifact,
    validate_artifact,
)

#: Gauge encoding of the breaker state (monotone in "how broken").
BREAKER_STATES = {"closed": 0.0, "half-open": 0.5, "open": 1.0}


class CircuitBreaker:
    """Classic closed → open → half-open breaker around re-solves.

    ``record_failure`` moves a closed breaker toward open
    (``failure_threshold`` consecutive failures); an open breaker
    refuses :meth:`allow` until ``reset_timeout`` has elapsed, then
    admits exactly one probe (half-open). The probe's outcome closes or
    re-opens it. The clock is injectable so tests (and the chaos
    harness) control time deterministically.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        clock: "Callable[[], float]" = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ArtifactError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_timeout < 0:
            raise ArtifactError(
                f"reset_timeout must be >= 0, got {reset_timeout}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        self._state = "closed"
        self._failures = 0
        self._opened_at: "Optional[float]" = None
        self.n_opened = 0
        self.n_closed = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (read-only)."""
        self._maybe_half_open()
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def _publish_state(self) -> None:
        ins = obs_active()
        if ins.metrics is not None:
            ins.metrics.gauge("serve.breaker.state").set(
                BREAKER_STATES[self._state]
            )

    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half-open"
            self._publish_state()

    def allow(self) -> bool:
        """Whether a re-solve attempt may proceed right now."""
        self._maybe_half_open()
        return self._state != "open"

    def record_success(self) -> None:
        if self._state != "closed":
            self.n_closed += 1
            ins = obs_active()
            if ins.metrics is not None:
                ins.metrics.counter("serve.breaker.closed").inc()
        self._state = "closed"
        self._failures = 0
        self._opened_at = None
        self._publish_state()

    def record_failure(self) -> None:
        self._maybe_half_open()
        self._failures += 1
        should_open = (
            self._state == "half-open"
            or self._failures >= self.failure_threshold
        )
        if should_open and self._state != "open":
            self._state = "open"
            self._opened_at = self._clock()
            self.n_opened += 1
            ins = obs_active()
            if ins.metrics is not None:
                ins.metrics.counter("serve.breaker.opened").inc()
        self._publish_state()


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff for one re-solve request.

    ``sleep`` is injectable so deterministic tests pay no wall-clock;
    the chaos harness passes a recording stub.
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    sleep: "Callable[[float], None]" = time.sleep

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ArtifactError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay < 0 or self.multiplier < 1:
            raise ArtifactError(
                f"invalid backoff (base_delay={self.base_delay}, "
                f"multiplier={self.multiplier})"
            )

    def delay_before(self, attempt: int) -> float:
        """Backoff before *attempt* (1-based; attempt 1 has none)."""
        if attempt <= 1:
            return 0.0
        return self.base_delay * self.multiplier ** (attempt - 2)


@dataclass
class ResolveReport:
    """What one supervised re-solve request did, success or not.

    ``failure`` is ``None`` on success, else one of ``"crash"``
    (solver raised), ``"timeout"`` (attempt exceeded the budget),
    ``"rejected"`` (result inadmissible -- not retried),
    ``"uncertified"`` (the solution failed independent certification
    -- not retried; ``details["certification"]`` holds the finding
    codes), or ``"breaker-open"`` (refused without attempting).
    """

    ok: bool
    rate: float
    attempts: int = 0
    failure: "Optional[str]" = None
    error: "Optional[str]" = None
    artifact_version: "Optional[int]" = None
    details: "Dict[str, Any]" = field(default_factory=dict)


class _Abandoned(Exception):
    """Internal marker: the attempt thread outlived its budget."""


class Supervisor:
    """Runs admission-gated background re-solves and hot-swaps results.

    Parameters
    ----------
    base_model:
        The SYS model at its nominal rate; re-solves re-rate it. One
        re-solve's solve, compile, admission gate and certificate all
        run on the same re-rated sibling
        (:func:`repro.dpm.adaptive.rated_model`), which assembles the
        SYS once.
    weight:
        Performance weight of the objective, fixed for the runtime's
        lifetime (drift is in the arrival rate, not the objective).
    store:
        Where admitted artifacts are atomically persisted.
    solver, backend:
        Forwarded to :func:`repro.dpm.adaptive.solve_rated`.
    retry:
        Per-request retry budget/backoff (default 3 attempts).
    breaker:
        Circuit breaker shared across requests.
    attempt_timeout:
        Wall-clock budget per solve attempt in seconds; ``None``
        disables the watchdog (solves run inline, fully deterministic).
        With a timeout the solve runs on a daemon thread -- a hung
        attempt is *abandoned*, not killed; its eventual result is
        discarded. CPython cannot safely kill a thread, so an abandoned
        attempt costs a core until it finishes; the breaker bounds how
        many such attempts can pile up. It may still be solving on the
        re-rated model its retry shares
        (:func:`repro.dpm.adaptive.rated_model`); it only reads that
        immutable model and publishes complete caches, so it cannot
        change what the retry installs.
    solve:
        Injectable solve callable ``(rate, initial_policy) -> result``
        for the chaos harness; defaults to the real pipeline.
        ``initial_policy`` is ``None`` on the first re-solve and then
        the last-good artifact's ``{state: action}`` table -- the
        advisory warm start of
        :func:`repro.dpm.optimizer.optimize_weighted`, which rebinds it
        to the solve's model and falls back to a cold start when it is
        stale.
    admission_level:
        Forwarded to :func:`repro.serve.artifact.validate_artifact`.
    certify:
        When true (the default), every admitted solution must also earn
        an independent certificate (:mod:`repro.certify`) before the
        hot-swap: Bellman residual, LP duality gap, exact arithmetic,
        and cross-backend consensus. A failed or crashed certification
        is a deterministic ``"uncertified"`` failure -- the last-good
        artifact keeps serving and the breaker records the failure.
    certifier:
        Injectable ``(artifact) -> CertificationReport`` for tests and
        chaos; defaults to
        :func:`repro.certify.certify_artifact` against ``base_model``.
    """

    def __init__(
        self,
        base_model: PowerManagedSystemModel,
        weight: float,
        store: ArtifactStore,
        solver: str = "policy_iteration",
        backend: str = "auto",
        retry: "Optional[RetryPolicy]" = None,
        breaker: "Optional[CircuitBreaker]" = None,
        attempt_timeout: "Optional[float]" = None,
        solve: "Optional[Callable[..., Any]]" = None,
        admission_level: str = "standard",
        certify: bool = True,
        certifier: "Optional[Callable[[PolicyArtifact], Any]]" = None,
    ) -> None:
        self.base_model = base_model
        self.weight = float(weight)
        self.store = store
        self.solver = solver
        self.backend = backend
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.attempt_timeout = attempt_timeout
        self.admission_level = admission_level
        self._solve = solve if solve is not None else self._default_solve
        self.certify = certify
        self._certifier = (
            certifier if certifier is not None else self._default_certifier
        )
        self.last_artifact: "Optional[PolicyArtifact]" = None
        self.history: "List[ResolveReport]" = []

    def _default_certifier(self, artifact: PolicyArtifact):
        from repro.certify import certify_artifact

        return certify_artifact(artifact, self.base_model)

    def _default_solve(self, rate: float, initial_policy=None):
        return solve_rated(
            self.base_model,
            rate,
            self.weight,
            solver=self.solver,
            backend=self.backend,
            initial_policy=initial_policy,
        )

    # -- one attempt ---------------------------------------------------------

    def _attempt(self, rate: float, seed) -> Any:
        """One solve attempt under the watchdog; raises on crash/timeout."""
        if self.attempt_timeout is None:
            return self._solve(rate, seed)
        out: "queue.Queue" = queue.Queue(maxsize=1)

        def worker() -> None:
            try:
                out.put(("ok", self._solve(rate, seed)))
            except BaseException as exc:  # noqa: BLE001 - relayed typed below
                out.put(("err", exc))

        thread = threading.Thread(
            target=worker, name="serve-resolve", daemon=True
        )
        thread.start()
        try:
            kind, payload = out.get(timeout=self.attempt_timeout)
        except queue.Empty:
            raise _Abandoned(
                f"solve attempt exceeded {self.attempt_timeout:g}s"
            ) from None
        if kind == "err":
            raise payload
        return payload

    # -- the full supervised request ----------------------------------------

    def resolve(
        self,
        rate: float,
        seed_policy=None,
        detector: "Optional[DriftDetector]" = None,
        install: "Optional[Callable[[PolicyArtifact], None]]" = None,
    ) -> ResolveReport:
        """Re-solve for *rate*, admit, persist, and install the result.

        Never raises for solver/admission trouble -- every outcome is a
        :class:`ResolveReport`, and on any failure the caller's serving
        state is untouched. Programming errors still propagate.
        """
        ins = obs_active()
        metrics = ins.metrics if ins.enabled else None
        report = ResolveReport(ok=False, rate=float(rate))
        self.history.append(report)
        if not self.breaker.allow():
            report.failure = "breaker-open"
            if metrics is not None:
                metrics.counter("serve.resolve.refused").inc()
            return report
        seed = seed_policy
        if seed is None and self.last_artifact is not None:
            # The served table is the warm start; a stale one falls
            # back to a cold start inside optimize_weighted.
            seed = self.last_artifact.assignment()
        with ins.span("serve.resolve", rate=rate):
            result = None
            for attempt in range(1, self.retry.attempts + 1):
                delay = self.retry.delay_before(attempt)
                if delay > 0:
                    if metrics is not None:
                        metrics.counter("serve.resolve.retries").inc()
                    self.retry.sleep(delay)
                report.attempts = attempt
                if metrics is not None:
                    metrics.counter("serve.resolve.attempts").inc()
                try:
                    result = self._attempt(rate, seed)
                    break
                except _Abandoned as exc:
                    report.failure = "timeout"
                    report.error = str(exc)
                    if metrics is not None:
                        metrics.counter("serve.resolve.timeouts").inc()
                except ReproError as exc:
                    report.failure = "crash"
                    report.error = f"{type(exc).__name__}: {exc}"
                except (
                    ArithmeticError,
                    RuntimeError,
                    ValueError,
                ) as exc:
                    # Numerical backends (and injected chaos) surface
                    # raw numpy/scipy failures; treated as a crash.
                    report.failure = "crash"
                    report.error = f"{type(exc).__name__}: {exc}"
            if result is None:
                self.breaker.record_failure()
                if metrics is not None:
                    metrics.counter("serve.resolve.failures").inc()
                return report
            # Compile + admit. Inadmissible results are deterministic
            # failures of the inputs -- no retry.
            version = 1 + (
                self.last_artifact.version if self.last_artifact else 0
            )
            try:
                artifact = compile_artifact(
                    rated_model(self.base_model, rate),
                    result,
                    version=version,
                    solver=self.solver,
                    backend=self.backend,
                )
                validate_artifact(
                    artifact, self.base_model, level=self.admission_level
                )
            except ArtifactError as exc:
                report.failure = "rejected"
                report.error = f"{type(exc).__name__}: {exc}"
                self.breaker.record_failure()
                if metrics is not None:
                    metrics.counter("serve.resolve.failures").inc()
                return report
            # Independent certification gates the hot-swap: an admitted
            # but uncertified solution never reaches the store or the
            # server -- deterministic failure, no retry, last-good
            # artifact keeps serving.
            certificate = None
            if self.certify:
                try:
                    cert_report = self._certifier(artifact)
                except ReproError as exc:
                    report.failure = "uncertified"
                    report.error = f"{type(exc).__name__}: {exc}"
                    self.breaker.record_failure()
                    if metrics is not None:
                        metrics.counter("serve.resolve.failures").inc()
                        metrics.counter("serve.resolve.uncertified").inc()
                    return report
                if not cert_report.certified:
                    codes = cert_report.finding_codes
                    report.failure = "uncertified"
                    report.error = (
                        f"solution failed certification: {', '.join(codes)}"
                    )
                    report.details["certification"] = codes
                    self.breaker.record_failure()
                    if metrics is not None:
                        metrics.counter("serve.resolve.failures").inc()
                        metrics.counter("serve.resolve.uncertified").inc()
                    return report
                certificate = cert_report.to_document()
            self.store.save(artifact)
            if certificate is not None:
                self.store.save_certificate(certificate)
            if install is not None:
                install(artifact)
            self.last_artifact = artifact
            self.breaker.record_success()
            if detector is not None:
                detector.rebase(rate)
            report.ok = True
            report.artifact_version = artifact.version
            if metrics is not None:
                metrics.counter("serve.resolve.successes").inc()
                metrics.counter("serve.swaps").inc()
            return report
