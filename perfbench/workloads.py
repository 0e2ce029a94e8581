"""The four pipeline workloads and the loop that times them.

Each workload drives only public entry points of ``repro``. One sample
is one policy -- from a configuration to a policy installed where
decisions are served (for the farm, to the returned policy). On
``paper-serve`` and ``scale-100k`` each policy is followed by batches
of decisions against the installed table. The caller is the device's
power manager: it asks for a decision and waits for the answer (a
closed loop with one client), and re-solves run inline between
decision batches.

Every sample starts from a fresh model after ``gc.collect()``: a model
caches its built CTMDPs and sparse skeleton, so a reused one would time
cache hits. A calibration kernel is timed just after every sample (and
once before the first), and each timing is reported in calibrated
seconds (see calibrate.py). Correctness is checked outside the timed
regions: each policy's gain and metrics against references.json (see
references.py), the delay bound of the constrained search, and every
served decision replayed against the installed table. A failure is
counted, never raised.
"""

from __future__ import annotations

import contextlib
import gc
import json
import random
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from repro.certify import engine as certify_engine
from repro.ctmdp import kron as ctmdp_kron
from repro.ctmdp import value_iteration
from repro.dpm import optimizer, presets
from repro.dpm.service_queue import STABLE
from repro.robust import admission
from repro.serve import artifact as artifact_mod
from repro.serve import server as server_mod

from perfbench import calibrate, stats, tracing
from perfbench import references as refs

REFERENCES = Path(__file__).resolve().parent / "references.json"

WEIGHT = refs.WEIGHT
#: Decisions per batch; each call is timed on its own.
BATCH_SIZE = 1000
#: Kernel calls per burst during a long policy (~7% of its time at
#: one burst per 0.1 s).
SAMPLER_REPS = 1
#: A run starts no sample likely to end past OVERSHOOT x the requested
#: seconds, and none after CAP_S seconds even short of a workload's
#: minimum, so that on a slow host it still ends within 180 s.
OVERSHOOT = 1.1
CAP_S = 120.0


class CheckFailed(Exception):
    """The pipeline produced something that must not be served."""


class ServedTable:
    """Decisions through a PolicyServer, replayed against its artifact."""

    def __init__(self, server, artifact) -> None:
        self.server = server
        self.artifact = artifact
        self.n = len(artifact.states)

    def request(self, i: int) -> tuple:
        mode, kind, index = self.artifact.states[i]
        # A transfer state's index counts the request leaving service.
        return (mode, False, index) if kind == STABLE else (mode, True, index - 1)

    def decide(self):
        return self.server.decide

    def failure(self, i: int, answer) -> Optional[str]:
        if isinstance(answer, Exception):
            return f"decide-raised-{type(answer).__name__}"
        if answer.artifact is not self.artifact:
            return "not-the-installed-artifact"
        if answer.action != self.artifact.actions[i]:
            return "action-differs-from-table"
        return None


class Workload:
    """One named workload: set-up, one timed policy, and its checks."""

    name = ""
    #: Policies a run takes at least (unless CAP_S stops it) and at most
    #: (None: as many as fit in the requested seconds). A fixed count
    #: gives every run the same process history: the farm's first two
    #: solves in a process take ~2.5x as long as its later ones.
    min_policies = 2
    max_policies: Optional[int] = 2
    #: Decision batches served from each installed table (0: none).
    batches_per_policy = 0
    #: Whether a run holds enough policies for a p95 (>= 200).
    report_p95 = False
    #: Calibration kernel calls (~7 ms each, see calibrate.py) per
    #: measurement before and after each policy, and -- for policies of
    #: several seconds, untraced -- the seconds between kernel bursts
    #: of SAMPLER_REPS calls during it (None: no bursts).
    kernel_reps = 15
    sample_interval: Optional[float] = 0.1
    notes: tuple = ()

    def __init__(self, seed: int, reference: Dict) -> None:
        self.seed = int(seed)
        self.reference = reference
        self.store = None

    def setup(self, store_dir: Path) -> None:
        self.store = artifact_mod.ArtifactStore(store_dir)

    def policy(self, k: int) -> None:
        """The timed work of policy *k*."""
        raise NotImplementedError

    def table(self):
        """The installed table decisions are served from (only called
        when ``batches_per_policy`` > 0)."""
        raise NotImplementedError

    def check(self) -> List[str]:
        """Failure reasons of the last policy (empty when correct)."""
        raise NotImplementedError

    def release(self) -> None:
        """Drop the last policy's objects before the next sample."""

    def artifact_bytes(self) -> int:
        if self.store is None:
            return 0
        return sum(path.stat().st_size
                   for path in (self.store.path, self.store.cert_path)
                   if path.exists())


class PaperServe(Workload):
    """Section V (Q=5, 23 states, w=1) on the serving runtime's loop:
    a certified, hot-swapped re-solve at a seeded rate in [1/8, 1/3]
    alternates with a batch of decisions."""

    name = "paper-serve"
    min_policies = 200  # p95 of the re-solve time needs >= 200 samples
    max_policies = None
    batches_per_policy = 1
    report_p95 = True
    # One kernel call (~7 ms) keeps calibration under a tenth of a
    # round; the median over >= 200 re-solves absorbs its noise.
    kernel_reps = 1
    sample_interval = None

    def __init__(self, seed: int, reference: Dict) -> None:
        super().__init__(seed, reference)
        self.rates = [float(rate) for rate in reference["rates"]]
        self.rng = random.Random(f"rates:{self.seed}")

    def setup(self, store_dir: Path) -> None:
        super().setup(store_dir)
        model = presets.paper_system(capacity=self.reference["capacity"])
        self.runtime = server_mod.ServingRuntime(model, WEIGHT, self.store)
        source = self.runtime.bootstrap()
        if source != "fresh":
            raise CheckFailed(
                f"bootstrap serves from the {source} rung: "
                f"{self.runtime.bootstrap_error}"
            )

    def policy(self, k: int) -> None:
        self.rate = self.rng.choice(self.rates)
        runtime = self.runtime
        self.report = runtime.supervisor.resolve(
            self.rate, detector=runtime.detector, install=runtime.server.install
        )

    def table(self) -> ServedTable:
        server = self.runtime.server
        return ServedTable(server, server.artifact)

    def check(self) -> List[str]:
        report = self.report
        if not report.ok:
            return [f"resolve-{report.failure}"]
        artifact = self.runtime.server.artifact
        if artifact.version != report.artifact_version or artifact.rate != self.rate:
            return ["re-solve-not-installed"]
        return refs.metric_failures(
            artifact.metrics, WEIGHT,
            self.reference["points"][repr(self.rate)],
            self.reference["tolerance"],
        )


class Constrained(Workload):
    """Fig. 3's constrained search, Q=250 (1003 states), lambda=1/6,
    D=1.0, on the default auto backend; the result is compiled,
    validated, certified, saved and installed."""

    name = "constrained-1k"

    def policy(self, k: int) -> None:
        ref = self.reference
        model = presets.paper_system(
            arrival_rate=ref["arrival_rate"], capacity=ref["capacity"]
        )
        result = optimizer.find_weight_for_constraint(model, ref["bound"])
        artifact = artifact_mod.compile_artifact(model, result, version=k + 1)
        artifact_mod.validate_artifact(artifact, model)
        certificate = certify_engine.certify_artifact(artifact, model)
        if not certificate.certified:
            raise CheckFailed(
                "uncertified: " + ", ".join(certificate.finding_codes)
            )
        self.store.save(artifact)
        self.store.save_certificate(certificate.to_document())
        server = server_mod.PolicyServer(model)
        server.install(artifact)
        self.result, self.artifact, self.server = result, artifact, server

    def check(self) -> List[str]:
        ref = self.reference
        failures = []
        if abs(self.result.weight - ref["weight"]) > 1e-9 * ref["weight"]:
            failures.append("weight-off-reference")
        if self.artifact.metrics["average_queue_length"] > ref["bound"]:
            failures.append("delay-bound-violated")
        return failures + refs.metric_failures(
            self.artifact.metrics, self.result.weight, ref["point"],
            ref["tolerance"],
        )

    def release(self) -> None:
        self.result = self.artifact = self.server = None


class Scale(Workload):
    """Q=25000 (100,003 states), w=1 on the sparse tier: admission,
    policy iteration, compile, save, install; decisions probe the
    100k-entry table."""

    name = "scale-100k"
    batches_per_policy = 20
    notes = (
        "certify_artifact and validate_artifact are not run: both build "
        "the dense CTMDP, whose O(pairs x states) rows do not fit in "
        "memory at 10^5 states",
    )

    def policy(self, k: int) -> None:
        model = presets.paper_system(capacity=self.reference["capacity"])
        admission.admit_model(model, weight=WEIGHT)
        result = optimizer.optimize_weighted(model, WEIGHT)
        artifact = artifact_mod.compile_artifact(model, result, version=k + 1)
        self.store.save(artifact)
        server = server_mod.PolicyServer(model)
        server.install(artifact)
        self.artifact, self.server = artifact, server

    def table(self) -> ServedTable:
        return ServedTable(self.server, self.artifact)

    def check(self) -> List[str]:
        return refs.metric_failures(
            self.artifact.metrics, WEIGHT, self.reference["point"],
            self.reference["tolerance"],
        )

    def release(self) -> None:
        self.artifact = self.server = None


class Farm(Workload):
    """``kron_farm_model(6, 6)``: 7^6 = 117,649 states on the matrix-free
    tier, solved by relative value iteration."""

    name = "farm-118k"

    def setup(self, store_dir: Path) -> None:
        pass  # nothing is stored: the kron tier has no serve artifact

    def policy(self, k: int) -> None:
        ref = self.reference
        kmdp = ctmdp_kron.kron_farm_model(ref["n_queues"], ref["queue_capacity"])
        self.result = value_iteration.relative_value_iteration(
            kmdp, span_tolerance=ref["span_tolerance"]
        )

    def check(self) -> List[str]:
        ref = self.reference
        if abs(self.result.gain - ref["gain"]) > ref["gain_tolerance"]:
            return ["gain-off-reference"]
        return []

    def release(self) -> None:
        self.result = None


WORKLOADS = {cls.name: cls for cls in (PaperServe, Constrained, Scale, Farm)}


def make(name: str, seed: int, reference: Optional[Dict] = None) -> Workload:
    if reference is None:
        reference = json.loads(REFERENCES.read_text())[name]
    return WORKLOADS[name](seed, reference)


# -- the timing loop -------------------------------------------------------------


def _done(k: int, elapsed: float, seconds: float, workload: Workload,
          round_times: List[float]) -> bool:
    if workload.max_policies is not None and k >= workload.max_policies:
        return True
    if k < workload.min_policies:
        return k > 0 and elapsed >= CAP_S
    if elapsed >= seconds:
        return True
    return elapsed + statistics.median(round_times) > OVERSHOOT * seconds


def _decide_batch(table, rng, tracer, factor: float, windows: List[tuple],
                  outcomes: stats.Outcomes) -> None:
    """Serve one batch of decisions; appends the batch's decision rate
    and its p50 and p99 call latency (10 of 1000 calls lie beyond the
    p99), in calibrated units, to *windows*."""
    indices = [rng.randrange(table.n) for _ in range(BATCH_SIZE)]
    requests = [table.request(i) for i in indices]
    answers: list = [None] * BATCH_SIZE
    latencies_ns = [0] * BATCH_SIZE
    decide = table.decide()
    clock = time.perf_counter_ns
    span = tracer.open("decide_batch", "serve") if tracer else None
    started = time.perf_counter()
    for j, request in enumerate(requests):
        t0 = clock()
        try:
            answers[j] = decide(*request)
        except Exception as exc:  # a failed decision is counted, never raised
            answers[j] = exc
        latencies_ns[j] = clock() - t0
    elapsed = time.perf_counter() - started
    if span:
        tracer.close(span)
    failures = [f for f in map(table.failure, indices, answers) if f]
    outcomes.record_many(BATCH_SIZE, failures)
    windows.append((BATCH_SIZE / (elapsed * factor),
                    stats.percentile(latencies_ns, 50) * factor,
                    stats.percentile(latencies_ns, 99) * factor))


def _metric(value: float, unit: str, n: int, statistic: str, **extra) -> Dict:
    return {"value": value, "unit": unit, "n": n, "statistic": statistic,
            **extra}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: Workload, seconds: float, trace: bool = False,
            spans_path: Optional[Path] = None) -> Dict:
    """Time policies and decision batches for *seconds*; check them all.

    Every timing is in calibrated seconds: the calibration kernel is
    timed once before the first policy and again right after each, and
    a policy's raw time is scaled by the kernel times on both sides of
    it -- or, for a workload with a ``sample_interval``, by the kernel
    bursts during it, whose time is taken out of its raw time. Decision
    batches take the factor of the policy they follow. With *trace*,
    rounds alternate between traced (layer shims
    installed, spans recorded) and untraced, so the run also measures
    its own overhead: traced minus untraced time to policy.
    """
    tracer = tracing.Tracer() if trace else None
    shims = tracing.Instrumentation(tracer) if trace else None
    calibrator = calibrate.Calibrator(workload.kernel_reps)
    policies, decisions = stats.Outcomes(), stats.Outcomes()
    # Calibrated and raw per-policy seconds, keyed by whether traced.
    times: Dict[bool, List[float]] = {True: [], False: []}
    raw: Dict[bool, List[float]] = {True: [], False: []}
    round_times: List[float] = []
    windows: List[tuple] = []
    traced_rounds = 0
    bursts = 0
    rng = random.Random(f"decisions:{workload.seed}")
    started = time.perf_counter()
    before = calibrator.measure()
    k = 0
    try:
        while not _done(k, time.perf_counter() - started, seconds,
                        workload, round_times):
            round_started = time.perf_counter()
            traced = trace and k % 2 == 0
            if shims is not None:
                shims.install() if traced else shims.remove()
            active = tracer if traced else None
            traced_rounds += traced
            gc.collect()
            if active:
                active.context = f"policy-{k}"
            root = active.open("policy", "bench") if active else None
            # Traced runs keep to the kernel times around each policy:
            # bursts inside it would land in the layers' spans.
            sampler = (calibrate.Sampler(workload.sample_interval, SAMPLER_REPS)
                       if workload.sample_interval and not trace else None)
            t0 = time.perf_counter()
            try:
                with sampler or contextlib.nullcontext():
                    workload.policy(k)
                error = None
            except Exception as exc:  # a failed policy is counted, never raised
                error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - t0
            if root:
                active.close(root)
            after = calibrator.measure()
            if sampler is not None and sampler.draws:
                elapsed -= sampler.paused_s
                factor = sampler.factor()
                bursts += len(sampler.draws)
            else:
                factor = calibrator.factor(before, after)
            before = after
            failures = [error] if error else workload.check()
            policies.record(not failures, "; ".join(failures))
            if not failures:
                times[traced].append(elapsed * factor)
                raw[traced].append(elapsed)
            if error is None and workload.batches_per_policy:
                table = workload.table()
                for b in range(workload.batches_per_policy):
                    if active:
                        active.context = f"policy-{k}/batch-{b}"
                    _decide_batch(table, rng, active, factor, windows,
                                  decisions)
                table = None
            workload.release()
            round_times.append(time.perf_counter() - round_started)
            k += 1
    finally:
        if shims is not None:
            shims.remove()
    measured_s = time.perf_counter() - started

    # The untraced policies where there are any (a traced run's
    # overhead is reported on its own).
    key = not times[False]
    policy_times = times[key]
    e2e = {
        "time_to_policy_s": _metric(
            _median(policy_times), "s", len(policy_times),
            "median of calibrated per-policy times",
            raw_median=_median(raw[key]), samples=policy_times,
            raw_samples=raw[key]),
    }
    extra = {
        "policy_error_rate": _metric(policies.rate, "ratio",
                                     policies.attempted, "failed / attempted"),
    }
    if windows:
        rates, p50s, p99s = (list(column) for column in zip(*windows))
        e2e.update({
            "decisions_per_s": _metric(
                _median(rates), "1/s", len(windows),
                "median of calibrated per-batch decision rates"),
            "decide_p50_us": _metric(
                _median(p50s) / 1e3, "us", len(windows),
                "median over batches of each batch's calibrated p50"),
            "decide_p99_us": _metric(
                _median(p99s) / 1e3, "us", len(windows),
                "median over batches of each batch's calibrated p99"),
        })
        extra["decide_error_rate"] = _metric(
            decisions.rate, "ratio", decisions.attempted, "failed / attempted")
    if workload.report_p95 and policy_times:
        p95 = stats.tail(policy_times, 95)
        extra["time_to_policy_p95_s"] = _metric(
            p95["value"], "s", p95["n"], "p95 of calibrated per-policy times",
            beyond=p95["beyond"], meets_min_beyond=p95["meets_min_beyond"])
    result = {
        "workload": workload.name,
        "rounds": k,
        "measured_s": measured_s,
        "calibration": {**calibrator.to_dict(), "bursts": bursts},
        "policies": policies.to_dict(),
        "decisions": decisions.to_dict(),
        "e2e": e2e,
        "extra": extra,
        "notes": list(workload.notes),
    }
    if trace:
        result.update(_trace_summary(tracer, traced_rounds, times, workload))
        if spans_path is not None:
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path)
    return result


def _trace_summary(tracer, traced_rounds, times, workload) -> Dict:
    spans = [span for span in tracer.spans if span.end is not None]
    timed = sum(span.duration for span in spans if span.parent is None)
    layers = tracing.layer_self_times(spans)
    attributed = sum(v for layer, v in layers.items() if layer != "bench")
    traced, untraced = times[True], times[False]
    overhead = (statistics.median(traced) - statistics.median(untraced)
                if traced and untraced else 0.0)
    per_layer = tracing.layer_metrics(tracer, traced_rounds)
    per_layer.update({
        "artifact.bytes": (workload.artifact_bytes(), "B"),
        "trace.policies": (traced_rounds, "count"),
        "trace.timed_s": (timed, "s"),
        "trace.attributed_ratio": (attributed / timed if timed else 0.0,
                                   "ratio"),
        "trace.unattributed_s": (timed - attributed, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_ratio": (
            overhead / statistics.median(untraced) if untraced else 0.0,
            "ratio"),
    })
    return {
        "per_layer": {name: {"value": value, "unit": unit}
                      for name, (value, unit) in per_layer.items()},
        "layers": {
            layer: {"self_s": value, "share": value / timed if timed else 0.0}
            for layer, value in sorted(layers.items(), key=lambda kv: -kv[1])
        },
        "overhead": {
            "traced_n": len(traced), "untraced_n": len(untraced),
            "statistic": "median calibrated traced minus untraced time to "
                         "policy",
            # With one policy on each side the figure is a single pair:
            # one sample minus one sample, which host noise can make
            # negative.
            "single_pair": len(traced) < 2 or len(untraced) < 2,
        },
    }
