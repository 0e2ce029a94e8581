"""In-memory span tracing around the program's public layer calls.

The traced run measures the program from outside: it wraps each layer's
public entry points -- module functions and class methods -- with
recording shims that are installed and removed at run time, so no file
under ``src/`` changes. A module function is replaced in every loaded
``repro``/``perfbench`` module that bound it by name, so calls through
``from x import f`` aliases are traced too.

Spans stay in memory and are written out once, after the run. A span's
self time is its duration minus the part of its interval covered by its
child spans -- the union of the children's intervals, clipped to the
parent -- so overlapping or nested children are never subtracted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Bytes per float64 element, for the computed kron traffic estimate.
FLOAT_BYTES = 8


class Span:
    """One timed call: name, layer, interval, parent span, context id."""

    __slots__ = (
        "id", "name", "layer", "start", "end", "parent", "context",
        "error", "attrs",
    )

    def __init__(self, id, name, layer, start, end=None, parent=None,
                 context=None) -> None:
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.context = context
        self.error: Optional[str] = None
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.id, "name": self.name, "layer": self.layer,
            "start": self.start, "end": self.end, "parent": self.parent,
            "context": self.context, "error": self.error,
            "attrs": self.attrs or {},
        }


class Tracer:
    """Records spans and plain counts in memory.

    ``context`` is the id of the policy or decision batch in progress;
    every span opened while it is set carries it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: "Counter[str]" = Counter()
        self.context: Optional[str] = None
        self._stack: List[Span] = []

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, layer, self.clock(),
                    parent=parent, context=self.context)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def covered(start: float, end: float,
            intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(s, start), min(e, end))
        for s, e in intervals
        if min(e, end) > max(s, start)
    )
    total = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered(span.start, span.end,
                                         children[span.id])
        for span in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer."""
    selfs = self_times(spans)
    out: Dict[str, float] = defaultdict(float)
    for span in spans:
        out[span.layer] += selfs[span.id]
    return dict(out)


# -- the shims -----------------------------------------------------------------


def matvec_bytes(generator) -> int:
    """Computed (not measured) memory traffic of one Kronecker matvec.

    From array sizes: the output starts as a zeroed n-vector; each
    non-identity axis application copies the operand contiguous (read
    n, write n) and multiplies it by the factor (read n, write n); each
    term is then scaled (read n, write n) and accumulated (read 2n,
    write n).
    """
    n = generator.n
    words = n
    for _coeff, factors in generator.terms:
        applied = sum(1 for factor in factors if factor is not None)
        words += 4 * n * applied + 5 * n
    return FLOAT_BYTES * words


def _solve_hook(span, args, kwargs, result) -> None:
    span.attrs = {
        "seeded": kwargs.get("initial_policy") is not None,
        "iterations": int(getattr(result, "iterations", 0) or 0),
    }


def _admission_hook(span, args, kwargs, result) -> None:
    span.attrs = {"rejected": result is None or result.verdict == "rejected"}


def _certify_hook(span, args, kwargs, result) -> None:
    span.attrs = {"certified": bool(result is not None and result.certified)}


def _resolve_hook(span, args, kwargs, result) -> None:
    span.attrs = {"attempts": int(getattr(result, "attempts", 0) or 0)}


def _matvec_hook(span, args, kwargs, result) -> None:
    span.attrs = {"bytes": matvec_bytes(args[0])}


#: ``(module, attribute path, layer, hook)``: the public calls wrapped in
#: spans, grouped into the pipeline's layers.
TARGETS = (
    ("repro.dpm.presets", "paper_system", "build", None),
    ("repro.dpm.system", "PowerManagedSystemModel.build_ctmdp", "build", None),
    ("repro.ctmdp.kron", "kron_farm_model", "build", None),
    ("repro.robust.admission", "admit_model", "admission", _admission_hook),
    ("repro.ctmdp.policy_iteration", "policy_iteration", "solve", _solve_hook),
    ("repro.ctmdp.value_iteration", "relative_value_iteration", "solve",
     _solve_hook),
    ("repro.dpm.analysis", "evaluate_dpm_policy", "evaluate", None),
    ("repro.certify.engine", "certify_artifact", "certify", _certify_hook),
    ("repro.certify.bellman", "check_bellman", "certify", None),
    ("repro.certify.duality", "check_lp", "certify", None),
    ("repro.certify.duality", "check_lp_constrained", "certify", None),
    ("repro.certify.exact", "check_exact", "certify", None),
    ("repro.certify.consensus", "check_consensus", "certify", None),
    ("repro.serve.artifact", "compile_artifact", "artifact", None),
    ("repro.serve.artifact", "validate_artifact", "artifact", None),
    ("repro.serve.artifact", "ArtifactStore.save", "artifact", None),
    ("repro.serve.artifact", "ArtifactStore.save_certificate", "artifact",
     None),
    ("repro.serve.supervisor", "Supervisor.resolve", "supervisor",
     _resolve_hook),
    ("repro.serve.server", "PolicyServer.__init__", "serve", None),
    ("repro.serve.server", "PolicyServer.install", "serve", None),
    ("repro.markov.kron", "KroneckerGenerator.matvec", "kron", _matvec_hook),
)

#: Calls too short to span one by one (~2 us): counted, and timed by the
#: benchmark's enclosing ``decide_batch`` span of the ``serve`` layer.
COUNTED = (
    ("repro.serve.server", "PolicyServer.decide", "serve.decide_calls"),
)


def _span_shim(tracer: Tracer, fn, name: str, layer: str, hook):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        span = tracer.open(name, layer)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            tracer.close(span)
            if hook is not None:
                hook(span, args, kwargs, result)

    return shim


def _count_shim(tracer: Tracer, fn, key: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return shim


class Instrumentation:
    """Swaps tracing shims in for :data:`TARGETS` and :data:`COUNTED`.

    The replacement sites are found once, on the first :meth:`install`;
    later installs and removals only rebind attributes, so a run can
    alternate traced and untraced samples cheaply.
    """

    PREFIXES = ("repro", "perfbench")

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._sites: Optional[List[Tuple[Any, str, Any, Any]]] = None

    def _modules(self):
        return [
            module for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] in self.PREFIXES
        ]

    def _sites_for(self, module_name: str, path: str, make) -> list:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            return [(owner, attr, original, make(original))]
        original = getattr(module, attr)
        replacement = make(original)
        return [
            (mod, name, original, replacement)
            for mod in self._modules()
            for name, value in list(vars(mod).items())
            if value is original
        ]

    def _discover(self) -> list:
        tracer = self.tracer
        sites = []
        for module_name, path, layer, hook in TARGETS:
            sites += self._sites_for(
                module_name, path,
                lambda fn, path=path, layer=layer, hook=hook: _span_shim(
                    tracer, fn, path, layer, hook
                ),
            )
        for module_name, path, key in COUNTED:
            sites += self._sites_for(
                module_name, path,
                lambda fn, key=key: _count_shim(tracer, fn, key),
            )
        return sites

    def install(self) -> None:
        if self._sites is None:
            self._sites = self._discover()
        for owner, attr, _original, replacement in self._sites:
            setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original, _replacement in self._sites or ():
            setattr(owner, attr, original)


# -- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer: Tracer, n_policies: int) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced run, as ``name -> (value, unit)``.

    Times and counts are totals over the traced policies; *n_policies*
    (reported as ``trace.policies``) is their base.
    """
    spans = [span for span in tracer.spans if span.end is not None]
    selfs = self_times(spans)
    by_name: Dict[str, List[Span]] = defaultdict(list)
    layer_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span.name].append(span)
        layer_self[span.layer] += selfs[span.id]

    def total(*names: str) -> float:
        return sum(span.duration for name in names for span in by_name[name])

    def own(*names: str) -> float:
        return sum(selfs[span.id] for name in names for span in by_name[name])

    def count_attr(spans_, key: str) -> int:
        return sum(1 for span in spans_ if span.attrs and span.attrs[key])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    builds = len(by_name["PowerManagedSystemModel.build_ctmdp"])
    solves = by_name["policy_iteration"] + by_name["relative_value_iteration"]
    iterations = sum(span.attrs["iterations"] for span in solves if span.attrs)
    wasted = sum(1 for span in solves if span.error)
    certifies = by_name["certify_artifact"]
    matvecs = by_name["KroneckerGenerator.matvec"]
    matvec_bytes_total = sum(span.attrs["bytes"] for span in matvecs if span.attrs)
    return {
        "build.calls": (builds, "count"),
        "build.s": (layer_self["build"], "s"),
        "build.calls_per_policy": (ratio(builds, n_policies), "count"),
        "admission.calls": (len(by_name["admit_model"]), "count"),
        "admission.self_s": (layer_self["admission"], "s"),
        "admission.rejected": (count_attr(by_name["admit_model"], "rejected"),
                               "count"),
        "solve.calls": (len(solves), "count"),
        "solve.self_s": (layer_self["solve"], "s"),
        "solve.iterations": (iterations, "count"),
        "solve.s_per_iteration": (ratio(layer_self["solve"], iterations), "s"),
        "solve.seeded_calls": (count_attr(solves, "seeded"), "count"),
        "solve.useful_ratio": (ratio(len(solves) - wasted, len(solves)),
                               "ratio"),
        "evaluate.calls": (len(by_name["evaluate_dpm_policy"]), "count"),
        "evaluate.s": (layer_self["evaluate"], "s"),
        "certify.calls": (len(certifies), "count"),
        "certify.self_s": (layer_self["certify"], "s"),
        "certify.bellman_s": (total("check_bellman"), "s"),
        "certify.lp_s": (total("check_lp", "check_lp_constrained"), "s"),
        "certify.exact_s": (total("check_exact"), "s"),
        "certify.consensus_s": (total("check_consensus"), "s"),
        "certify.certified_ratio": (
            ratio(count_attr(certifies, "certified"), len(certifies)), "ratio"
        ),
        "artifact.compile_s": (own("compile_artifact"), "s"),
        "artifact.validate_self_s": (own("validate_artifact"), "s"),
        "artifact.save_s": (
            own("ArtifactStore.save", "ArtifactStore.save_certificate"), "s"
        ),
        "supervisor.self_s": (layer_self["supervisor"], "s"),
        "supervisor.attempts": (
            sum(span.attrs["attempts"] for span in by_name["Supervisor.resolve"]
                if span.attrs),
            "count",
        ),
        "serve.construct_s": (own("PolicyServer.__init__"), "s"),
        "serve.install_s": (own("PolicyServer.install"), "s"),
        "serve.decide_calls": (tracer.counts["serve.decide_calls"], "count"),
        "serve.decide_batch_s": (own("decide_batch"), "s"),
        "kron.matvecs": (len(matvecs), "count"),
        "kron.matvec_s": (total("KroneckerGenerator.matvec"), "s"),
        "kron.bytes_per_matvec": (ratio(matvec_bytes_total, len(matvecs)), "B"),
    }
