"""Frontier-sweep reuse: warm-started weight sweeps vs cold solves.

The cross-solve reuse layer's headline (DESIGN §12): a weight sweep on
a sparse-tier SYS model pays the structural construction once (skeleton
+ per-weight cost overlay) and seeds each solve with the neighboring
weight's converged policy -- against a cold baseline that clears every
cache and solves every weight unseeded. Reuse must never change
results, so the acceptance is twofold: the warm sweep is >= 2x faster
wall-clock AND bit-identical (policies and metrics) to the cold sweep.

The measurement lands in ``BENCH_solver_core.json`` under
``frontier_sweep`` with both legs' timings and the ``solver.reuse.*``
counter snapshot of the warm leg.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from benchmarks.conftest import once
from repro.dpm.optimizer import optimize_weighted, sweep_weights
from repro.dpm.presets import paper_system
from repro.obs.benchtrack import record_suite
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument

BENCH_JSON = Path(__file__).parent / "BENCH_solver_core.json"

#: Queue capacity of the swept SYS model: 4*1500 + 3 = 6003 states,
#: well past the dense tier so ``backend="sparse"`` is the natural
#: choice -- and large enough that the per-weight rebuild the cold leg
#: pays (skeleton construction plus ~7 cold improvement rounds) clearly
#: dominates the warm leg's one or two seeded rounds.
SWEEP_CAPACITY = 1500

#: The weight schedule (>= 16 points per the acceptance bar).
N_WEIGHTS = 24
WEIGHTS = tuple(np.linspace(0.0, 2.0, N_WEIGHTS))

#: Headline acceptance: warm wall-clock at least this factor below cold.
SPEEDUP_FLOOR = 2.0


def _fingerprint(results):
    """Exactly comparable rendering of a sweep's results."""
    return [
        (r.weight, tuple(sorted(r.policy.as_dict().items())), r.metrics)
        for r in results
    ]


def _cold_sweep(model):
    """Every weight from scratch: caches cleared, unseeded solver --
    the pre-reuse-layer cost of the sweep."""
    results = []
    for w in WEIGHTS:
        model.clear_caches()
        results.append(optimize_weighted(model, w, backend="sparse"))
    return results


def _warm_sweep(model):
    return sweep_weights(model, list(WEIGHTS), backend="sparse")


def _reuse_counters(registry: MetricsRegistry):
    return {
        name: doc["value"]
        for name, doc in registry.to_dict().items()
        if name.startswith("solver.reuse.") and "value" in doc
    }


def test_bench_frontier_sweep(benchmark):
    def measure():
        model = paper_system(capacity=SWEEP_CAPACITY)
        start = time.perf_counter()
        cold = _cold_sweep(model)
        cold_s = time.perf_counter() - start
        model.clear_caches()
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            start = time.perf_counter()
            warm = _warm_sweep(model)
            warm_s = time.perf_counter() - start
        return cold, cold_s, warm, warm_s, _reuse_counters(metrics)

    cold, cold_s, warm, warm_s, counters = once(benchmark, measure)

    speedup = cold_s / warm_s
    identical = _fingerprint(warm) == _fingerprint(cold)
    record_suite(
        BENCH_JSON,
        "frontier_sweep",
        {
            "capacity": SWEEP_CAPACITY,
            "n_states": 4 * SWEEP_CAPACITY + 3,
            "n_weights": N_WEIGHTS,
            "cold_sweep_s": cold_s,
            "warm_sweep_s": warm_s,
            "speedup": speedup,
            "bit_identical": identical,
            "reuse_counters": counters,
        },
    )
    print(
        f"\nfrontier sweep ({N_WEIGHTS} weights, "
        f"{4 * SWEEP_CAPACITY + 3} states): cold {cold_s:.2f}s, warm "
        f"{warm_s:.2f}s, speedup {speedup:.1f}x, "
        f"identical={identical}"
    )
    print(f"reuse counters: {counters}")

    # Acceptance: bit-identical results, materially faster.
    assert identical, "warm sweep diverged from the cold baseline"
    assert speedup >= SPEEDUP_FLOOR
    # The reuse machinery actually engaged, it didn't just win on noise.
    assert counters.get("solver.reuse.skeleton_builds") == 1
    assert counters.get("solver.reuse.skeleton_hits", 0) >= N_WEIGHTS - 1
    assert counters.get("solver.reuse.warm_start_seeds", 0) == N_WEIGHTS - 1
    # An occasional harmful seed is expected (the excursion guard
    # rejects it and re-solves cold); wholesale rejection would mean
    # the warm chain never actually engages.
    assert (
        counters.get("solver.reuse.warm_start_rejected", 0) <= N_WEIGHTS // 4
    )
