"""Backend-ladder scaling: dense vs sparse vs matrix-free Kronecker.

The tentpole claim of the sparse/Kronecker solver core: joint CTMDPs
with 10^5+ states solve interactively without materializing the
``O(pairs x states)`` dense generator. This bench grows the SYS queue
capacity through 10^5 states and times the COO-direct sparse build and
sparse policy iteration at each size, measuring peak memory with
tracemalloc (in a separate untimed run) against the dense lowering's
``pairs x states x 8`` byte footprint -- measured where the dense core
is feasible, estimated above that. A genuinely tensor-structured
server-farm model then runs matrix-free value iteration at 8^6 and
10^6 states.

The scaling curve lands in ``BENCH_solver_core.json`` under
``backend_scaling``; the acceptance assertions hold at the ~10^5-state
point: the sparse solve's peak memory is >= 10x below the dense
footprint, and the SYS build takes no longer than its solve.
``REPRO_SCALE_MAX_STATES`` (default 1100000, which includes the
10^6-state farm) gates the largest points; lower it for a quicker local
run.

A second leg measures where ``auto`` should switch tiers
(``DENSE_STATE_LIMIT``): dense vs CSR wall time from 23 to 1003 states
for the whole ``optimize_weighted`` path (build, solve, evaluate) and
for policy iteration on a dict-built model (lowering and solve),
recorded under ``backend_crossover``.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc
from pathlib import Path

import pytest

from benchmarks.conftest import once
from repro.obs.benchtrack import record_suite
from repro.ctmdp.backends import DENSE_STATE_LIMIT
from repro.ctmdp.compiled import compile_ctmdp
from repro.ctmdp.kron import kron_farm_model
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system

BENCH_JSON = Path(__file__).parent / "BENCH_solver_core.json"

#: SYS queue capacities; state counts are 4*Q + 3 (203 ... 100003).
CAPACITIES = (50, 500, 5000, 25000)

#: Largest state count the default run attempts: by default every
#: point, the 10^6-state matrix-free farm included.
SCALE_MAX_STATES = int(os.environ.get("REPRO_SCALE_MAX_STATES", "1100000"))

#: Dense solves are only *measured* below the ladder's dense comfort
#: zone; larger points carry the arithmetic footprint estimate instead.
DENSE_MEASURE_LIMIT = 2500

#: The headline memory claim at the ~10^5-state point.
MEMORY_ADVANTAGE = 10.0

#: (n_queues, queue_capacity) farm models: 8^6 = 262144 and 10^6
#: states.
FARM_POINTS = ((6, 7), (6, 9))

#: SYS capacities of the crossover leg: 23, 103, 203, 403, 1003 states.
CROSSOVER_CAPACITIES = (5, 25, 50, 100, 250)

#: Timed runs per (size, tier, path); the median is recorded.
CROSSOVER_SAMPLES = 5

#: The crossover leg's acceptance, at its widest point only: CSR at
#: least this factor faster than dense at 1003 states on both paths.
CROSSOVER_ADVANTAGE = 2.0


def _record(key: str, payload) -> None:
    """Merge one measurement into the canonical bench file (schema,
    manifest, and flattened comparable metrics -- see
    :mod:`repro.obs.benchtrack`)."""
    record_suite(BENCH_JSON, key, payload)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _traced_peak(fn) -> int:
    """Peak tracemalloc bytes of one *untimed* call (tracing slows the
    call, so timing and tracing are separate runs)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sys_point(capacity: int):
    model = paper_system(capacity=capacity)
    build_s, mdp = _timed(
        lambda: model.build_ctmdp(weight=1.0, backend="sparse")
    )
    solve_s, result = _timed(lambda: policy_iteration(mdp))
    sparse_peak = _traced_peak(lambda: policy_iteration(mdp))
    n = mdp.n_states
    n_pairs = len(mdp.pair_state)
    row = {
        "n_states": n,
        "n_pairs": n_pairs,
        "generator_nnz": int(mdp.generator.nnz),
        "sparse_build_s": build_s,
        "sparse_solve_s": solve_s,
        "sparse_peak_bytes": sparse_peak,
        "gain": result.gain,
        "dense_generator_bytes": n_pairs * n * 8,
    }
    if n <= DENSE_MEASURE_LIMIT:
        dense_mdp = model.build_ctmdp(weight=1.0)
        compile_ctmdp(dense_mdp)  # lowering is amortized; time the solve
        dense_s, dense = _timed(
            lambda: policy_iteration(dense_mdp, backend="compiled")
        )
        row["dense_solve_s"] = dense_s
        row["dense_peak_bytes"] = _traced_peak(
            lambda: policy_iteration(dense_mdp, backend="compiled")
        )
        assert abs(dense.gain - result.gain) < 1e-9 * max(abs(dense.gain), 1.0)
        assert result.policy.as_dict() == dense.policy.as_dict()
    return row


def _farm_point(n_queues: int, queue_capacity: int):
    kmdp = kron_farm_model(n_queues, queue_capacity)
    solve_s, result = _timed(
        lambda: relative_value_iteration(kmdp, span_tolerance=1e-6)
    )
    peak = _traced_peak(
        lambda: relative_value_iteration(kmdp, span_tolerance=1e-6)
    )
    n = kmdp.n_states
    return {
        "n_states": n,
        "n_actions": len(kmdp.action_set),
        "solve_s": solve_s,
        "iterations": result.iterations,
        "gain": result.gain,
        "kron_peak_bytes": peak,
        "dense_generator_bytes": len(kmdp.action_set) * n * n * 8,
    }


def test_bench_backend_scaling(benchmark):
    def measure():
        sys_rows = {}
        for capacity in CAPACITIES:
            n = 4 * capacity + 3
            if n > SCALE_MAX_STATES:
                continue
            sys_rows[str(n)] = _sys_point(capacity)
        farm_rows = {}
        for n_queues, queue_capacity in FARM_POINTS:
            n = (queue_capacity + 1) ** n_queues
            if n > SCALE_MAX_STATES:
                continue
            farm_rows[str(n)] = _farm_point(n_queues, queue_capacity)
        return sys_rows, farm_rows

    sys_rows, farm_rows = once(benchmark, measure)
    _record(
        "backend_scaling",
        {
            "scale_max_states": SCALE_MAX_STATES,
            "sys_policy_iteration_sparse": sys_rows,
            "kron_farm_value_iteration": farm_rows,
        },
    )
    for n, row in sys_rows.items():
        print(
            f"\nSYS n={n}: build {row['sparse_build_s']:.2f}s, "
            f"sparse PI {row['sparse_solve_s']:.2f}s, peak "
            f"{row['sparse_peak_bytes'] / 1e6:.1f} MB vs dense "
            f"{row['dense_generator_bytes'] / 1e6:.1f} MB"
        )
    for n, row in farm_rows.items():
        print(
            f"\nfarm n={n}: matrix-free VI {row['solve_s']:.2f}s "
            f"({row['iterations']} sweeps), peak "
            f"{row['kron_peak_bytes'] / 1e6:.1f} MB"
        )

    # Headline acceptance: at the ~10^5-state SYS point the sparse
    # solve runs interactively in >= 10x less peak memory than the
    # dense lowering's generator alone would need.
    big = [row for row in sys_rows.values() if row["n_states"] >= 100_000]
    if SCALE_MAX_STATES >= 100_003:
        assert big, "the 10^5-state point must run by default"
    for row in big:
        assert (
            row["sparse_peak_bytes"] * MEMORY_ADVANTAGE
            <= row["dense_generator_bytes"]
        )
        assert row["sparse_solve_s"] < 60.0
        # The vectorized SYS assembly keeps the build below its solve.
        assert row["sparse_build_s"] <= row["sparse_solve_s"]
    # Matrix-free VI never holds anything of size O(n^2); same bar.
    for row in farm_rows.values():
        assert (
            row["kron_peak_bytes"] * MEMORY_ADVANTAGE
            <= row["dense_generator_bytes"]
        )


def _median_s(fn, prepare) -> float:
    """Median wall time of *fn* over :data:`CROSSOVER_SAMPLES` runs,
    each on a fresh input from the untimed *prepare*."""
    times = []
    for _ in range(CROSSOVER_SAMPLES):
        args = prepare()
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _crossover_point(capacity: int):
    model = paper_system(capacity=capacity)

    def fresh_model():
        model.clear_caches()
        return ()

    def fresh_dict_model():
        model.clear_caches()
        return (model.build_ctmdp(weight=1.0),)

    row = {"n_states": model.n_states}
    # The recorded keys keep the "dense" name of the compiled tier.
    for key, tier in (("dense", "compiled"), ("sparse", "sparse")):
        row[f"optimize_weighted_{key}_s"] = _median_s(
            lambda: optimize_weighted(model, 1.0, backend=tier), fresh_model
        )
        row[f"policy_iteration_{key}_s"] = _median_s(
            lambda mdp: policy_iteration(mdp, backend=tier), fresh_dict_model
        )
    model.clear_caches()
    dense = optimize_weighted(model, 1.0, backend="compiled")
    sparse = optimize_weighted(model, 1.0, backend="sparse")
    assert sparse.policy.as_dict() == dense.policy.as_dict()
    return row


def test_bench_backend_crossover(benchmark):
    rows = once(
        benchmark,
        lambda: [_crossover_point(c) for c in CROSSOVER_CAPACITIES],
    )
    _record(
        "backend_crossover",
        {
            "dense_state_limit": DENSE_STATE_LIMIT,
            "samples": CROSSOVER_SAMPLES,
            "points": {str(row["n_states"]): row for row in rows},
        },
    )
    for row in rows:
        print(
            f"\ncrossover n={row['n_states']}: optimize_weighted dense "
            f"{row['optimize_weighted_dense_s'] * 1e3:.1f} ms / CSR "
            f"{row['optimize_weighted_sparse_s'] * 1e3:.1f} ms; "
            f"policy_iteration dense "
            f"{row['policy_iteration_dense_s'] * 1e3:.1f} ms / CSR "
            f"{row['policy_iteration_sparse_s'] * 1e3:.1f} ms"
        )
    widest = rows[-1]
    assert widest["n_states"] == 1003
    for path in ("optimize_weighted", "policy_iteration"):
        assert (
            widest[f"{path}_sparse_s"] * CROSSOVER_ADVANTAGE
            <= widest[f"{path}_dense_s"]
        ), path


class TestScalingShape:
    def test_gain_stabilizes_along_the_curve(self):
        # Enlarging the buffer stops mattering once losses vanish; the
        # two smallest points already agree, pinning that the sparse
        # tier reproduces the dense tier's converged metric.
        gains = [
            policy_iteration(
                paper_system(capacity=c).build_ctmdp(
                    weight=1.0, backend="sparse"
                )
            ).gain
            for c in CAPACITIES[:2]
        ]
        assert gains[0] == pytest.approx(gains[1], rel=5e-3)
