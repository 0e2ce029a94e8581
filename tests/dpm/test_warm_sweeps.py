"""Cross-solve reuse: warm-started sweeps, skeleton/overlay, caching.

The warm-start contract (DESIGN §12): seeding a solve with a
neighboring weight's converged policy never changes the result -- only
the number of improvement rounds. This suite asserts it property-style
over randomized admitted models and weight grids, plus the
skeleton/overlay bit-identity and the ``(weight, backend)`` LRU
semantics of :meth:`PowerManagedSystemModel.build_ctmdp`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.dpm.optimizer as optimizer_module
import repro.dpm.pareto as pareto_module
from repro.ctmdp.policy import Policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.optimizer import (
    find_weight_for_constraint,
    optimize_weighted,
    sweep_weights,
)
from repro.dpm.pareto import deterministic_frontier
from repro.dpm.presets import paper_system
from repro.dpm.system import PowerManagedSystemModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.robust.admission import admit_model
from repro.robust.fuzz import build_from_spec, generate_spec

#: Randomized-model corpus for the property tests: seeded jitters of
#: the paper system plus fuzzer SYS specs, all admission-checked.
RANDOM_MODEL_SEEDS = (3, 17, 29)
FUZZ_SYS_SPECS = (
    ("baseline", 12),
    ("paper_perturbed", 11),
    ("near_duplicate_actions", 7),
)


def _random_admitted_model(seed: int) -> PowerManagedSystemModel:
    """A parameter-jittered paper system that passes admission."""
    rng = np.random.default_rng(seed)
    model = paper_system(
        arrival_rate=float(rng.uniform(0.2, 1.2)),
        capacity=int(rng.integers(2, 7)),
    )
    report = admit_model(model, raise_on_reject=False)
    assert report.verdict != "rejected"
    return model


def _fuzz_sys_model(kind: str, seed: int) -> PowerManagedSystemModel:
    model, is_sys = build_from_spec(generate_spec(kind, seed))
    assert is_sys
    report = admit_model(model, raise_on_reject=False)
    assert report.verdict != "rejected"
    if report.repaired_model is not None:
        return report.repaired_model
    return model


def _weight_grid(rng: np.random.Generator) -> "list[float]":
    lo = float(rng.uniform(0.0, 0.2))
    hi = float(rng.uniform(1.0, 8.0))
    return list(np.linspace(lo, hi, int(rng.integers(5, 9))))


def _cold_sweep(model, weights):
    """The sweep solved weight by weight, each solve unseeded."""
    return [optimize_weighted(model, w) for w in weights]


def _sweep_fingerprint(results):
    return [
        (r.weight, r.policy.as_dict(), r.metrics) for r in results
    ]


class TestWarmSweepProperty:
    """Satellite: randomized models x weight grids, warm == cold."""

    @pytest.mark.parametrize("seed", RANDOM_MODEL_SEEDS)
    def test_warm_sweep_bit_identical_and_no_slower(self, seed):
        model = _random_admitted_model(seed)
        weights = _weight_grid(np.random.default_rng(seed + 1000))
        cold = _cold_sweep(model, weights)
        warm = sweep_weights(model, weights)
        assert _sweep_fingerprint(warm) == _sweep_fingerprint(cold)
        # Per-weight iteration counts: the warm chain must never take
        # more improvement rounds than a cold start (optimize_weighted
        # doesn't expose iterations, so replay the chain directly).
        previous = None
        for w, cold_result in zip(weights, cold):
            mdp = model.build_ctmdp(w)
            cold_pi = policy_iteration(mdp)
            warm_pi = policy_iteration(mdp, initial_policy=previous)
            assert warm_pi.policy.as_dict() == cold_pi.policy.as_dict()
            assert warm_pi.gain == cold_pi.gain
            np.testing.assert_array_equal(warm_pi.bias, cold_pi.bias)
            assert warm_pi.iterations <= cold_pi.iterations
            assert cold_pi.policy.as_dict() == cold_result.policy.as_dict()
            previous = Policy.from_actions(mdp, warm_pi.policy.actions)

    @pytest.mark.parametrize("kind,seed", FUZZ_SYS_SPECS)
    def test_warm_sweep_on_fuzz_models(self, kind, seed):
        model = _fuzz_sys_model(kind, seed)
        weights = _weight_grid(np.random.default_rng(seed))
        cold = _cold_sweep(model, weights)
        warm = sweep_weights(model, weights)
        assert _sweep_fingerprint(warm) == _sweep_fingerprint(cold)

    def test_warm_sweep_seeds_counted(self):
        model = paper_system(capacity=3)
        weights = [0.0, 0.5, 1.0, 2.0]
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            sweep_weights(model, weights)
        doc = metrics.to_dict()
        # First solve is cold, every later one is seeded.
        assert doc["solver.reuse.warm_start_seeds"]["value"] == len(weights) - 1
        assert "solver.reuse.warm_start_rejected" not in doc

    def test_parallel_sweep_stays_cold_and_identical(self):
        model = paper_system(capacity=2)
        weights = [0.0, 1.0, 3.0]
        serial = sweep_weights(model, weights)
        pooled = sweep_weights(model, weights, n_jobs=2)
        assert _sweep_fingerprint(serial) == _sweep_fingerprint(pooled)

    def test_stale_seed_falls_back_to_cold(self):
        # A policy from a structurally different model must be rejected
        # and re-solved cold, not crash or corrupt the result. The
        # capacity-2 policy's assignment lacks the q3..q6 states of the
        # capacity-6 model, so the solver's row lookup fails.
        big = paper_system(capacity=6)
        small = paper_system(capacity=2)
        foreign = optimize_weighted(small, 1.0).policy
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            warm = optimize_weighted(big, 1.0, initial_policy=foreign)
        cold = optimize_weighted(big, 1.0)
        assert warm.policy.as_dict() == cold.policy.as_dict()
        assert warm.metrics == cold.metrics
        doc = metrics.to_dict()
        assert doc["solver.reuse.warm_start_rejected"]["value"] == 1

    def test_seeded_solver_failure_falls_back_to_cold(self, monkeypatch):
        # A seeded improvement path can wander into a (numerically)
        # multichain policy whose evaluation system is singular -- a
        # SolverError a cold start never sees. The warm solve must then
        # retry cold, not surface the failure.
        from repro.errors import SolverError

        real = optimizer_module.policy_iteration

        def fragile(mdp, initial_policy=None, **kwargs):
            if initial_policy is not None:
                raise SolverError("singular evaluation system")
            return real(mdp, initial_policy=initial_policy, **kwargs)

        monkeypatch.setattr(optimizer_module, "policy_iteration", fragile)
        model = paper_system(capacity=3)
        cold = _cold_sweep(model, [0.0, 1.0, 2.0])
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            warm = sweep_weights(model, [0.0, 1.0, 2.0])
        assert _sweep_fingerprint(warm) == _sweep_fingerprint(cold)
        doc = metrics.to_dict()
        assert doc["solver.reuse.warm_start_rejected"]["value"] == 2

    def test_cold_solver_failure_still_raises(self, monkeypatch):
        from repro.errors import SolverError

        def always_broken(mdp, initial_policy=None, **kwargs):
            raise SolverError("genuinely unsolvable")

        monkeypatch.setattr(
            optimizer_module, "policy_iteration", always_broken
        )
        with pytest.raises(SolverError, match="genuinely unsolvable"):
            optimize_weighted(paper_system(capacity=2), 1.0)


def _unseeded(monkeypatch, module):
    """Make *module*'s searches solve cold: its ``optimize_weighted``
    drops every ``initial_policy``."""
    real = module.optimize_weighted

    def cold(model, weight, initial_policy=None, **kwargs):
        return real(model, weight, **kwargs)

    monkeypatch.setattr(module, "optimize_weighted", cold)


class TestWarmFrontier:
    def test_frontier_warm_matches_cold(self, monkeypatch):
        model = paper_system(capacity=3)
        warm = deterministic_frontier(
            model, max_weight=50.0, weight_tolerance=0.01
        )
        _unseeded(monkeypatch, pareto_module)
        cold = deterministic_frontier(
            model, max_weight=50.0, weight_tolerance=0.01
        )
        assert [(p.weight, p.policy, p.metrics) for p in warm] == [
            (p.weight, p.policy, p.metrics) for p in cold
        ]

    def test_constrained_search_warm_matches_cold(self, monkeypatch):
        model = paper_system(capacity=3)
        warm = find_weight_for_constraint(model, 1.5)
        _unseeded(monkeypatch, optimizer_module)
        cold = find_weight_for_constraint(model, 1.5)
        assert warm.weight == cold.weight
        assert warm.policy.as_dict() == cold.policy.as_dict()
        assert warm.metrics == cold.metrics


class TestSkeletonOverlay:
    """The split sparse build must equal the single-pass one bit-for-bit."""

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0, 7.5])
    def test_overlay_costs_match_cold_build(self, weight):
        warm_model = paper_system(capacity=8)
        warm_model.build_ctmdp(0.125, backend="sparse")  # primes skeleton
        overlaid = warm_model.build_ctmdp(weight, backend="sparse")
        cold_model = paper_system(capacity=8)
        cold = cold_model.build_ctmdp(weight, backend="sparse")
        np.testing.assert_array_equal(overlaid.cost, cold.cost)
        np.testing.assert_array_equal(
            overlaid.generator.data, cold.generator.data
        )
        np.testing.assert_array_equal(
            overlaid.generator.indices, cold.generator.indices
        )
        g_w, c_w, s_w = overlaid.canonical()
        g_c, c_c, s_c = cold.canonical()
        assert s_w == s_c
        np.testing.assert_array_equal(c_w, c_c)
        np.testing.assert_array_equal(g_w.data, g_c.data)

    def test_siblings_share_structural_arrays(self):
        model = paper_system(capacity=8)
        a = model.build_ctmdp(0.5, backend="sparse")
        b = model.build_ctmdp(2.0, backend="sparse")
        assert a.generator is b.generator
        assert a.canonical()[0] is b.canonical()[0]
        assert a.cost is not b.cost

    def test_skeleton_counters(self):
        model = paper_system(capacity=4)
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            model.build_ctmdp(0.5, backend="sparse")
            model.build_ctmdp(2.0, backend="sparse")
            model.build_ctmdp(9.0, backend="sparse")
        doc = metrics.to_dict()
        assert doc["solver.reuse.skeleton_builds"]["value"] == 1
        assert doc["solver.reuse.skeleton_hits"]["value"] == 2

    def test_sparse_solution_matches_dense(self):
        model = paper_system(capacity=8)
        model.build_ctmdp(0.25, backend="sparse")  # prime the skeleton
        dense = optimize_weighted(model, 1.0, backend="compiled")
        sparse = optimize_weighted(model, 1.0, backend="sparse")
        assert sparse.policy.as_dict() == dense.policy.as_dict()
        # Sparse evaluation is a different factorization, so metrics
        # agree to solver precision, not bit-for-bit.
        assert sparse.metrics.average_power == pytest.approx(
            dense.metrics.average_power, rel=1e-9
        )
        assert sparse.metrics.average_queue_length == pytest.approx(
            dense.metrics.average_queue_length, rel=1e-9
        )


class TestBuildCache:
    """Satellite: the LRU key is (weight, backend), not the weight."""

    def test_dense_and_sparse_builds_coexist(self):
        model = paper_system(capacity=4)
        dense = model.build_ctmdp(1.0, backend="dense")
        sparse = model.build_ctmdp(1.0, backend="sparse")
        # Neither build evicted the other: both hit the cache again.
        assert model.build_ctmdp(1.0, backend="dense") is dense
        assert model.build_ctmdp(1.0, backend="sparse") is sparse

    def test_lru_eviction_is_per_pair(self):
        model = paper_system(capacity=2)
        first = model.build_ctmdp(0.0, backend="sparse")
        for k in range(model.CTMDP_CACHE_SIZE - 1):
            model.build_ctmdp(float(k + 1), backend="sparse")
        assert model.build_ctmdp(0.0, backend="sparse") is first  # still hot
        for k in range(model.CTMDP_CACHE_SIZE):
            model.build_ctmdp(float(k + 100), backend="dense")
        assert model.build_ctmdp(0.0, backend="sparse") is not first

    def test_clear_caches_forces_rebuild(self):
        model = paper_system(capacity=4)
        before = model.build_ctmdp(1.0, backend="sparse")
        model.clear_caches()
        after = model.build_ctmdp(1.0, backend="sparse")
        assert after is not before
        np.testing.assert_array_equal(after.cost, before.cost)
        np.testing.assert_array_equal(
            after.generator.data, before.generator.data
        )

    def test_pickle_drops_skeleton_but_round_trips(self):
        import pickle

        model = paper_system(capacity=4)
        original = model.build_ctmdp(1.0, backend="sparse")
        clone = pickle.loads(pickle.dumps(model))
        assert clone._sparse_skeleton is None
        rebuilt = clone.build_ctmdp(1.0, backend="sparse")
        np.testing.assert_array_equal(rebuilt.cost, original.cost)
        np.testing.assert_array_equal(
            rebuilt.generator.data, original.generator.data
        )


class TestClearCachesCycles:
    """Satellite: ``clear_caches()`` against the skeleton/overlay cache
    under repeated solve/clear cycles (only the happy path was tested).
    """

    def test_repeated_sweep_clear_cycles_bit_identical(self):
        from repro.dpm.optimizer import serialize_result

        model = paper_system(capacity=4)
        weights = [0.2, 1.0, 5.0]
        baseline = [
            serialize_result(r)
            for r in sweep_weights(model, weights, backend="sparse")
        ]
        model.clear_caches()
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            for _ in range(3):
                results = sweep_weights(model, weights, backend="sparse")
                assert [serialize_result(r) for r in results] == baseline
                model.clear_caches()
        # Each cycle rebuilt the skeleton exactly once (the overlay
        # cache was genuinely dropped, not silently reused), and every
        # weight after the first in a cycle hit the rebuilt skeleton.
        doc = metrics.to_dict()
        assert doc["solver.reuse.skeleton_builds"]["value"] == 3
        assert doc["solver.reuse.skeleton_hits"]["value"] == 3 * (
            len(weights) - 1
        )

    def test_clear_between_solves_does_not_change_results(self):
        from repro.dpm.optimizer import serialize_result

        model = paper_system(capacity=4)
        cached = optimize_weighted(model, 1.0, backend="sparse")
        model.clear_caches()
        rebuilt = optimize_weighted(model, 1.0, backend="sparse")
        assert serialize_result(rebuilt) == serialize_result(cached)

    def test_clear_caches_is_idempotent(self):
        model = paper_system(capacity=3)
        model.clear_caches()
        model.clear_caches()
        result = optimize_weighted(model, 1.0, backend="sparse")
        assert result.metrics.average_power > 0
