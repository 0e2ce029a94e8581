"""Exact power--delay Pareto frontiers (the full Figure-4 curve).

The weighted-cost optimum is piecewise constant in the weight ``w``:
finitely many deterministic policies partition ``[0, inf)`` into
intervals. :func:`deterministic_frontier` recovers *every* breakpoint by
recursive weight bisection -- no grid to tune, no missed Pareto points
-- returning the complete deterministic frontier.

Randomized (occupation-measure) policies fill in the lower convex hull
between deterministic vertices; :func:`randomized_frontier` evaluates
it at chosen delay levels through the constrained LP. Together they
give both curves of the Figure-4 story exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ctmdp.policy import Policy
from repro.dpm.analysis import AnalyticMetrics, evaluate_dpm_policy
from repro.dpm.optimizer import (
    deserialize_result,
    optimize_constrained,
    optimize_weighted,
    serialize_result,
)
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import SolverError
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active

logger = get_logger(__name__)


@dataclass(frozen=True)
class FrontierPoint:
    """One deterministic Pareto point.

    Attributes
    ----------
    weight:
        A weight whose optimal policy realizes this point (the smallest
        one encountered).
    policy:
        The deterministic optimal policy.
    metrics:
        Its exact steady-state metrics.
    """

    weight: float
    policy: Policy
    metrics: AnalyticMetrics

    @property
    def power(self) -> float:
        return self.metrics.average_power

    @property
    def delay(self) -> float:
        return self.metrics.average_queue_length


def _point_key(metrics: AnalyticMetrics) -> "tuple[float, float]":
    return (round(metrics.average_power, 9), round(metrics.average_queue_length, 9))


def deterministic_frontier(
    model: PowerManagedSystemModel,
    max_weight: float = 1e3,
    weight_tolerance: float = 1e-4,
    solver: str = "policy_iteration",
    max_points: int = 200,
    checkpoint=None,
    backend: str = "auto",
) -> "List[FrontierPoint]":
    """All deterministic Pareto points reachable by weighted optimization.

    Recursive bisection on the weight axis: whenever the optima at the
    two ends of an interval differ, the interval is split until either
    the endpoints agree or the interval is narrower than
    *weight_tolerance* (the remaining gap cannot hide a point whose
    weight interval is wider than that).

    Each policy-iteration solve is seeded with the converged policy of
    the nearest previously solved weight: most bisection solves start
    inside their own optimality interval and converge in one round, and
    the frontier -- points, policies, metrics -- is the one cold solves
    give (the warm-sweep suite asserts it bit for bit).

    Parameters
    ----------
    model:
        The SYS model.
    max_weight:
        Right end of the explored weight range; beyond it the optimum
        has long saturated at the minimum-delay policy for any sensible
        device.
    weight_tolerance:
        Bisection resolution on the weight axis.
    solver:
        Passed to :func:`repro.dpm.optimizer.optimize_weighted`.
    backend:
        Solver/model backend, passed to
        :func:`repro.dpm.optimizer.optimize_weighted`; non-dense
        backends cannot be combined with a checkpoint (checkpoint
        replay rebuilds policies on the dense representation).
    max_points:
        Safety bound on the number of distinct points collected.
    checkpoint:
        Optional :class:`repro.robust.checkpoint.Checkpoint`. Every
        solved weight is persisted (keyed ``repr(weight)``); resuming a
        killed sweep replays cached solves exactly, so the bisection
        revisits the same weights and the final frontier is
        bit-identical to an uninterrupted run.

    Returns
    -------
    Points sorted by increasing delay (hence decreasing power).
    """
    if max_weight <= 0:
        raise SolverError(f"max_weight must be positive, got {max_weight}")
    if checkpoint is not None and backend not in ("auto", "compiled"):
        raise SolverError(
            "checkpointed frontiers rebuild policies on the dense model "
            f"representation; backend {backend!r} cannot be combined with "
            "a checkpoint"
        )
    ins = obs_active()
    points: "dict[tuple, FrontierPoint]" = {}
    solves = 0
    solved: "List[tuple]" = []  # (weight, converged policy) seeds

    def record(weight: float) -> "tuple":
        nonlocal solves
        ckpt_key = repr(float(weight))
        if checkpoint is not None and ckpt_key in checkpoint:
            result = deserialize_result(model, checkpoint.get(ckpt_key))
        else:
            seed = None
            if solver == "policy_iteration" and solved:
                seed = min(solved, key=lambda item: abs(item[0] - weight))[1]
            result = optimize_weighted(
                model, weight, solver=solver, backend=backend,
                initial_policy=seed,
            )
            solves += 1
            if checkpoint is not None:
                checkpoint.put(ckpt_key, serialize_result(result))
        if isinstance(result.policy, Policy):
            solved.append((weight, result.policy))
        key = _point_key(result.metrics)
        existing = points.get(key)
        if existing is None or weight < existing.weight:
            points[key] = FrontierPoint(
                weight=weight, policy=result.policy, metrics=result.metrics
            )
        return key

    with ins.span(
        "deterministic_frontier", max_weight=float(max_weight), solver=solver
    ) as span:
        key_left = record(0.0)
        key_right = record(max_weight)
        # Explicit work stack instead of recursion: a pathological
        # combination of tiny weight_tolerance and wide weight range would
        # otherwise hit the interpreter recursion limit. Pushing the right
        # half first keeps the left-first depth-first order of the original
        # recursive exploration.
        stack = [(0.0, key_left, max_weight, key_right)]
        while stack:
            w_lo, key_lo, w_hi, key_hi = stack.pop()
            if key_lo == key_hi or w_hi - w_lo <= weight_tolerance:
                continue
            if len(points) >= max_points:
                raise SolverError(
                    f"frontier exceeded {max_points} points; "
                    "raise max_points if this model is genuinely that rich"
                )
            w_mid = 0.5 * (w_lo + w_hi)
            key_mid = record(w_mid)
            stack.append((w_mid, key_mid, w_hi, key_hi))
            stack.append((w_lo, key_lo, w_mid, key_mid))
        if ins.enabled:
            span.attrs.update(points=len(points), solves=solves)
            logger.debug(
                "deterministic frontier: %d points from %d solves",
                len(points), solves,
            )
    if checkpoint is not None:
        checkpoint.flush()
    return sorted(points.values(), key=lambda p: p.delay)


def randomized_frontier(
    model: PowerManagedSystemModel,
    delays: "List[float]",
) -> "List[AnalyticMetrics]":
    """Exact minimum power at each delay bound (convex lower hull).

    Each entry solves the constrained LP at one delay level; the result
    interpolates between (and never exceeds) the deterministic points.
    """
    return [optimize_constrained(model, d).metrics for d in delays]


def dominated_by_frontier(
    frontier: "List[FrontierPoint]",
    power: float,
    delay: float,
    slack: float = 1e-9,
) -> bool:
    """True if some frontier point weakly dominates ``(power, delay)``."""
    return any(
        p.power <= power + slack and p.delay <= delay + slack for p in frontier
    )
