"""Policy optimization workflow (Section IV, Figure 3).

Two equivalent entry points, mirroring the paper's two formulations:

- :func:`optimize_weighted` -- minimize the weighted cost
  ``C_pow + w * C_sq`` for a given weight ``w`` (policy iteration by
  default; value iteration and LP available for cross-checking).
  :func:`sweep_weights` traces the power--delay tradeoff curve of
  Figure 4 by solving across a weight schedule.
- :func:`optimize_constrained` -- minimize average power subject to an
  average-queue-length bound ``D_M``, solved exactly by the
  occupation-measure LP (possibly randomized optimum).
  :func:`find_weight_for_constraint` is the paper's Figure-3 workflow
  instead: adjust the weight until the deterministic optimal policy
  meets the constraint (bisection on ``w``, exploiting that the average
  queue length is non-increasing in ``w``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.ctmdp.linear_program import solve_average_cost_lp, solve_constrained_lp
from repro.ctmdp.policy import Policy, RandomizedPolicy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm import cost as cost_channels
from repro.dpm.analysis import AnalyticMetrics, evaluate_dpm_policy
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import (
    InfeasibleConstraintError,
    InvalidPolicyError,
    SolverError,
)
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active

SOLVERS = ("policy_iteration", "value_iteration", "linear_program")

#: Iteration budget for *seeded* policy-iteration solves. DPM models
#: converge in well under ten improvement rounds, and a good seed in one
#: to three -- but a harmful seed can send Howard iteration on a long
#: excursion (hundreds of rounds, sometimes ending at a numerically
#: multichain policy whose evaluation system is singular). Seeds are
#: advisory, so a seeded solve that exceeds this budget is abandoned and
#: re-run cold (``solver.reuse.warm_start_rejected``) rather than chased
#: to wherever the excursion leads. Cold solves keep the solver's own
#: default bound.
WARM_START_MAX_ITERATIONS = 25

logger = get_logger(__name__)


@dataclass(frozen=True)
class OptimizationResult:
    """An optimized policy together with its analytic metrics.

    Attributes
    ----------
    policy:
        The optimal stationary policy (randomized only when produced by
        the constrained LP).
    metrics:
        Exact steady-state metrics under the policy.
    weight:
        The performance weight the policy optimizes (``None`` for the
        directly constrained LP solution).
    """

    policy: Union[Policy, RandomizedPolicy]
    metrics: AnalyticMetrics
    weight: "float | None"


def _build_backend(backend: str) -> str:
    """Map a solver-backend request to the model-build representation."""
    if backend in ("compiled", "reference"):
        return "dense"
    # "auto" and "sparse" build what they name; "kron" propagates so
    # build_ctmdp raises its typed SYS-has-no-tensor-structure error.
    return backend


def _seed_policy(mdp, initial_policy) -> "Optional[Policy]":
    """Rebind a warm-start seed to *mdp* without validation.

    The seed typically converged on a structural sibling (same states
    and actions, neighboring weight), so its assignment transfers by
    state value; the solver's own row lookup still rejects a stale
    assignment with :class:`InvalidPolicyError`, which callers turn
    into a cold start.
    """
    if initial_policy is None:
        return None
    assignment = (
        initial_policy.as_dict()
        if isinstance(initial_policy, Policy)
        else dict(initial_policy)
    )
    return Policy._trusted(mdp, assignment)


def optimize_weighted(
    model: PowerManagedSystemModel,
    weight: float,
    solver: str = "policy_iteration",
    backend: str = "auto",
    initial_policy: "Optional[Policy]" = None,
) -> OptimizationResult:
    """Minimize the average rate of ``C_pow + weight * C_sq``.

    Parameters
    ----------
    model:
        The SYS model.
    weight:
        The performance weight ``w >= 0`` of Eqn. 3.1.
    solver:
        ``"policy_iteration"`` (the paper's algorithm, default),
        ``"value_iteration"``, or ``"linear_program"``. All three agree
        on the optimal gain; they exist separately for the solver
        ablation bench.
    backend:
        Solver backend (see :mod:`repro.ctmdp.backends`); also selects
        the model representation ``build_ctmdp`` constructs, so
        ``backend="sparse"`` runs the whole workflow -- build, solve,
        metric evaluation -- without any dense O(pairs x states)
        allocation. The LP solver is dense-only and rejects sparse/kron
        with a typed error.
    initial_policy:
        Optional warm-start seed for ``solver="policy_iteration"`` --
        typically a neighboring weight's converged policy (the sweeps
        pass it automatically). Policy iteration converges to the same
        fixed point from any admissible start, so the result is
        unchanged; only the number of improvement rounds shrinks. A
        seed the model rejects -- or whose improvement path hits a
        policy the solver cannot evaluate -- falls back to a cold
        start (``solver.reuse.warm_start_rejected``). Other solvers
        ignore it.
    """
    ins = obs_active()
    if ins.metrics is not None:
        ins.metrics.counter("optimizer.weighted_solves").inc()
    with ins.span("optimize_weighted", weight=float(weight), solver=solver) as span:
        if solver == "linear_program" and backend not in ("auto", "compiled"):
            raise SolverError(
                "the occupation-measure LP is dense-only; backend "
                f"{backend!r} is not supported (use policy_iteration or "
                "value_iteration for sparse models)"
            )
        if solver == "linear_program":
            mdp = model.build_ctmdp(weight)
            policy: Union[Policy, RandomizedPolicy] = solve_average_cost_lp(
                mdp
            ).deterministic_policy
        else:
            mdp = model.build_ctmdp(weight, backend=_build_backend(backend))
            if solver == "policy_iteration":
                seed = _seed_policy(mdp, initial_policy)
                if seed is not None and ins.metrics is not None:
                    ins.metrics.counter("solver.reuse.warm_start_seeds").inc()
                try:
                    kwargs = (
                        {"max_iterations": WARM_START_MAX_ITERATIONS}
                        if seed is not None
                        else {}
                    )
                    policy = policy_iteration(
                        mdp, initial_policy=seed, backend=backend, **kwargs
                    ).policy
                except (InvalidPolicyError, KeyError, SolverError):
                    if seed is None:
                        raise
                    # A stale seed (e.g. from a structurally different
                    # model) must never change the outcome: re-solve cold.
                    # SolverError covers the subtler hazards: a seeded
                    # improvement path can exhaust its (deliberately
                    # small) iteration budget, or visit an intermediate
                    # policy whose induced chain is (numerically)
                    # multichain -- a singular evaluation system a cold
                    # start never encounters. Warm starts are advisory,
                    # so any such failure falls back to the cold
                    # trajectory.
                    if ins.metrics is not None:
                        ins.metrics.counter(
                            "solver.reuse.warm_start_rejected"
                        ).inc()
                    policy = policy_iteration(mdp, backend=backend).policy
            elif solver == "value_iteration":
                policy = relative_value_iteration(
                    mdp, span_tolerance=1e-9, backend=backend
                ).policy
            else:
                raise SolverError(f"unknown solver {solver!r}; choose from {SOLVERS}")
        metrics = evaluate_dpm_policy(model, policy)
        if ins.enabled:
            span.attrs.update(
                average_power=metrics.average_power,
                average_queue_length=metrics.average_queue_length,
            )
            logger.debug(
                "optimize_weighted(w=%g, solver=%s): power %.6g, queue %.6g",
                weight, solver, metrics.average_power, metrics.average_queue_length,
            )
    return OptimizationResult(policy=policy, metrics=metrics, weight=weight)


def serialize_result(result: OptimizationResult) -> "Dict[str, Any]":
    """A JSON payload reconstructing *result* bit-identically.

    Used by the checkpoint/resume layer: the policy is stored as its
    action list in model state order (actions are plain strings) and
    the metrics as their exact float fields (JSON floats round-trip
    through Python's shortest repr). Only deterministic policies are
    checkpointable -- the weighted sweeps and frontier bisection never
    produce randomized ones.
    """
    if not isinstance(result.policy, Policy):
        raise SolverError(
            "only deterministic policies are checkpointable; got "
            f"{type(result.policy).__name__}"
        )
    assignment = result.policy.as_dict()
    return {
        "weight": result.weight,
        "actions": [assignment[s] for s in result.policy.mdp.states],
        "metrics": dataclasses.asdict(result.metrics),
    }


def deserialize_result(
    model: PowerManagedSystemModel, payload: "Dict[str, Any]"
) -> OptimizationResult:
    """Rebuild a checkpointed :func:`serialize_result` payload.

    The policy is revalidated against the freshly built model, so a
    checkpoint from a drifted configuration fails loudly
    (:class:`~repro.errors.InvalidPolicyError`) instead of evaluating
    garbage; the stored metrics are reused verbatim (exact floats), not
    recomputed.
    """
    mdp = model.build_ctmdp(payload["weight"])
    policy = Policy(mdp, dict(zip(mdp.states, payload["actions"])))
    return OptimizationResult(
        policy=policy,
        metrics=AnalyticMetrics(**payload["metrics"]),
        weight=payload["weight"],
    )


def _warm_chain(
    model: PowerManagedSystemModel,
    weights: Sequence[float],
    solver: str,
    backend: str,
) -> "List[OptimizationResult]":
    """Serial sweep seeding each solve with the previous converged
    policy. Along a weight schedule the optimum is piecewise constant,
    so most solves start at (or one improvement step from) their own
    fixed point."""
    results: "List[OptimizationResult]" = []
    previous: "Optional[Policy]" = None
    for w in weights:
        result = optimize_weighted(
            model, w, solver=solver, backend=backend, initial_policy=previous
        )
        if isinstance(result.policy, Policy):
            previous = result.policy
        results.append(result)
    return results


def sweep_weights(
    model: PowerManagedSystemModel,
    weights: Sequence[float],
    solver: str = "policy_iteration",
    n_jobs: Optional[int] = None,
    checkpoint=None,
    backend: str = "auto",
    warm_start: bool = True,
) -> "List[OptimizationResult]":
    """Solve for every weight in *weights* (the Figure-4 tradeoff curve).

    The weights are independent solves, so ``n_jobs`` fans them out over
    a process pool; results keep the order of *weights* and are
    identical to a serial sweep. An optional
    :class:`repro.robust.checkpoint.Checkpoint` persists each completed
    solve (keyed ``repr(weight)``); on resume, cached weights are
    reconstructed without re-solving and the returned list is identical
    to an uninterrupted sweep.

    Serial policy-iteration sweeps (``n_jobs`` absent or 1) chain warm
    starts by default: each weight's solve is seeded with the previous
    weight's converged policy (``warm_start=False`` restores cold
    starts). Policy iteration reaches the same fixed point either way
    -- the equivalence suite asserts bit-identical results -- the seed
    only cuts the improvement rounds. Process-pool sweeps stay cold:
    workers cannot see each other's results.
    """
    # Imported lazily: repro.sim pulls in repro.policies, which imports
    # back into repro.dpm during package initialization.
    from repro.sim.parallel import parallel_map

    weights = list(weights)
    if checkpoint is not None and backend not in ("auto", "compiled"):
        raise SolverError(
            "checkpointed sweeps rebuild policies on the dense model "
            f"representation; backend {backend!r} cannot be combined with "
            "a checkpoint"
        )
    chain = (
        warm_start and solver == "policy_iteration" and n_jobs in (None, 1)
    )
    if checkpoint is None:
        if chain:
            return _warm_chain(model, weights, solver, backend)
        return parallel_map(
            lambda w: optimize_weighted(model, w, solver=solver, backend=backend),
            weights,
            n_jobs=n_jobs,
        )
    missing = [w for w in weights if repr(float(w)) not in checkpoint]
    if chain:
        solved = _warm_chain(model, missing, solver, backend)
    else:
        solved = parallel_map(
            lambda w: optimize_weighted(model, w, solver=solver, backend=backend),
            missing,
            n_jobs=n_jobs,
        )
    for w, result in zip(missing, solved):
        checkpoint.put(repr(float(w)), serialize_result(result))
    checkpoint.flush()
    return [
        deserialize_result(model, checkpoint.get(repr(float(w))))
        for w in weights
    ]


def optimize_constrained(
    model: PowerManagedSystemModel,
    max_queue_length: float,
) -> OptimizationResult:
    """Exactly minimize average power s.t. avg queue length <= ``D_M``.

    Uses the occupation-measure LP, which handles the constraint
    natively; the optimum may randomize between two actions in one
    state when the constraint is active.

    Raises
    ------
    InfeasibleConstraintError
        If no stationary policy meets the bound.
    """
    ins = obs_active()
    if ins.metrics is not None:
        ins.metrics.counter("optimizer.constrained_solves").inc()
    with ins.span("optimize_constrained", max_queue_length=float(max_queue_length)):
        mdp = model.build_ctmdp(weight=0.0)
        result = solve_constrained_lp(
            mdp,
            objective=cost_channels.POWER,
            constraints={cost_channels.QUEUE_LENGTH: max_queue_length},
        )
        policy = result.policy
        return OptimizationResult(
            policy=policy, metrics=evaluate_dpm_policy(model, policy), weight=None
        )


def find_weight_for_constraint(
    model: PowerManagedSystemModel,
    max_queue_length: float,
    weight_upper_bound: float = 1e4,
    tolerance: float = 1e-3,
    max_bisections: int = 60,
    solver: str = "policy_iteration",
    backend: str = "auto",
    warm_start: bool = True,
) -> OptimizationResult:
    """The paper's Figure-3 loop: tune ``w`` until the constraint holds.

    Average queue length under the weighted-optimal policy is
    non-increasing in ``w``, so bisection finds the smallest weight
    whose optimal policy satisfies ``avg queue length <= D_M``; smaller
    weights mean lower power, so this is the best deterministic policy
    along the tradeoff curve.

    Parameters
    ----------
    model, solver:
        As in :func:`optimize_weighted`.
    max_queue_length:
        The delay bound ``D_M``.
    weight_upper_bound:
        A weight assumed large enough to satisfy the constraint; checked
        and reported if insufficient.
    tolerance:
        Bisection interval width (in weight units) at which to stop.
    max_bisections:
        Safety bound on iterations.
    warm_start:
        Seed each bisection solve with the converged policy of the
        nearest previously solved weight (default). The optimum is
        piecewise constant in ``w`` and bisection shrinks the interval
        geometrically, so late midpoints almost always start at their
        own fixed point. ``warm_start=False`` restores cold solves;
        either way the bisection visits the same weights and returns
        the same result.

    Raises
    ------
    InfeasibleConstraintError
        If even ``weight_upper_bound`` cannot meet the bound.
    """
    ins = obs_active()
    solved: "List[tuple]" = []  # (weight, converged policy)

    def solve(w: float) -> OptimizationResult:
        seed = None
        if warm_start and solver == "policy_iteration" and solved:
            seed = min(solved, key=lambda item: abs(item[0] - w))[1]
        result = optimize_weighted(
            model, w, solver=solver, backend=backend, initial_policy=seed
        )
        if isinstance(result.policy, Policy):
            solved.append((w, result.policy))
        return result

    with ins.span(
        "find_weight_for_constraint",
        max_queue_length=float(max_queue_length),
        solver=solver,
    ) as span:
        low = 0.0
        low_result = solve(low)
        if low_result.metrics.average_queue_length <= max_queue_length:
            if ins.enabled:
                span.attrs.update(weight=low, bisections=0)
            return low_result
        high = weight_upper_bound
        high_result = solve(high)
        if high_result.metrics.average_queue_length > max_queue_length:
            raise InfeasibleConstraintError(
                f"queue-length bound {max_queue_length:g} unreachable even at "
                f"weight {weight_upper_bound:g} "
                f"(achieved {high_result.metrics.average_queue_length:g})"
            )
        best = high_result
        bisections = 0
        for _ in range(max_bisections):
            if high - low <= tolerance:
                break
            mid = 0.5 * (low + high)
            mid_result = solve(mid)
            bisections += 1
            if mid_result.metrics.average_queue_length <= max_queue_length:
                high = mid
                best = mid_result
            else:
                low = mid
        if ins.enabled:
            span.attrs.update(weight=best.weight, bisections=bisections)
        return best
