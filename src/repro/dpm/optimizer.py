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
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.ctmdp.linear_program import solve_average_cost_lp, solve_constrained_lp
from repro.ctmdp.policy import Policy, RandomizedPolicy, actions_in_order
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm import cost as cost_channels
from repro.dpm.analysis import AnalyticMetrics, evaluate_dpm_policy
from repro.dpm.system import PowerManagedSystemModel, build_backend
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


def _seed_policy(mdp, initial_policy) -> Policy:
    """Rebind a warm-start seed to *mdp* without validation.

    The seed typically converged on a structural sibling (same states
    and actions, neighboring weight), so it transfers by its action
    tuple. A mapping seed -- such as the served table -- and a policy
    on a model with other states are read in *mdp*'s state order
    (:func:`~repro.ctmdp.policy.actions_in_order`). The solver's
    selection still checks every action, so a stale seed fails with
    :class:`InvalidPolicyError`, which callers turn into a cold start.
    """
    return Policy.from_actions(mdp, actions_in_order(initial_policy, mdp))


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
        # Policy iteration returns its policy's stationary distribution;
        # the metrics reuse it instead of solving the same rows again.
        stationary = None
        if solver == "linear_program":
            mdp = model.build_ctmdp(weight)
            policy: Union[Policy, RandomizedPolicy] = solve_average_cost_lp(
                mdp
            ).deterministic_policy
        else:
            mdp = model.build_ctmdp(weight, backend=build_backend(backend))
            if solver == "policy_iteration":
                solved = None
                if initial_policy is not None:
                    if ins.metrics is not None:
                        ins.metrics.counter("solver.reuse.warm_start_seeds").inc()
                    try:
                        solved = policy_iteration(
                            mdp,
                            initial_policy=_seed_policy(mdp, initial_policy),
                            backend=backend,
                            max_iterations=WARM_START_MAX_ITERATIONS,
                        )
                    except (InvalidPolicyError, SolverError):
                        # A stale seed (e.g. from a structurally different
                        # model) must never change the outcome: re-solve
                        # cold. SolverError covers the subtler hazards: a
                        # seeded improvement path can exhaust its
                        # (deliberately small) iteration budget, or visit
                        # an intermediate policy whose induced chain is
                        # (numerically) multichain -- a singular
                        # evaluation system a cold start never
                        # encounters. Warm starts are advisory, so any
                        # such failure falls back to the cold trajectory.
                        if ins.metrics is not None:
                            ins.metrics.counter(
                                "solver.reuse.warm_start_rejected"
                            ).inc()
                if solved is None:
                    solved = policy_iteration(mdp, backend=backend)
                policy, stationary = solved.policy, solved.stationary
            elif solver == "value_iteration":
                policy = relative_value_iteration(
                    mdp, span_tolerance=1e-9, backend=backend
                ).policy
            else:
                raise SolverError(f"unknown solver {solver!r}; choose from {SOLVERS}")
        metrics = evaluate_dpm_policy(model, policy, stationary=stationary)
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
    return {
        "weight": result.weight,
        "actions": list(result.policy.actions),
        "metrics": dataclasses.asdict(result.metrics),
    }


def deserialize_result(
    model: PowerManagedSystemModel,
    payload: "Dict[str, Any]",
    backend: str = "auto",
) -> OptimizationResult:
    """Rebuild a checkpointed :func:`serialize_result` payload.

    The stored action tuple binds to the build that solver *backend*
    runs on (:func:`~repro.dpm.system.build_backend`), as the solve's
    own policy did. The policy is revalidated against the freshly built
    model, so a checkpoint from a drifted configuration fails loudly
    (:class:`~repro.errors.InvalidPolicyError`) instead of evaluating
    garbage; the stored metrics are reused verbatim (exact floats), not
    recomputed.
    """
    mdp = model.build_ctmdp(payload["weight"], backend=build_backend(backend))
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
) -> "Iterator[OptimizationResult]":
    """Serial sweep seeding each solve with the previous converged
    policy (policy iteration uses the seed, the other solvers ignore
    it), yielding each result as it is solved. Along a weight schedule
    the optimum is piecewise constant, so most solves start at (or one
    improvement step from) their own fixed point."""
    previous: "Optional[Policy]" = None
    for w in weights:
        result = optimize_weighted(
            model, w, solver=solver, backend=backend, initial_policy=previous
        )
        if isinstance(result.policy, Policy):
            previous = result.policy
        yield result


def nearest_seed(solved: "List[tuple]", weight: float) -> "Optional[Policy]":
    """The warm-start seed of a search that revisits the weight axis:
    the converged policy of the ``(weight, policy)`` entry of *solved*
    nearest *weight* (the first among equals), ``None`` before any."""
    if not solved:
        return None
    return min(solved, key=lambda item: abs(item[0] - weight))[1]


def sweep_weights(
    model: PowerManagedSystemModel,
    weights: Sequence[float],
    solver: str = "policy_iteration",
    n_jobs: Optional[int] = None,
    checkpoint=None,
    backend: str = "auto",
) -> "List[OptimizationResult]":
    """Solve for every weight in *weights* (the Figure-4 tradeoff curve).

    The weights are independent solves, so ``n_jobs`` fans them out over
    a process pool; results keep the order of *weights* and are
    identical to a serial sweep. An optional
    :class:`repro.robust.checkpoint.Checkpoint` persists each solve
    (keyed ``repr(weight)``) as it completes, or when the pool returns;
    on resume, cached weights are rebuilt on the *backend*'s model build
    without re-solving, and the returned list is identical to an
    uninterrupted sweep.

    Serial sweeps (``n_jobs`` absent or 1) chain warm starts: each
    weight's policy-iteration solve is seeded with the previous weight's
    converged policy. Policy iteration reaches the same fixed point
    either way -- the equivalence suite asserts bit-identical results
    against per-weight cold solves -- the seed only cuts the
    improvement rounds. Process-pool sweeps stay cold: workers cannot
    see each other's results.
    """
    # Imported lazily: repro.sim pulls in repro.policies, which imports
    # back into repro.dpm during package initialization.
    from repro.sim.parallel import parallel_map

    weights = list(weights)
    chain = n_jobs in (None, 1)
    if checkpoint is None:
        if chain:
            return list(_warm_chain(model, weights, solver, backend))
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
        deserialize_result(model, checkpoint.get(repr(float(w))), backend)
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
) -> OptimizationResult:
    """The paper's Figure-3 loop: tune ``w`` until the constraint holds.

    Average queue length under the weighted-optimal policy is
    non-increasing in ``w``, so bisection finds the smallest weight
    whose optimal policy satisfies ``avg queue length <= D_M``; smaller
    weights mean lower power, so this is the best deterministic policy
    along the tradeoff curve.

    Each policy-iteration solve is seeded with the converged policy of
    the nearest previously solved weight. The optimum is piecewise
    constant in ``w`` and bisection shrinks the interval geometrically,
    so late midpoints almost always start at their own fixed point; the
    seed changes no weight the bisection visits and no result.

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

    Raises
    ------
    InfeasibleConstraintError
        If even ``weight_upper_bound`` cannot meet the bound.
    """
    ins = obs_active()
    solved: "List[tuple]" = []  # (weight, converged policy)

    def solve(w: float) -> OptimizationResult:
        result = optimize_weighted(
            model, w, solver=solver, backend=backend,
            initial_policy=nearest_seed(solved, w),
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
