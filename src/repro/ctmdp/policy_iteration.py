"""Average-cost policy iteration for CTMDPs (the paper's solver).

The algorithm is Howard's policy iteration adapted to continuous time
(Miller [9], Howard [10]; the paper cites [9] and omits the details):

1. **Evaluation** -- for the current policy solve ``c + G h = g 1``
   with ``h[ref] = 0`` for the gain ``g`` and bias ``h``
   (:func:`repro.ctmdp.policy.evaluate_policy`).
2. **Improvement** -- in each state pick the action minimizing the
   *test quantity* ``c_i(a) + sum_j s_ij(a) h_j``; keep the incumbent
   action when it is within tolerance of the minimum (this tie-breaking
   guarantees termination).
3. Stop when no state changes its action.

For finite unichain CTMDPs this converges to the gain-optimal stationary
policy in finitely many iterations, and each iteration is one dense
linear solve -- the efficiency advantage over the LP approach that the
paper highlights.

The loop is written once for the array tiers (dense, CSR, Kronecker).
It runs on the tier's lowered model -- ``CompiledCTMDP``,
``SparseCTMDP`` or ``KroneckerCTMDP`` -- which supplies only linear
algebra: ``selection(policy)``, ``evaluate(sel, ref, x0) -> (gain,
bias, stationary)`` in canonical units, with ``stationary`` a
zero-argument thunk of the policy's stationary distribution (on CSR a
transposed solve on the evaluation's own LU), ``q_values(v)`` and
``improve(q, sel, atol)`` (the incumbent-rule sweep on ``c + G v``)
and ``policy(mdp, sel)``. The dict-based ``reference`` loop is kept as
an independent implementation the tests compare against bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.errors import SolverError
from repro.ctmdp.backends import lower, resolve_backend
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, _evaluate_reference
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active

logger = get_logger(__name__)

#: Registry name of the per-iteration convergence trace. Each solve
#: appends one row per improvement round: ``iteration`` (0 = initial
#: evaluation), ``gain``, ``residual`` (absolute gain change, the
#: monotone convergence witness), ``policy_changes`` (states whose
#: action moved), and the wall-clock ``sweep_s`` (a profiling field,
#: stripped from the deterministic view).
CONVERGENCE_SERIES = "solver.policy_iteration.convergence"
_SWEEP_FIELDS = ("sweep_s",)


def _convergence_series(metrics):
    return metrics.series(CONVERGENCE_SERIES, profiling_fields=_SWEEP_FIELDS)


@dataclass(frozen=True)
class PolicyIterationResult:
    """Outcome of :func:`policy_iteration`.

    Attributes
    ----------
    policy:
        The gain-optimal deterministic stationary policy.
    gain:
        Its long-run average cost rate.
    bias:
        Its bias (relative value) vector.
    stationary:
        Stationary distribution under the optimal policy.
    iterations:
        Number of improvement rounds performed (including the final
        no-change round).
    gain_history:
        Gain after each evaluation, monotonically non-increasing.
    """

    policy: Policy
    gain: float
    bias: np.ndarray
    stationary: np.ndarray
    iterations: int
    gain_history: "List[float]"


def _default_initial_policy(mdp: CTMDP) -> Policy:
    """First-listed action in every state."""
    return Policy(mdp, {s: mdp.actions(s)[0] for s in mdp.states})


def _policy_payload(policy: Policy, limit: int = 200) -> "List[List[str]]":
    """The first *limit* ``(state, action)`` pairs of *policy*, rendered
    for diagnostics. A Kronecker model names each state through
    ``state_label``, so no joint label list is built."""
    mdp = policy.mdp
    label = getattr(mdp, "state_label", None) or mdp.states.__getitem__
    return [[repr(label(i)), repr(a)]
            for i, a in enumerate(policy.actions[:limit])]


def _check_budget(
    started: float, time_budget_s: "Optional[float]", iteration: int,
    gain_history: "List[float]",
) -> None:
    """Raise a structured SolverError when the wall-clock budget is spent."""
    if time_budget_s is None:
        return
    elapsed = time.perf_counter() - started
    if elapsed > time_budget_s:
        raise SolverError(
            f"policy iteration exceeded its wall-clock budget "
            f"({elapsed:.3f}s > {time_budget_s:g}s) after {iteration} "
            "iterations",
            diagnostics={
                "reason": "time_budget_exceeded",
                "iteration": iteration,
                "elapsed_s": elapsed,
                "time_budget_s": time_budget_s,
                "gain_history": gain_history[-10:],
            },
        )


class _CycleDetector:
    """Detects policy iteration revisiting a previously seen policy.

    With the ``atol`` incumbent-keeping rule the gain is strictly
    decreasing across policy changes, so a revisit signals numerical
    trouble (e.g. an evaluation solved in a degraded mode). Raising a
    structured error with the offending policy beats iterating to the
    ``max_iterations`` wall. The policy diagnostic comes from the
    ``policy_payload`` thunk, called only when the check raises --
    rendering every state costs ~0.3 s per round at 10^5 states.
    """

    def __init__(self, backend: "Optional[str]" = None) -> None:
        self._backend = backend
        self._seen: "dict" = {}

    def check(self, key, iteration: int, gain_history: "List[float]",
              policy_payload: "Optional[Callable[[], list]]") -> None:
        first = self._seen.setdefault(key, iteration)
        if first != iteration:
            raise SolverError(
                f"policy iteration is cycling: the policy of iteration "
                f"{iteration} was already visited at iteration {first}",
                diagnostics={
                    "reason": "policy_cycle",
                    "iteration": iteration,
                    "backend": self._backend,
                    "first_seen": first,
                    "cycle_length": iteration - first,
                    "gain_history": gain_history[-10:],
                    "policy": (
                        policy_payload() if policy_payload is not None
                        else None
                    ),
                },
            )


def _improve(
    mdp: CTMDP, policy: Policy, h: np.ndarray, atol: float
) -> "tuple[Policy, bool]":
    """One incumbent-rule sweep on the test quantities ``c + G h`` of
    the dict model; returns (new policy, changed?). Shared by the
    reference policy-iteration and discounted loops."""
    incumbents = [policy.action(state) for state in mdp.states]
    actions = []
    for state, incumbent in zip(mdp.states, incumbents):
        best_action = incumbent
        best_value = mdp.cost(state, incumbent) + float(
            mdp.generator_row(state, incumbent) @ h
        )
        for action in mdp.actions(state):
            if action == incumbent:
                continue
            value = mdp.cost(state, action) + float(
                mdp.generator_row(state, action) @ h
            )
            if value < best_value - atol:
                best_value = value
                best_action = action
        actions.append(best_action)
    return Policy.from_actions(mdp, actions), actions != incumbents


def _nonconvergence_error(
    max_iterations: int, backend: str, gain_history: "List[float]",
    policy: Policy,
) -> SolverError:
    """The typed failure of a run that spent ``max_iterations``."""
    return SolverError(
        f"policy iteration did not converge in {max_iterations} iterations",
        diagnostics={
            "reason": "max_iterations_exhausted",
            "iteration": max_iterations,
            "backend": backend,
            "gain_history": gain_history[-10:],
            "policy": _policy_payload(policy),
        },
    )


def _policy_iteration(
    mdp,
    tier: str,
    initial_policy,
    max_iterations: int,
    atol: float,
    reference_state: int,
    time_budget_s: "Optional[float]",
) -> PolicyIterationResult:
    """Policy iteration on *tier*'s lowering of *mdp* (module doc).

    The stationary-distribution solve is deferred to convergence --
    intermediate policies only need gain and bias -- which the
    reference loop pays for every round. Only the latest evaluation's
    stationary thunk is kept (on CSR it holds that evaluation's LU), and
    it is dropped before the next evaluation factors. Each evaluation
    is warm-started from the previous bias (``x0``), which only the
    Krylov tier uses.
    """
    mdp.validate()
    ins = obs_active()
    metrics = ins.metrics
    model = lower(mdp, tier)
    if metrics is not None:
        metrics.counter("solver.policy_iteration.solves").inc()
    n = model.n_states
    sel = model.selection(initial_policy)
    # The sweep runs on canonical-unit test quantities, so the
    # original-unit improvement threshold gets the same exact exponent
    # shift (plus the rate_scale of a repaired model). Both factors are
    # powers of two for every model this library builds, making the
    # displacement decisions bit-identical to a stored-unit sweep --
    # and, for unscaled models, to the unnormalized implementation.
    atol_can = float(np.ldexp(atol * model.rate_scale, -model.canonical_shift))
    started = time.perf_counter()
    cycles = _CycleDetector(tier)
    gain_history: List[float] = []
    if ins.enabled:
        sweep_start = time.perf_counter()
    gain, bias, stationary = model.evaluate(sel, reference_state)
    gain_history.append(gain)
    series = _convergence_series(metrics) if metrics is not None else None
    if series is not None:
        series.append(
            backend=tier,
            iteration=0,
            gain=gain,
            residual=None,
            policy_changes=None,
            sweep_s=time.perf_counter() - sweep_start,
        )
    cycles.check(sel.tobytes(), 0, gain_history, None)
    with ins.span("policy_iteration", backend=tier, n_states=n) as span:
        for iteration in range(1, max_iterations + 1):
            _check_budget(started, time_budget_s, iteration, gain_history)
            if ins.enabled:
                sweep_start = time.perf_counter()
                previous_sel = sel
                previous_gain = gain
            sel, changed = model.improve(model.q_values(bias), sel, atol_can)
            if changed:
                cycles.check(
                    sel.tobytes(), iteration, gain_history,
                    lambda: _policy_payload(model.policy(mdp, sel)),
                )
                stationary = None  # free the previous policy's LU first
                gain, bias, stationary = model.evaluate(
                    sel, reference_state, x0=bias)
            # An unchanged policy selects the same rows, so re-solving would
            # reproduce the previous (gain, bias) bit-for-bit -- reuse them.
            gain_history.append(gain)
            if series is not None:
                series.append(
                    backend=tier,
                    iteration=iteration,
                    gain=gain,
                    residual=abs(gain - previous_gain),
                    policy_changes=int(np.count_nonzero(sel != previous_sel)),
                    sweep_s=time.perf_counter() - sweep_start,
                )
            if not changed:
                if ins.enabled:
                    span.attrs.update(iterations=iteration, gain=gain)
                    if metrics is not None:
                        metrics.histogram(
                            "solver.policy_iteration.iterations"
                        ).observe(iteration)
                    logger.debug(
                        "policy iteration converged: %d states, %d rounds, "
                        "gain %.6g",
                        n, iteration, gain,
                    )
                return PolicyIterationResult(
                    policy=model.policy(mdp, sel),
                    gain=gain,
                    bias=bias,
                    stationary=stationary(),
                    iterations=iteration,
                    gain_history=gain_history,
                )
    raise _nonconvergence_error(
        max_iterations, tier, gain_history, model.policy(mdp, sel)
    )


def policy_iteration(
    mdp: CTMDP,
    initial_policy: Optional[Policy] = None,
    max_iterations: int = 1000,
    atol: float = 1e-9,
    reference_state: int = 0,
    backend: str = "auto",
    time_budget_s: Optional[float] = None,
) -> PolicyIterationResult:
    """Solve a unichain average-cost CTMDP by policy iteration.

    Parameters
    ----------
    mdp:
        The model; every state must have at least one action.
    initial_policy:
        Starting policy; defaults to the first-listed action per state.
    max_iterations:
        Safety bound; policy iteration on a finite model terminates far
        earlier in practice (typically < 10 rounds for DPM models).
    atol:
        Improvement threshold. An action only displaces the incumbent
        when it beats it by more than ``atol``, which both breaks ties
        deterministically and guarantees termination.
    reference_state:
        State whose bias is pinned to zero during evaluation.
    backend:
        ``"auto"`` (default) resolves by model type and size (see
        :mod:`repro.ctmdp.backends`): Kronecker models run matrix-free,
        sparse models run sparse, and plain CTMDPs run the dense
        compiled tier up to
        :data:`~repro.ctmdp.backends.DENSE_STATE_LIMIT` states, CSR
        beyond. ``"compiled"`` forces the dense lowering,
        ``"sparse"`` the CSR lowering (one fresh SuperLU factorization
        per improvement round), ``"kron"`` the matrix-free Kronecker
        solvers, and ``"reference"`` the original per-state dict loops.
        All tiers produce the same policies and matching gains (the
        equivalence suite asserts it; compiled vs. reference is
        bit-exact, Krylov rungs are held to the documented residual
        tolerance).
    time_budget_s:
        Optional wall-clock budget; exceeding it raises a structured
        :class:`SolverError` (``reason: time_budget_exceeded``) instead
        of running unbounded on a pathological model.

    Raises
    ------
    SolverError
        If ``max_iterations`` or ``time_budget_s`` is exhausted, a
        policy cycle is detected (both indicate a modeling bug -- e.g.
        a multichain model slipping through), evaluation fails even in
        the least-squares fallback of :mod:`repro.robust.guardrails`,
        or -- on the sparse tier -- a round's evaluation system is
        singular (``reason: "singular_system"``). On every tier, the
        ``diagnostics`` of an exhausted or cycling run carry the
        ``reason``, the ``iteration``, the ``backend``, the recent
        ``gain_history`` and the offending ``policy``.
    """
    backend = resolve_backend(mdp, backend)
    if backend != "reference":
        return _policy_iteration(
            mdp, backend, initial_policy, max_iterations, atol,
            reference_state, time_budget_s,
        )
    mdp.validate()
    policy = initial_policy if initial_policy is not None else _default_initial_policy(mdp)
    ins = obs_active()
    metrics = ins.metrics
    series = _convergence_series(metrics) if metrics is not None else None
    if metrics is not None:
        metrics.counter("solver.policy_iteration.solves").inc()
    started = time.perf_counter()
    cycles = _CycleDetector("reference")
    gain_history: List[float] = []
    if ins.enabled:
        sweep_start = time.perf_counter()
    evaluation = _evaluate_reference(
        policy, reference_state, compute_stationary=False
    )
    gain_history.append(evaluation.gain)
    cycles.check(policy.actions, 0, gain_history, None)
    if series is not None:
        series.append(
            backend="reference",
            iteration=0,
            gain=evaluation.gain,
            residual=None,
            policy_changes=None,
            sweep_s=time.perf_counter() - sweep_start,
        )
    with ins.span(
        "policy_iteration", backend="reference", n_states=mdp.n_states
    ) as span:
        for iteration in range(1, max_iterations + 1):
            _check_budget(started, time_budget_s, iteration, gain_history)
            if ins.enabled:
                sweep_start = time.perf_counter()
                previous_actions = policy.actions
                previous_gain = evaluation.gain
            # atol is an original-unit threshold; the test quantities
            # are in stored units (original times rate_scale).
            policy, changed = _improve(
                mdp, policy, evaluation.bias,
                atol * getattr(mdp, "rate_scale", 1.0),
            )
            if changed:
                cycles.check(
                    policy.actions, iteration, gain_history,
                    lambda: _policy_payload(policy),
                )
            evaluation = _evaluate_reference(
                policy, reference_state, compute_stationary=False
            )
            gain_history.append(evaluation.gain)
            if series is not None:
                series.append(
                    backend="reference",
                    iteration=iteration,
                    gain=evaluation.gain,
                    residual=abs(evaluation.gain - previous_gain),
                    policy_changes=sum(
                        1 for a, b in zip(previous_actions, policy.actions)
                        if a != b
                    ),
                    sweep_s=time.perf_counter() - sweep_start,
                )
            if not changed:
                if ins.enabled:
                    span.attrs.update(iterations=iteration, gain=evaluation.gain)
                    if metrics is not None:
                        metrics.histogram(
                            "solver.policy_iteration.iterations"
                        ).observe(iteration)
                    logger.debug(
                        "policy iteration converged: %d states, %d rounds, "
                        "gain %.6g",
                        mdp.n_states, iteration, evaluation.gain,
                    )
                from repro.markov.generator import stationary_distribution

                return PolicyIterationResult(
                    policy=policy,
                    gain=evaluation.gain,
                    bias=evaluation.bias,
                    stationary=stationary_distribution(
                        policy.generator_matrix()
                    ),
                    iterations=iteration,
                    gain_history=gain_history,
                )
    raise _nonconvergence_error(
        max_iterations, "reference", gain_history, policy
    )
