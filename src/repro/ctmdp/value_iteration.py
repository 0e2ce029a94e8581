"""Relative value iteration on the uniformized chain.

A baseline average-cost solver with the same fixed points as policy
iteration. The CTMDP is first uniformized (with an aperiodicity slack);
then the standard relative value iteration recursion

``w_{k+1}(i) = min_a [ c(i,a)/Lambda + sum_j P_ia(j) w_k(j) ]``

is run with the span seminorm ``max(dw) - min(dw)`` as the stopping
criterion, where ``dw = w_{k+1} - w_k``. At convergence the continuous-
time gain is ``Lambda * dw`` (any component) and the greedy policy with
respect to ``w`` is gain-optimal.

Included both as an independent cross-check of policy iteration (their
policies must agree) and as the runtime comparison point for the solver
ablation bench.

As in :mod:`repro.ctmdp.policy_iteration`, one loop serves the dense,
CSR and Kronecker tiers; each tier's lowering supplies the Bellman
backup (``uniformized_backup(lam)``) and the policy object. The
per-state dict loop of the ``reference`` backend stays as the
independent implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, List, Optional

import numpy as np

from repro.errors import SolverError
from repro.ctmdp.backends import lower, resolve_backend
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy
from repro.ctmdp.uniformization import APERIODICITY_SLACK, UniformizedMDP, uniformize_ctmdp
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active

logger = get_logger(__name__)

#: Registry name of the per-sweep convergence trace: one row per
#: Bellman backup with the span residual (the stopping quantity) and
#: the wall-clock ``sweep_s`` (profiling field).
CONVERGENCE_SERIES = "solver.value_iteration.convergence"


def _convergence_series(metrics):
    return metrics.series(CONVERGENCE_SERIES, profiling_fields=("sweep_s",))


@dataclass(frozen=True)
class ValueIterationResult:
    """Outcome of :func:`relative_value_iteration`.

    Attributes
    ----------
    policy:
        The greedy policy at convergence (gain-optimal).
    gain:
        Continuous-time average cost rate estimate.
    values:
        Final relative value vector (normalized to ``values[0] = 0``).
    iterations:
        Sweeps performed.
    span_history:
        The span of the value difference after each sweep.
    """

    policy: Policy
    gain: float
    values: np.ndarray
    iterations: int
    span_history: "List[float]"


def _sweep(uni: UniformizedMDP, w: np.ndarray) -> "tuple[np.ndarray, list]":
    """One Bellman backup; returns (new values, greedy actions)."""
    n = len(uni.states)
    new_w = np.empty(n)
    greedy: List[Hashable] = []
    for i in range(n):
        best_value = np.inf
        best_action = None
        for action in uni.actions[i]:
            value = uni.step_cost[(i, action)] + float(uni.transition[(i, action)] @ w)
            if value < best_value:
                best_value = value
                best_action = action
        new_w[i] = best_value
        greedy.append(best_action)
    return new_w, greedy


def _budget_error(
    started: float, time_budget_s: "Optional[float]", iteration: int,
    span_history: "List[float]",
) -> None:
    """Raise a structured SolverError when the wall-clock budget is spent."""
    if time_budget_s is None:
        return
    elapsed = time.perf_counter() - started
    if elapsed > time_budget_s:
        raise SolverError(
            f"relative value iteration exceeded its wall-clock budget "
            f"({elapsed:.3f}s > {time_budget_s:g}s) after {iteration} sweeps",
            diagnostics={
                "reason": "time_budget_exceeded",
                "iteration": iteration,
                "elapsed_s": elapsed,
                "time_budget_s": time_budget_s,
                "span_history": span_history[-10:],
            },
        )


def _nonconvergence_error(
    span_tolerance: float, max_iterations: int, span_history: "List[float]"
) -> SolverError:
    return SolverError(
        f"relative value iteration did not reach span {span_tolerance:g} in "
        f"{max_iterations} sweeps (last span {span_history[-1]:g})",
        diagnostics={
            "reason": "max_iterations_exhausted",
            "iteration": max_iterations,
            "span_tolerance": span_tolerance,
            "span_history": span_history[-10:],
        },
    )


def _relative_value_iteration(
    mdp,
    tier: str,
    span_tolerance: float,
    max_iterations: int,
    uniformization_rate: Optional[float],
    time_budget_s: "Optional[float]",
) -> ValueIterationResult:
    """Relative value iteration on *tier*'s lowering of *mdp*: one
    uniformized Bellman backup of the whole state space per sweep."""
    mdp.validate()
    ins = obs_active()
    metrics = ins.metrics
    model = lower(mdp, tier)
    if metrics is not None:
        metrics.counter("solver.value_iteration.solves").inc()
    series = _convergence_series(metrics) if metrics is not None else None
    max_rate = model.max_exit_rate()
    if uniformization_rate is None:
        lam = APERIODICITY_SLACK * max_rate if max_rate > 0 else 1.0
    else:
        lam = float(uniformization_rate)
        if lam < max_rate:
            raise ValueError(
                f"uniformization rate {lam:g} below maximal exit rate {max_rate:g}"
            )
    backup = model.uniformized_backup(lam)
    n = model.n_states
    w = np.zeros(n)
    diff = np.empty(n)
    started = time.perf_counter()
    span_history: List[float] = []
    with ins.span("value_iteration", backend=tier, n_states=n) as tspan:
        for iteration in range(1, max_iterations + 1):
            _budget_error(started, time_budget_s, iteration, span_history)
            if ins.enabled:
                sweep_start = time.perf_counter()
            new_w, greedy = backup(w)
            np.subtract(new_w, w, out=diff)
            span = float(diff.max() - diff.min())
            span_history.append(span)
            if series is not None:
                series.append(
                    backend=tier,
                    iteration=iteration,
                    span=span,
                    sweep_s=time.perf_counter() - sweep_start,
                )
            # Renormalize to keep the values bounded (relative VI).
            np.subtract(new_w, new_w[0], out=w)
            if span < span_tolerance:
                gain = float(lam * 0.5 * (diff.max() + diff.min()))
                if ins.enabled:
                    tspan.attrs.update(iterations=iteration, gain=gain)
                    if metrics is not None:
                        metrics.histogram(
                            "solver.value_iteration.iterations"
                        ).observe(iteration)
                    logger.debug(
                        "value iteration converged: %d states, %d sweeps, "
                        "gain %.6g",
                        n, iteration, gain,
                    )
                return ValueIterationResult(
                    policy=model.policy(mdp, greedy),
                    gain=gain,
                    values=w,
                    iterations=iteration,
                    span_history=span_history,
                )
    raise _nonconvergence_error(span_tolerance, max_iterations, span_history)


def relative_value_iteration(
    mdp: CTMDP,
    span_tolerance: float = 1e-10,
    max_iterations: int = 1_000_000,
    uniformization_rate: Optional[float] = None,
    backend: str = "auto",
    time_budget_s: Optional[float] = None,
) -> ValueIterationResult:
    """Solve a unichain average-cost CTMDP by relative value iteration.

    Parameters
    ----------
    mdp:
        The model.
    span_tolerance:
        Stop when ``span(w_{k+1} - w_k) < span_tolerance``; the gain
        estimate is then accurate to within the tolerance times the
        uniformization rate.
    max_iterations:
        Safety bound.
    uniformization_rate:
        Optional explicit ``Lambda``; must exceed the maximal exit rate.
    backend:
        ``"auto"`` (default) resolves by model type and size (see
        :mod:`repro.ctmdp.backends`). ``"compiled"`` sweeps
        the dense lowering with one matrix-vector product per Bellman
        backup; ``"sparse"`` sweeps the CSR lowering (one sparse matvec
        per backup); ``"kron"`` runs matrix-free uniformized backups on
        a Kronecker model (one structured matvec per action per sweep);
        ``"reference"`` keeps the original per-state dict loops.
        Policies agree exactly and gains to floating-point roundoff.
    time_budget_s:
        Optional wall-clock budget; exceeding it raises a structured
        :class:`SolverError` (``reason: time_budget_exceeded``).

    Raises
    ------
    SolverError
        If the span does not contract within ``max_iterations`` or the
        wall-clock budget runs out; ``diagnostics`` carries the sweep
        count and recent span history.
    """
    backend = resolve_backend(mdp, backend)
    if backend != "reference":
        return _relative_value_iteration(
            mdp, backend, span_tolerance, max_iterations, uniformization_rate,
            time_budget_s,
        )
    uni = uniformize_ctmdp(mdp, rate=uniformization_rate)
    ins = obs_active()
    metrics = ins.metrics
    series = _convergence_series(metrics) if metrics is not None else None
    if metrics is not None:
        metrics.counter("solver.value_iteration.solves").inc()
    n = len(uni.states)
    w = np.zeros(n)
    started = time.perf_counter()
    span_history: List[float] = []
    for iteration in range(1, max_iterations + 1):
        _budget_error(started, time_budget_s, iteration, span_history)
        if ins.enabled:
            sweep_start = time.perf_counter()
        new_w, greedy = _sweep(uni, w)
        diff = new_w - w
        span = float(diff.max() - diff.min())
        span_history.append(span)
        if series is not None:
            series.append(
                backend="reference",
                iteration=iteration,
                span=span,
                sweep_s=time.perf_counter() - sweep_start,
            )
        # Renormalize to keep the values bounded (relative VI).
        w = new_w - new_w[0]
        if span < span_tolerance:
            gain = float(uni.rate * 0.5 * (diff.max() + diff.min()))
            if metrics is not None:
                metrics.histogram("solver.value_iteration.iterations").observe(
                    iteration
                )
            return ValueIterationResult(
                policy=Policy.from_actions(mdp, greedy),
                gain=gain,
                values=w.copy(),
                iterations=iteration,
                span_history=span_history,
            )
    raise _nonconvergence_error(span_tolerance, max_iterations, span_history)
