"""Discounted-cost policy iteration for CTMDPs.

The discounted criterion (the paper's ``v_dis`` with discount factor
``a > 0``, Section II) values a cost stream ``c(t)`` as
``integral e^{-a t} c(t) dt``. For a stationary policy the value vector
solves ``(a I - G) v = c``; policy improvement picks, per state, the
action minimizing ``c_i(a) + sum_j s_ij(a) v_j`` (equivalently the
action whose one-step discounted lookahead is cheapest).

Theorem 2.2 guarantees a stationary a-optimal policy exists; Theorem 2.3
says that as ``a -> 0`` the discounted-optimal policies converge to an
average-optimal policy -- the discount-sweep ablation bench demonstrates
exactly this on the paper's DPM model.

One loop serves the dense, CSR and Kronecker tiers on the lowering
methods policy iteration uses (see :mod:`repro.ctmdp.policy_iteration`)
plus ``evaluate_discounted``; the per-state dict loop of the
``reference`` backend stays as the independent implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SolverError
from repro.ctmdp.backends import lower, resolve_backend
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy
from repro.robust.guardrails import solve_with_fallback


@dataclass(frozen=True)
class DiscountedResult:
    """Outcome of :func:`discounted_policy_iteration`.

    Attributes
    ----------
    policy:
        The a-optimal deterministic stationary policy.
    values:
        Its expected total discounted cost per starting state.
    discount:
        The discount factor used.
    iterations:
        Improvement rounds performed.
    """

    policy: Policy
    values: np.ndarray
    discount: float
    iterations: int


def _evaluate_discounted(policy: Policy, discount: float) -> np.ndarray:
    """Solve ``(a I - G) v = c`` for the policy's value vector through
    the guardrail ladder."""
    g = policy.generator_matrix()
    return solve_with_fallback(
        discount * np.eye(g.shape[0]) - g,
        policy.cost_vector(),
        what="discounted evaluation system",
        context={"discount": discount},
    )


def _discounted_policy_iteration(
    mdp,
    tier: str,
    discount: float,
    initial_policy: Optional[Policy],
    max_iterations: int,
    atol: float,
) -> DiscountedResult:
    """Discounted policy iteration on *tier*'s lowering of *mdp*; the
    sweep runs in model units, and each evaluation is warm-started from
    the previous values (``x0``), which only the Krylov tier uses."""
    mdp.validate()
    model = lower(mdp, tier)
    sel = model.selection(initial_policy)
    values = model.evaluate_discounted(sel, discount)
    for iteration in range(1, max_iterations + 1):
        sel, changed = model.improve(
            model.q_values(values, canonical=False), sel, atol
        )
        # Unchanged policy: the same system re-solves to the same values.
        if not changed:
            return DiscountedResult(
                policy=model.policy(mdp, sel),
                values=values,
                discount=discount,
                iterations=iteration,
            )
        values = model.evaluate_discounted(sel, discount, x0=values)
    raise SolverError(
        f"discounted policy iteration did not converge in {max_iterations} iterations"
    )


def discounted_policy_iteration(
    mdp: CTMDP,
    discount: float,
    initial_policy: Optional[Policy] = None,
    max_iterations: int = 1000,
    atol: float = 1e-9,
    backend: str = "auto",
) -> DiscountedResult:
    """Find the a-optimal stationary policy by policy iteration.

    Parameters
    ----------
    mdp:
        The model.
    discount:
        The paper's ``a``; must be positive. Small values approximate the
        average-cost criterion (Theorem 2.3).
    initial_policy:
        Starting point; defaults to the first-listed action per state.
    max_iterations, atol:
        Termination controls; see
        :func:`repro.ctmdp.policy_iteration.policy_iteration`.
    backend:
        ``"auto"`` (default) resolves by model type and size (see
        :mod:`repro.ctmdp.backends`); ``"compiled"`` (vectorized
        dense lowering), ``"sparse"`` (CSR lowering with the
        direct/Krylov evaluation ladder), ``"kron"`` (matrix-free, for
        Kronecker models), or ``"reference"`` (the original per-state
        dict loops); results agree across tiers.
    """
    if discount <= 0:
        raise ValueError(f"discount factor must be positive, got {discount}")
    backend = resolve_backend(mdp, backend)
    if backend != "reference":
        return _discounted_policy_iteration(
            mdp, backend, discount, initial_policy, max_iterations, atol
        )
    mdp.validate()
    if initial_policy is None:
        policy = Policy(mdp, {s: mdp.actions(s)[0] for s in mdp.states})
    else:
        policy = initial_policy
    values = _evaluate_discounted(policy, discount)
    for iteration in range(1, max_iterations + 1):
        assignment = {}
        changed = False
        for state in mdp.states:
            incumbent = policy.action(state)
            best_action = incumbent
            best_value = mdp.cost(state, incumbent) + float(
                mdp.generator_row(state, incumbent) @ values
            )
            for action in mdp.actions(state):
                if action == incumbent:
                    continue
                value = mdp.cost(state, action) + float(
                    mdp.generator_row(state, action) @ values
                )
                if value < best_value - atol:
                    best_value = value
                    best_action = action
            assignment[state] = best_action
            if best_action != incumbent:
                changed = True
        policy = Policy(mdp, assignment)
        values = _evaluate_discounted(policy, discount)
        if not changed:
            return DiscountedResult(
                policy=policy, values=values, discount=discount, iterations=iteration
            )
    raise SolverError(
        f"discounted policy iteration did not converge in {max_iterations} iterations"
    )
