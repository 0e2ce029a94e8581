"""First-passage (hitting) time analysis for CTMCs.

For a target set ``A`` of states, the mean first-passage time ``m_i``
from state ``i`` satisfies the linear system::

    m_i = 0                                   for i in A
    sum_j G[i, j] m_j = -1                    for i not in A

(standard first-step analysis), solved over the states that reach the
targets with probability one; every other state -- one that can reach
a closed class holding no target, as the class kernel of
:mod:`repro.markov.classify` finds -- has ``m_i = inf``. Used by the
DPM layer to answer questions like "expected time until the SP is
serving again, starting from (sleeping, q_1) under this policy" -- the
latency face of the power--delay tradeoff -- and to characterize
wake-up transients that the stationary metrics average away.

Also provided: hitting probabilities for competing target sets and the
full mean-first-passage matrix.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import SolverError
from repro.markov.classify import class_structure
from repro.markov.generator import validate_generator


def mean_first_passage_times(
    matrix: np.ndarray, targets: Iterable[int]
) -> np.ndarray:
    """Mean time to first reach any state in *targets*, per start state.

    Parameters
    ----------
    matrix:
        Generator matrix ``G``.
    targets:
        Non-empty collection of absorbing-target state indices.

    Returns
    -------
    Vector ``m`` with ``m[i] = 0`` for targets; ``inf`` where the
    target set is reached with probability below one -- from every
    state that can reach a closed class holding no target.

    Raises
    ------
    SolverError
        If *targets* is empty or contains out-of-range indices.
    """
    g = validate_generator(matrix)
    n = g.shape[0]
    target_set = sorted(set(int(t) for t in targets))
    if not target_set:
        raise SolverError("need at least one target state")
    if target_set[0] < 0 or target_set[-1] >= n:
        raise SolverError(f"target indices out of range [0, {n})")
    is_target = np.zeros(n, dtype=bool)
    is_target[target_set] = True
    # With the targets absorbing, a time is finite exactly when its state
    # cannot reach a closed class that holds no target; the finite states
    # then lead only to each other and to the targets, so their system
    # is nonsingular.
    structure = class_structure(np.where(is_target[:, None], 0.0, g))
    trapped = structure.recurrent & ~is_target
    while True:  # grow backwards along the edges: O(nnz) a step
        grown = trapped | (structure.edges @ trapped > 0)
        if np.array_equal(grown, trapped):
            break
        trapped = grown
    m = np.where(trapped, np.inf, 0.0)
    finite = np.flatnonzero(~trapped & ~is_target)
    if len(finite):
        try:
            m[finite] = np.linalg.solve(g[np.ix_(finite, finite)],
                                        -np.ones(len(finite)))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolverError("degenerate first-passage system") from exc
    if np.any(m < -1e-9):
        raise SolverError("negative mean passage time: inconsistent generator")
    return m


def hitting_probabilities(
    matrix: np.ndarray, goal: Iterable[int], avoid: Iterable[int]
) -> np.ndarray:
    """Probability of reaching *goal* before *avoid*, per start state.

    First-step analysis on the generator with both sets absorbing::

        h_i = 1 for i in goal;  h_i = 0 for i in avoid;
        sum_j G[i, j] h_j = 0 otherwise.
    """
    g = validate_generator(matrix)
    n = g.shape[0]
    goal_set = set(int(i) for i in goal)
    avoid_set = set(int(i) for i in avoid)
    if not goal_set:
        raise SolverError("need at least one goal state")
    if goal_set & avoid_set:
        raise SolverError("goal and avoid sets overlap")
    frozen = goal_set | avoid_set
    others = [i for i in range(n) if i not in frozen]
    h = np.zeros(n)
    for i in goal_set:
        h[i] = 1.0
    if not others:
        return h
    sub = g[np.ix_(others, others)]
    rhs = -g[np.ix_(others, sorted(goal_set))].sum(axis=1)
    try:
        h[others] = np.linalg.solve(sub, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            "hitting-probability system is singular: some states reach "
            "neither goal nor avoid"
        ) from exc
    return np.clip(h, 0.0, 1.0)


def mean_first_passage_matrix(matrix: np.ndarray) -> np.ndarray:
    """``M[i, j]`` = mean time to reach ``j`` from ``i`` (diagonal 0)."""
    g = validate_generator(matrix)
    n = g.shape[0]
    result = np.zeros((n, n))
    for j in range(n):
        result[:, j] = mean_first_passage_times(g, [j])
    return result
