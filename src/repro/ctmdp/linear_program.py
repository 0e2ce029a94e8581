"""Occupation-measure linear programming for average-cost CTMDPs.

This is the optimization approach of Paleologo, Benini et al. (DAC 1998)
[11] -- the prior work the paper compares itself against -- lifted to
continuous time. Decision variables ``x_ia >= 0`` are stationary
state-action probabilities; the LP is::

    minimize    sum_{i,a} x_ia c_i(a)
    subject to  sum_{i,a} x_ia s_ij(a) = 0      for every state j
                sum_{i,a} x_ia = 1
                [optional]  sum_{i,a} x_ia d_i(a) <= bound

where the first constraint family is global balance under the mixed
policy. The optional linear constraints make this solver handle the
paper's *constrained* formulation (min average power subject to an
average-queue-length bound, Section IV) exactly; the optimum of a
constrained MDP may randomize in at most one state per active
constraint, hence the randomized-policy return type.

Solved with ``scipy.optimize.linprog`` (HiGHS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.errors import InfeasibleConstraintError, SolverError
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, RandomizedPolicy

#: Occupation probabilities below this are treated as numerically zero
#: when extracting a policy.
OCCUPATION_EPS = 1e-10

#: HiGHS primal and dual feasibility tolerance of both LPs. At the
#: default 1e-7 a ~400-state SYS optimum stops ~1e-6 (relative) below
#: the true gain, and certification rejects the optimal policy; the
#: constrained LP's solution at Q = 20 has entries down to -2.9e-8 and
#: ~1e-9 masses on actions outside the optimum's support.
LP_FEASIBILITY_TOL = 1e-10

#: HiGHS options of both LPs: the tolerances above, and no presolve.
#: With presolve HiGHS stopped ``numerical`` on SYS optima at 403,
#: 2,003, 4,003 and 10,003 states, and took 2.8x as long at 1,003;
#: without it the simplex reaches ``optimal`` at all four, within 5e-9
#: (relative) of policy iteration's gain.
_HIGHS_OPTIONS = {"primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                  "dual_feasibility_tolerance": LP_FEASIBILITY_TOL,
                  "presolve": False}

#: HiGHS termination codes as reported by ``scipy.optimize.linprog``.
LP_STATUS_NAMES = {
    0: "optimal",
    1: "iteration-limit",
    2: "infeasible",
    3: "unbounded",
    4: "numerical",
}


@dataclass(frozen=True)
class LinearProgramResult:
    """Outcome of the LP solvers.

    Attributes
    ----------
    policy:
        The stationary randomized policy read off the optimal occupation
        measure (deterministic policies appear as point masses).
    deterministic_policy:
        Most-probable-action rounding of ``policy``.
    gain:
        Optimal average cost rate (the LP objective value).
    occupation:
        ``{(state, action): probability}`` for pairs above
        :data:`OCCUPATION_EPS`.
    extra_cost_values:
        Average rate of each named extra cost under the optimal measure.
    status:
        HiGHS termination status name (:data:`LP_STATUS_NAMES`); always
        ``"optimal"`` for a returned result -- other statuses raise.
    diagnostics:
        Solver evidence: iteration count, the dual objective recovered
        from the HiGHS multipliers, the primal-dual ``duality_gap``
        (zero at a true optimum up to round-off), and ``gain_dual`` --
        the multiplier of the normalization row, which for the
        average-cost LP is itself the optimal gain by LP duality. These
        feed the certification engine's duality-gap certificates.
    """

    policy: RandomizedPolicy
    deterministic_policy: Policy
    gain: float
    occupation: "Dict[Tuple[Hashable, Hashable], float]"
    extra_cost_values: "Dict[str, float]"
    status: str = "optimal"
    diagnostics: "Dict[str, object]" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.diagnostics is None:
            object.__setattr__(self, "diagnostics", {})


@dataclass(frozen=True)
class LinearProgramOptimum:
    """The LP's optimum before any policy is read off it.

    What the certificates read (``gain``, ``status``, ``diagnostics``,
    as on :class:`LinearProgramResult`) plus the ``(state, action)``
    pairs and the optimal occupation vector ``x`` over them, from which
    :func:`solve_average_cost_lp` and :func:`solve_constrained_lp`
    build their policies and per-channel averages.
    """

    pairs: "List[Tuple[Hashable, Hashable]]"
    x: np.ndarray
    gain: float
    status: str
    diagnostics: "Dict[str, object]"


def _status_name(status: int) -> str:
    return LP_STATUS_NAMES.get(status, f"unknown({status})")


def _lp_diagnostics(result, b_eq, b_ub=None) -> "Dict[str, object]":
    """Extract duality evidence from a ``linprog`` result.

    HiGHS marginals are derivatives of the objective with respect to
    the right-hand sides, so the dual objective is
    ``b_eq . y_eq + b_ub . y_ub`` and must equal the primal objective
    at an optimum (strong duality). The normalization row's multiplier
    is the optimal gain itself.
    """
    diag: "Dict[str, object]" = {
        "highs_status": int(result.status),
        "message": str(result.message),
        "iterations": int(getattr(result, "nit", 0)),
    }
    eqlin = getattr(result, "eqlin", None)
    if eqlin is not None and getattr(eqlin, "marginals", None) is not None:
        marginals = np.asarray(eqlin.marginals, dtype=float)
        dual_objective = float(b_eq @ marginals)
        if b_ub is not None:
            ineqlin = getattr(result, "ineqlin", None)
            if ineqlin is not None and getattr(ineqlin, "marginals", None) is not None:
                dual_objective += float(
                    np.asarray(b_ub, dtype=float)
                    @ np.asarray(ineqlin.marginals, dtype=float)
                )
        diag["dual_objective"] = dual_objective
        diag["gain_dual"] = float(marginals[-1])
        if result.success:
            diag["duality_gap"] = float(result.fun) - dual_objective
    return diag


def _require_finite(values: np.ndarray, what: str) -> None:
    """Reject non-finite LP cost coefficients with the typed
    :class:`~repro.errors.SolverError` policy iteration raises on the
    same models, before ``linprog`` raises its untyped ``ValueError``."""
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise SolverError(
            f"{what} has {bad} non-finite entr{'y' if bad == 1 else 'ies'}; "
            "the LP needs finite costs"
        )


def _build_lp(mdp: CTMDP):
    """Assemble shared LP pieces; returns (pairs, costs, A_eq, b_eq).

    The balance rows are the transposed generator rows of the model's
    CSR rows (:meth:`~repro.ctmdp.model.CTMDP.pair_table`): densified at
    or below the solver's dense-tier crossover
    (:func:`~repro.ctmdp.backends.auto_tier`), as CSR above it, which
    HiGHS takes as is.
    """
    from repro.ctmdp.backends import auto_tier

    mdp.validate()
    rows = mdp.pair_table()
    n = mdp.n_states
    if auto_tier(n)[0] == "sparse":
        a_eq = sp.vstack(
            [rows.generator.T, sp.csr_array(np.ones((1, rows.n_pairs)))],
            format="csr",
        )
    else:
        a_eq = np.zeros((n + 1, rows.n_pairs))
        a_eq[:n] = rows.generator.toarray().T
        a_eq[n] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    return mdp.state_action_pairs(), rows.cost, a_eq, b_eq


def _channel(mdp: CTMDP, name: str) -> np.ndarray:
    """A named extra-cost channel per pair, 0.0 where a pair lacks it."""
    rows = mdp.pair_table()
    return rows.extra.get(name, np.zeros(rows.n_pairs))


def _cheapest(rows, candidate: np.ndarray) -> np.ndarray:
    """Per state with a *candidate* pair, its cheapest one (the first
    listed among equals)."""
    pairs = np.flatnonzero(candidate)
    state = rows.pair_state[pairs]
    pairs = pairs[np.lexsort((pairs, rows.cost[pairs], state))]
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = rows.pair_state[pairs[1:]] != rows.pair_state[pairs[:-1]]
    return pairs[first]


def _drain_actions(mdp: CTMDP, occupied: np.ndarray) -> np.ndarray:
    """The pair each zero-occupancy state takes: breadth-first outward
    from the *occupied* states, the cheapest action with a rate into the
    previous layer, so every such state drains into the occupied ones
    and they stay the only recurrent class. A state that reaches no
    occupied state takes its cheapest action."""
    rows = mdp.pair_table()
    indptr, cols, _ = rows.off_diagonal()
    entry_pair = np.repeat(np.arange(rows.n_pairs), np.diff(indptr))
    choice = np.full(rows.n_states, -1, dtype=np.intp)
    reached, frontier = occupied.copy(), occupied
    while frontier.any():
        into = np.zeros(rows.n_pairs, dtype=bool)
        into[entry_pair[frontier[cols]]] = True
        layer = _cheapest(rows, into & ~reached[rows.pair_state])
        choice[rows.pair_state[layer]] = layer
        frontier = np.zeros(rows.n_states, dtype=bool)
        frontier[rows.pair_state[layer]] = True
        reached |= frontier
    rest = _cheapest(rows, ~reached[rows.pair_state])
    choice[rows.pair_state[rest]] = rest
    return choice


def _extract_result(
    mdp: CTMDP, optimum: LinearProgramOptimum
) -> LinearProgramResult:
    """Turn an optimal occupation vector into policies and summaries."""
    pairs = optimum.pairs
    occupation: Dict[Tuple[Hashable, Hashable], float] = {}
    state_mass: Dict[Hashable, float] = {s: 0.0 for s in mdp.states}
    for (state, action), value in zip(pairs, optimum.x):
        if value > OCCUPATION_EPS:
            occupation[(state, action)] = float(value)
            state_mass[state] += float(value)
    occupied = np.array([state_mass[s] > OCCUPATION_EPS for s in mdp.states])
    drain = _drain_actions(mdp, occupied)
    distributions: Dict[Hashable, Dict[Hashable, float]] = {}
    for i, state in enumerate(mdp.states):
        mass = state_mass[state]
        if occupied[i]:
            dist = {
                a: occupation.get((state, a), 0.0) / mass for a in mdp.actions(state)
            }
        else:
            # Zero-occupancy (transient under the optimum) state: any
            # action that drains into the occupied states keeps the
            # optimum's gain.
            dist = {pairs[drain[i]][1]: 1.0}
        total = sum(dist.values())
        distributions[state] = {a: p / total for a, p in dist.items()}
    randomized = RandomizedPolicy(mdp, distributions)
    extra_names = set()
    for state, action in pairs:
        extra_names.update(mdp.data(state, action).extra_costs)
    extra_values = {
        name: float(
            sum(
                occupation.get((s, a), 0.0) * mdp.extra_cost(s, a, name)
                for s, a in pairs
            )
        )
        for name in sorted(extra_names)
    }
    return LinearProgramResult(
        policy=randomized,
        deterministic_policy=randomized.deterministic_rounding(),
        gain=optimum.gain,
        occupation=occupation,
        extra_cost_values=extra_values,
        status=optimum.status,
        diagnostics=dict(optimum.diagnostics),
    )


def average_cost_lp_optimum(mdp: CTMDP) -> LinearProgramOptimum:
    """Minimize the long-run average cost rate over stationary policies.

    Runs HiGHS and returns the optimum without extracting a policy.
    Non-finite cost rates, and non-optimal statuses (iteration limit,
    infeasibility, numerical trouble), raise
    :class:`~repro.errors.SolverError` -- the latter with the HiGHS
    diagnostics attached -- instead of silently returning a partial
    answer.
    """
    pairs, costs, a_eq, b_eq = _build_lp(mdp)
    _require_finite(costs, "the effective cost rate")
    result = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                     method="highs", options=_HIGHS_OPTIONS)
    diagnostics = _lp_diagnostics(result, b_eq)
    if not result.success:
        raise SolverError(
            f"average-cost LP failed with status "
            f"{_status_name(result.status)}: {result.message}",
            diagnostics=diagnostics,
        )
    return LinearProgramOptimum(
        pairs, result.x, float(result.fun), _status_name(result.status),
        diagnostics,
    )


def solve_average_cost_lp(mdp: CTMDP) -> LinearProgramResult:
    """Minimize the long-run average cost rate over stationary policies.

    For unichain models the optimal basic solution is deterministic and
    agrees with policy iteration. The returned result carries the HiGHS
    termination status and duality diagnostics; non-optimal statuses
    raise :class:`~repro.errors.SolverError`
    (:func:`average_cost_lp_optimum`).
    """
    return _extract_result(mdp, average_cost_lp_optimum(mdp))


def constrained_lp_optimum(
    mdp: CTMDP,
    objective: str,
    constraints: Mapping[str, float],
) -> LinearProgramOptimum:
    """The optimum of :func:`solve_constrained_lp`'s LP, without
    extracting a policy.

    Raises
    ------
    InfeasibleConstraintError
        If no stationary policy satisfies the bounds.
    SolverError
        On a non-finite objective or constraint channel, and on any
        other non-optimal HiGHS status.
    """
    pairs, _, a_eq, b_eq = _build_lp(mdp)
    obj = _channel(mdp, objective)
    a_ub = (np.array([_channel(mdp, name) for name in constraints])
            if constraints else None)
    b_ub = (np.array([float(bound) for bound in constraints.values()])
            if constraints else None)
    _require_finite(obj, f"the objective channel {objective!r}")
    for name, row in zip(constraints, () if a_ub is None else a_ub):
        _require_finite(row, f"the constraint channel {name!r}")
    result = linprog(obj, A_eq=a_eq, b_eq=b_eq, A_ub=a_ub, b_ub=b_ub,
                     bounds=(0, None), method="highs", options=_HIGHS_OPTIONS)
    diagnostics = _lp_diagnostics(result, b_eq, b_ub)
    if result.status == 2:
        raise InfeasibleConstraintError(
            f"no stationary policy satisfies {dict(constraints)!r}",
            diagnostics=diagnostics,
        )
    if not result.success:
        raise SolverError(
            f"constrained LP failed with status "
            f"{_status_name(result.status)}: {result.message}",
            diagnostics=diagnostics,
        )
    return LinearProgramOptimum(
        pairs, result.x, float(result.fun), _status_name(result.status),
        diagnostics,
    )


def solve_constrained_lp(
    mdp: CTMDP,
    objective: str,
    constraints: Mapping[str, float],
) -> LinearProgramResult:
    """Minimize one named cost subject to bounds on other named costs.

    This solves the paper's Section-IV constrained formulation directly::

        min  avg rate of ``objective``
        s.t. avg rate of name <= bound   for each (name, bound)

    Parameters
    ----------
    mdp:
        Model whose state-action pairs carry ``extra_costs`` entries for
        ``objective`` and every constraint name (e.g. ``"power"`` and
        ``"queue_length"``).
    objective:
        Name of the extra cost to minimize.
    constraints:
        ``{name: upper_bound}`` on average rates.

    Raises
    ------
    InfeasibleConstraintError
        If no stationary policy satisfies the bounds.
    """
    return _extract_result(
        mdp, constrained_lp_optimum(mdp, objective, constraints)
    )
