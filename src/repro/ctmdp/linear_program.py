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
from typing import Dict, Hashable, Mapping, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.errors import InfeasibleConstraintError, SolverError
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, RandomizedPolicy

#: Occupation probabilities below this are treated as numerically zero
#: when extracting a policy.
OCCUPATION_EPS = 1e-10

#: HiGHS primal and dual feasibility tolerance of the average-cost LP.
#: At the default 1e-7 a ~400-state SYS optimum stops ~1e-6 (relative)
#: below the true gain, and certification rejects the optimal policy.
LP_FEASIBILITY_TOL = 1e-10

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


def _build_lp(mdp: CTMDP):
    """Assemble shared LP pieces; returns (pairs, costs, A_eq, b_eq)."""
    mdp.validate()
    pairs = mdp.state_action_pairs()
    n_vars = len(pairs)
    n = mdp.n_states
    costs = np.array([mdp.cost(s, a) for s, a in pairs])
    # Balance rows (one per state) + normalization row.
    a_eq = np.zeros((n + 1, n_vars))
    for k, (state, action) in enumerate(pairs):
        a_eq[:n, k] = mdp.generator_row(state, action)
        a_eq[n, k] = 1.0
    b_eq = np.zeros(n + 1)
    b_eq[n] = 1.0
    return pairs, costs, a_eq, b_eq


def _extract_result(
    mdp: CTMDP,
    pairs,
    x: np.ndarray,
    gain: float,
    status: str = "optimal",
    diagnostics: "Optional[Dict[str, object]]" = None,
) -> LinearProgramResult:
    """Turn an optimal occupation vector into policies and summaries."""
    occupation: Dict[Tuple[Hashable, Hashable], float] = {}
    state_mass: Dict[Hashable, float] = {s: 0.0 for s in mdp.states}
    for (state, action), value in zip(pairs, x):
        if value > OCCUPATION_EPS:
            occupation[(state, action)] = float(value)
            state_mass[state] += float(value)
    distributions: Dict[Hashable, Dict[Hashable, float]] = {}
    for state in mdp.states:
        mass = state_mass[state]
        if mass > OCCUPATION_EPS:
            dist = {
                a: occupation.get((state, a), 0.0) / mass for a in mdp.actions(state)
            }
        else:
            # Zero-occupancy (transient under the optimum) state: choose
            # the cheapest action -- any choice preserves optimality.
            cheapest = min(mdp.actions(state), key=lambda a: mdp.cost(state, a))
            dist = {cheapest: 1.0}
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
        gain=float(gain),
        occupation=occupation,
        extra_cost_values=extra_values,
        status=status,
        diagnostics=dict(diagnostics or {}),
    )


def solve_average_cost_lp(mdp: CTMDP) -> LinearProgramResult:
    """Minimize the long-run average cost rate over stationary policies.

    For unichain models the optimal basic solution is deterministic and
    agrees with policy iteration. The returned result carries the HiGHS
    termination status and duality diagnostics; non-optimal statuses
    (iteration limit, infeasibility, numerical trouble) raise
    :class:`~repro.errors.SolverError` with the same diagnostics
    attached instead of silently returning a partial answer.
    """
    pairs, costs, a_eq, b_eq = _build_lp(mdp)
    tolerances = {"primal_feasibility_tolerance": LP_FEASIBILITY_TOL,
                  "dual_feasibility_tolerance": LP_FEASIBILITY_TOL}
    result = linprog(costs, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                     method="highs", options=tolerances)
    diagnostics = _lp_diagnostics(result, b_eq)
    if not result.success:
        raise SolverError(
            f"average-cost LP failed with status "
            f"{_status_name(result.status)}: {result.message}",
            diagnostics=diagnostics,
        )
    return _extract_result(
        mdp, pairs, result.x, result.fun, _status_name(result.status), diagnostics
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
    pairs, _, a_eq, b_eq = _build_lp(mdp)
    obj = np.array([mdp.extra_cost(s, a, objective) for s, a in pairs])
    a_ub_rows = []
    b_ub_vals = []
    for name, bound in constraints.items():
        a_ub_rows.append([mdp.extra_cost(s, a, name) for s, a in pairs])
        b_ub_vals.append(float(bound))
    a_ub = np.array(a_ub_rows) if a_ub_rows else None
    b_ub = np.array(b_ub_vals) if b_ub_vals else None
    result = linprog(
        obj,
        A_eq=a_eq,
        b_eq=b_eq,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=(0, None),
        method="highs",
    )
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
    return _extract_result(
        mdp, pairs, result.x, result.fun, _status_name(result.status), diagnostics
    )
