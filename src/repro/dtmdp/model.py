"""The discrete-time MDP model type.

The discrete analogue of :class:`repro.ctmdp.model.CTMDP`: per state
``i`` and action ``a`` a transition probability row ``P_ia`` and a
per-step cost ``c(i, a)``. This is the object [11] optimizes over; it
is also what :func:`repro.dtmdp.discretize.discretize_ctmdp` produces
from a continuous-time model.

A discrete chain with transition matrix ``P`` is the continuous-time
chain with the unit-rate generator ``P - I``: both have the evaluation
equations ``c + (P - I) h = g 1``, the balance ``pi (P - I) = 0`` and the
same per-state argmin. So a :class:`DTMDP` *is* a :class:`CTMDP` whose
rows are ``P_ia - e_i`` and whose cost rates are the per-step costs; the
CTMDP solvers (policy iteration, relative value iteration, the LPs,
:func:`~repro.ctmdp.policy.evaluate_policy`) solve it as they are, and
their gains read per step.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

import numpy as np

from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy
from repro.errors import InvalidModelError

#: Probability-row normalization tolerance.
PROB_ATOL = 1e-9


class DTMDP(CTMDP):
    """A finite discrete-time MDP with labeled states.

    Build with :meth:`add_action`; query via :meth:`actions`,
    :meth:`transition_row` and :meth:`cost`. Rows must be stochastic.
    """

    def add_action(
        self,
        state: Hashable,
        action: Hashable,
        probabilities: np.ndarray,
        cost: float,
        extra_costs: Optional[Dict[str, float]] = None,
    ) -> None:
        """Register *action* with its transition row and per-step cost.

        The row is checked, clipped at zero and renormalized, then
        stored as the generator row ``P_ia - e_i``.
        """
        row = np.asarray(probabilities, dtype=float)
        n = self.n_states
        if row.shape != (n,):
            raise InvalidModelError(
                f"probability row shape {row.shape} does not match {n} states"
            )
        if np.any(row < -PROB_ATOL):
            raise InvalidModelError(
                f"negative probability in {state!r}/{action!r}: {row.min():g}"
            )
        total = row.sum()
        if abs(total - 1.0) > 1e-6:
            raise InvalidModelError(
                f"row of {state!r}/{action!r} sums to {total:g}, expected 1"
            )
        row = np.clip(row, 0.0, None)
        row = row / row.sum()
        row[self.index_of(state)] = 0.0
        super().add_action(state, action, row, cost, extra_costs=extra_costs)

    def transition_row(self, state: Hashable, action: Hashable) -> np.ndarray:
        """The probability row ``P_ia``: the generator row plus ``e_i``."""
        row = self.generator_row(state, action).copy()
        row[self.index_of(state)] += 1.0
        return row

    def policy_matrix(self, assignment: Dict[Hashable, Hashable]) -> np.ndarray:
        """Transition matrix of a deterministic policy."""
        g = Policy(self, assignment).generator_matrix()
        return g + np.eye(self.n_states)

    def policy_costs(self, assignment: Dict[Hashable, Hashable]) -> np.ndarray:
        """Per-step cost vector of a deterministic policy."""
        return Policy(self, assignment).cost_vector()
