"""Cost model of the power-managed system (Eqn. 3.1).

The system cost of a state-action pair ``(x, a)`` combines

- the *power cost* ``C_pow(x, a) = pow(s) + sum_{s'} s_{s,s'}(a)
  ene(s, s')`` -- mode power plus switching energy folded into an
  equivalent rate, and
- the *delay cost* ``C_sq(x)`` -- the number of waiting requests,

as the weighted sum ``Cost(x, a) = C_pow(x, a) + w * C_sq(x)``. Sweeping
the performance weight ``w`` traces the power--delay tradeoff curve
(Figure 4); Section IV's constrained problem instead minimizes the
average of ``C_pow`` subject to a bound ``D_M`` on the average of
``C_sq``.

This module holds the channel names shared between the model builder,
the analytic evaluator, and the LP solver, plus the weighted combiner.
"""

from __future__ import annotations

#: Extra-cost channel: effective power rate (watts, switching included).
POWER = "power"
#: Extra-cost channel: delay cost C_sq (waiting requests).
QUEUE_LENGTH = "queue_length"
#: Extra-cost channel: rate of lost requests (requests / second).
LOSS = "loss"


def weighted_cost(power: float, delay: float, weight: float) -> float:
    """``Cost = C_pow + w * C_sq`` (Eqn. 3.1)."""
    if weight < 0:
        raise ValueError(f"performance weight must be >= 0, got {weight}")
    return power + weight * delay
