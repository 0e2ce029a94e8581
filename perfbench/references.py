"""Reference values every timed policy is checked against.

Each reference comes from a solver other than the one the benchmark
times, so a change that shifts a timed solver's answer shows up as a
failed policy rather than as a faster wrong one:

- ``paper-serve`` (23 states): the occupation-measure LP, at every
  arrival rate of the re-solve grid.
- ``constrained-1k``: the LP at the weight the Figure-3 bisection
  returns. The bisection only locates the weight; gain and metrics are
  the LP's, and the LP's average queue length must meet the bound.
- ``scale-100k``: no second solver scales to 10^5 states, so the policy
  from policy iteration is re-evaluated here by an independent bordered
  sparse solve (scipy's SuperLU, none of the program's evaluation code)
  and certified optimal: no action may improve on it under its own bias.
- ``farm-118k``: matrix-free policy iteration, against the timed
  relative value iteration. The tolerance is VI's own accuracy bound,
  span tolerance times the uniformization rate.

``python3 perfbench/make_references.py`` recomputes references.json.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from repro.ctmdp.kron import kron_farm_model, policy_iteration_kron
from repro.ctmdp.linear_program import solve_average_cost_lp
from repro.ctmdp.uniformization import APERIODICITY_SLACK
from repro.dpm.cost import POWER, QUEUE_LENGTH
from repro.dpm.optimizer import find_weight_for_constraint, optimize_weighted
from repro.dpm.presets import PAPER_ARRIVAL_RATE, paper_system

#: Performance weight of every weighted solve (the paper's w = 1).
WEIGHT = 1.0

#: Relative tolerances (against max(1, |reference|)) of the metric
#: checks. The LP agrees with policy iteration to ~1e-12 at 23 states
#: but only to ~1e-6 relative from a few hundred states up (HiGHS's
#: objective, see perfbench/README.md finding 4).
PAPER_TOLERANCE = 1e-8
CONSTRAINED_TOLERANCE = 1e-5
SCALE_TOLERANCE = 1e-8

#: Largest improvement any action may offer over the scale-100k policy
#: under its own bias, relative to max(1, gain), for it to count optimal.
OPTIMALITY_RTOL = 1e-6


def lp_point(model, weight: float) -> Dict[str, float]:
    """Optimal gain and metrics of *model* at *weight* from the LP."""
    lp = solve_average_cost_lp(model.build_ctmdp(weight))
    return {
        "gain": float(lp.gain),
        "average_power": float(lp.extra_cost_values[POWER]),
        "average_queue_length": float(lp.extra_cost_values[QUEUE_LENGTH]),
    }


def paper_serve(capacity: int = 5,
                rates: Optional[Sequence[float]] = None) -> Dict:
    """LP references over the re-solve rate grid (Table 1 / Fig. 5's
    range 1/8 .. 1/3)."""
    if rates is None:
        rates = np.linspace(1.0 / 8.0, 1.0 / 3.0, 12)
    rates = [float(rate) for rate in rates]
    return {
        "capacity": capacity,
        "tolerance": PAPER_TOLERANCE,
        "rates": rates,
        "points": {
            repr(rate): lp_point(
                paper_system(arrival_rate=rate, capacity=capacity), WEIGHT
            )
            for rate in rates
        },
    }


def constrained(capacity: int = 250, arrival_rate: float = PAPER_ARRIVAL_RATE,
                bound: float = 1.0) -> Dict:
    """The Figure-3 search's weight, with the LP's point at it."""
    weight = find_weight_for_constraint(
        paper_system(arrival_rate=arrival_rate, capacity=capacity), bound
    ).weight
    point = lp_point(
        paper_system(arrival_rate=arrival_rate, capacity=capacity), weight
    )
    if point["average_queue_length"] > bound:
        raise ValueError(
            f"the LP at weight {weight!r} violates the bound {bound}: "
            f"{point['average_queue_length']!r}"
        )
    return {
        "capacity": capacity,
        "arrival_rate": arrival_rate,
        "bound": bound,
        "weight": float(weight),
        "tolerance": CONSTRAINED_TOLERANCE,
        "point": point,
    }


def bordered_averages(generator, channels: Sequence[np.ndarray],
                      reference_state: int = 0):
    """Long-run averages of cost *channels* under a chain's *generator*.

    One sparse LU of the bordered average-cost system
    ``[[G, -1], [e_r, 0]] [h; g] = [-c; 0]`` serves every channel.
    Returns the averages and the bias ``h`` of the first channel.
    """
    n = generator.shape[0]
    border = sp.csr_array(-np.ones((n, 1)))
    anchor = sp.csr_array(
        (np.ones(1), (np.zeros(1, dtype=int), [reference_state])),
        shape=(1, n),
    )
    system = sp.bmat([[generator, border], [anchor, None]], format="csc")
    lu = splu(system)
    solutions = [lu.solve(np.append(-np.asarray(c, float), 0.0))
                 for c in channels]
    return [float(s[n]) for s in solutions], solutions[0][:n]


def certified_sparse_point(policy) -> Dict[str, float]:
    """Independent gain and metrics of a policy on a sparse SYS build,
    plus a check that no action improves on it."""
    smdp = policy.mdp
    rows = smdp.policy_rows(policy.as_dict())
    (gain, power, queue), bias = bordered_averages(
        smdp.generator[rows],
        [smdp.cost[rows], smdp.extra[POWER][rows],
         smdp.extra[QUEUE_LENGTH][rows]],
    )
    q_values = smdp.cost + smdp.generator @ bias
    best = np.minimum.reduceat(q_values, smdp.pair_offset[:-1])
    # Compare each state's best action with the policy's own action, not
    # with the gain: at 10^5 states the bias reaches ~6e8, so the own
    # rows carry ~1e-3 of round-off that an honest comparison cancels.
    improvement = float(np.max(q_values[rows] - best))
    if improvement > OPTIMALITY_RTOL * max(1.0, abs(gain)):
        raise ValueError(
            f"policy is not optimal: an action improves the gain {gain!r} "
            f"by {improvement!r}"
        )
    return {
        "gain": gain,
        "average_power": power,
        "average_queue_length": queue,
        "max_improvement": improvement,
        "evaluation_residual": float(np.max(np.abs(q_values[rows] - gain))),
    }


def scale(capacity: int = 25000) -> Dict:
    result = optimize_weighted(
        paper_system(capacity=capacity), WEIGHT, backend="sparse"
    )
    return {
        "capacity": capacity,
        "tolerance": SCALE_TOLERANCE,
        "point": certified_sparse_point(result.policy),
    }


def farm(n_queues: int = 6, queue_capacity: int = 6,
         span_tolerance: float = 1e-6) -> Dict:
    kmdp = kron_farm_model(n_queues, queue_capacity)
    gain = policy_iteration_kron(kmdp).gain
    rate = APERIODICITY_SLACK * kmdp.max_exit_rate()
    return {
        "n_queues": n_queues,
        "queue_capacity": queue_capacity,
        "span_tolerance": span_tolerance,
        "gain": float(gain),
        "gain_tolerance": span_tolerance * rate,
    }


def metric_failures(metrics, weight: float, reference: Dict[str, float],
                    tolerance: float) -> List[str]:
    """Names of claimed metrics that miss their *reference* point.

    *metrics* maps ``average_power`` and ``average_queue_length`` (an
    artifact's stored metrics); the gain is rebuilt as power plus
    weight times queue length, the objective the solver minimizes.
    """
    observed = {
        "gain": metrics["average_power"]
        + weight * metrics["average_queue_length"],
        "average_power": metrics["average_power"],
        "average_queue_length": metrics["average_queue_length"],
    }
    return [
        f"{name}-off-reference"
        for name, value in observed.items()
        if abs(value - reference[name])
        > tolerance * max(1.0, abs(reference[name]))
    ]
