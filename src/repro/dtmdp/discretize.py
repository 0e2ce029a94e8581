"""Time-slicing a continuous-time DPM model into a DTMDP.

The [11] formulation: time is divided into slices of length ``L``; the
PM observes the state at each slice boundary and issues one command,
held for the whole slice. The chain a per-slice controller experiences
is therefore exact, not approximate:

- transition matrix per held action ``a``: ``P_a = expm(G_a L)`` where
  row ``i`` of ``G_a`` is the CTMDP generator row of state ``i`` under
  ``a`` -- substituting the model's default valid action wherever ``a``
  is invalid in a mid-slice state (e.g. a power-down command reaching a
  busy server is refused, matching the simulator's ``reject``
  semantics);
- per-slice cost: the expected integral of the cost rate over the
  slice, ``[expm(([[G_a, c_a], [0, 0]]) L)]_{i, n}`` -- the same
  augmented-exponential closed form as Eqn. 2.5.

What *is* lost is reactivity between slice boundaries: the controller
cannot respond to arrivals or completions mid-slice. The discretization
bench sweeps ``L`` and shows the optimal cost rate approaching the
CTMDP optimum only as ``L -> 0`` -- the paper's criticism of [11] made
quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.linalg import expm

from repro.ctmdp.policy import Policy, evaluate_policy
from repro.dpm import cost as cost_channels
from repro.dpm.model_policies import default_valid_action
from repro.dpm.system import PowerManagedSystemModel
from repro.dtmdp.model import DTMDP
from repro.errors import InvalidModelError


@dataclass(frozen=True)
class DiscretizedDPM:
    """A time-sliced DPM decision chain.

    Attributes
    ----------
    mdp:
        The DTMDP over the joint system states; per-step costs are
        *slice integrals* (divide by :attr:`slice_length` for rates).
    slice_length:
        The slice ``L`` in seconds.
    weight:
        The Eqn.-3.1 weight baked into the per-step cost.
    """

    mdp: DTMDP
    slice_length: float
    weight: float

    def gain_rate(self, per_step_gain: float) -> float:
        """Convert a per-step gain into a continuous-time cost rate."""
        return per_step_gain / self.slice_length


def _slice_integral(g: np.ndarray, rates: np.ndarray, length: float) -> np.ndarray:
    """``integral_0^L expm(G s) r ds`` via the augmented exponential."""
    n = g.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = g
    aug[:n, n] = rates
    return expm(aug * length)[:n, n]


def discretize_ctmdp(
    model: PowerManagedSystemModel,
    slice_length: float,
    weight: float = 0.0,
) -> DiscretizedDPM:
    """Build the exact per-slice decision chain for *model*.

    Parameters
    ----------
    model:
        The DPM system; both the transfer-state and the lumped variant
        work (use the lumped variant for the faithful [11] baseline --
        its power-down decisions live in states a slice boundary can
        observe).
    slice_length:
        The slice ``L`` (> 0).
    weight:
        Performance weight of the per-step objective.
    """
    if slice_length <= 0:
        raise InvalidModelError(f"slice length must be positive, got {slice_length}")
    ct = model.build_ctmdp(weight)
    states = list(ct.states)
    n = len(states)
    dt = DTMDP(states)
    for command in model.provider.modes:
        # Held-command dynamics: each state follows the command if valid,
        # its default valid action otherwise.
        g = np.empty((n, n))
        cost_rates = np.empty(n)
        power_rates = np.empty(n)
        delay_rates = np.empty(n)
        loss_rates = np.empty(n)
        for i, state in enumerate(states):
            action = (
                command
                if model.is_valid_action(state, command)
                else default_valid_action(model, state)
            )
            g[i, :] = ct.generator_row(state, action)
            cost_rates[i] = ct.cost(state, action)
            power_rates[i] = ct.extra_cost(state, action, cost_channels.POWER)
            delay_rates[i] = ct.extra_cost(state, action, cost_channels.QUEUE_LENGTH)
            loss_rates[i] = ct.extra_cost(state, action, cost_channels.LOSS)
        p = expm(g * slice_length)
        p = np.clip(p, 0.0, None)
        p /= p.sum(axis=1, keepdims=True)
        cost_slice = _slice_integral(g, cost_rates, slice_length)
        power_slice = _slice_integral(g, power_rates, slice_length)
        delay_slice = _slice_integral(g, delay_rates, slice_length)
        loss_slice = _slice_integral(g, loss_rates, slice_length)
        for i, state in enumerate(states):
            if not model.is_valid_action(state, command):
                continue  # the PM would never issue it here
            dt.add_action(
                state,
                command,
                probabilities=p[i],
                cost=float(cost_slice[i]),
                extra_costs={
                    cost_channels.POWER: float(power_slice[i]),
                    cost_channels.QUEUE_LENGTH: float(delay_slice[i]),
                    cost_channels.LOSS: float(loss_slice[i]),
                },
            )
    dt.validate()
    return DiscretizedDPM(mdp=dt, slice_length=slice_length, weight=weight)


def slice_metric_rates(
    discretized: DiscretizedDPM,
    assignment: "Dict",
) -> "Dict[str, float]":
    """Time-average power/queue/loss rates of a per-slice policy.

    Computed from the stationary distribution of the policy's slice
    chain and the per-slice extra-cost integrals.
    """
    mdp = discretized.mdp
    pi = evaluate_policy(Policy(mdp, assignment)).stationary
    rates = {}
    for name in (
        cost_channels.POWER,
        cost_channels.QUEUE_LENGTH,
        cost_channels.LOSS,
    ):
        per_step = float(
            sum(
                pi[mdp.index_of(s)] * mdp.extra_cost(s, assignment[s], name)
                for s in mdp.states
            )
        )
        rates[name] = per_step / discretized.slice_length
    return rates
