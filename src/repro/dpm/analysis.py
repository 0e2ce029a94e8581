"""Exact steady-state evaluation of a DPM policy on the SYS model.

Given any stationary policy on the joint CTMDP, the stationary
distribution of the induced chain yields the paper's "functional values"
(Section V): average power, average number of waiting requests, loss
rate, and -- via Little's law -- the average waiting time. These are the
analytic counterparts of the quantities the event-driven simulator
measures; Figure 4's accompanying claim is that they agree closely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.ctmdp.policy import Policy, RandomizedPolicy
from repro.dpm import cost as cost_channels
from repro.dpm.system import PowerManagedSystemModel


@dataclass(frozen=True)
class AnalyticMetrics:
    """Steady-state metrics of a policy on the SYS model.

    Attributes
    ----------
    average_power:
        Long-run average power in watts, switching energy included.
    average_queue_length:
        Long-run average of ``C_sq`` (waiting requests, in-service
        request counted).
    loss_rate:
        Requests lost per second (arrivals hitting a full queue).
    accepted_rate:
        ``lambda - loss_rate``: throughput in steady state.
    average_waiting_time:
        Little's law on accepted traffic:
        ``average_queue_length / accepted_rate``.
    paper_waiting_time_approximation:
        The paper's cruder form using the raw input rate:
        ``average_queue_length / lambda`` (Table 1 inverts this to
        approximate the queue length from a measured waiting time).
    """

    average_power: float
    average_queue_length: float
    loss_rate: float
    accepted_rate: float
    average_waiting_time: float
    paper_waiting_time_approximation: float


def _stationary_average(p: np.ndarray, rates: np.ndarray) -> float:
    """``sum_i p_i rates_i`` as NumPy's pairwise sum of the products,
    which adds in one order whatever the BLAS thread count: OpenBLAS
    splits ``p @ rates`` by thread above ~10^4 entries, so the served
    metrics' last bits moved with the host's core count."""
    return float(np.add.reduce(p * rates))


def evaluate_dpm_policy(
    model: PowerManagedSystemModel,
    policy: Union[Policy, RandomizedPolicy],
    *,
    stationary: Optional[np.ndarray] = None,
) -> AnalyticMetrics:
    """Compute :class:`AnalyticMetrics` for *policy* on *model*.

    The policy must have been built on a CTMDP produced by
    ``model.build_ctmdp`` (any weight -- the extra-cost channels carry
    the weight-independent power and delay rates). Policies over the
    sparse SYS build (``build_ctmdp(..., backend="sparse")``) evaluate
    through the CSR stationary solver without densifying anything.

    *stationary* is the policy's stationary distribution when the
    caller already solved for it -- policy iteration returns it with
    its converged policy -- and skips that solve. The dense branch still
    validates the induced generator. On CSR rows the solve here is
    :meth:`~repro.ctmdp.sparse.SparseCTMDP.stationary`, the transposed
    solve of the bordered evaluation system at reference state 0, which
    policy iteration reads off its last evaluation's LU: at the default
    reference state 0 a solve's metrics and a fresh evaluation are the
    same floats, at another they agree to round-off.
    """
    from repro.ctmdp.sparse import SparseCTMDP
    from repro.markov.generator import stationary_distribution, validate_generator

    p = stationary
    if isinstance(policy.mdp, SparseCTMDP):
        smdp = policy.mdp
        sel = smdp.selection(policy)
        if p is None:
            p = smdp.stationary(sel)

        def channel(name: str) -> np.ndarray:
            return smdp.extra[name][sel]
    else:
        chain_generator = policy.generator_matrix()
        if p is None:
            p = stationary_distribution(chain_generator)
        else:
            validate_generator(chain_generator)
        channel = policy.extra_cost_vector
    power, queue_length, loss = (
        _stationary_average(p, channel(name))
        for name in (cost_channels.POWER, cost_channels.QUEUE_LENGTH,
                     cost_channels.LOSS))
    lam = model.requestor.rate
    accepted = max(lam - loss, 0.0)
    waiting = queue_length / accepted if accepted > 0 else np.inf
    return AnalyticMetrics(
        average_power=power,
        average_queue_length=queue_length,
        loss_rate=loss,
        accepted_rate=accepted,
        average_waiting_time=waiting,
        paper_waiting_time_approximation=queue_length / lam,
    )


def state_probabilities(policy: Union[Policy, RandomizedPolicy]) -> "dict":
    """Stationary probability of each joint state under *policy*."""
    from repro.markov.generator import stationary_distribution

    p = stationary_distribution(policy.generator_matrix())
    return {state: float(p[i]) for i, state in enumerate(policy.mdp.states)}


def wakeup_latency(
    model: PowerManagedSystemModel,
    policy: Union[Policy, RandomizedPolicy],
) -> "dict":
    """Mean time from each powered-down state until the SP is active.

    The transient face of the tradeoff that stationary averages hide: a
    policy may look mild on average queue length yet make the *first*
    request after an idle period wait long. Computed as the mean
    first-passage time of the policy-induced chain into the set of
    active-mode joint states, keyed by the inactive-mode joint states.
    """
    from repro.markov.passage import mean_first_passage_times

    g = policy.generator_matrix()
    states = list(policy.mdp.states)
    active_indices = [
        i for i, x in enumerate(states) if model.provider.is_active(x.mode)
    ]
    m = mean_first_passage_times(g, active_indices)
    return {
        state: float(m[i])
        for i, state in enumerate(states)
        if not model.provider.is_active(state.mode)
    }
