"""CTMDP-optimal power management (the paper's PM).

:class:`OptimalCTMDPPolicy` executes a solved stationary policy on the
joint SP x SQ state: the simulator's view is mapped to the model's
:class:`~repro.dpm.system.SystemState` (stable or transfer) and the
policy table supplies the mode command. Because the table covers every
reachable joint state, the PM is purely reactive -- no timers -- and is
invoked only on state changes: the *asynchronous* policy the paper
advertises.

:class:`AdaptiveCTMDPPolicy` adds the Section-III adaptivity remark:
it estimates the arrival rate from a sliding window of inter-arrival
times and re-solves (with caching per rate band) when the estimate
drifts.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Union

from repro.ctmdp.policy import Policy, RandomizedPolicy
from repro.dpm.adaptive import AdaptivePolicySolver, AdaptiveRateEstimator
from repro.dpm.service_queue import QueueState, stable, transfer
from repro.dpm.system import SystemState
from repro.errors import InvalidPolicyError
from repro.policies.base import Decision, PowerManagementPolicy, SystemView
from repro.policies.helpers import command_if_needed


def view_to_system_state(view: SystemView, capacity: int) -> SystemState:
    """Map a simulator snapshot to the model's joint state.

    During a transfer the model index is ``waiting + 1`` (the state
    ``q_{i -> i-1}`` holds ``i - 1`` waiting requests). The physical
    queue can briefly hold ``Q`` waiting requests during a transfer
    (the model's unspecified boundary); the lookup clamps to the
    closest modeled state ``q_{Q -> Q-1}``.
    """
    if view.in_transfer:
        index = min(view.waiting_count + 1, capacity)
        queue: QueueState = transfer(index)
    else:
        queue = stable(min(view.occupancy, capacity))
    return SystemState(view.mode, queue)


class OptimalCTMDPPolicy(PowerManagementPolicy):
    """Table-lookup execution of a solved CTMDP policy.

    Parameters
    ----------
    policy:
        A solved :class:`~repro.ctmdp.policy.Policy`, a
        :class:`~repro.ctmdp.policy.RandomizedPolicy` (its most-probable
        deterministic rounding is executed), or a raw
        ``{SystemState: mode}`` mapping.
    capacity:
        The queue capacity the policy was solved for.
    label:
        Optional display name (e.g. ``"ctmdp(w=1.0)"``).
    """

    def __init__(
        self,
        policy: Union[Policy, RandomizedPolicy, Mapping[SystemState, str]],
        capacity: int,
        label: Optional[str] = None,
    ) -> None:
        if isinstance(policy, RandomizedPolicy):
            table = policy.deterministic_rounding().as_dict()
        elif isinstance(policy, Policy):
            table = policy.as_dict()
        else:
            table = dict(policy)
        if not table:
            raise InvalidPolicyError("empty policy table")
        self._table: Dict[SystemState, str] = dict(table)
        self._capacity = int(capacity)
        self._label = label

    @property
    def name(self) -> str:
        return self._label if self._label is not None else "OptimalCTMDPPolicy"

    def lookup(self, state: SystemState) -> Optional[str]:
        """The table's action for *state*, ``None`` if unmapped."""
        return self._table.get(state)

    def decide(self, view: SystemView) -> Decision:
        state = view_to_system_state(view, self._capacity)
        desired = self._table.get(state)
        return command_if_needed(view, desired)


class StochasticCTMDPPolicy(PowerManagementPolicy):
    """Executes a *randomized* stationary policy by sampling actions.

    The constrained LP optimum may randomize between two actions in the
    state where the delay constraint binds
    (:func:`repro.ctmdp.linear_program.solve_constrained_lp`). The LP's
    per-state action probabilities are occupation-*time* fractions; to
    realize them by sampling once per state entry they are converted to
    jump-chain (per-entry) probabilities ``p_entry(a) propto
    p_time(a) * R_a`` where ``R_a`` is the total exit rate under ``a``.
    With that conversion the embedded jump chain and the mean holding
    times of the simulated process match the LP's mixture generator
    exactly, so the realized occupation measure (hence power and queue
    length) equals the LP prediction up to sampling noise.

    Parameters
    ----------
    policy:
        The randomized policy to execute (carries its CTMDP, from which
        the exit rates are read).
    capacity:
        Queue capacity the policy was solved for.
    seed:
        Seed of the policy's private sampling stream (independent from
        the simulator's workload streams).
    label:
        Optional display name.
    """

    def __init__(
        self,
        policy: RandomizedPolicy,
        capacity: int,
        seed: int = 0,
        label: Optional[str] = None,
    ) -> None:
        import numpy as np

        self._policy = policy
        self._capacity = int(capacity)
        self._seed = int(seed)
        self._label = label
        self._rng = np.random.default_rng(self._seed)
        # Per-entry sampling distributions: p_time(a) * exit_rate(a),
        # normalized. Zero-probability actions are dropped.
        self._dists: Dict[SystemState, "tuple[list, object]"] = {}
        mdp = policy.mdp
        for state in mdp.states:
            dist = policy.distribution(state)
            actions = [a for a, p in dist.items() if p > 0.0]
            weights = np.array(
                [dist[a] * mdp.data(state, a).exit_rate for a in actions]
            )
            total = weights.sum()
            if total <= 0:
                # Degenerate (absorbing under every chosen action): keep
                # the time-weighted distribution as a fallback.
                weights = np.array([dist[a] for a in actions])
                total = weights.sum()
            self._dists[state] = (actions, weights / total)

    @property
    def name(self) -> str:
        return self._label if self._label is not None else "StochasticCTMDPPolicy"

    def reset(self) -> None:
        import numpy as np

        self._rng = np.random.default_rng(self._seed)

    def decide(self, view: SystemView) -> Decision:
        state = view_to_system_state(view, self._capacity)
        entry = self._dists.get(state)
        if entry is None:
            return command_if_needed(view, None)
        actions, probs = entry
        if len(actions) == 1:
            desired = actions[0]
        else:
            desired = actions[int(self._rng.choice(len(actions), p=probs))]
        return command_if_needed(view, desired)


class AdaptiveCTMDPPolicy(PowerManagementPolicy):
    """CTMDP policy with online arrival-rate tracking.

    Parameters
    ----------
    solver:
        The per-rate-band policy cache/re-solver.
    estimator:
        Sliding-window rate estimator; a fresh default is created per
        :meth:`reset` if not supplied.
    """

    def __init__(
        self,
        solver: AdaptivePolicySolver,
        estimator: Optional[AdaptiveRateEstimator] = None,
    ) -> None:
        self._solver = solver
        self._estimator_template = estimator
        self._estimator = estimator or AdaptiveRateEstimator()
        self._capacity = solver.base_model.capacity
        self._initial_rate = solver.base_model.requestor.rate
        self._table_cache: Dict[int, Dict[SystemState, str]] = {}

    @property
    def name(self) -> str:
        return "AdaptiveCTMDPPolicy"

    @property
    def n_solves(self) -> int:
        """Number of distinct rate bands solved so far."""
        return self._solver.n_solves

    def reset(self) -> None:
        self._estimator = self._estimator_template or AdaptiveRateEstimator(
            initial_rate=self._initial_rate
        )

    def current_rate_estimate(self) -> float:
        return self._estimator.rate()

    def decide(self, view: SystemView) -> Decision:
        if view.event == "arrival":
            self._estimator.observe_arrival(view.time)
        rate = (
            self._estimator.rate()
            if self._estimator.warmed_up
            else self._initial_rate
        )
        result = self._solver.policy_for_rate(rate)
        key = id(result)
        if key not in self._table_cache:
            table_policy = result.policy
            if isinstance(table_policy, RandomizedPolicy):
                table_policy = table_policy.deterministic_rounding()
            self._table_cache[key] = table_policy.as_dict()
        state = view_to_system_state(view, self._capacity)
        desired = self._table_cache[key].get(state)
        return command_if_needed(view, desired)
