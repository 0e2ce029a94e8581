"""Heuristic policies expressed on the joint SYS model.

The heuristics of Section V (N-policy, greedy, always-on) are stationary
Markov policies, so they can be written down directly on the joint CTMDP
and evaluated *analytically* with
:func:`repro.dpm.analysis.evaluate_dpm_policy` -- no simulation needed.
(Timeout policies are *not* stationary Markov policies -- they depend on
elapsed idle time -- so they only exist on the simulator side, in
:mod:`repro.policies.timeout`.)

Each builder returns a plain ``{SystemState: mode}`` assignment; wrap it
in a :class:`repro.ctmdp.policy.Policy` against any CTMDP built from the
same model.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy
from repro.dpm.system import PowerManagedSystemModel, SystemState
from repro.errors import InvalidPolicyError


def default_valid_action(model: PowerManagedSystemModel, state: SystemState) -> str:
    """Prefer staying put; fall back to the fastest active mode.

    The fastest active mode is a valid destination in every state:
    constraint (1) only forbids active-to-inactive moves, constraint (2)
    allows any active destination, and constraint (3) only forbids
    *slower* active modes.
    """
    if model.is_valid_action(state, state.mode):
        return state.mode
    return model.provider.fastest_active_mode()


def _complete(
    model: PowerManagedSystemModel,
    partial: "Dict[SystemState, str]",
) -> "Dict[SystemState, str]":
    """Fill unassigned states with :func:`default_valid_action` and
    verify every assigned action is valid."""
    assignment: Dict[SystemState, str] = {}
    for state in model.states:
        action = partial.get(state)
        if action is None:
            action = default_valid_action(model, state)
        elif not model.is_valid_action(state, action):
            raise InvalidPolicyError(
                f"heuristic assigns invalid action {action!r} to {state!r}"
            )
        assignment[state] = action
    return assignment


def n_policy_actions(
    model: PowerManagedSystemModel,
    n: int,
    sleep_mode: Optional[str] = None,
    active_mode: Optional[str] = None,
) -> "List[str]":
    """The N-policy's action in every state, in ``model.states`` order.

    Computed over the model's state grid
    (:meth:`~repro.dpm.system.PowerManagedSystemModel.validity_grid`)
    with NumPy: a transfer state powers down into *sleep_mode* when the
    system just emptied (``q_{1 -> 0}``) and keeps serving otherwise; a
    powered-down stable state wakes into *active_mode* at the
    threshold; every other state stays put when that is valid, else
    targets the fastest active mode (:func:`default_valid_action`).
    An assigned power-down, keep-serving or wake-up action the model
    rejects raises :class:`InvalidPolicyError` naming the first such
    state; the default is not re-checked. Arguments as in
    :func:`n_policy_assignment`.
    """
    if not 1 <= n <= model.capacity:
        raise InvalidPolicyError(
            f"N must be in 1..{model.capacity} for capacity {model.capacity}, got {n}"
        )
    sp = model.provider
    sleep = sleep_mode if sleep_mode is not None else sp.deepest_sleep_mode()
    active = active_mode if active_mode is not None else sp.fastest_active_mode()
    if sp.is_active(sleep):
        raise InvalidPolicyError(f"sleep mode {sleep!r} is active")
    if not sp.is_active(active):
        raise InvalidPolicyError(f"active mode {active!r} is inactive")
    modes = sp.modes
    mode, level, in_transfer, invalid = model.validity_grid()
    rows = np.arange(len(mode))
    s_active = np.array([sp.is_active(m) for m in modes])[mode]
    action = np.where(
        invalid[rows, mode], sp.index_of(sp.fastest_active_mode()), mode
    )
    # Active transfer states: power down when the system just emptied,
    # keep serving otherwise.
    serving = in_transfer & s_active
    action[serving] = np.where(level[serving] == 1, sp.index_of(sleep),
                               mode[serving])
    # Powered down: wake at the threshold (or when forced by the
    # full-queue constraint); below it, stay when staying is valid.
    waking = ~in_transfer & ~s_active & (level >= n)
    action[waking] = sp.index_of(active)
    bad = (serving | waking) & invalid[rows, action]
    if bad.any():
        i = int(np.argmax(bad))
        raise InvalidPolicyError(
            f"heuristic assigns invalid action {modes[action[i]]!r} to "
            f"{model.states[i]!r}"
        )
    return np.array(modes, dtype=object)[action].tolist()


def n_policy_assignment(
    model: PowerManagedSystemModel,
    n: int,
    sleep_mode: Optional[str] = None,
    active_mode: Optional[str] = None,
) -> "Dict[SystemState, str]":
    """The N-policy of Section V on the joint model.

    Activate the server when ``n`` requests are waiting; deactivate it
    (into *sleep_mode*) as soon as the system is empty -- i.e. in the
    transfer state ``q_{1 -> 0}``. While powered down below the
    threshold, stay put.

    Parameters
    ----------
    model:
        The SYS model; ``n`` must be within ``1 .. capacity`` (at a full
        queue the model's constraints force a wakeup anyway).
    n:
        Activation threshold.
    sleep_mode:
        Power-down target; defaults to the provider's lowest-power
        inactive mode.
    active_mode:
        Wakeup target; defaults to the fastest active mode.
    """
    actions = n_policy_actions(model, n, sleep_mode, active_mode)
    return dict(zip(model.states, actions))


def greedy_assignment(
    model: PowerManagedSystemModel,
    sleep_mode: Optional[str] = None,
    active_mode: Optional[str] = None,
) -> "Dict[SystemState, str]":
    """Section V's greedy heuristic: sleep the instant the queue empties,
    wake the instant it is non-empty -- the N-policy with ``N = 1``."""
    return n_policy_assignment(model, 1, sleep_mode, active_mode)


def always_on_assignment(model: PowerManagedSystemModel) -> "Dict[SystemState, str]":
    """Never power down: every state targets the fastest active mode."""
    active = model.provider.fastest_active_mode()
    return _complete(model, {state: active for state in model.states})


def as_policy(mdp: CTMDP, assignment: "Dict[SystemState, str]") -> Policy:
    """Wrap an assignment as a :class:`Policy` on *mdp*."""
    return Policy(mdp, assignment)
