"""Model verification: do the Section-III constraints do their job?

The paper's action-validity constraints exist "to ensure that the
resulting SYS model is a connected Markov process" so that "the
limiting distribution of the state probability exists and is
independent of the initial state". This module checks that property
mechanically for a built model:

- :func:`verify_policy_unichain` -- one policy: its induced chain has a
  single recurrent class (the exact condition average-cost evaluation
  needs);
- :func:`verify_all_policies_unichain` -- *every* admissible
  deterministic policy, exhaustively for small models or by seeded
  random sampling above a configurable budget;
- :func:`verify_model` -- the full report: state-space composition,
  action-set non-emptiness, generator conservation, and the unichain
  sweep.

Each check gathers a policy's rows from the model's CSR build and runs
the O(nnz) class kernel :func:`repro.markov.classify.class_structure`
on them, so no dict or dense matrix is built at any model size.

Useful when users define their own providers/constraints and want the
same guarantee the paper engineered for its model.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.ctmdp.policy import Policy
from repro.dpm.system import PowerManagedSystemModel, SystemState
from repro.errors import InvalidModelError
from repro.markov.classify import class_structure
from repro.markov.generator import validate_generator


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of :func:`verify_model`.

    ``n_policies_checked`` counts the deterministic policies whose
    induced chains were classified; ``exhaustive`` says whether that
    was all of them. ``violations`` lists offending policies (empty
    for a healthy model).
    """

    n_states: int
    n_state_action_pairs: int
    n_policies_total: int
    n_policies_checked: int
    exhaustive: bool
    violations: "List[Dict[SystemState, str]]"

    @property
    def ok(self) -> bool:
        return not self.violations


def is_unichain(generator: np.ndarray) -> bool:
    """Single recurrent communicating class (transients allowed)."""
    return class_structure(validate_generator(generator)).unichain


def verify_policy_unichain(
    model: PowerManagedSystemModel,
    assignment: "Dict[SystemState, str]",
) -> bool:
    """True iff *assignment* induces a unichain joint process."""
    rows = model.build_ctmdp(0.0, backend="sparse")
    sel = rows.selection(Policy(rows, assignment))
    return class_structure(rows.generator[sel]).unichain


def count_policies(model: PowerManagedSystemModel) -> int:
    """Number of admissible deterministic policies."""
    return math.prod(map(len, model.build_ctmdp(0.0, backend="sparse").actions))


def verify_all_policies_unichain(
    model: PowerManagedSystemModel,
    sample_budget: int = 500,
    seed: int = 0,
) -> VerificationReport:
    """Sweep the deterministic policy space for multichain violations.

    Exhaustive when the space is within *sample_budget*; otherwise a
    seeded uniform sample of that size (plus the all-first and all-last
    corner policies, which empirically catch lazy/greedy pathologies).
    """
    rows = model.build_ctmdp(0.0, backend="sparse")
    counts = np.diff(rows.pair_offset)
    total = count_policies(model)
    exhaustive = total <= sample_budget
    if exhaustive:
        columns = map(np.array, itertools.product(*map(range, counts.tolist())))
    else:
        rng = np.random.default_rng(seed)
        columns = itertools.chain(
            [np.zeros_like(counts), counts - 1],
            (rng.integers(counts) for _ in range(sample_budget - 2)),
        )
    first = rows.pair_offset[:-1]
    violations: List[Dict[SystemState, str]] = [
        dict(zip(rows.states, map(operator.getitem, rows.actions, cols.tolist())))
        for cols in columns
        if not class_structure(rows.generator[first + cols]).unichain
    ]
    return VerificationReport(
        n_states=model.n_states,
        n_state_action_pairs=rows.n_pairs,
        n_policies_total=total,
        n_policies_checked=total if exhaustive else max(sample_budget, 2),
        exhaustive=exhaustive,
        violations=violations,
    )


def verify_model(
    model: PowerManagedSystemModel,
    sample_budget: int = 500,
    seed: int = 0,
) -> VerificationReport:
    """Structural checks plus the unichain sweep.

    Raises
    ------
    InvalidModelError
        If a structural invariant fails (these indicate bugs, not
        modeling choices): generator rows not conserving, empty action
        sets, or transfer states attached to inactive modes.
    """
    rows = model.build_ctmdp(0.0, backend="sparse")
    for state in model.states:
        if state.queue.is_transfer and not model.provider.is_active(state.mode):
            raise InvalidModelError(
                f"transfer state {state!r} attached to an inactive mode"
            )
    # Conservation is checked relative to each row's own magnitude: an
    # absolute threshold would reject every legitimate row once rates
    # reach ~1e6x the tolerance and pass any broken row whose rates sit
    # far below it.
    sums, scale = rows.generator.sum(axis=1), abs(rows.generator).sum(axis=1)
    broken = np.flatnonzero(np.abs(sums) > 1e-9 * scale)
    if len(broken):
        p = broken[0]
        state = rows.pair_state[p]
        raise InvalidModelError(
            f"generator row of {rows.states[state]!r}/"
            f"{rows.actions[state][rows.pair_col[p]]!r} sums to {sums[p]:g} "
            f"against magnitude {scale[p]:g}"
        )
    return verify_all_policies_unichain(model, sample_budget=sample_budget, seed=seed)
