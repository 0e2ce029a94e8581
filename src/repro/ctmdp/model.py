"""The CTMDP model type.

A continuous-time Markov decision process is a controllable Markov
process with costs (Section II). For every state ``i`` there is a finite
action set ``A_i``; choosing action ``a`` in state ``i`` selects

- a row of transition rates ``s_ij(a) >= 0`` (``j != i``),
- a cost rate ``c_ii(i, a)`` accrued per unit time in ``i``, and
- impulse costs ``c_ij(i, a)`` paid on each ``i -> j`` transition.

Following the paper we work with the *effective cost rate*
``c_i(a) = c_ii(i, a) + sum_{j != i} s_ij(a) c_ij(i, a)``, which folds
impulse costs into an equivalent rate (Section II, "earning rate").

Each pair's row is stored sparsely -- the column indices and values of
its nonzero rates -- so a model costs O(nnz) memory (nnz: the
generator's nonzero entries). :meth:`CTMDP.pair_table` returns the
model's rows stacked as CSR, a :class:`~repro.ctmdp.sparse.SparseCTMDP`
(the one stacked-row type), which the solver lowerings, the LP and the
certificates read. A model built pair by pair (:meth:`CTMDP.add_action`)
stacks them on first read; one built by :meth:`CTMDP.from_rows` -- a SYS
dict build -- wraps the CSR build it was given, so both builds share
their rows and exit rates. :meth:`CTMDP.generator_row` rebuilds one
dense row on demand for tests, small models and the per-state reference
loops, which read the per-pair data and no stacked array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import InvalidModelError, InvalidPolicyError


def chosen_rows(actions, pair_offset, chosen) -> np.ndarray:
    """Pair rows of the action *chosen* in each state, in state order.

    *actions* holds each state's action tuple, whose pairs start at
    ``pair_offset[i]``. An action its state does not offer is an
    :class:`~repro.errors.InvalidPolicyError`.
    """
    try:
        cols = list(map(tuple.index, actions, chosen))
    except ValueError:
        i, action = next((i, a) for i, (acts, a) in enumerate(zip(actions, chosen))
                         if a not in acts)
        raise InvalidPolicyError(
            f"action {action!r} not available in state index {i}"
        ) from None
    return pair_offset[:-1] + np.asarray(cols, dtype=np.intp)


@dataclass(frozen=True, init=False, eq=False)
class StateActionData:
    """Rates and costs for one ``<state, action>`` pair, its row sparse.

    The constructor takes the dense form -- a length-``n`` rate row
    whose entry for the state itself is zero, and optional length-``n``
    impulse costs -- and keeps the nonzero rates only;
    :meth:`sparse` builds one from its columns directly.

    Attributes
    ----------
    cols, vals:
        Ascending destination indices of the nonzero rates ``s_ij(a)``
        and the rates there.
    exit_rate:
        ``sum_j s_ij(a)``; the Eqn.-2.4 diagonal is its negation. The
        dense constructor sums the length-``n`` row (NumPy's pairwise
        order), exactly as the generator row always was.
    cost_rate:
        Per-unit-time cost ``c_ii`` while occupying the state under this
        action.
    impulses:
        Per-transition costs ``c_ij`` at ``cols``, or ``None``.
    extra_costs:
        Named auxiliary cost rates (e.g. separate ``power`` and
        ``delay`` components) used by constrained optimization; each is a
        scalar rate for this state-action pair.
    n_states:
        The row length ``n``.
    effective_cost:
        ``c_ii + sum_j s_ij c_ij`` (:meth:`effective_cost_rate`).
    """

    cols: np.ndarray
    vals: np.ndarray
    exit_rate: float
    cost_rate: float
    impulses: Optional[np.ndarray]
    extra_costs: "Dict[str, float]"
    n_states: int
    effective_cost: float

    def __init__(
        self,
        rates: np.ndarray,
        cost_rate: float,
        impulse_costs: Optional[np.ndarray] = None,
        extra_costs: Optional[Dict[str, float]] = None,
    ) -> None:
        r = np.asarray(rates, dtype=float)
        cols = np.flatnonzero(r)
        imp = None if impulse_costs is None else np.asarray(impulse_costs, dtype=float)
        effective = float(cost_rate)
        if imp is not None:
            effective += float(r @ imp)
        self._fill(cols, r[cols], float(r.sum()), float(cost_rate),
                   None if imp is None else imp[cols],
                   dict(extra_costs or {}), r.shape[0], effective)

    @classmethod
    def sparse(cls, cols, vals, exit_rate, cost_rate, impulses, extra_costs,
               n_states, effective_cost) -> "StateActionData":
        """A pair from its sparse row, taken as given (no validation)."""
        data = cls.__new__(cls)
        data._fill(cols, vals, exit_rate, cost_rate, impulses, extra_costs,
                   n_states, effective_cost)
        return data

    def _fill(self, *values) -> None:
        for name, value in zip(self.__dataclass_fields__, values):
            object.__setattr__(self, name, value)

    @property
    def rates(self) -> np.ndarray:
        """The dense length-``n`` rate row (O(n) per call)."""
        row = np.zeros(self.n_states)
        row[self.cols] = self.vals
        return row

    @property
    def impulse_costs(self) -> Optional[np.ndarray]:
        """The dense length-``n`` impulse costs, or ``None`` (O(n) per
        call)."""
        if self.impulses is None:
            return None
        row = np.zeros(self.n_states)
        row[self.cols] = self.impulses
        return row

    def effective_cost_rate(self) -> float:
        """``c_ii + sum_j s_ij c_ij`` -- impulse costs folded to a rate."""
        return self.effective_cost


class CTMDP:
    """A finite CTMDP with labeled states and hashable actions.

    Parameters
    ----------
    states:
        Unique hashable state labels.
    rate_scale:
        Time-unit rescaling applied by the caller when building this
        model: all stored rates and cost rates are *original* units
        multiplied by ``rate_scale``. Solvers report solutions in the
        stored units; callers holding a repaired (rescaled) model divide
        gains by ``rate_scale`` to recover original-unit values. The
        admission remediation ladder only ever uses exact powers of two
        here, so the division is exact.

    Build the model incrementally with :meth:`add_action` (or at once
    from CSR rows with :meth:`from_rows`), then query it through
    :meth:`actions`, :meth:`data`, :meth:`pair_table` and friends.
    :meth:`validate` checks that every state has at least one action.
    """

    #: The label key of the CSR rows a :meth:`from_rows` model wraps
    #: (:attr:`~repro.ctmdp.sparse.SparseCTMDP.label_key`), else ``None``.
    label_key = None

    def __init__(self, states: Sequence[Hashable], rate_scale: float = 1.0) -> None:
        self._states: Tuple[Hashable, ...] = tuple(states)
        if len(set(self._states)) != len(self._states):
            raise InvalidModelError("state labels must be unique")
        if not self._states:
            raise InvalidModelError("a CTMDP needs at least one state")
        if not (np.isfinite(rate_scale) and rate_scale > 0.0):
            raise InvalidModelError(
                f"rate_scale must be finite and positive, got {rate_scale!r}"
            )
        self.rate_scale = float(rate_scale)
        self._index = {s: i for i, s in enumerate(self._states)}
        self._table: "Dict[int, Dict[Hashable, StateActionData]]" = {
            i: {} for i in range(len(self._states))
        }
        # The stacked CSR rows (see pair_table), built lazily.
        self._pairs: "Optional[SparseCTMDP]" = None
        # Dense lowering cache; see repro.ctmdp.compiled.compile_ctmdp.
        self._compiled = None

    # -- construction --------------------------------------------------------

    def add_action(
        self,
        state: Hashable,
        action: Hashable,
        rates: np.ndarray,
        cost_rate: float,
        impulse_costs: Optional[np.ndarray] = None,
        extra_costs: Optional[Dict[str, float]] = None,
    ) -> None:
        """Register *action* as available in *state* with the given data.

        ``rates`` is the dense length-``n`` row: non-negative with a zero
        entry for *state* itself; only its nonzero entries are kept.
        Re-adding an existing ``(state, action)`` pair is an error --
        models are built once, not mutated.
        """
        i = self.index_of(state)
        if action in self._table[i]:
            raise InvalidModelError(f"action {action!r} already defined for {state!r}")
        r = np.asarray(rates, dtype=float)
        n = self.n_states
        if r.shape != (n,):
            raise InvalidModelError(
                f"rates shape {r.shape} does not match {n} states"
            )
        if not np.all(np.isfinite(r)):
            raise InvalidModelError(
                f"non-finite rate in {state!r}/{action!r}"
            )
        if np.any(r < 0):
            raise InvalidModelError(
                f"negative rate in {state!r}/{action!r}: min={r.min():g}"
            )
        if r[i] != 0.0:
            raise InvalidModelError(
                f"self-rate must be zero for {state!r}/{action!r} "
                "(diagonals follow from Eqn. 2.4)"
            )
        if impulse_costs is not None and np.shape(impulse_costs) != (n,):
            raise InvalidModelError(
                f"impulse_costs shape {np.shape(impulse_costs)} does not "
                f"match {n} states"
            )
        self._table[i][action] = StateActionData(
            r, cost_rate, impulse_costs, extra_costs
        )
        # A new pair invalidates the stacked rows and the dense lowering.
        self._pairs = None
        self._compiled = None

    @classmethod
    def from_rows(
        cls,
        rows: "SparseCTMDP",
        off_diagonal: tuple,
        cost_rate: np.ndarray,
        impulses: Optional[np.ndarray] = None,
        extra_costs: "Optional[List[Dict[str, float]]]" = None,
    ) -> "CTMDP":
        """A model whose stacked rows are *rows*, built in O(nnz).

        *rows* is a CSR model (:class:`~repro.ctmdp.sparse.SparseCTMDP`)
        and becomes this model's :meth:`pair_table`: its diagonals give
        each pair's exit rate, its ``cost`` the effective cost rates.
        *off_diagonal* is ``(indptr, cols, vals)``, the off-diagonal
        entries of *rows* in CSR layout
        (:meth:`~repro.ctmdp.sparse.SparseCTMDP.off_diagonal`), alongside
        each pair's ``c_ii`` in *cost_rate*, optional impulse costs
        aligned with ``cols`` and per-pair extra-cost dicts. Each pair's
        :class:`StateActionData` holds views into these arrays.
        """
        indptr, cols, vals = (np.asarray(a) for a in off_diagonal)
        if indptr.shape != (rows.n_pairs + 1,) or np.any(np.diff(indptr) < 0):
            raise InvalidModelError("pair rows are malformed")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise InvalidModelError("row rates must be finite and positive")
        entry_pair = np.repeat(np.arange(rows.n_pairs), np.diff(indptr))
        if np.any(cols == rows.pair_state[entry_pair]):
            raise InvalidModelError(
                "self-rates must be omitted; diagonals follow from Eqn. 2.4"
            )
        mdp = cls(rows.states, rate_scale=rows.rate_scale)
        n = mdp.n_states
        bounds = indptr.tolist()
        costs = np.asarray(cost_rate, dtype=float).tolist()
        exits = rows.exit_rates().tolist()
        effective = rows.cost.tolist()
        pair = 0
        for i, actions in enumerate(rows.actions):
            row = mdp._table[i]
            for action in actions:
                lo, hi = bounds[pair], bounds[pair + 1]
                row[action] = StateActionData.sparse(
                    cols[lo:hi], vals[lo:hi], exits[pair], costs[pair],
                    None if impulses is None else impulses[lo:hi],
                    {} if extra_costs is None else extra_costs[pair],
                    n, effective[pair],
                )
                pair += 1
        mdp._pairs = rows
        mdp.label_key = rows.label_key
        mdp.validate()
        return mdp

    def validate(self) -> None:
        """Check every state has at least one action."""
        missing = [self._states[i] for i, acts in self._table.items() if not acts]
        if missing:
            raise InvalidModelError(f"states with no actions: {missing!r}")

    # -- accessors -------------------------------------------------------------

    @property
    def states(self) -> Tuple[Hashable, ...]:
        return self._states

    @property
    def n_states(self) -> int:
        return len(self._states)

    def index_of(self, state: Hashable) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise InvalidModelError(f"unknown state {state!r}") from None

    def actions(self, state: Hashable) -> "List[Hashable]":
        """Available actions in *state*, in insertion order."""
        return list(self._table[self.index_of(state)].keys())

    def data(self, state: Hashable, action: Hashable) -> StateActionData:
        """The :class:`StateActionData` of a ``(state, action)`` pair."""
        i = self.index_of(state)
        try:
            return self._table[i][action]
        except KeyError:
            raise InvalidModelError(
                f"action {action!r} not available in state {state!r}"
            ) from None

    def generator_row(self, state: Hashable, action: Hashable) -> np.ndarray:
        """Full dense generator row including the Eqn.-2.4 diagonal entry.

        Built on each call in O(n) and **read-only**; a convenience for
        tests, small models and the per-state reference loops. Whole-model
        passes read :meth:`pair_table` instead.
        """
        d = self.data(state, action)
        row = d.rates
        row[self.index_of(state)] = -d.exit_rate
        row.setflags(write=False)
        return row

    def pair_table(self) -> "SparseCTMDP":
        """The model's CSR rows: every pair's row and costs, stacked in
        :meth:`state_action_pairs` order (cached).

        A model built by :meth:`add_action` stacks its pairs on first
        read, each diagonal set to ``-exit_rate`` as stored; one built by
        :meth:`from_rows` returns the rows it was given.
        """
        if self._pairs is None:
            from repro.ctmdp.sparse import SparseCTMDP

            self.validate()
            rows = [d for i in range(self.n_states)
                    for d in self._table[i].values()]
            actions = [tuple(self._table[i]) for i in range(self.n_states)]
            pair_state = np.repeat(np.arange(self.n_states),
                                   [len(a) for a in actions])
            exit_rate = np.array([d.exit_rate for d in rows])
            diagonal = np.flatnonzero(exit_rate)
            pair = np.concatenate([
                np.repeat(np.arange(len(rows)), [len(d.cols) for d in rows]),
                diagonal])
            cols = np.concatenate([d.cols for d in rows] + [pair_state[diagonal]])
            vals = np.concatenate([d.vals for d in rows] + [-exit_rate[diagonal]])
            order = np.lexsort((cols, pair))
            indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(pair, minlength=len(rows)))])
            names = sorted({k for d in rows for k in d.extra_costs}, key=repr)
            self._pairs = SparseCTMDP(
                self._states,
                actions,
                sp.csr_array((vals[order], cols[order], indptr),
                             shape=(len(rows), self.n_states)),
                [d.effective_cost for d in rows],
                rate_scale=self.rate_scale,
                extra={name: [d.extra_costs.get(name, 0.0) for d in rows]
                       for name in names},
            )
        return self._pairs

    def cost(self, state: Hashable, action: Hashable) -> float:
        """Effective cost rate (impulse costs folded in)."""
        return self.data(state, action).effective_cost

    def extra_cost(self, state: Hashable, action: Hashable, name: str) -> float:
        """A named auxiliary cost rate, 0.0 if absent."""
        return self.data(state, action).extra_costs.get(name, 0.0)

    def state_action_pairs(self) -> "List[Tuple[Hashable, Hashable]]":
        """All ``(state, action)`` pairs in deterministic order."""
        pairs: List[Tuple[Hashable, Hashable]] = []
        for i, state in enumerate(self._states):
            pairs.extend((state, a) for a in self._table[i])
        return pairs

    def max_exit_rate(self) -> float:
        """The largest total exit rate over all state-action pairs.

        This is the minimal admissible uniformization constant.
        """
        return max((d.exit_rate for acts in self._table.values()
                    for d in acts.values()), default=0.0)

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (rebuilt lazily on demand)."""
        state = self.__dict__.copy()
        state["_pairs"] = None
        state["_compiled"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n_pairs = sum(len(a) for a in self._table.values())
        return f"CTMDP(n_states={self.n_states}, n_state_actions={n_pairs})"
