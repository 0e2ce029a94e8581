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
generator's nonzero entries). :meth:`CTMDP.pair_table` stacks every
pair's row into flat arrays, which the solver lowerings, the LP and the
certificates read; :meth:`CTMDP.generator_row` rebuilds one dense row
on demand for tests, small models and the per-state reference loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import InvalidModelError, InvalidPolicyError


#: NumPy's pairwise summation sums blocks of at most this many elements
#: in eight interleaved lanes, and halves longer arrays recursively.
_PAIRWISE_BLOCK = 128


def _pairwise_tree(n: int) -> tuple:
    """The shape of NumPy's pairwise sum of a length-*n* array.

    Returns per leaf block its first index ``lo`` and the length of its
    eight-lane part ``main`` (the rest is added one by one after the
    lanes are combined), the node id of each leaf, and per node its
    parent, side (0 left, 1 right) and depth in the halving tree.
    """
    los, mains, leaf_node, parent, side, depth = [], [], [], [-1], [0], [0]

    def split(lo: int, m: int, node: int) -> None:
        if m <= _PAIRWISE_BLOCK:
            los.append(lo)
            mains.append(m - m % 8 if m >= 8 else 0)
            leaf_node.append(node)
            return
        half = m // 2 - (m // 2) % 8
        for s, (start, length) in enumerate(((lo, half), (lo + half, m - half))):
            parent.append(node)
            side.append(s)
            depth.append(depth[node] + 1)
            split(start, length, len(parent) - 1)

    split(0, n, 0)
    return tuple(np.asarray(a, dtype=np.intp)
                 for a in (los, mains, leaf_node, parent, side, depth))


def dense_row_sums(indptr, cols, vals, n: int) -> np.ndarray:
    """Each sparse row's sum, rounded as ``row.sum()`` rounds the dense
    length-*n* row, in O(nnz log n).

    NumPy adds a dense row pairwise (``_pairwise_tree``); the zeros
    between the nonzeros add exactly, so only where each nonzero sits
    in that tree decides the rounding, and the tree is the same for
    every row. This replays it over the nonzeros: lanes in column
    order, the lane tree, each block's tail, then the halving tree
    bottom-up. Entries must be nonzero and columns ascending per row.
    """
    los, mains, leaf_node, parent, side, depth = _pairwise_tree(n)
    n_rows = len(indptr) - 1
    rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    leaf = np.searchsorted(los, cols, side="right") - 1
    off = cols - los[leaf]
    lane = off < mains[leaf]
    # Rows ascending, columns ascending within a row: the (row, leaf)
    # keys come sorted, so each run of equal keys is one accumulator.
    key = rows * len(los) + leaf
    new_run = np.ones(len(key), dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    keys, slot = key[new_run], np.cumsum(new_run) - 1
    lanes = np.zeros((len(keys), 8))
    np.add.at(lanes, (slot[lane], off[lane] % 8), vals[lane])
    value = (((lanes[:, 0] + lanes[:, 1]) + (lanes[:, 2] + lanes[:, 3]))
             + ((lanes[:, 4] + lanes[:, 5]) + (lanes[:, 6] + lanes[:, 7])))
    np.add.at(value, slot[~lane], vals[~lane])
    item_row, node = keys // len(los), leaf_node[keys % len(los)]
    for level in range(int(depth.max()), 0, -1):
        up = depth[node] == level
        key = item_row[up] * len(parent) + parent[node[up]]
        order = np.lexsort((side[node[up]], key))
        key, sub = key[order], value[up][order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        merged = sub[first]
        pair = np.flatnonzero(~first)  # a right child after its left
        merged[np.cumsum(first)[pair] - 1] = sub[pair - 1] + sub[pair]
        item_row = np.concatenate([item_row[~up], key[first] // len(parent)])
        node = np.concatenate([node[~up], key[first] % len(parent)])
        value = np.concatenate([value[~up], merged])
    sums = np.zeros(n_rows)
    sums[item_row] = value
    return sums


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


class PairTable:
    """Every pair's row and costs, stacked in ``state_action_pairs()`` order.

    The dict model's own O(nnz) arrays: ``states``, ``actions``
    (per-state tuples), ``pair_state`` and ``pair_offset`` (pairs of
    state ``i`` occupy ``pair_offset[i]:pair_offset[i + 1]``), the
    off-diagonal rows in CSR layout (``indptr`` over ``cols``/``vals``),
    ``exit_rate`` and the effective ``cost`` per pair, and ``extra`` --
    one per-pair vector per named channel, 0.0 where a pair lacks it.
    """

    def __init__(self, states, actions, indptr, cols, vals, exit_rate,
                 cost, extra) -> None:
        self.states = tuple(states)
        self.n_states = len(self.states)
        self.actions = tuple(tuple(a) for a in actions)
        counts = np.array([len(a) for a in self.actions], dtype=np.intp)
        self.n_pairs = int(counts.sum())
        self.pair_offset = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.pair_state = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals, dtype=float)
        self.exit_rate = np.asarray(exit_rate, dtype=float)
        self.cost = np.asarray(cost, dtype=float)
        self.extra = extra
        self._generator = None

    def with_cost(self, cost) -> "PairTable":
        """A sibling sharing every row array (and the cached CSR), with
        new effective costs."""
        sibling = object.__new__(PairTable)
        sibling.__dict__.update(self.__dict__)
        sibling.cost = np.asarray(cost, dtype=float)
        sibling._generator = self.generator()
        return sibling

    def entry_pairs(self) -> np.ndarray:
        """The pair of each off-diagonal entry."""
        return np.repeat(np.arange(self.n_pairs), np.diff(self.indptr))

    def generator(self) -> sp.csr_array:
        """``(pairs, n)`` CSR generator rows with their Eqn.-2.4
        diagonals, zeros dropped and columns ascending (cached)."""
        if self._generator is None:
            nonzero = self.exit_rate != 0.0
            rows = np.concatenate([self.entry_pairs(),
                                   np.flatnonzero(nonzero)])
            cols = np.concatenate([self.cols, self.pair_state[nonzero]])
            vals = np.concatenate([self.vals, -self.exit_rate[nonzero]])
            order = np.lexsort((cols, rows))
            indptr = np.concatenate(
                [[0], np.cumsum(np.bincount(rows, minlength=self.n_pairs))])
            self._generator = sp.csr_array(
                (vals[order], cols[order], indptr),
                shape=(self.n_pairs, self.n_states))
        return self._generator

    def dense(self) -> np.ndarray:
        """``(pairs, n)`` dense generator rows, diagonals included: the
        rows :meth:`CTMDP.generator_row` returns, stacked."""
        rows = np.zeros((self.n_pairs, self.n_states))
        rows[self.entry_pairs(), self.cols] = self.vals
        rows[np.arange(self.n_pairs), self.pair_state] = -self.exit_rate
        return rows

    def policy_weights(self, policy) -> sp.csr_array:
        """``(n, pairs)`` CSR matrix of each state's action probabilities
        under *policy* (one-hot for a deterministic one, whose action
        tuple is read in state order), so that ``weights @ rows`` is the
        policy's own rows."""
        if not hasattr(policy, "distribution"):
            pairs = chosen_rows(self.actions, self.pair_offset, policy.actions)
            return sp.csr_array(
                (np.ones(self.n_states), (np.arange(self.n_states), pairs)),
                shape=(self.n_states, self.n_pairs))
        rows, pairs, probs = [], [], []
        for i, (state, actions) in enumerate(zip(self.states, self.actions)):
            for action, prob in policy.distribution(state).items():
                rows.append(i)
                pairs.append(self.pair_offset[i] + actions.index(action))
                probs.append(prob)
        return sp.csr_array((probs, (rows, pairs)),
                            shape=(self.n_states, self.n_pairs))


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
    from sparse rows with :meth:`from_rows`), then query it through
    :meth:`actions`, :meth:`data`, :meth:`pair_table` and friends.
    :meth:`validate` checks that every state has at least one action.
    """

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
        # Stacked pair rows (see pair_table), built lazily.
        self._pairs: "Optional[PairTable]" = None
        # Dense lowering cache; see repro.ctmdp.compiled.compile_ctmdp.
        self._compiled = None
        # CSR lowering cache; see repro.ctmdp.sparse.compile_sparse_ctmdp.
        self._sparse_lowering = None

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
        # A new pair invalidates the stacked rows and any lowering.
        self._pairs = None
        self._compiled = None
        self._sparse_lowering = None

    @classmethod
    def from_rows(
        cls,
        table: PairTable,
        cost_rate: np.ndarray,
        impulses: Optional[np.ndarray] = None,
        extra_costs: "Optional[List[Dict[str, float]]]" = None,
        rate_scale: float = 1.0,
    ) -> "CTMDP":
        """A model whose rows are *table*'s, built in O(nnz).

        *table*'s exit rates and effective costs are taken as given (the
        caller sums them as it means them to be rounded), alongside each
        pair's ``c_ii`` in *cost_rate*, optional impulse costs aligned
        with ``table.cols`` and per-pair extra-cost dicts. Each pair's
        :class:`StateActionData` holds views into *table*'s arrays.
        """
        mdp = cls(table.states, rate_scale=rate_scale)
        if table.indptr.shape != (table.n_pairs + 1,) or np.any(
                np.diff(table.indptr) < 0):
            raise InvalidModelError("pair table rows are malformed")
        vals = table.vals
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
            raise InvalidModelError("row rates must be finite and positive")
        if np.any(table.cols == table.pair_state[table.entry_pairs()]):
            raise InvalidModelError(
                "self-rates must be omitted; diagonals follow from Eqn. 2.4"
            )
        n = mdp.n_states
        bounds = table.indptr.tolist()
        costs = np.asarray(cost_rate, dtype=float).tolist()
        exits = table.exit_rate.tolist()
        effective = table.cost.tolist()
        pair = 0
        for i, actions in enumerate(table.actions):
            row = mdp._table[i]
            for action in actions:
                lo, hi = bounds[pair], bounds[pair + 1]
                row[action] = StateActionData.sparse(
                    table.cols[lo:hi], vals[lo:hi], exits[pair], costs[pair],
                    None if impulses is None else impulses[lo:hi],
                    {} if extra_costs is None else extra_costs[pair],
                    n, effective[pair],
                )
                pair += 1
        mdp._pairs = table
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

    def pair_table(self) -> PairTable:
        """Every pair's sparse row and costs, stacked (cached)."""
        if self._pairs is None:
            self.validate()
            rows = [d for i in range(self.n_states)
                    for d in self._table[i].values()]
            names = sorted({k for d in rows for k in d.extra_costs}, key=repr)
            self._pairs = PairTable(
                self._states,
                [tuple(self._table[i]) for i in range(self.n_states)],
                np.concatenate([[0], np.cumsum([len(d.cols) for d in rows])]),
                np.concatenate([d.cols for d in rows]),
                np.concatenate([d.vals for d in rows]),
                [d.exit_rate for d in rows],
                [d.effective_cost for d in rows],
                {name: np.array([d.extra_costs.get(name, 0.0) for d in rows])
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
        state["_sparse_lowering"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        n_pairs = sum(len(a) for a in self._table.values())
        return f"CTMDP(n_states={self.n_states}, n_state_actions={n_pairs})"
