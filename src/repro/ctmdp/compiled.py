"""Dense compiled form of a CTMDP for vectorized solvers.

The dict-based :class:`repro.ctmdp.model.CTMDP` is the reference
representation -- explicit, validated, easy to inspect -- but its
per-state Python loops dominate solver time once models grow past a few
dozen states. :func:`compile_ctmdp` lowers a model *once* into stacked
NumPy arrays over all ``(state, action)`` pairs:

- ``generator``: the full generator rows (Eqn.-2.4 diagonals
  precomputed), one row per pair;
- ``cost``: the effective cost rates (impulse costs folded in, the
  same :meth:`StateActionData.effective_cost_rate` numbers the
  reference path reads, so the solvers agree bit-for-bit);
- ``extra``: one stacked vector per named auxiliary cost channel;
- a state-action index (pair -> owning state, pair -> action column,
  per-state pair slices) that turns per-state argmin sweeps into a
  handful of whole-array operations.

The compiled form is cached on the owning :class:`CTMDP` instance, so
workflows that re-solve the same model repeatedly (frontier bisection,
constrained-weight search, the adaptive online manager) pay the lowering
cost once. :meth:`PowerManagedSystemModel.build_ctmdp` additionally
LRU-caches built models per weight, making the cache effective across
whole optimization sweeps on one SYS.

All solver sweeps here reproduce the reference semantics exactly,
including the ``atol`` incumbent rule of policy improvement: an action
displaces the running best only when it beats it by more than ``atol``,
scanning actions in insertion order with the incumbent skipped.

The lowered forms are what the array-tier solver loops run on (see
:mod:`repro.ctmdp.policy_iteration`): :class:`PairIndexedCTMDP` holds
the selection, sweep and policy methods both pair-indexed tiers share,
and :class:`CompiledCTMDP` adds the dense linear algebra -- policy
evaluation, discounted evaluation, the uniformized transition matrix
and the stationary solve.
"""

from __future__ import annotations

import operator
from typing import Dict, Hashable, Mapping, Sequence, Tuple

import numpy as np

from repro.ctmdp.model import CTMDP, chosen_rows
from repro.ctmdp.policy import Policy, actions_in_order
from repro.errors import InvalidModelError, InvalidPolicyError
from repro.markov.generator import canonical_shift, stationary_distribution
from repro.robust.guardrails import solve_with_fallback


class PairIndexedCTMDP:
    """Shared state-action pair indexing and vectorized sweep machinery.

    Both the dense compiled lowering and the CSR sparse lowering
    (:class:`repro.ctmdp.sparse.SparseCTMDP`) stack all ``(state,
    action)`` pairs into flat arrays and run improvement sweeps as
    whole-array operations over a padded ``(n, max_actions)`` grid. The
    sweep semantics live here once so every backend reproduces the
    reference ``atol`` incumbent rule and strict first-wins greedy
    argmin identically.

    Subclasses populate ``states``, the pair indexing (via
    :meth:`_index_pairs`), ``cost``, ``extra``, ``rate_scale`` and their
    generator representation, then call :meth:`_init_pair_grid`.
    """

    states: Tuple[Hashable, ...]
    actions: Tuple[Tuple[Hashable, ...], ...]
    n_states: int
    n_pairs: int

    def _index_pairs(self, actions: Sequence[Sequence[Hashable]]) -> None:
        """Set ``actions``, ``n_pairs`` and the ``pair_offset`` /
        ``pair_state`` / ``pair_col`` arrays from per-state action lists."""
        self.actions = tuple(tuple(a) for a in actions)
        counts = np.array([len(a) for a in self.actions], dtype=np.intp)
        self.n_pairs = int(counts.sum())
        self.pair_offset = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.pair_state = np.repeat(np.arange(len(counts), dtype=np.intp), counts)
        self.pair_col = np.arange(self.n_pairs, dtype=np.intp) - np.repeat(
            self.pair_offset[:-1], counts
        )

    def _init_pair_grid(self) -> None:
        """Derive the padded action grid from the primary pair arrays."""
        n = self.n_states
        self.max_actions = (
            int(np.max(np.diff(self.pair_offset))) if n else 0
        )
        # Dense (n, max_actions) pair-index grid, -1 where a state has
        # fewer actions; used to scatter per-pair values into a padded
        # matrix for column-wise argmin sweeps.
        pad = np.full((n, self.max_actions), -1, dtype=np.intp)
        pad[self.pair_state, self.pair_col] = np.arange(self.n_pairs)
        self.pad_index = pad
        self._index = None
        self._dense_slot = self.pair_state * self.max_actions + self.pair_col
        self._state_range = np.arange(n)
        self.pad_index.setflags(write=False)

    # -- indexing ------------------------------------------------------------

    def pair(self, state_index: int, action: Hashable) -> int:
        """Row of a ``(state index, action)`` pair in the stacked arrays."""
        if not 0 <= state_index < self.n_states:
            raise InvalidPolicyError(
                f"state index {state_index} out of range for "
                f"{self.n_states} states"
            )
        try:
            col = self.actions[state_index].index(action)
        except ValueError:
            raise InvalidPolicyError(
                f"action {action!r} not available in state index {state_index}"
            ) from None
        return int(self.pair_offset[state_index]) + col

    def policy_rows(self, assignment: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Pair rows selected by a ``state -> action`` assignment."""
        return chosen_rows(self.actions, self.pair_offset,
                           actions_in_order(assignment, self))

    def index_of(self, state: Hashable) -> int:
        """Position of *state* in :attr:`states` (indexed on first use)."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        try:
            return self._index[state]
        except KeyError:
            raise InvalidModelError(f"unknown state {state!r}") from None

    # -- vectorized sweeps ---------------------------------------------------

    def scatter(self, pair_values: np.ndarray) -> np.ndarray:
        """Spread per-pair values into an ``(n, max_actions)`` matrix.

        Missing actions are padded with ``+inf`` so they never win an
        argmin sweep.
        """
        dense = np.full(self.n_states * self.max_actions, np.inf)
        dense[self._dense_slot] = pair_values
        return dense.reshape(self.n_states, self.max_actions)

    def improve(
        self, pair_values: np.ndarray, sel: np.ndarray, atol: float
    ) -> "tuple[np.ndarray, bool]":
        """One incumbent-rule improvement sweep over all states at once.

        Reproduces the reference loop exactly: starting from the
        incumbent's value, actions are scanned in insertion order
        (incumbent skipped) and one displaces the running best only when
        it is smaller by more than ``atol``.
        """
        dense = self.scatter(pair_values)
        inc_col = self.pair_col[sel]
        best_val = pair_values[sel].copy()
        best_col = inc_col.copy()
        for a in range(self.max_actions):
            column = dense[:, a]
            better = (column < best_val - atol) & (inc_col != a)
            if np.any(better):
                best_val = np.where(better, column, best_val)
                best_col = np.where(better, a, best_col)
        new_sel = self.pad_index[self._state_range, best_col]
        changed = bool(np.any(new_sel != sel))
        return new_sel, changed

    def greedy(self, pair_values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Strict first-wins argmin over actions, vectorized per state.

        Returns ``(best values, best columns)``; among exactly equal
        values the earliest action in insertion order wins, matching the
        reference value-iteration sweep.
        """
        dense = self.scatter(pair_values)
        best_val = np.full(self.n_states, np.inf)
        best_col = np.zeros(self.n_states, dtype=np.intp)
        for a in range(self.max_actions):
            column = dense[:, a]
            better = column < best_val
            if np.any(better):
                best_val = np.where(better, column, best_val)
                best_col = np.where(better, a, best_col)
        return best_val, best_col

    # -- solver protocol -----------------------------------------------------

    def selection(self, policy=None) -> np.ndarray:
        """Pair rows of *policy*; the first-listed action per state when
        *policy* is ``None``.

        A policy on a model with these states in this order is read by
        position from its action tuple; any other is rebound through
        its ``state -> action`` mapping (:func:`actions_in_order`).
        """
        if policy is None:
            return self.pair_offset[:-1].copy()
        return chosen_rows(self.actions, self.pair_offset,
                           actions_in_order(policy, self))

    def q_values(self, v: np.ndarray, canonical: bool = True) -> np.ndarray:
        """Per-pair test quantities ``c + G v`` of an improvement sweep,
        from the canonical arrays (policy iteration's bias) or, with
        ``canonical=False``, in model units (discounted values)."""
        g, c = self.canonical()[:2] if canonical else (self.generator, self.cost)
        q = g @ v
        q += c
        return q

    def uniformized_backup(self, lam: float):
        """The Bellman backup ``w -> min_a [c/lam + P w]`` of the chain
        uniformized at *lam* (``P = I + G/lam``), as a function returning
        ``(new values, greedy pair rows)``; :meth:`greedy` breaks ties."""
        transition = self.uniformized_transition(lam)
        step_cost = self.cost / lam

        def backup(w: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            best_val, best_col = self.greedy(step_cost + transition @ w)
            return best_val, self.pad_index[self._state_range, best_col]

        return backup

    def policy(self, mdp, sel: np.ndarray) -> Policy:
        """The policy of pair rows *sel*, bound to the source model *mdp*."""
        return Policy.from_actions(
            mdp, map(operator.getitem, self.actions, self.pair_col[sel].tolist())
        )

    @property
    def canonical_shift(self) -> int:
        """Binary exponent normalizing :meth:`max_exit_rate` into [1, 2)."""
        return canonical_shift(self.max_exit_rate())

    def max_exit_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class CompiledCTMDP(PairIndexedCTMDP):
    """One-shot dense lowering of a :class:`CTMDP`.

    Attributes
    ----------
    states:
        State labels, same order as the source model.
    actions:
        Per-state action-label tuples, insertion order.
    n_states, n_pairs:
        State and state-action-pair counts.
    pair_state:
        ``(P,)`` owning state index of each pair.
    pair_col:
        ``(P,)`` column of each pair within its state's action list.
    pair_offset:
        ``(n+1,)`` -- pairs of state ``i`` occupy rows
        ``pair_offset[i]:pair_offset[i+1]``.
    generator:
        ``(P, n)`` full generator rows (diagonal included), read-only.
    cost:
        ``(P,)`` effective cost rates, read-only.
    extra:
        ``{channel: (P,) rates}`` for every named extra-cost channel.
    max_actions:
        The largest per-state action count (the padded column count).
    """

    def __init__(self, mdp: CTMDP) -> None:
        rows = mdp.pair_table()
        self.states: Tuple[Hashable, ...] = mdp.states
        self.n_states = mdp.n_states
        self._index_pairs(rows.actions)
        self.generator = rows.generator.toarray()
        self.cost = rows.cost.copy()
        self.extra: Dict[str, np.ndarray] = {}
        for name, channel in rows.extra.items():
            channel = channel.copy()
            channel.setflags(write=False)
            self.extra[name] = channel
        self.rate_scale = float(getattr(mdp, "rate_scale", 1.0))
        self._canonical = None
        self._row_inf = None
        self._sparse = None
        for array in (self.generator, self.cost, self.pair_state,
                      self.pair_col, self.pair_offset):
            array.setflags(write=False)
        self._init_pair_grid()

    # -- policy evaluation ---------------------------------------------------

    def evaluate(
        self, sel: np.ndarray, reference_state: int, x0=None
    ) -> "tuple[float, np.ndarray]":
        """Gain and bias of the policy selecting rows *sel*.

        Solves ``c + G h = g 1``, ``h[ref] = 0`` as one bordered dense
        system through the guardrail ladder, assembled from the
        canonical (exponent-normalized) arrays so that extreme rate
        magnitudes never reach the factorization and power-of-two
        rescalings of the model solve bit-identically; the gain is
        mapped back by the exact inverse shift, the bias is
        scale-invariant. *x0* is ignored (a direct solve).
        """
        n = self.n_states
        if not 0 <= reference_state < n:
            raise InvalidPolicyError(
                f"reference state {reference_state} out of range"
            )
        g_can, c_can, shift = self.canonical()
        if self._row_inf is None:
            # Per-pair row maxima, computed once: ``max |a_ij|`` of any
            # selection's bordered system is the selected rows' maximum
            # or the unit border entries, so the guardrail acceptance
            # scale costs O(n) per solve instead of two O(n^2) scans.
            self._row_inf = np.max(np.abs(g_can), axis=1, initial=0.0)
        a = np.zeros((n + 1, n + 1))
        a[:n, :n] = g_can[sel]
        a[:n, n] = -1.0
        a[n, reference_state] = 1.0
        solution = solve_with_fallback(
            a, np.concatenate([-c_can[sel], [0.0]]),
            what="policy evaluation system",
            context={"reference_state": reference_state},
            a_max=max(1.0, float(np.max(self._row_inf[sel]))),
        )
        return float(np.ldexp(solution[n], shift)), solution[:n]

    def evaluate_discounted(
        self, sel: np.ndarray, discount: float, x0=None
    ) -> np.ndarray:
        """Values ``v`` solving ``(a I - G) v = c`` for rows *sel*
        through the guardrail ladder (*x0* is ignored)."""
        return solve_with_fallback(
            discount * np.eye(self.n_states) - self.generator[sel],
            self.cost[sel],
            what="discounted evaluation system",
            context={"discount": discount},
        )

    def stationary(self, sel: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy selecting rows *sel*."""
        return stationary_distribution(self.generator[sel], validate=False)

    def uniformized_transition(self, lam: float) -> np.ndarray:
        """Dense ``(pairs, states)`` rows of ``P = I + G/lam``."""
        transition = self.generator / lam
        transition[np.arange(self.n_pairs), self.pair_state] += 1.0
        return transition

    def max_exit_rate(self) -> float:
        """Largest total exit rate; equals ``CTMDP.max_exit_rate()``."""
        if self.n_pairs == 0:  # pragma: no cover - models have >= 1 pair
            return 0.0
        diagonal = self.generator[np.arange(self.n_pairs), self.pair_state]
        return max(0.0, float(np.max(-diagonal)))

    def canonical(self) -> "tuple[np.ndarray, np.ndarray, int]":
        """``(G, c, shift)`` with the generator and cost arrays rescaled
        into canonical units by the exact exponent shift ``2**-shift``.

        Solvers assemble their policy-evaluation systems from these
        arrays so that models differing only by a power-of-two time
        rescaling run through bit-identical float computations; the
        resulting gain is mapped back with ``ldexp(gain, +shift)``
        (also exact). Computed once and cached.
        """
        if self._canonical is None:
            shift = self.canonical_shift
            g = np.ldexp(self.generator, -shift)
            c = np.ldexp(self.cost, -shift)
            g.setflags(write=False)
            c.setflags(write=False)
            self._canonical = (g, c, shift)
        return self._canonical

    def sparse_entries(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(rows, cols, vals)`` of the nonzero generator entries in
        row-major order, computed once and cached.

        Generator rows have bounded out-degree, so whole-model scans
        (the admission gate's structural and numerical reductions) run
        over the ~nnz entries instead of the dense
        ``(n_pairs, n_states)`` array. NaN/inf compare unequal to zero
        and are therefore retained.
        """
        if self._sparse is None:
            flat = np.flatnonzero(self.generator != 0.0)
            rows = flat // max(self.n_states, 1)
            cols = flat - rows * self.n_states
            vals = self.generator.ravel()[flat]
            for array in (rows, cols, vals):
                array.setflags(write=False)
            self._sparse = (rows, cols, vals)
        return self._sparse


def compile_ctmdp(mdp: CTMDP) -> CompiledCTMDP:
    """The compiled form of *mdp*, cached on the instance.

    The first call lowers the model (O(pairs x states) work and memory);
    subsequent calls return the cached object. Models are immutable
    after construction by convention (``add_action`` refuses
    redefinition), and lowering a partially built model is a usage
    error guarded by ``validate``.
    """
    cached = getattr(mdp, "_compiled", None)
    if cached is None:
        mdp.validate()
        cached = CompiledCTMDP(mdp)
        mdp._compiled = cached
    return cached
