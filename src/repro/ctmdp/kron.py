"""Kronecker-structured CTMDPs and their matrix-free solvers.

The top tier of the solver backend ladder. A :class:`KroneckerCTMDP`
never stores a joint generator at all: each global action ``a`` carries
one :class:`~repro.markov.kron.KroneckerGenerator` ``G_a`` (a sum of
Kronecker terms over the factor axes) plus a dense cost vector, and a
boolean availability mask handles per-state action sets. Everything a
solver needs is expressed through ``G_a @ x`` matvecs:

- **value iteration** -- the uniformized backup
  ``w <- min_a [ c_a/L + w + (G_a w)/L ]`` costs one matvec per action
  per sweep, so 10^6-state models fit easily (the operand vectors are
  the only O(n) objects);
- **policy evaluation** -- the bordered dense/sparse system is replaced
  by the uniformized elimination form: with ``P = I + G_pi/L``, solve
  ``(I - P + 1 (P . )_ref) h = (c_pi - c_ref)/L`` by GMRES (the
  operator is nonsingular for unichain policies and ``h[ref] = 0``
  holds by construction), then recover the gain from the reference row:
  ``g = c_ref + (G_pi h)_ref``;
- **stationary distributions** -- GMRES on the transposed balance
  equations via ``rmatvec``, with the usual normalization row.

The solver loops themselves are the shared ones of
:mod:`repro.ctmdp.policy_iteration`, :mod:`repro.ctmdp.value_iteration`
and :mod:`repro.ctmdp.discounted`; :class:`KroneckerCTMDP` supplies
their linear algebra through the same methods as the dense and CSR
lowerings.

All three GMRES solves run through the shared solve ladder of
:mod:`repro.robust.guardrails` with this tier's one rung (:data:`LADDER`):
GMRES, warm-started from the previous round where the loop passes one.
A non-converged GMRES exit rejects the rung and the ladder raises its
typed :class:`~repro.errors.SolverError`.

Tolerance contract: GMRES runs to :data:`repro.ctmdp.sparse.KRYLOV_RTOL`
(1e-10). Policy and discounted evaluation then accept the solution only
if it also solves the original equations (``c + G h = g 1``, resp.
``(a I - G) v = c``) to a relative residual of ``RESIDUAL_RTOL``; the
stationary solve accepts on GMRES's own convergence. Small models are
cross-checked against the dense core by the equivalence suite.
"""

from __future__ import annotations

import itertools
import warnings
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, gmres

from repro.ctmdp.model import CTMDP
from repro.errors import (
    InvalidGeneratorError,
    InvalidModelError,
    InvalidPolicyError,
    NotIrreducibleError,
    SolverError,
)
from repro.ctmdp.sparse import GMRES_MAXITER, GMRES_RESTART, KRYLOV_RTOL
from repro.ctmdp.uniformization import APERIODICITY_SLACK
from repro.markov.generator import canonical_shift, normalize_distribution
from repro.markov.kron import KroneckerGenerator
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active
from repro.robust.guardrails import Ladder, Rung

#: ``KroneckerCTMDP.states`` refuses to materialize joint label tuples
#: beyond this many states -- at 10^6 states the label list would rival
#: the solver working set, defeating the matrix-free point.
LABEL_LIMIT = 300_000

#: Relative conservation tolerance of :meth:`KroneckerCTMDP.validate`:
#: row sums of every available generator row must vanish to this times
#: the operator's magnitude bound.
CONSERVATION_RTOL = 1e-9

#: Counter of Kronecker-factor operator applications (``matvec`` +
#: ``rmatvec``) -- the matrix-free tier's unit of solver work, the way
#: ``nnz``-weighted sweeps are the sparse tier's.
MATVEC_COUNTER = "solver.kron.matvecs"

#: Series of matrix-free GMRES residual trajectories: one row per
#: Krylov solve with the per-iteration preconditioned norms.
KRYLOV_SERIES = "solver.kron.krylov.residuals"

#: Gauge holding the uniformization rate (model units) of the most
#: recent uniformized kron solve -- the constant that scales every
#: sweep's contraction.
UNIFORMIZATION_GAUGE = "solver.kron.uniformization_rate"


def _count_matvecs(k: int = 1) -> None:
    """Bump the matvec counter (one guard read; no-op when disabled)."""
    ins = obs_active()
    if ins.enabled and ins.metrics is not None:
        ins.metrics.counter(MATVEC_COUNTER).inc(k)


class ArrayPolicy:
    """A stationary policy stored as a flat action-index array.

    Duck-types the :class:`repro.ctmdp.policy.Policy` surface the
    solvers and tests use (``action``, ``as_dict``, ``mdp``, equality)
    while staying O(n) ints -- joint label tuples are only materialized
    on explicit ``as_dict()`` calls, which :data:`LABEL_LIMIT` guards.
    """

    def __init__(self, kmdp: "KroneckerCTMDP", action_index: np.ndarray) -> None:
        self._mdp = kmdp
        self.action_index = np.asarray(action_index, dtype=np.intp)
        self.action_index.setflags(write=False)

    @property
    def mdp(self) -> "KroneckerCTMDP":
        return self._mdp

    def action(self, state: Hashable) -> Hashable:
        i = self._mdp.index_of(state)
        return self._mdp.action_set[self.action_index[i]]

    def as_dict(self) -> "Dict[Hashable, Hashable]":
        labels = self._mdp.states
        action_set = self._mdp.action_set
        return {
            labels[i]: action_set[a]
            for i, a in enumerate(self.action_index.tolist())
        }

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ArrayPolicy):
            return bool(np.array_equal(self.action_index, other.action_index))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.action_index.tobytes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ArrayPolicy(n={len(self.action_index)})"


class KroneckerCTMDP:
    """A CTMDP whose per-action generators are Kronecker-structured.

    Parameters
    ----------
    factor_states:
        Per-axis state-label tuples; the joint space is their Cartesian
        product with axis 0 varying slowest (``np.kron`` layout).
    actions:
        The global action-label tuple, shared across states; per-state
        availability comes from *available*. Per-state action order is
        the global order restricted to the available set.
    generators:
        One :class:`KroneckerGenerator` per action, all over the same
        axis layout. Rows of unavailable ``(action, state)`` pairs are
        never read by the solvers.
    costs:
        ``(n_actions, n)`` effective cost rates.
    available:
        Optional ``(n_actions, n)`` boolean mask; default all-true.
        Every state needs at least one available action.
    """

    def __init__(
        self,
        factor_states: Sequence[Sequence[Hashable]],
        actions: Sequence[Hashable],
        generators: Sequence[KroneckerGenerator],
        costs,
        available: Optional[np.ndarray] = None,
        rate_scale: float = 1.0,
    ) -> None:
        self.factor_states = tuple(tuple(fs) for fs in factor_states)
        self.dims = tuple(len(fs) for fs in self.factor_states)
        if any(d == 0 for d in self.dims):
            raise InvalidModelError("every factor needs at least one state")
        self.n_states = int(np.prod(self.dims))
        self.action_set: Tuple[Hashable, ...] = tuple(actions)
        self.n_actions = len(self.action_set)
        if self.n_actions == 0:
            raise InvalidModelError("model has no actions")
        self.generators: Tuple[KroneckerGenerator, ...] = tuple(generators)
        if len(self.generators) != self.n_actions:
            raise InvalidModelError(
                f"{len(self.generators)} generators for {self.n_actions} actions"
            )
        for gen in self.generators:
            if gen.dims != self.dims:
                raise InvalidModelError(
                    f"generator axis layout {gen.dims} does not match "
                    f"model layout {self.dims}"
                )
        self.costs = np.asarray(costs, dtype=float)
        if self.costs.shape != (self.n_actions, self.n_states):
            raise InvalidModelError(
                f"costs shape {self.costs.shape} does not match "
                f"({self.n_actions}, {self.n_states})"
            )
        if available is None:
            self.available = np.ones(
                (self.n_actions, self.n_states), dtype=bool
            )
        else:
            self.available = np.asarray(available, dtype=bool)
            if self.available.shape != (self.n_actions, self.n_states):
                raise InvalidModelError(
                    f"availability shape {self.available.shape} does not "
                    f"match ({self.n_actions}, {self.n_states})"
                )
        if not np.all(self.available.any(axis=0)):
            orphan = int(np.argmin(self.available.any(axis=0)))
            raise InvalidModelError(
                f"state index {orphan} has no available actions"
            )
        self.rate_scale = float(rate_scale)
        # Exit rates straight from the factored diagonals: O(K n).
        exit_rates = np.zeros((self.n_actions, self.n_states))
        for a, gen in enumerate(self.generators):
            exit_rates[a] = np.maximum(-gen.diagonal(), 0.0)
        exit_rates[~self.available] = 0.0
        self._exit_rates = exit_rates
        self._exit_rates.setflags(write=False)
        self.costs.setflags(write=False)
        self.available.setflags(write=False)
        self._states: Optional[Tuple[tuple, ...]] = None
        self._index: Optional[Dict[tuple, int]] = None

    # -- state labelling -----------------------------------------------------

    @property
    def states(self) -> "Tuple[tuple, ...]":
        """Joint state labels (guarded -- see :data:`LABEL_LIMIT`)."""
        if self._states is None:
            if self.n_states > LABEL_LIMIT:
                raise InvalidModelError(
                    f"refusing to materialize {self.n_states} joint state "
                    f"labels (limit {LABEL_LIMIT}); use state_label(i) for "
                    "point lookups"
                )
            self._states = tuple(itertools.product(*self.factor_states))
        return self._states

    def state_label(self, index: int) -> tuple:
        """Joint label of flat state *index* (mixed-radix decode)."""
        digits = []
        for dim in reversed(self.dims):
            digits.append(index % dim)
            index //= dim
        return tuple(
            fs[d] for fs, d in zip(self.factor_states, reversed(digits))
        )

    def index_of(self, state) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        try:
            return self._index[tuple(state)]
        except KeyError:
            raise InvalidPolicyError(f"unknown state {state!r}") from None

    def actions(self, state) -> "Tuple[Hashable, ...]":
        """Available actions of *state*, in global order."""
        i = self.index_of(state)
        return tuple(
            a for k, a in enumerate(self.action_set) if self.available[k, i]
        )

    # -- solver interface ----------------------------------------------------

    def validate(self) -> None:
        """Finiteness and conservation of every available generator row.

        Row sums come from one ``G_a @ 1`` matvec per action; only rows
        whose ``(action, state)`` pair is available are judged, since
        unavailable rows are never applied by any solver.
        """
        ones = np.ones(self.n_states)
        for a, gen in enumerate(self.generators):
            mask = self.available[a]
            if not mask.any():
                continue
            if not np.all(np.isfinite(self.costs[a][mask])):
                raise InvalidModelError(
                    f"non-finite cost under action {self.action_set[a]!r}"
                )
            row_sums = gen.matvec(ones)[mask]
            tol = CONSERVATION_RTOL * max(gen.max_abs_entry(), 1.0)
            if not np.all(np.isfinite(row_sums)):
                raise InvalidGeneratorError(
                    f"non-finite generator entries under action "
                    f"{self.action_set[a]!r}"
                )
            worst = float(np.max(np.abs(row_sums), initial=0.0))
            if worst > tol:
                raise InvalidGeneratorError(
                    f"generator rows of action {self.action_set[a]!r} are "
                    f"not conservative (max |row sum| {worst:.3g} > {tol:.3g})"
                )

    def max_exit_rate(self) -> float:
        return float(np.max(self._exit_rates, initial=0.0))

    def exit_rates(self) -> np.ndarray:
        """``(n_actions, n)`` exit rates (0 where unavailable)."""
        return self._exit_rates

    @property
    def canonical_shift(self) -> int:
        return canonical_shift(self.max_exit_rate())

    def selection(self, policy=None) -> np.ndarray:
        """Flat action-index array of *policy* (``ArrayPolicy`` or any
        object with ``as_dict``); the first available action per state
        (global order) when *policy* is ``None``."""
        if policy is None:
            return np.argmax(self.available, axis=0).astype(np.intp)
        if isinstance(policy, ArrayPolicy):
            return policy.action_index
        action_pos = {a: k for k, a in enumerate(self.action_set)}
        sel = np.empty(self.n_states, dtype=np.intp)
        assignment = policy.as_dict()
        for i, state in enumerate(self.states):
            try:
                sel[i] = action_pos[assignment[state]]
            except KeyError:
                raise InvalidPolicyError(
                    f"action {assignment.get(state)!r} is not a model action"
                ) from None
        if not np.all(self.available[sel, np.arange(self.n_states)]):
            bad = int(
                np.argmin(self.available[sel, np.arange(self.n_states)])
            )
            raise InvalidPolicyError(
                f"policy picks an unavailable action in state "
                f"{self.state_label(bad)!r}"
            )
        return sel

    def policy(self, mdp, sel: np.ndarray) -> ArrayPolicy:
        """The policy of action indices *sel* (*mdp* is this model)."""
        return ArrayPolicy(self, sel)

    def assignment_from_rows(self, sel: np.ndarray) -> "Dict[tuple, Hashable]":
        """The ``state -> action`` mapping of action indices *sel*,
        labelled by :meth:`state_label`, so it works past
        :data:`LABEL_LIMIT`."""
        return {
            self.state_label(i): self.action_set[a]
            for i, a in enumerate(sel.tolist())
        }

    def q_values(self, v: np.ndarray, canonical: bool = True) -> np.ndarray:
        """``(n_actions, n)`` test quantities ``c_a + G_a v`` of an
        improvement sweep, one matvec per action and +inf where an
        action is unavailable; canonical units by default (policy
        iteration's bias), model units with ``canonical=False``."""
        shift = self.canonical_shift
        test = np.full((self.n_actions, self.n_states), np.inf)
        for a in range(self.n_actions):
            mask = self.available[a]
            if not mask.any():
                continue
            _count_matvecs()
            values = self.costs[a] + self.generators[a].matvec(v)
            if canonical:
                values = np.ldexp(values, -shift)
            test[a, mask] = values[mask]
        return test

    def improve(
        self, test: np.ndarray, sel: np.ndarray, atol: float
    ) -> "tuple[np.ndarray, bool]":
        """One incumbent-rule improvement sweep over :meth:`q_values`.

        Same semantics as ``PairIndexedCTMDP.improve``: scanning actions
        in global order, a candidate displaces the running best only
        when smaller by more than ``atol``.
        """
        best_val = test[sel, np.arange(self.n_states)]
        best = sel.copy()
        for a in range(self.n_actions):
            column = test[a]
            better = (column < best_val - atol) & (sel != a)
            if np.any(better):
                best_val = np.where(better, column, best_val)
                best = np.where(better, a, best)
        return best, bool(np.any(best != sel))

    def uniformized_backup(self, lam: float):
        """The Bellman backup ``w -> min_a [c_a/lam + w + (G_a w)/lam]``
        at uniformization rate *lam*, as a function returning ``(new
        values, greedy action indices)``: one matvec per action, +inf
        where unavailable, strict first-wins argmin in global order."""
        ins = obs_active()
        if ins.metrics is not None:
            ins.metrics.gauge(UNIFORMIZATION_GAUGE).set(lam)
        n = self.n_states

        def backup(w: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            best_val = np.full(n, np.inf)
            best_act = np.zeros(n, dtype=np.intp)
            for a in range(self.n_actions):
                mask = self.available[a]
                if not mask.any():
                    continue
                _count_matvecs()
                values = (
                    self.costs[a] / lam
                    + w
                    + self.generators[a].matvec(w) / lam
                )
                values = np.where(mask, values, np.inf)
                better = values < best_val
                if np.any(better):
                    best_val = np.where(better, values, best_val)
                    best_act = np.where(better, a, best_act)
            return best_val, best_act

        return backup

    def evaluate(
        self,
        sel: np.ndarray,
        reference_state: int,
        x0: "Optional[np.ndarray]" = None,
    ) -> "tuple[float, np.ndarray]":
        """Gain and bias of the policy *sel*, fully matrix-free.

        Solves the uniformized elimination system (module doc) in
        canonical units with GMRES, warm-started from *x0*; the accepted
        solution is residual-checked against the original evaluation
        equations ``c + G h = g 1`` under the guardrail tolerance.
        """
        n = self.n_states
        if not 0 <= reference_state < n:
            raise InvalidPolicyError(
                f"reference state {reference_state} out of range"
            )
        shift = self.canonical_shift
        max_rate_can = float(np.ldexp(self.max_exit_rate(), -shift))
        lam = APERIODICITY_SLACK * max_rate_can if max_rate_can > 0 else 1.0
        ins = obs_active()
        if ins.enabled and ins.metrics is not None:
            ins.metrics.gauge(UNIFORMIZATION_GAUGE).set(
                float(np.ldexp(lam, shift))
            )
        with ins.span(
            "policy_evaluation", backend="kron", n_states=n
        ) as span:
            g_apply = _policy_generator_apply(self, sel)

            def g_can(x: np.ndarray) -> np.ndarray:
                # Canonical application is exact: 2**-shift times the matvec.
                return np.ldexp(g_apply(x), -shift)

            c_can = np.ldexp(self.costs[sel, np.arange(n)], -shift)
            c_ref = float(c_can[reference_state])

            def elimination(x: np.ndarray) -> np.ndarray:
                # A h = h - P h + (P h)_ref 1  with  P = I + G/lam.
                px = x + g_can(x) / lam
                return x - px + px[reference_state]

            def accept(h: np.ndarray):
                # Residual of the original evaluation equations.
                h = h - h[reference_state]
                gh = g_can(h)
                gain_can = c_ref + float(gh[reference_state])
                residual = c_can + gh - gain_can
                scale = (
                    max_rate_can * 2.0 * float(np.max(np.abs(h), initial=0.0))
                    + float(np.max(np.abs(c_can), initial=0.0))
                    + abs(gain_can)
                )
                rel = float(np.max(np.abs(residual), initial=0.0)) / max(
                    scale, 1e-300
                )
                return rel, (gain_can, h)

            operator = LinearOperator((n, n), matvec=elimination, dtype=float)
            gain_can, h = LADDER.solve(
                (_gmres_rung(operator, (c_can - c_ref) / lam, x0),),
                accept,
                what="matrix-free policy evaluation",
                context={"reference_state": reference_state},
                fields={"n": n},
            )
            gain = float(np.ldexp(gain_can, shift))
            span.attrs.update(gain=gain)
            return gain, h

    def evaluate_discounted(
        self,
        sel: np.ndarray,
        discount: float,
        x0: "Optional[np.ndarray]" = None,
    ) -> np.ndarray:
        """Values ``v`` solving ``(a I - G_pi) v = c_pi`` by GMRES,
        warm-started from *x0* (the operator is strictly diagonally
        dominant for ``a > 0``, so unpreconditioned Krylov converges
        reliably), residual-checked like :meth:`evaluate`."""
        n = self.n_states
        g_apply = _policy_generator_apply(self, sel)
        operator = LinearOperator(
            (n, n), matvec=lambda x: discount * x - g_apply(x), dtype=float
        )
        c = self.costs[sel, np.arange(n)]

        def accept(v: np.ndarray):
            residual = c + g_apply(v) - discount * v
            scale = (
                (self.max_exit_rate() * 2.0 + discount)
                * float(np.max(np.abs(v), initial=0.0))
                + float(np.max(np.abs(c), initial=0.0))
            )
            rel = float(np.max(np.abs(residual), initial=0.0)) / max(
                scale, 1e-300
            )
            return rel, v

        return LADDER.solve(
            (_gmres_rung(operator, c, x0),),
            accept,
            what="matrix-free discounted evaluation",
            context={"discount": discount},
            fields={"n": n},
        )

    def stationary(self, sel: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy *sel*, matrix-free.

        Same last-row-normalization formulation as the dense and sparse
        stationary solvers, with ``G_pi^T`` applied through per-factor
        transposes.
        """
        n = self.n_states
        shift = self.canonical_shift
        rapply = _policy_generator_rapply(self, sel)

        def balance(x: np.ndarray) -> np.ndarray:
            y = np.ldexp(rapply(x), -shift)
            y[-1] = x.sum()
            return y

        operator = LinearOperator((n, n), matvec=balance, dtype=float)
        b = np.zeros(n)
        b[-1] = 1.0
        x0 = np.full(n, 1.0 / n)
        try:
            with obs_active().span(
                "stationary_solve", backend="kron", n_states=n
            ):
                # GMRES's own convergence to KRYLOV_RTOL is the test.
                p = LADDER.solve(
                    (_gmres_rung(operator, b, x0),),
                    None,
                    what="matrix-free stationary solve",
                    fields={"n": n},
                )
        except SolverError as exc:
            raise NotIrreducibleError(
                "stationary distribution is not unique or does not exist: "
                + str(exc)
            ) from exc
        return normalize_distribution(p)

    # -- conversions ---------------------------------------------------------

    @classmethod
    def from_ctmdp(cls, mdp: CTMDP) -> "KroneckerCTMDP":
        """Single-axis wrapper of a dict-based model.

        The joint space is the model's own state set (one Kronecker
        axis), the global action set is the first-appearance-ordered
        union of per-state action sets, and each action's generator is
        the CSR matrix of its rows (zero rows where unavailable). This
        gives every CTMDP a matrix-free form for cross-checks and fuzz
        routing; per-state action order must be consistent with the
        global order for tie-breaking to match the dense core exactly.
        """
        mdp.validate()
        n = mdp.n_states
        action_set: List[Hashable] = []
        seen = set()
        for state in mdp.states:
            for action in mdp.actions(state):
                if action not in seen:
                    seen.add(action)
                    action_set.append(action)
        available = np.zeros((len(action_set), n), dtype=bool)
        costs = np.zeros((len(action_set), n))
        generators = []
        for k, action in enumerate(action_set):
            rows = []
            for i, state in enumerate(mdp.states):
                if action in mdp.actions(state):
                    available[k, i] = True
                    costs[k, i] = mdp.data(state, action).effective_cost_rate()
                    rows.append(
                        sp.csr_array(
                            mdp.generator_row(state, action).reshape(1, n)
                        )
                    )
                else:
                    rows.append(sp.csr_array((1, n)))
            csr = sp.csr_array(sp.vstack(rows, format="csr"))
            generators.append(
                KroneckerGenerator((n,), [(1.0, (csr,))])
            )
        model = cls(
            (tuple(mdp.states),),
            action_set,
            generators,
            costs,
            available=available,
            rate_scale=float(getattr(mdp, "rate_scale", 1.0)),
        )
        # Single-axis labels are 1-tuples; keep the original labels so
        # policies compare directly against the dense core's.
        model._states = tuple(mdp.states)
        model._index = {s: i for i, s in enumerate(mdp.states)}
        return model

    def to_ctmdp(self, limit: int = 2048) -> CTMDP:
        """Densify into a dict-based model (small cross-checks only)."""
        if self.n_states > limit:
            raise InvalidModelError(
                f"refusing to densify a {self.n_states}-state Kronecker "
                f"model (limit {limit})"
            )
        mdp = CTMDP(list(self.states), rate_scale=self.rate_scale)
        dense = [gen.to_csr().toarray() for gen in self.generators]
        for i, state in enumerate(self.states):
            for k, action in enumerate(self.action_set):
                if not self.available[k, i]:
                    continue
                rates = dense[k][i].copy()
                rates[i] = 0.0
                mdp.add_action(
                    state, action, rates=rates,
                    cost_rate=float(self.costs[k, i]),
                )
        return mdp

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KroneckerCTMDP(dims={self.dims!r}, n_states={self.n_states}, "
            f"n_actions={self.n_actions})"
        )


def kron_farm_model(
    n_queues: int,
    queue_capacity: int,
    arrival: float = 0.5,
    service: float = 2.0,
    speeds: "Sequence[float]" = (1.0, 3.0),
    powers: "Sequence[float]" = (1.0, 3.0),
    weight: float = 1.0,
) -> KroneckerCTMDP:
    """A multi-queue server-farm CTMDP in pure tensor-sum form.

    ``n_queues`` independent M/M/1/C queues share a global service-speed
    action: action ``a`` scales every queue's service rate by
    ``speeds[a]`` at power cost ``powers[a]``, and the cost rate adds
    ``weight`` times the total queue occupancy. The joint generator of
    each action is the K-fold tensor sum of birth-death factors, so the
    model scales to ``(capacity+1)^n_queues`` states with O(K * C)
    stored rate entries -- the scaling-bench workhorse for the
    matrix-free tier.
    """
    if n_queues < 1 or queue_capacity < 1:
        raise InvalidModelError("need at least one queue of capacity >= 1")
    if len(speeds) != len(powers):
        raise InvalidModelError("speeds and powers must align")
    m = queue_capacity + 1
    actions = tuple(f"speed-{s:g}" for s in speeds)

    def birth_death(mu: float) -> "sp.csr_array":
        gen = np.zeros((m, m))
        for q in range(queue_capacity):
            gen[q, q + 1] = arrival
            gen[q + 1, q] = mu
        np.fill_diagonal(gen, -gen.sum(axis=1))
        return sp.csr_array(gen)

    generators = [
        KroneckerGenerator.tensor_sum(
            [birth_death(service * speed)] * n_queues
        )
        for speed in speeds
    ]
    # Total occupancy sum_k q_k, lifted axis by axis (O(K n) build).
    occupancy = np.zeros(m ** n_queues)
    occ_factor = np.arange(m, dtype=float)
    for k in range(n_queues):
        occupancy += np.kron(
            np.ones(m ** k),
            np.kron(occ_factor, np.ones(m ** (n_queues - 1 - k))),
        )
    costs = np.stack(
        [power + weight * occupancy for power in powers]
    )
    factor_states = (tuple(range(m)),) * n_queues
    return KroneckerCTMDP(factor_states, actions, generators, costs)


# -- matrix-free solver machinery --------------------------------------------


def _policy_generator_apply(kmdp: KroneckerCTMDP, sel: np.ndarray):
    """``x -> G_pi x`` for the policy picking action ``sel[i]`` in state
    ``i``: one per-action matvec, rows gathered by the selection mask."""
    masks = [
        (a, sel == a)
        for a in np.unique(sel)
    ]

    def apply(x: np.ndarray) -> np.ndarray:
        _count_matvecs(len(masks))
        y = np.empty_like(x)
        for a, mask in masks:
            y[mask] = kmdp.generators[a].matvec(x)[mask]
        return y

    return apply


def _policy_generator_rapply(kmdp: KroneckerCTMDP, sel: np.ndarray):
    """``x -> G_pi^T x`` via ``G_pi^T = sum_a G_a^T D_a``."""
    masks = [(a, sel == a) for a in np.unique(sel)]

    def apply(x: np.ndarray) -> np.ndarray:
        _count_matvecs(len(masks))
        y = np.zeros_like(x)
        for a, mask in masks:
            xa = np.where(mask, x, 0.0)
            y += kmdp.generators[a].rmatvec(xa)
        return y

    return apply


#: The Kronecker tier's one rung: warm-started GMRES on the matrix-free
#: operator, unpreconditioned.
LADDER = Ladder(
    "kron",
    (Rung("gmres", "GMRES", "solver.kron.gmres_solves"),),
    get_logger("ctmdp.kron"),
    span="gmres_solve",
    series=KRYLOV_SERIES,
)


def _gmres_rung(operator, b: np.ndarray, x0: "Optional[np.ndarray]"):
    """GMRES on *operator* to the documented Krylov target, warm-started
    from *x0*; a non-converged exit rejects the rung."""

    def solve(callback, details) -> np.ndarray:
        details["warm_started"] = x0 is not None
        ins = obs_active()
        if x0 is not None and ins.enabled and ins.metrics is not None:
            # Warm-started from a previous round's solution (the
            # cross-solve reuse layer's matrix-free leg).
            ins.metrics.counter("solver.reuse.gmres_warm_starts").inc()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x, info = gmres(
                operator, b, x0=x0, rtol=KRYLOV_RTOL, atol=0.0,
                restart=GMRES_RESTART, maxiter=GMRES_MAXITER,
                callback=callback, callback_type="pr_norm",
            )
        details["gmres_info"] = int(info)
        if info != 0:
            raise RuntimeError(f"GMRES did not converge (info={int(info)})")
        return x

    return solve


def policy_iteration_kron(
    kmdp: KroneckerCTMDP,
    initial_policy=None,
    max_iterations: int = 1000,
    atol: float = 1e-9,
    reference_state: int = 0,
    time_budget_s: "Optional[float]" = None,
):
    """Howard policy iteration with matrix-free evaluation sweeps: the
    shared loop of :mod:`repro.ctmdp.policy_iteration` on this tier."""
    from repro.ctmdp.policy_iteration import _policy_iteration

    return _policy_iteration(
        kmdp, "kron", initial_policy, max_iterations, atol, reference_state,
        time_budget_s,
    )
