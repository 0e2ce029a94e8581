"""The joint power-managed system (SYS) model of Section III.

The SYS is the composition of the SP and SQ processes over the state set

``X = S x Q_stable  U  S_active x Q_transfer``

(Section III): every SP mode pairs with every stable queue state, while
transfer states only pair with *active* modes (a transfer state begins
at a service completion, which only an active mode can produce).

Actions are destination SP modes. The transition mechanics are:

stable ``(s, q_i)`` under action ``a``:

- *arrival* ``-> (s, q_{i+1})`` at rate ``lambda`` (``i < Q``; at
  ``i = Q`` the arrival is lost -- no transition, tracked as a loss
  rate),
- *mode switch* ``-> (a, q_i)`` at rate ``chi[s, a]`` when ``a != s``,
  paying ``ene(s, a)``,
- *service completion* ``-> (s, q_{i -> i-1})`` at rate ``mu(s)`` when
  ``i >= 1`` and ``s`` is active;

transfer ``(s, q_{i -> i-1})`` under action ``a``:

- *switch completion* ``-> (a, q_{i-1})`` at rate ``chi[s, a]`` paying
  ``ene(s, a)`` -- the SQ leaves the transfer state exactly when the SP
  transition completes (the paper's concurrency constraint). For
  ``a == s`` the paper's rate is infinite (instantaneous self-switch);
  we use the provider's large finite ``self_switch_rate`` stand-in,
- *arrival* ``-> (s, q_{i+1 -> i})`` at rate ``lambda`` (``i < Q``; the
  paper leaves the ``i = Q`` boundary unspecified "for brevity" -- we
  drop such arrivals as lost, which keeps the generator conservative).

Action-validity constraints (Section III):

1. In a stable state an active SP may not switch to an inactive mode
   (service must not be interrupted).
2. In stable ``q_Q`` (full queue) an inactive SP may not move to an
   inactive mode with a longer wakeup time. We apply the strict form --
   the destination must be active or have *strictly shorter* wakeup
   time -- so that every admissible policy makes progress toward an
   active mode at a full queue, guaranteeing a unichain joint process
   (the paper's stated purpose for this constraint).
3. In transfer ``q_{Q -> Q-1}`` an active SP may not move to an active
   mode with a longer service time.

One vectorized assembly (:meth:`PowerManagedSystemModel._assemble`)
builds the SYS as CSR rows (:class:`~repro.ctmdp.sparse.SparseCTMDP`,
each exit rate summed over its row in ascending column order). The
CSR build is those rows with the weight's costs; the dict build wraps
the CSR build of its weight and adds only the per-pair data that the
reference tier reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.ctmdp.model import CTMDP
from repro.dpm import cost as cost_channels
from repro.dpm.service_provider import ServiceProvider
from repro.dpm.service_queue import STABLE, TRANSFER, QueueState, stable, transfer
from repro.dpm.service_requestor import ServiceRequestor
from repro.errors import InvalidModelError


@dataclass(frozen=True, order=True)
class SystemState:
    """A joint SYS state ``x = (s, q)``."""

    mode: str
    queue: QueueState

    def __repr__(self) -> str:
        return f"({self.mode},{self.queue!r})"


@dataclass(frozen=True)
class SystemLabels:
    """The label key of a SYS state space, and the factory of its labels.

    The joint states are a pure function of the provider's modes, the
    active modes that pair with transfer states (none without transfer
    states) and the capacity. Calling the key lists them as
    :attr:`PowerManagedSystemModel.states` does, ``S x Q_stable`` first,
    then ``S_active x Q_transfer``. Two keys compare equal exactly when
    their lists do, so :func:`repro.ctmdp.policy.same_states` compares
    keys and builds no label. It holds no model: a CSR build keeps it as
    its label factory without a reference back, and it pickles.
    """

    modes: Tuple[str, ...]
    transfer_modes: Tuple[str, ...]
    capacity: int

    @property
    def n_states(self) -> int:
        """``|S|·(Q+1) + |S_active|·Q`` with transfer states, ``|S|·(Q+1)``
        without: the state count, read off the grid."""
        return (len(self.modes) * (self.capacity + 1)
                + len(self.transfer_modes) * self.capacity)

    def __call__(self) -> "List[SystemState]":
        # One QueueState per queue state, shared by every mode it pairs
        # with (the states compare and hash by value either way).
        levels = [stable(i) for i in range(self.capacity + 1)]
        states = [SystemState(mode, q) for mode in self.modes for q in levels]
        transfers = [transfer(i) for i in range(1, self.capacity + 1)]
        states.extend(SystemState(mode, q)
                      for mode in self.transfer_modes for q in transfers)
        return states


def build_backend(backend: str) -> str:
    """The :meth:`PowerManagedSystemModel.build_ctmdp` backend a solver
    *backend* runs on: ``compiled`` and ``reference`` read the dict
    build; ``auto`` and ``sparse`` build what they name, and ``kron``
    passes through so ``build_ctmdp`` raises its typed
    SYS-has-no-tensor-structure error."""
    return "dense" if backend in ("compiled", "reference") else backend


class PowerManagedSystemModel:
    """The SYS controllable Markov process and its CTMDP builder.

    Parameters
    ----------
    provider:
        The SP model.
    requestor:
        The SR model (supplies the arrival rate ``lambda``).
    capacity:
        Queue capacity ``Q``; requests arriving at a full queue are
        lost.
    include_transfer_states:
        ``True`` (default) builds the paper's model. ``False`` builds
        the ablation variant in the spirit of [11]: no transfer states,
        service completions go directly ``q_i -> q_{i-1}``, and
        constraint (1) is dropped (the SP may power down mid-service --
        exactly the inaccuracy the transfer states remove).
    rate_scale:
        Time-unit rescaling applied to every built CTMDP: transition
        and cost *rates* are multiplied by this factor, while pure
        costs (switching energies) and dimensionless observables (the
        extra-cost channels) stay in original units. Policies, biases
        and stationary distributions are invariant; solver gains come
        out multiplied by ``rate_scale``. The admission remediation
        ladder uses exact powers of two, for which the whole transform
        is exact on IEEE-754 floats -- dividing a gain by
        ``rate_scale`` recovers the original-unit value bit-for-bit.
    """

    #: Name of the extra-cost channel carrying the effective power rate.
    POWER = cost_channels.POWER
    #: Name of the extra-cost channel carrying the delay cost C_sq.
    QUEUE_LENGTH = cost_channels.QUEUE_LENGTH
    #: Name of the extra-cost channel carrying the request-loss rate.
    LOSS = cost_channels.LOSS

    #: Number of per-weight CTMDPs kept by :meth:`build_ctmdp`.
    CTMDP_CACHE_SIZE = 16

    def __init__(
        self,
        provider: ServiceProvider,
        requestor: ServiceRequestor,
        capacity: int,
        include_transfer_states: bool = True,
        rate_scale: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise InvalidModelError(f"queue capacity must be >= 1, got {capacity}")
        if not (np.isfinite(rate_scale) and rate_scale > 0.0):
            raise InvalidModelError(
                f"rate_scale must be finite and positive, got {rate_scale!r}"
            )
        self.provider = provider
        self.requestor = requestor
        self.capacity = int(capacity)
        self.include_transfer_states = bool(include_transfer_states)
        self.rate_scale = float(rate_scale)
        # Entry-level admission: cheap input-domain checks shared with
        # every other entry point (lazy import -- repro.robust.admission
        # itself builds models through this class at deeper levels).
        from repro.robust.admission import admit_inputs

        admit_inputs(provider, requestor, self.capacity)
        #: The :class:`SystemLabels` this model's states are listed by.
        self.label_key = SystemLabels(
            tuple(provider.modes),
            tuple(provider.active_modes) if self.include_transfer_states else (),
            self.capacity,
        )
        # The label views, each built on its first read: the SystemState
        # list, its index, and the (mode, kind, index) keys. Nothing on
        # the solve and serve path reads the first two (DESIGN §10.2).
        self._states: "List[SystemState] | None" = None
        self._index: "Dict[SystemState, int] | None" = None
        self._keys: "List[Tuple[str, str, int]] | None" = None
        # Weight-independent per-pair data of the dict-based build (its
        # off-diagonal slices, impulses and extra dicts), sliced lazily
        # from the sparse skeleton.
        self._structure: "tuple | None" = None
        # Weight-independent sparse skeleton: a structural SparseCTMDP
        # (CSR pattern, rates, extra channels) plus the per-pair cost
        # decomposition; per-weight builds overlay costs onto it.
        self._sparse_skeleton: "tuple | None" = None
        # LRU of built CTMDPs, keyed per (weight, backend) pair -- a
        # dense and a sparse build of the same weight coexist and share
        # one CSR (the dict build's pair_table). Each
        # cached model carries its own lowering, so workflows that
        # re-solve the same weight (frontier bisection, constrained
        # search) skip both the Python construction and the lowering.
        self._ctmdp_cache: "OrderedDict[Tuple[float, str], CTMDP]" = (
            OrderedDict()
        )
        # One-entry slot of ``(rate, sibling)``: the last re-rated clone
        # handed out by repro.dpm.adaptive.rated_model, so one supervised
        # re-solve's solve, admission gate and certificate share its
        # assembly, built CTMDPs and lowerings.
        self._rated: "tuple | None" = None

    # -- state space -----------------------------------------------------------

    def _labels(self) -> "List[SystemState]":
        """The state list, built from :attr:`label_key` on first read."""
        if self._states is None:
            self._states = self.label_key()
        return self._states

    @property
    def states(self) -> "List[SystemState]":
        """All joint states, stable block first."""
        return list(self._labels())

    @property
    def n_states(self) -> int:
        return self.label_key.n_states

    def index_of(self, state: SystemState) -> int:
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self._labels())}
        try:
            return self._index[state]
        except KeyError:
            raise InvalidModelError(f"unknown system state {state!r}") from None

    # -- action validity ---------------------------------------------------------

    def is_valid_action(self, state: SystemState, action: str) -> bool:
        """Apply the Section-III constraints (see module docstring)."""
        sp = self.provider
        if action not in sp.modes:
            return False
        s, q = state.mode, state.queue
        if q.is_stable:
            if (
                self.include_transfer_states
                and sp.is_active(s)
                and not sp.is_active(action)
            ):
                return False  # constraint (1): never interrupt service
            if q.index == self.capacity and not sp.is_active(s):
                # constraint (2), strict form: make progress toward active.
                if not sp.is_active(action) and not (
                    sp.wakeup_time(action) < sp.wakeup_time(s)
                ):
                    return False
            return True
        # transfer state: only reachable with s active
        if q.index == self.capacity and sp.is_active(action):
            # constraint (3): no slower active mode at a nearly full queue.
            if sp.service_time(action) > sp.service_time(s):
                return False
        return True

    def valid_actions(self, state: SystemState) -> "List[str]":
        """Valid destination modes, provider order."""
        actions = [a for a in self.provider.modes if self.is_valid_action(state, a)]
        if not actions:  # pragma: no cover - constraints always leave active modes
            raise InvalidModelError(f"state {state!r} has no valid action")
        return actions

    def _state_grid(self) -> tuple:
        """``(mode, level, in_transfer)`` arrays in :attr:`states` order.

        Each state's mode index (provider order), its queue index (``i``
        of ``q_i`` or of ``q_{i -> i-1}``) and whether it is a transfer
        state: the :class:`SystemLabels` layout, ``S x Q_stable`` first,
        then ``S_active x Q_transfer``.
        """
        key, cap = self.label_key, self.capacity
        n_modes, levels = len(key.modes), cap + 1
        transfer_modes = np.array(
            [key.modes.index(m) for m in key.transfer_modes], dtype=np.intp)
        mode = np.concatenate([np.repeat(np.arange(n_modes), levels),
                               np.repeat(transfer_modes, cap)])
        level = np.concatenate([np.tile(np.arange(levels), n_modes),
                                np.tile(np.arange(1, levels), len(transfer_modes))])
        in_transfer = np.arange(len(mode)) >= n_modes * levels
        return mode, level, in_transfer

    def state_keys(self) -> "List[Tuple[str, str, int]]":
        """Each state's ``(mode, kind, index)`` triple, in :attr:`states` order.

        The serving layer's table key (the artifact's states and the
        heuristic rung), built once from the state grid with NumPy
        rather than read off each :class:`SystemState`; each call
        returns a fresh copy of that list.
        """
        if self._keys is None:
            mode, level, in_transfer = self._state_grid()
            # Object arrays hand out shared objects: the provider's mode
            # names (hashes cached) and one int per queue index.
            names = np.array(self.label_key.modes, dtype=object)[mode]
            kinds = np.array([STABLE, TRANSFER],
                             dtype=object)[in_transfer.astype(np.intp)]
            index = np.arange(self.capacity + 1, dtype=object)[level]
            self._keys = list(zip(names.tolist(), kinds.tolist(), index.tolist()))
        return list(self._keys)

    def validity_grid(self) -> tuple:
        """The state grid and its action-validity mask, as arrays.

        Returns ``(mode, level, in_transfer, invalid)`` in :attr:`states`
        order: the :meth:`_state_grid` arrays and the
        ``(n_states, n_modes)`` mask of the
        destination modes :meth:`is_valid_action` rejects -- III.1-III.3
        evaluated over the grid in O(states x modes) NumPy. A subclass
        that redefines :meth:`is_valid_action` (the fuzzer's
        unconstrained models) gets its own rule, state by state. SYS
        assembly and the heuristic policies both read validity here.
        """
        sp, cap = self.provider, self.capacity
        modes = sp.modes
        mode, level, in_transfer = self._state_grid()
        if type(self).is_valid_action is not PowerManagedSystemModel.is_valid_action:
            invalid = ~np.array([[self.is_valid_action(x, m) for m in modes]
                                 for x in self._labels()], dtype=bool)
            return mode, level, in_transfer, invalid
        active, wake, service = (np.array([f(m) for m in modes])
                                 for f in (sp.is_active, sp.wakeup_time,
                                           sp.service_time))
        full = (level == cap)[:, None]
        s_active, a_active = active[mode][:, None], active[None, :]
        invalid = np.where(
            in_transfer[:, None],
            full & a_active & (service[None, :] > service[mode][:, None]),  # III.3
            (self.include_transfer_states & s_active & ~a_active)  # III.1
            | (full & ~s_active & ~a_active
               & ~(wake[None, :] < wake[mode][:, None])),  # III.2
        )
        return mode, level, in_transfer, invalid

    # -- transition mechanics ---------------------------------------------------

    def transition_rates(
        self, state: SystemState, action: str
    ) -> "Dict[SystemState, float]":
        """Outgoing rates of *state* under *action* (no validity check).

        Exposed separately from :meth:`build_ctmdp` so that structural
        tests can compare these mechanics against the paper's tensor
        construction block by block.
        """
        sp = self.provider
        lam = self.requestor.rate
        s, q = state.mode, state.queue
        rates: Dict[SystemState, float] = {}

        def add(dest: SystemState, rate: float) -> None:
            if rate > 0.0:
                rates[dest] = rates.get(dest, 0.0) + rate

        if q.is_stable:
            if q.index < self.capacity:
                add(SystemState(s, stable(q.index + 1)), lam)
            if action != s:
                add(SystemState(action, q), sp.switching_rate(s, action))
            mu = sp.service_rate(s)
            if mu > 0.0 and q.index >= 1:
                if self.include_transfer_states:
                    add(SystemState(s, transfer(q.index)), mu)
                else:
                    add(SystemState(s, stable(q.index - 1)), mu)
        else:
            add(
                SystemState(action, stable(q.index - 1)),
                sp.switching_rate(s, action),
            )
            if q.index < self.capacity:
                add(SystemState(s, transfer(q.index + 1)), lam)
        return rates

    def loss_rate(self, state: SystemState) -> float:
        """Rate at which arriving requests are lost in *state*."""
        if state.queue.index == self.capacity:
            return self.requestor.rate
        return 0.0

    def effective_power_rate(self, state: SystemState, action: str) -> float:
        """``C_pow(x, a) = pow(s) + sum_{s'} s_{s,s'}(a) ene(s, s')``.

        The switching-energy impulse is folded into an equivalent rate,
        exactly as in Section III.
        """
        sp = self.provider
        total = sp.power_rate(state.mode)
        if state.queue.is_stable:
            if action != state.mode:
                total += sp.switching_rate(state.mode, action) * sp.switching_energy(
                    state.mode, action
                )
        else:
            total += sp.switching_rate(state.mode, action) * sp.switching_energy(
                state.mode, action
            )
        return total

    def delay_cost(self, state: SystemState) -> float:
        """``C_sq(x)``: the number of waiting requests in *state*."""
        return float(state.queue.waiting_count)

    # -- CTMDP construction ------------------------------------------------------

    def _assemble(self) -> tuple:
        """The weight-independent SYS layout, in O(pairs) NumPy over the
        ``(mode, queue)`` index grid (DESIGN §10.2).

        Returns ``(skeleton, base_power, delay, term_pairs, term_vals)``:
        ``skeleton`` is the off-diagonal COO triples lowered by
        :meth:`SparseCTMDP.from_coo` (CSR rates, pair indexing, extra
        channels; costs all zero -- never solved directly), and the
        arrays decompose each pair's effective cost rate: ``base_power``
        is ``scale * pow(s)``, ``delay`` the ``C_sq`` count, and
        ``(term_pairs, term_vals)`` the folded switching-energy terms
        ``scaled_rate * ene``. Bit-identical to walking every pair
        through the per-state methods above: pairs in state order with
        actions in provider order, each pair's entries in ascending
        destination index -- the order ``from_coo`` sums diagonals in
        and the cost overlay adds energy terms in.
        """
        from repro.ctmdp.sparse import SparseCTMDP

        sp, cap, lam, scale = (self.provider, self.capacity,
                               self.requestor.rate, self.rate_scale)
        modes = sp.modes
        n_modes, levels, n = len(modes), cap + 1, self.n_states
        # switching_rate carries the self-switch stand-in on its diagonal.
        chi = np.array([[sp.switching_rate(s, a) for a in modes] for s in modes])
        ene = np.array([[sp.switching_energy(s, a) for a in modes] for s in modes])
        mu, power = (np.array([f(m) for m in modes])
                     for f in (sp.service_rate, sp.power_rate))
        active = mu > 0.0
        mode, level, is_transfer, invalid = self.validity_grid()
        if np.any(invalid.all(axis=1)):
            state = self._labels()[int(np.argmax(invalid.all(axis=1)))]
            raise InvalidModelError(f"state {state!r} has no valid action")
        x, a = np.nonzero(~invalid)
        keys = (~invalid * (1 << np.arange(n_modes))).sum(axis=1).tolist()
        named = {k: tuple(m for j, m in enumerate(modes) if k >> j & 1)
                 for k in set(keys)}
        s, i, tr = mode[x], level[x], is_transfer[x]
        # Candidate edges per pair, columns (arrival, switch, service):
        # arrivals move one queue level up within the mode's block; a
        # switch lands on (a, q_i) from stable, (a, q_{i-1}) from
        # transfer; a stable completion enters (s, q_{i->i-1}), or
        # (s, q_{i-1}) without transfer states.
        completion = (
            n_modes * levels + (np.cumsum(active) - 1)[s] * cap + i - 1
            if self.include_transfer_states else x - 1
        )
        dest = np.stack([x + 1, a * levels + i - tr, completion], axis=1)
        rate = np.stack([np.full(len(x), lam), chi[s, a], mu[s]], axis=1)
        present = np.stack([i < cap, tr | (a != s), ~tr & (i >= 1)], axis=1)
        dest = np.where(present & (rate > 0.0), dest, n)  # n sorts last
        flat = (3 * np.arange(len(x))[:, None]
                + np.argsort(dest, axis=1, kind="stable")).ravel()
        flat = flat[dest.ravel()[flat] < n]
        rows, kind = np.divmod(flat, 3)
        rates = rate.ravel()[flat] * scale if scale != 1.0 else rate.ravel()[flat]
        switch = (kind == 1) & (a != s)[rows]  # entries that change mode
        delay = (i - tr).astype(float)
        extra = {
            self.POWER: np.where(tr | (a != s),
                                 power[s] + chi[s, a] * ene[s, a], power[s]),
            self.QUEUE_LENGTH: delay,
            self.LOSS: np.where(i == cap, lam, 0.0),
        }
        skeleton = SparseCTMDP.from_coo(
            self.label_key, [named[k] for k in keys], rows, dest.ravel()[flat],
            rates, np.zeros(len(x)), rate_scale=scale, extra=extra,
        )
        term_pairs = rows[switch]
        term_vals = rates[switch] * ene[s, a][term_pairs]
        return skeleton, scale * power[s], delay, term_pairs, term_vals

    def _sparse_skeleton_parts(self) -> tuple:
        """:meth:`_assemble`, cached across weights and backends."""
        from repro.obs.runtime import active as obs_active

        hit = self._sparse_skeleton is not None
        if not hit:
            self._sparse_skeleton = self._assemble()
        ins = obs_active()
        if ins.enabled and ins.metrics is not None:
            ins.metrics.counter(
                f"solver.reuse.skeleton_{'hits' if hit else 'builds'}"
            ).inc()
        return self._sparse_skeleton

    def _dict_rows(self) -> tuple:
        """What a dict build holds beyond its CSR rows, sliced from the
        skeleton in O(nnz); cached, and shared by every dict CTMDP this
        model builds.

        Returns ``(off_diagonal, impulses, extra, costs)``:

        - ``off_diagonal``: the skeleton's off-diagonal entries
          (:meth:`~repro.ctmdp.sparse.SparseCTMDP.off_diagonal`), which
          each pair's :class:`~repro.ctmdp.model.StateActionData` views;
        - ``impulses``: the switching energy at each entry (``ene`` is
          zero on its diagonal: same-mode edges carry no impulse);
        - ``extra``: each pair's extra-cost dict;
        - ``costs``: the skeleton's cost decomposition
          (:meth:`_weighted_cost`).
        """
        if self._structure is None:
            skeleton, *costs = self._sparse_skeleton_parts()
            indptr, cols, vals = skeleton.off_diagonal()
            rows = np.repeat(np.arange(skeleton.n_pairs), np.diff(indptr))
            sp = self.provider
            mode = self._state_grid()[0]
            ene = np.array([[sp.switching_energy(s, a) for a in sp.modes]
                            for s in sp.modes])
            impulses = ene[mode[skeleton.pair_state[rows]], mode[cols]]
            extra = [dict(zip(skeleton.extra, v))
                     for v in zip(*(ch.tolist() for ch in skeleton.extra.values()))]
            self._structure = ((indptr, cols, vals), impulses, extra, costs)
        return self._structure

    def _weighted_cost(self, costs, weight: float) -> tuple:
        """Each pair's ``c_ii`` and its effective cost rate at *weight*,
        from the ``(base_power, delay, term_pairs, term_vals)`` cost
        decomposition of :meth:`_assemble`.

        ``c_ii = scale * power + (scale * weight) * queue``; the
        effective rate adds each folded energy term in destination-index
        order (``np.add.at`` accumulates in index order). A SYS row has
        at most one mode-changing edge, so this equals the dict model's
        ``c_ii + rates @ impulses`` bit for bit.
        """
        base_power, delay, term_pairs, term_vals = costs
        cost_rate = base_power + (self.rate_scale * weight) * delay
        cost = cost_rate.copy()
        np.add.at(cost, term_pairs, term_vals)
        return cost_rate, cost

    def _build_sparse_ctmdp(self, weight: float):
        """COO-direct sparse construction -- nothing of size
        ``O(pairs x states)`` is ever allocated, so SYS models with
        10^5+ states (large queue capacities) stay buildable.

        Split into the cached weight-independent skeleton
        (:meth:`_sparse_skeleton_parts`) plus a per-weight cost overlay:
        sibling models share every structural array, so a frontier sweep
        assembles once and each additional weight costs two O(pairs)
        vector ops. A cached dict build of *weight* already holds this
        build as its rows and hands them out, so one weight has one CSR.
        """
        twin = self._ctmdp_cache.get((float(weight), "dense"))
        if twin is not None:
            return twin.pair_table()
        skeleton, *costs = self._sparse_skeleton_parts()
        return skeleton.with_cost(self._weighted_cost(costs, weight)[1])

    def _build_dict_ctmdp(self, weight: float) -> CTMDP:
        """The dict-based build: the CSR build of *weight* (its
        :meth:`~repro.ctmdp.model.CTMDP.pair_table`) plus the per-pair
        :class:`~repro.ctmdp.model.StateActionData` the reference tier
        reads, which view :meth:`_dict_rows`."""
        twin = self._ctmdp_cache.get((float(weight), "sparse"))
        rows = twin if twin is not None else self._build_sparse_ctmdp(weight)
        off_diagonal, impulses, extra, costs = self._dict_rows()
        # Time rescaling: rates (already scaled by _assemble) and cost
        # *rates* get the factor; the folded cost scale * power +
        # (scale * weight) * queue equals scale * (power + weight *
        # queue) bit-for-bit when the factor is a power of two. Impulse
        # energies are pure costs (their contribution scales through the
        # rate they multiply), and the extra channels stay in original
        # observable units.
        cost_rate = self._weighted_cost(costs, weight)[0]
        return CTMDP.from_rows(rows, off_diagonal, cost_rate, impulses, extra)

    def build_ctmdp(self, weight: float = 0.0, backend: str = "dense") -> CTMDP:
        """Build the SYS CTMDP with cost ``C_pow + weight * C_sq``.

        The returned model also carries extra-cost channels ``"power"``,
        ``"queue_length"`` and ``"loss"`` for constrained optimization
        and post-hoc metric evaluation.

        ``backend="sparse"`` builds a
        :class:`~repro.ctmdp.sparse.SparseCTMDP` directly from COO
        triples, with no per-pair Python objects at all -- the way to
        build SYS models beyond ~10^4 states. ``backend="dense"``
        (default) builds the dict-based :class:`CTMDP` around the CSR
        build of the same weight: its
        :meth:`~repro.ctmdp.model.CTMDP.pair_table` *is*
        ``build_ctmdp(weight, backend="sparse")``, so both builds share
        one assembly, one CSR and one exit rate per pair, and add only
        the per-pair data the reference tier reads. ``backend="auto"`` builds
        the representation :func:`repro.ctmdp.backends.auto_tier` gives
        the state count, the tier ``auto`` then solves it on.
        ``backend="kron"`` is rejected with a typed error: the SYS
        transfer states (Section III) couple the mode and queue axes, so
        the joint generator has no tensor-sum structure to exploit.

        Built models are cached per (weight, backend) pair (a small
        LRU), so repeated calls with the same weight return the *same*
        model instance -- treat it as immutable, which
        :meth:`CTMDP.add_action` enforces for existing pairs anyway. The
        weight-independent rows are additionally shared across dict
        builds, so a frontier sweep assembles the layout once.
        """
        if not np.isfinite(weight):
            raise InvalidModelError(f"performance weight must be finite, got {weight}")
        if weight < 0:
            raise InvalidModelError(f"performance weight must be >= 0, got {weight}")
        if backend in ("kron",):
            from repro.errors import SolverError

            raise SolverError(
                "SYS models have no Kronecker form: transfer states couple "
                "the service-provider and queue axes (build with "
                "backend='sparse' for large capacities instead)"
            )
        if backend not in ("dense", "sparse", "auto"):
            from repro.errors import SolverError

            raise SolverError(
                f"unknown build backend {backend!r}; choose 'dense', "
                "'sparse' or 'auto'"
            )
        if backend == "auto":
            from repro.ctmdp.backends import auto_tier

            tier, _ = auto_tier(self.n_states)
            backend = "sparse" if tier == "sparse" else "dense"
        key = (float(weight), backend)
        cached = self._ctmdp_cache.get(key)
        if cached is not None:
            self._ctmdp_cache.move_to_end(key)
            return cached
        built = (self._build_sparse_ctmdp(weight) if backend == "sparse"
                 else self._build_dict_ctmdp(weight))
        self._ctmdp_cache[key] = built
        while len(self._ctmdp_cache) > self.CTMDP_CACHE_SIZE:
            self._ctmdp_cache.popitem(last=False)
        return built

    def clear_caches(self) -> None:
        """Drop every derived cache: built CTMDPs, the dict rows,
        the sparse skeleton and the re-rated sibling. Subsequent builds
        pay the full construction cost -- what benchmarks use to
        measure a genuinely cold leg against the reuse layer."""
        self._structure = None
        self._sparse_skeleton = None
        self._ctmdp_cache = OrderedDict()
        self._rated = None

    def __getstate__(self) -> dict:
        """Pickle without the derived caches and label views (rebuilt
        lazily on demand)."""
        state = self.__dict__.copy()
        state["_states"] = state["_index"] = state["_keys"] = None
        state["_structure"] = None
        state["_sparse_skeleton"] = None
        state["_ctmdp_cache"] = OrderedDict()
        state["_rated"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PowerManagedSystemModel(modes={self.provider.modes!r}, "
            f"capacity={self.capacity}, lambda={self.requestor.rate:g}, "
            f"transfer_states={self.include_transfer_states})"
        )
