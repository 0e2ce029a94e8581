"""Stationary policies for CTMDPs and their exact evaluation.

Definition 2.8: a policy is *stationary* when the chosen action depends
only on the state. Theorems 2.2/2.3 justify restricting the optimization
to stationary policies, which is what this module represents:

- :class:`Policy` -- deterministic stationary: one action per state.
- :class:`RandomizedPolicy` -- a distribution over actions per state
  (produced by the constrained LP solver when the optimum requires
  randomization).
- :func:`evaluate_policy` -- exact average-cost evaluation: gain ``g``
  and bias ``h`` from the linear system ``c + G h = g 1`` with a
  reference-state normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.errors import InvalidModelError, InvalidPolicyError, SolverError
from repro.ctmdp.model import CTMDP, chosen_rows
from repro.markov.chain import ContinuousTimeMarkovChain
from repro.markov.generator import canonical_shift, stationary_distribution
from repro.robust.guardrails import solve_with_fallback


def same_states(a, b) -> bool:
    """Whether models *a* and *b* list the same states in the same order.

    Two models that both carry a ``label_key`` -- a SYS model, its CSR
    and dict builds and its re-rated siblings
    (:class:`~repro.dpm.system.SystemLabels`) -- compare their keys in
    O(1) and build no label. A Kronecker model past
    :data:`~repro.ctmdp.kron.LABEL_LIMIT` never materializes its joint
    labels; two such models compare their factor axes instead. Any
    other pair compares its labels.
    """
    if a is b:
        return True
    key_a, key_b = getattr(a, "label_key", None), getattr(b, "label_key", None)
    if key_a is not None and key_b is not None:
        return key_a == key_b
    try:
        return tuple(a.states) == tuple(b.states)
    except InvalidModelError:
        return getattr(a, "factor_states", None) == getattr(
            b, "factor_states", None)


def _pair_indexed(mdp) -> bool:
    """Whether *mdp* is a pair-indexed lowering, such as a CSR build."""
    from repro.ctmdp.compiled import PairIndexedCTMDP

    return isinstance(mdp, PairIndexedCTMDP)


class Policy:
    """A deterministic stationary policy: one action per state.

    Immutable: the model plus the chosen action of each of its states,
    held as a tuple in model state order (:attr:`actions`) -- the same
    table on every solver tier and in a served artifact.
    """

    def __init__(self, mdp: CTMDP, assignment: Mapping[Hashable, Hashable]) -> None:
        state_set = set(mdp.states)
        missing = [s for s in mdp.states if s not in assignment]
        if missing:
            raise InvalidPolicyError(f"policy misses states: {missing!r}")
        extra = [s for s in assignment if s not in state_set]
        if extra:
            raise InvalidPolicyError(f"policy names unknown states: {extra!r}")
        self._mdp = mdp
        self._actions = tuple(assignment[s] for s in mdp.states)
        self.validate()

    @classmethod
    def from_actions(cls, mdp, actions: Iterable[Hashable]) -> "Policy":
        """The policy choosing ``actions[i]`` in state ``i`` of *mdp*,
        unvalidated: the lowerings gather it from a selection, and a
        lowering's ``selection`` checks each action it reads back."""
        policy = cls.__new__(cls)
        policy._mdp = mdp
        policy._actions = tuple(actions)
        return policy

    def validate(self) -> None:
        """Raise :class:`InvalidPolicyError` unless every chosen action
        is available in its state.

        On a pair-indexed lowering the actions are checked by position
        against its per-state action tuples (:func:`chosen_rows`), with
        no label read; only a failure scans the states to name the
        offending one by its label.
        """
        mdp = self._mdp
        if _pair_indexed(mdp):
            try:
                chosen_rows(mdp.actions, mdp.pair_offset, self._actions)
                return
            except InvalidPolicyError:
                pass  # the scan below names the state
        offered = (mdp.actions if _pair_indexed(mdp)  # per-state tuples
                   else map(mdp.actions, mdp.states))
        for state, action, available in zip(mdp.states, self._actions, offered):
            if action not in available:
                raise InvalidPolicyError(
                    f"action {action!r} is not available in state {state!r}"
                )

    def _lowered_rows(self) -> "Optional[np.ndarray]":
        """Pair rows when the model is a pair-indexed lowering (a CSR
        build stacks its rows and costs), else ``None``."""
        return self._mdp.selection(self) if _pair_indexed(self._mdp) else None

    @property
    def mdp(self) -> CTMDP:
        return self._mdp

    @property
    def actions(self) -> "Tuple[Hashable, ...]":
        """The chosen action of each state, in model state order."""
        return self._actions

    def action(self, state: Hashable) -> Hashable:
        return self._actions[self._mdp.index_of(state)]

    def as_dict(self) -> "Dict[Hashable, Hashable]":
        return dict(zip(self._mdp.states, self._actions))

    def generator_matrix(self) -> np.ndarray:
        """Generator of the CTMC induced by this policy."""
        rows = self._lowered_rows()
        if rows is not None:
            g = self._mdp.generator[rows]
            return g.toarray() if hasattr(g, "toarray") else g
        n = self._mdp.n_states
        g = np.zeros((n, n))
        for i, (state, action) in enumerate(zip(self._mdp.states, self._actions)):
            g[i, :] = self._mdp.generator_row(state, action)
        return g

    def cost_vector(self) -> np.ndarray:
        """Effective cost rates under this policy, per state."""
        rows = self._lowered_rows()
        if rows is not None:
            return self._mdp.cost[rows]
        return np.array(
            [self._mdp.cost(s, a) for s, a in zip(self._mdp.states, self._actions)]
        )

    def extra_cost_vector(self, name: str) -> np.ndarray:
        """A named auxiliary cost-rate vector under this policy."""
        rows = self._lowered_rows()
        if rows is not None:
            channel = self._mdp.extra.get(name)
            return np.zeros(len(rows)) if channel is None else channel[rows]
        return np.array(
            [self._mdp.extra_cost(s, a, name)
             for s, a in zip(self._mdp.states, self._actions)]
        )

    def induced_chain(self) -> ContinuousTimeMarkovChain:
        """The labeled CTMC this policy induces."""
        return ContinuousTimeMarkovChain(self.generator_matrix(), self._mdp.states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return self._actions == other._actions and same_states(
            self._mdp, other._mdp)

    def __hash__(self) -> int:
        return hash(self._actions)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Policy(n_states={len(self._actions)})"


def actions_in_order(source, mdp) -> "Tuple[Hashable, ...]":
    """The action *source* chooses in each state of *mdp*, in *mdp*'s
    state order, unvalidated.

    *source* is a :class:`Policy` or a ``state -> action`` mapping. A
    policy on a model with *mdp*'s states in the same order gives its
    action tuple as is; any other source is read state by state, and a
    state it does not name is an :class:`InvalidPolicyError`.
    """
    if isinstance(source, Policy):
        if same_states(source.mdp, mdp):
            return source.actions
        source = source.as_dict()
    try:
        return tuple([source[state] for state in mdp.states])
    except KeyError as exc:
        raise InvalidPolicyError(
            f"policy misses state {exc.args[0]!r}"
        ) from None


class RandomizedPolicy:
    """A stationary randomized policy: per-state action distribution.

    Produced by the constrained LP (the optimum of a constrained MDP may
    require randomizing in at most one state per active constraint).
    """

    def __init__(
        self,
        mdp: CTMDP,
        distributions: Mapping[Hashable, Mapping[Hashable, float]],
    ) -> None:
        self._mdp = mdp
        self._dist: Dict[Hashable, Dict[Hashable, float]] = {}
        for state in mdp.states:
            if state not in distributions:
                raise InvalidPolicyError(f"missing distribution for state {state!r}")
            dist = dict(distributions[state])
            total = sum(dist.values())
            if abs(total - 1.0) > 1e-6:
                raise InvalidPolicyError(
                    f"action probabilities for {state!r} sum to {total:g}, not 1"
                )
            available = set(mdp.actions(state))
            for action, prob in dist.items():
                if action not in available:
                    raise InvalidPolicyError(
                        f"action {action!r} not available in state {state!r}"
                    )
                if prob < -1e-12:
                    raise InvalidPolicyError(
                        f"negative probability {prob:g} for {state!r}/{action!r}"
                    )
            self._dist[state] = {a: max(0.0, p) for a, p in dist.items()}

    @property
    def mdp(self) -> CTMDP:
        return self._mdp

    def distribution(self, state: Hashable) -> "Dict[Hashable, float]":
        return dict(self._dist[state])

    def generator_matrix(self) -> np.ndarray:
        """Probability-weighted mixture of the per-action generator rows."""
        n = self._mdp.n_states
        g = np.zeros((n, n))
        for i, state in enumerate(self._mdp.states):
            for action, prob in self._dist[state].items():
                g[i, :] += prob * self._mdp.generator_row(state, action)
        return g

    def cost_vector(self) -> np.ndarray:
        return np.array(
            [
                sum(p * self._mdp.cost(s, a) for a, p in self._dist[s].items())
                for s in self._mdp.states
            ]
        )

    def extra_cost_vector(self, name: str) -> np.ndarray:
        return np.array(
            [
                sum(p * self._mdp.extra_cost(s, a, name) for a, p in self._dist[s].items())
                for s in self._mdp.states
            ]
        )

    def deterministic_rounding(self) -> Policy:
        """Most-probable-action deterministic projection."""
        return Policy(
            self._mdp,
            {s: max(d.items(), key=lambda kv: kv[1])[0] for s, d in self._dist.items()},
        )

    def sample_action(self, state: Hashable, rng: np.random.Generator) -> Hashable:
        """Draw an action for *state* according to its distribution."""
        actions = list(self._dist[state].keys())
        probs = np.array([self._dist[state][a] for a in actions])
        probs = probs / probs.sum()
        return actions[int(rng.choice(len(actions), p=probs))]


@dataclass(frozen=True)
class PolicyEvaluation:
    """Result of exact average-cost policy evaluation.

    Attributes
    ----------
    gain:
        The long-run average cost rate ``g`` (scalar for unichain
        policies).
    bias:
        The relative-value vector ``h`` with ``h[reference] = 0``.
    stationary:
        The stationary distribution of the induced chain (``None`` when
        the evaluation was run with ``compute_stationary=False``).
    """

    gain: float
    bias: np.ndarray
    stationary: Optional[np.ndarray]


def _evaluate_reference(
    policy, reference_state: int, compute_stationary: bool
) -> PolicyEvaluation:
    """Evaluation assembled from the dict model, state by state -- the
    ``reference`` tier, and the path randomized policies take.

    Unknowns: ``h_0..h_{n-1}, g``. Equations: ``G h - g 1 = -c`` (n
    rows) plus ``h[ref] = 0``, assembled in canonical units -- G and c
    scaled by the exact exponent shift that brings the *model-wide* max
    exit rate into [1, 2), the same shift the compiled tier uses, so
    both paths run the identical float computation. The gain shifts
    back exactly; the bias is scale-invariant.
    """
    g_mat = policy.generator_matrix()
    n = g_mat.shape[0]
    if not 0 <= reference_state < n:
        raise InvalidPolicyError(f"reference state {reference_state} out of range")
    shift = canonical_shift(policy.mdp.max_exit_rate())
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.ldexp(g_mat, -shift)
    a[:n, n] = -1.0
    a[n, reference_state] = 1.0
    b = np.concatenate([np.ldexp(-policy.cost_vector(), -shift), [0.0]])
    solution = solve_with_fallback(
        a, b, what="policy evaluation system",
        context={"reference_state": reference_state},
    )
    # Policy iteration needs only gain and bias; intermediate policies
    # may induce multichain generators whose stationary solve would
    # (rightly) raise, so it runs only when asked for.
    return PolicyEvaluation(
        gain=float(np.ldexp(solution[n], shift)),
        bias=solution[:n],
        stationary=stationary_distribution(g_mat) if compute_stationary else None,
    )


def evaluate_policy(
    policy,
    reference_state: int = 0,
    backend: Optional[str] = None,
    compute_stationary: bool = True,
) -> PolicyEvaluation:
    """Exactly evaluate a stationary policy's average cost.

    Solves the (continuous-time) evaluation equations

    ``c_i + sum_j G[i, j] h_j = g``  for all ``i``, with
    ``h[reference_state] = 0``,

    which is the policy-evaluation step of Howard/Miller policy
    iteration. Requires the induced chain to be unichain (the DPM
    action constraints guarantee connectedness, hence unichain).

    Parameters
    ----------
    policy:
        A :class:`Policy` or a :class:`RandomizedPolicy`.
    reference_state:
        Index whose bias is pinned to zero.
    backend:
        Resolved like the solvers' ``backend`` by
        :func:`~repro.ctmdp.backends.resolve_backend` (``None`` means
        ``"auto"``); an unknown name or a tier the model cannot run on
        is a typed :class:`~repro.errors.SolverError`. A deterministic
        policy is evaluated by the ``evaluate`` method of the tier's
        lowering, whose stationary thunk gives the distribution (on CSR
        from the evaluation's own LU) -- the same solves policy
        iteration runs. ``"reference"`` assembles the system from the
        dict model instead (the independent path), as do randomized
        policies unless a tier that evaluates deterministic policies
        only is asked for by name. The dense paths are bit-identical to
        each other; CSR and matrix-free results match within the
        documented residual tolerance.
    """
    from repro.ctmdp.backends import lower, resolve_backend

    requested = backend or "auto"
    if isinstance(policy, RandomizedPolicy) and requested in ("auto", "compiled"):
        requested = "reference"
    tier = resolve_backend(policy.mdp, requested, who="evaluate_policy")
    if tier == "reference":
        return _evaluate_reference(policy, reference_state, compute_stationary)
    if isinstance(policy, RandomizedPolicy):
        raise SolverError(
            f"backend {tier!r} evaluates deterministic policies only"
        )
    model = lower(policy.mdp, tier)
    sel = model.selection(policy)
    gain, bias, stationary = model.evaluate(sel, reference_state)
    return PolicyEvaluation(
        gain=gain,
        bias=bias,
        stationary=stationary() if compute_stationary else None,
    )
