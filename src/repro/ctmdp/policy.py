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
from typing import Dict, Hashable, Mapping, Optional

import numpy as np

from repro.errors import InvalidPolicyError
from repro.ctmdp.model import CTMDP
from repro.markov.chain import ContinuousTimeMarkovChain


class Policy:
    """A deterministic stationary policy: ``state -> action``.

    Immutable mapping over exactly the state set of a given CTMDP.
    """

    def __init__(self, mdp: CTMDP, assignment: Mapping[Hashable, Hashable]) -> None:
        self._mdp = mdp
        state_set = set(mdp.states)
        missing = [s for s in mdp.states if s not in assignment]
        if missing:
            raise InvalidPolicyError(f"policy misses states: {missing!r}")
        extra = [s for s in assignment if s not in state_set]
        if extra:
            raise InvalidPolicyError(f"policy names unknown states: {extra!r}")
        for state in mdp.states:
            action = assignment[state]
            if action not in mdp.actions(state):
                raise InvalidPolicyError(
                    f"action {action!r} is not available in state {state!r}"
                )
        self._assignment: Dict[Hashable, Hashable] = {
            s: assignment[s] for s in mdp.states
        }

    @classmethod
    def _trusted(cls, mdp: CTMDP, assignment: Mapping[Hashable, Hashable]) -> "Policy":
        """Construct without validation.

        Internal fast path for solvers that derive the assignment from
        the model's own compiled index, where every (state, action) pair
        is valid by construction.
        """
        policy = cls.__new__(cls)
        policy._mdp = mdp
        policy._assignment = dict(assignment)
        return policy

    @property
    def mdp(self) -> CTMDP:
        return self._mdp

    def action(self, state: Hashable) -> Hashable:
        return self._assignment[state]

    def as_dict(self) -> "Dict[Hashable, Hashable]":
        return dict(self._assignment)

    def generator_matrix(self) -> np.ndarray:
        """Generator of the CTMC induced by this policy."""
        n = self._mdp.n_states
        g = np.zeros((n, n))
        for i, state in enumerate(self._mdp.states):
            g[i, :] = self._mdp.generator_row(state, self._assignment[state])
        return g

    def cost_vector(self) -> np.ndarray:
        """Effective cost rates under this policy, per state."""
        return np.array(
            [self._mdp.cost(s, self._assignment[s]) for s in self._mdp.states]
        )

    def extra_cost_vector(self, name: str) -> np.ndarray:
        """A named auxiliary cost-rate vector under this policy."""
        return np.array(
            [self._mdp.extra_cost(s, self._assignment[s], name) for s in self._mdp.states]
        )

    def induced_chain(self) -> ContinuousTimeMarkovChain:
        """The labeled CTMC this policy induces."""
        return ContinuousTimeMarkovChain(self.generator_matrix(), self._mdp.states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Policy):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._assignment.items(), key=repr)))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Policy({self._assignment!r})"


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


def _evaluate_policy_sparse(
    policy,
    cost_vector: Optional[np.ndarray],
    reference_state: int,
    compute_stationary: bool,
) -> PolicyEvaluation:
    """Sparse-ladder twin of the dense evaluation assembly."""
    from repro.ctmdp.sparse import (
        bordered_system,
        compile_sparse_ctmdp,
        solve_sparse_with_fallback,
        sparse_stationary_distribution,
    )

    smdp = compile_sparse_ctmdp(policy.mdp)
    sel = smdp.policy_rows(policy.as_dict())
    n = smdp.n_states
    if not 0 <= reference_state < n:
        raise InvalidPolicyError(f"reference state {reference_state} out of range")
    g_can, c_can, shift = smdp.canonical()
    rows = g_can[sel]
    if cost_vector is None:
        c = c_can[sel]
    else:
        c = np.ldexp(np.asarray(cost_vector, dtype=float), -shift)
    if c.shape != (n,):
        raise InvalidPolicyError(f"cost vector shape {c.shape} != ({n},)")
    b = np.concatenate([-c, [0.0]])
    solution = solve_sparse_with_fallback(
        bordered_system(rows, reference_state), b,
        what="policy evaluation system",
        context={"reference_state": reference_state},
        a_max=max(1.0, float(np.max(np.abs(rows.data), initial=0.0))),
    )
    gain = float(np.ldexp(solution[n], shift))
    if not compute_stationary:
        return PolicyEvaluation(gain=gain, bias=solution[:n], stationary=None)
    p = sparse_stationary_distribution(smdp.generator[sel])
    return PolicyEvaluation(gain=gain, bias=solution[:n], stationary=p)


def evaluate_policy(
    policy,
    cost_vector: Optional[np.ndarray] = None,
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
        A :class:`Policy` or :class:`RandomizedPolicy`.
    cost_vector:
        Optional override for the per-state cost rates; defaults to the
        policy's own effective costs.
    reference_state:
        Index whose bias is pinned to zero.
    backend:
        ``None`` (default) assembles ``G`` and ``c`` from the model's
        compiled arrays when a dense lowering is already cached on the
        model (and the policy is deterministic), falling back to the
        per-state dict loops otherwise; ``"compiled"`` forces the
        lowering; ``"reference"`` forces the dict path; ``"sparse"``
        routes through the CSR lowering and the direct/Krylov solver
        ladder of :mod:`repro.ctmdp.sparse`. Policies over
        :class:`~repro.ctmdp.sparse.SparseCTMDP` and
        :class:`~repro.ctmdp.kron.KroneckerCTMDP` models evaluate on
        their native tier automatically. Dense paths are bit-identical
        to each other; sparse/matrix-free results match within the
        documented residual tolerance.
    """
    from repro.ctmdp.kron import ArrayPolicy, KroneckerCTMDP, kron_evaluate
    from repro.ctmdp.sparse import SparseCTMDP

    mdp = policy.mdp
    if isinstance(mdp, KroneckerCTMDP) or isinstance(policy, ArrayPolicy):
        if backend not in (None, "auto", "kron"):
            from repro.errors import SolverError

            raise SolverError(
                f"backend {backend!r} cannot evaluate a policy over a "
                "KroneckerCTMDP; Kronecker models are matrix-free only"
            )
        if cost_vector is not None:
            from repro.errors import SolverError

            raise SolverError(
                "cost_vector overrides are not supported on the "
                "matrix-free tier"
            )
        return kron_evaluate(
            mdp, policy, reference_state=reference_state,
            compute_stationary=compute_stationary,
        )
    if backend == "sparse" or isinstance(mdp, SparseCTMDP):
        if isinstance(mdp, SparseCTMDP) and backend not in (
            None, "auto", "sparse"
        ):
            from repro.errors import SolverError

            raise SolverError(
                f"backend {backend!r} cannot evaluate a policy over a "
                "SparseCTMDP; sparse-built models never had a dict/dense "
                "form (backend='sparse' or None)"
            )
        if not hasattr(policy, "as_dict"):
            from repro.errors import SolverError

            raise SolverError(
                "sparse evaluation supports deterministic policies only"
            )
        return _evaluate_policy_sparse(
            policy, cost_vector, reference_state, compute_stationary
        )
    comp = None
    if backend != "reference" and isinstance(policy, Policy):
        if backend == "compiled":
            from repro.ctmdp.compiled import compile_ctmdp

            comp = compile_ctmdp(policy.mdp)
        else:
            comp = getattr(policy.mdp, "_compiled", None)
    if comp is not None:
        g_mat, compiled_cost = comp.evaluation_system(
            comp.policy_rows(policy.as_dict())
        )
        c = compiled_cost if cost_vector is None else np.asarray(cost_vector, float)
    else:
        g_mat = policy.generator_matrix()
        c = policy.cost_vector() if cost_vector is None else np.asarray(cost_vector, float)
    n = g_mat.shape[0]
    if c.shape != (n,):
        raise InvalidPolicyError(f"cost vector shape {c.shape} != ({n},)")
    if not 0 <= reference_state < n:
        raise InvalidPolicyError(f"reference state {reference_state} out of range")
    # Unknowns: h_0..h_{n-1}, g. Equations: G h - g 1 = -c (n rows) plus
    # h[ref] = 0. Assembled in canonical units -- G and c scaled by the
    # exact exponent shift that brings the *model-wide* max exit rate
    # into [1, 2), the same shift the compiled solver uses, so both
    # paths run the identical float computation. The gain shifts back
    # exactly; the bias is scale-invariant.
    from repro.markov.generator import canonical_shift

    shift = canonical_shift(policy.mdp.max_exit_rate())
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = np.ldexp(g_mat, -shift)
    a[:n, n] = -1.0
    a[n, reference_state] = 1.0
    b = np.concatenate([np.ldexp(-c, -shift), [0.0]])
    from repro.robust.guardrails import solve_with_fallback

    solution = solve_with_fallback(
        a, b, what="policy evaluation system",
        context={"reference_state": reference_state},
    )
    h = solution[:n]
    gain = float(np.ldexp(solution[n], shift))

    if not compute_stationary:
        # Policy iteration's improvement step needs only gain and bias;
        # intermediate policies may induce multichain generators whose
        # stationary solve would (rightly) raise, so the solve is
        # deferred to the converged policy.
        return PolicyEvaluation(gain=gain, bias=h, stationary=None)

    from repro.markov.generator import stationary_distribution

    p = stationary_distribution(g_mat)
    return PolicyEvaluation(gain=gain, bias=h, stationary=p)
