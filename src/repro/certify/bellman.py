"""Bellman-optimality residual certificates.

Independent evidence source #1: recompute the policy's gain and bias
straight from the raw generator/cost data with one linear solve (no
policy iteration, no value iteration, no warm starts), then check the
average-cost optimality equations action by action. At or below the
solver's dense-tier crossover (256 states) the solve is dense and the
sweep is one dot product per pair; above it both run on the model's
CSR rows -- one SuperLU factorization and one sparse product
(:class:`PolicySystem`, :func:`pair_values`).

The suboptimality bound is a duality argument, not a heuristic. Let
``(g, h)`` solve the evaluation equations of the policy under test and

    eps = max(0, max_{i,a} (g - q_i(a))),
    q_i(a) = c_i(a) + sum_j s_ij(a) h_j.

Then ``(g - eps, h)`` satisfies ``g - eps <= q_i(a)`` for every
state-action pair, i.e. it is feasible for the dual of the
occupation-measure LP (whose optimum is the optimal gain ``g*``), so
``g* >= g - eps`` and the policy's suboptimality gap is at most
``eps``. A truly optimal policy produced by policy iteration has
``eps == 0`` up to floating-point noise.

``eps`` is an upper *bound*, though, and it can be loose: a policy that
is gain-optimal but takes an arbitrary action in a state that is
transient under it (the LP solver's deterministic rounding does exactly
this in zero-occupancy states) has a perfectly good gain yet a bias
that violates the optimality inequality there -- sometimes massively.
A violated bound therefore only *suggests* suboptimality. To turn the
suggestion into a proof the check exhibits a witness: the greedy policy
w.r.t. ``h``, independently evaluated. A strictly better gain is an
unconditional proof that the policy under test is suboptimal (fail);
no realizable improvement means the Bellman certificate simply cannot
be issued (the check abstains and the LP duality check, which compares
the gain against ``g*`` directly, carries the verdict).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

from repro.certify.report import CertFinding, CheckResult
from repro.ctmdp.backends import auto_tier

#: ``(gain, bias, residual)`` of one policy evaluation.
Evaluation = Tuple[float, np.ndarray, float]


def uses_sparse_arithmetic(mdp) -> bool:
    """Whether the certificate runs on *mdp*'s nonzeros: above
    :func:`~repro.ctmdp.backends.auto_tier`'s dense-tier crossover,
    where the solver itself leaves the dense tier."""
    return auto_tier(mdp.n_states)[0] == "sparse"


class PolicySystem:
    """One policy's evaluation equations, straight from raw model data.

    The bordered system

        [ G   -1 ] [h]   [-c]
        [ e_r  0 ] [g] = [ 0]

    for the policy's generator rows ``G`` and any per-state cost
    channel ``c``. At or below the crossover
    (:func:`uses_sparse_arithmetic`) ``G`` is the dense
    ``policy.generator_matrix()`` and every channel is one
    ``numpy.linalg.solve``. Above it, ``G`` is the policy's rows of the
    model's CSR rows (:meth:`~repro.ctmdp.model.CTMDP.pair_table`),
    factored once by SuperLU and shared by every channel -- no O(n^2)
    array. Either way a singular system (the
    policy induces a multichain process) raises
    ``numpy.linalg.LinAlgError`` for the engine to turn into a typed
    failure. No solver ladder, warm start or canonical rescaling is
    involved.
    """

    def __init__(self, mdp, policy, reference_state_index: int = 0) -> None:
        self.policy = policy
        self.sparse = uses_sparse_arithmetic(mdp)
        n = mdp.n_states
        if self.sparse:
            from scipy.sparse.linalg import splu

            from repro.ctmdp.sparse import bordered_system

            rows = mdp.pair_table()
            self._weights = rows.policy_weights(policy)
            self._rows = rows
            self.generator = (self._weights @ rows.generator).tocsr()
            try:
                self._lu = splu(bordered_system(
                    self.generator, reference_state_index))
            except RuntimeError as exc:  # SuperLU's singular signal
                raise np.linalg.LinAlgError(
                    f"singular evaluation system: {exc}") from exc
        else:
            self.generator = policy.generator_matrix()
            self._bordered = np.zeros((n + 1, n + 1))
            self._bordered[:n, :n] = self.generator
            self._bordered[:n, n] = -1.0
            self._bordered[n, reference_state_index] = 1.0

    def costs(self, channel: "Optional[str]" = None) -> np.ndarray:
        """The policy's per-state effective cost rates, or the named
        extra-cost channel."""
        if not self.sparse:
            return (self.policy.cost_vector() if channel is None
                    else self.policy.extra_cost_vector(channel))
        rows = self._rows
        pair_costs = (rows.cost if channel is None
                      else rows.extra.get(channel, np.zeros(rows.n_pairs)))
        return self._weights @ pair_costs

    def solve(self, costs: np.ndarray) -> Evaluation:
        """``(gain, bias, residual)`` for one cost channel, where
        ``residual`` is ``max_i |c_i + (G h)_i - g|``: how well the
        computed solution satisfies the claimed linear system."""
        n = self.generator.shape[0]
        rhs = np.zeros(n + 1)
        rhs[:n] = -np.asarray(costs, dtype=float)
        if self.sparse:
            solution = self._lu.solve(rhs)
        else:
            solution = np.linalg.solve(self._bordered, rhs)
        bias = solution[:n]
        gain = float(solution[n])
        residual = float(np.max(np.abs(costs + self.generator @ bias - gain)))
        return gain, bias, residual


def independent_evaluation(
    mdp, policy, reference_state_index: int = 0
) -> Evaluation:
    """Solve the policy's evaluation equations from raw model data.

    Returns ``(gain, bias, residual)`` (:class:`PolicySystem`); a
    singular system raises ``numpy.linalg.LinAlgError``.
    """
    system = PolicySystem(mdp, policy, reference_state_index)
    return system.solve(system.costs())


def pair_values(mdp, bias: np.ndarray) -> np.ndarray:
    """``q_i(a) = c_i(a) + sum_j G_ij(a) h_j`` for every pair, in
    ``state_action_pairs()`` order: one sparse product above the
    crossover, one dot product per pair at or below it."""
    rows = mdp.pair_table()
    if uses_sparse_arithmetic(mdp):
        return rows.cost + rows.generator @ bias
    dense = rows.generator.toarray()
    return np.array([c + float(row @ bias) for c, row in zip(rows.cost, dense)])


def suboptimality_gap(
    mdp, bias: np.ndarray, gain: float
) -> "Tuple[float, Optional[Hashable], Optional[Hashable]]":
    """Bound the policy's distance from optimal via dual feasibility.

    Sweeps *every* state-action pair of the model -- including the
    ones the policy never takes -- and returns
    ``(eps, worst_state, worst_action)`` for the first pair that most
    violates ``gain <= q_i(a)``. ``eps == 0`` means ``(gain, bias)``
    is already dual-feasible and the policy is certified optimal.
    """
    return _gap(mdp, gain - pair_values(mdp, bias))


def _gap(mdp, violation: np.ndarray):
    violation = np.where(np.isnan(violation), -np.inf, violation)
    worst = int(np.argmax(violation)) if len(violation) else 0
    if not len(violation) or not violation[worst] > 0.0:
        return 0.0, None, None
    rows = mdp.pair_table()
    state = int(rows.pair_state[worst])
    action = rows.actions[state][worst - int(rows.pair_offset[state])]
    return float(violation[worst]), mdp.states[state], action


def check_bellman(
    mdp,
    policy,
    claimed_gain: "Optional[float]",
    tolerance: float,
    scale: float,
    evaluation: "Optional[Callable[[], Evaluation]]" = None,
) -> CheckResult:
    """Run the full Bellman-residual certificate for one policy.

    *evaluation* supplies the policy's independent evaluation (the
    engine shares one with the LP check); by default it is solved here.
    """
    findings = []
    gain, bias, residual = (
        evaluation() if evaluation is not None
        else independent_evaluation(mdp, policy)
    )
    data: "Dict[str, Any]" = {
        "gain": gain,
        "evaluation_residual": residual,
        "bias_span": float(np.max(bias) - np.min(bias)),
    }

    if not (np.isfinite(gain) and np.all(np.isfinite(bias))):
        findings.append(
            CertFinding(
                code="non-finite-value",
                message="independent evaluation produced a non-finite "
                "gain or bias",
                value=gain,
            )
        )
        return CheckResult(
            name="bellman", status="failed", findings=findings, data=data
        )

    if residual > tolerance * scale:
        findings.append(
            CertFinding(
                code="evaluation-residual",
                message=f"evaluation equations violated: residual "
                f"{residual:.3e} exceeds {tolerance * scale:.3e}",
                value=residual,
            )
        )

    q = pair_values(mdp, bias)
    eps, worst_state, worst_action = _gap(mdp, gain - q)
    data["suboptimality_gap"] = eps
    data["dual_feasible"] = bool(eps <= tolerance * scale)
    if worst_state is not None:
        data["worst_state"] = repr(worst_state)
        data["worst_action"] = repr(worst_action)
    inconclusive = False
    if eps > tolerance * scale:
        improvement, greedy_gain = _greedy_improvement(mdp, q, gain)
        data["greedy_gain"] = greedy_gain
        data["greedy_improvement"] = improvement
        if improvement is not None and improvement > tolerance * scale:
            findings.append(
                CertFinding(
                    code="bellman-gap-exceeded",
                    message=f"policy is provably suboptimal: the greedy "
                    f"policy w.r.t. its own bias lowers the gain from "
                    f"{gain:.12g} to {greedy_gain:.12g} (improvement "
                    f"{improvement:.3e}; first violated at state "
                    f"{worst_state!r}, action {worst_action!r})",
                    state=repr(worst_state),
                    value=improvement,
                )
            )
        else:
            # The bound is violated but no one-step improvement is
            # realizable (typical of gain-optimal policies with
            # arbitrary actions in transient states, e.g. LP rounding).
            # Bellman evidence alone cannot certify this policy; the LP
            # duality check compares against g* directly and decides.
            inconclusive = True
            data["reason"] = (
                f"dual bound violated by {eps:.3e} but the greedy policy "
                "realizes no gain improvement; Bellman evidence is "
                "inconclusive (the LP duality check is the oracle)"
            )

    if claimed_gain is not None:
        drift = abs(gain - claimed_gain)
        data["claimed_gain"] = float(claimed_gain)
        data["claimed_gain_drift"] = drift
        if drift > tolerance * scale:
            findings.append(
                CertFinding(
                    code="claimed-gain-mismatch",
                    message=f"solver claimed gain {claimed_gain:.12g} but "
                    f"independent evaluation finds {gain:.12g} "
                    f"(drift {drift:.3e})",
                    value=drift,
                )
            )

    if findings:
        status = "failed"
    elif inconclusive:
        status = "skipped"
    else:
        status = "passed"
    return CheckResult(name="bellman", status=status, findings=findings, data=data)


def _greedy_improvement(
    mdp, q: np.ndarray, gain: float
) -> "Tuple[Optional[float], Optional[float]]":
    """Evaluate the greedy policy w.r.t. the bias as a suboptimality
    witness; *q* holds its :func:`pair_values`.

    Each state takes its first action of least ``q``. Returns
    ``(improvement, greedy_gain)`` where ``improvement`` is how much the
    greedy policy lowers the gain (``None`` if its evaluation is
    singular -- no witness, no proof).
    """
    from repro.ctmdp.policy import Policy

    rows = mdp.pair_table()
    # Per state, pairs by q then insertion order: the first is the
    # earliest action of least q.
    order = np.lexsort((np.arange(rows.n_pairs), q, rows.pair_state))
    best = order[rows.pair_offset[:-1]] - rows.pair_offset[:-1]
    assignment = {
        state: actions[col]
        for state, actions, col in zip(mdp.states, rows.actions, best.tolist())
    }
    try:
        greedy_gain, _, _ = independent_evaluation(
            mdp, Policy(mdp, assignment)
        )
    except np.linalg.LinAlgError:
        return None, None
    if not np.isfinite(greedy_gain):
        return None, float(greedy_gain)
    return gain - float(greedy_gain), float(greedy_gain)
