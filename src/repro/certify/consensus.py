"""Cross-backend N-version consensus certificates.

Independent evidence source #4: the repo carries several policy
evaluation lowerings that share no numerical kernel beyond BLAS. Each
one evaluates the certified policy's gain on the same model; the votes
are compared against their median so a single wandering backend cannot
shift the consensus it is judged against. Certification demands
*unanimity*: any backend straying beyond tolerance is a typed
``backend-disagreement`` finding, because a split vote means at least
one production code path would serve a different number than the one
being certified.

Which votes run follows the solver's own tiers
(:func:`~repro.ctmdp.backends.auto_tier`):

- At or below the dense-tier crossover, the reference dict-loop path,
  the dense compiled lowering and the CSR path all vote.
- Above it, ``auto`` never runs the reference or compiled tiers, and
  each of their votes would allocate an ``n x n`` array. Two votes on
  the model's CSR rows (:meth:`~repro.ctmdp.model.CTMDP.pair_table`)
  run instead, each solving a different linear system: the sparse
  tier's bordered evaluation ``c + G h = g 1`` (``sparse``), and the
  gain ``pi . c`` from the balance equations ``pi G = 0``, ``pi . 1 =
  1`` (``stationary``,
  :func:`~repro.ctmdp.sparse.sparse_stationary_distribution`). Both
  read the one SYS assembly, so a deterministic sample of at most
  :data:`ASSEMBLY_SAMPLE_PAIRS` rows is also checked against the
  model's per-state methods (``transition_rates``,
  ``effective_power_rate``, ``delay_cost``), which share no code with
  the vectorized assembly; a mismatch is a typed ``assembly-mismatch``
  finding.

Randomized policies are out of scope (the sparse path evaluates
deterministic policies only), and the Kronecker backend evaluates
factored models, which the flattened SYS product model is not; both
limits are recorded on the check rather than silently narrowing it.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.certify.bellman import uses_sparse_arithmetic
from repro.certify.report import CertFinding, CheckResult
from repro.ctmdp.policy import evaluate_policy

#: Evaluation backends that can all score a deterministic policy on a
#: densely built model. ``kron`` needs a factored model and is noted as
#: out of scope on every report.
CONSENSUS_BACKENDS = ("reference", "compiled", "sparse")

#: Rows of the assembly sample checked above the crossover: the policy
#: action and one other action in each of up to half as many states.
ASSEMBLY_SAMPLE_PAIRS = 64


def check_consensus(
    mdp,
    policy,
    tolerance: float,
    scale: float,
    model,
    weight: float,
) -> CheckResult:
    """Evaluate *policy* on every backend and demand unanimous gains.

    *model* is the SYS model *mdp* was built from at *weight*; above
    the crossover it supplies the per-state oracles of the assembly
    sample.
    """
    if hasattr(policy, "distribution"):
        return CheckResult(
            name="consensus",
            status="skipped",
            data={
                "reason": "randomized policy: the sparse backend evaluates "
                "deterministic policies only"
            },
        )
    def tier_vote(backend: str) -> "Callable[[], float]":
        return lambda: evaluate_policy(
            policy, backend=backend, compute_stationary=False).gain

    at_scale = uses_sparse_arithmetic(mdp)
    if at_scale:
        votes = {
            "sparse": tier_vote("sparse"),
            "stationary": lambda: _stationary_gain(mdp, policy),
        }
    else:
        votes = {backend: tier_vote(backend) for backend in CONSENSUS_BACKENDS}
    findings: "List[CertFinding]" = []
    gains: "Dict[str, float]" = {}
    errors: "Dict[str, str]" = {}
    for backend, vote in votes.items():
        try:
            gains[backend] = float(vote())
        except Exception as exc:  # one dead backend is itself a finding
            errors[backend] = f"{type(exc).__name__}: {exc}"
    data: "Dict[str, Any]" = {
        "backends": list(votes),
        "gains": dict(gains),
        "kron": "skipped: SYS models are built dense, not Kronecker-factored",
    }
    if errors:
        data["errors"] = errors
        for backend, message in errors.items():
            findings.append(
                CertFinding(
                    code="backend-disagreement",
                    message=f"backend {backend!r} failed to evaluate the "
                    f"policy: {message}",
                )
            )
    if len(gains) >= 2:
        median = float(np.median(list(gains.values())))
        data["median_gain"] = median
        data["max_spread"] = float(
            max(gains.values()) - min(gains.values())
        )
        for backend, gain in sorted(gains.items()):
            deviation = abs(gain - median)
            if deviation > tolerance * scale:
                findings.append(
                    CertFinding(
                        code="backend-disagreement",
                        message=f"backend {backend!r} reports gain "
                        f"{gain:.12g}, {deviation:.3e} from the "
                        f"{len(gains)}-backend median {median:.12g}",
                        value=deviation,
                    )
                )
    elif not errors:
        # Fewer than two live backends cannot form a consensus.
        findings.append(
            CertFinding(
                code="backend-disagreement",
                message=f"only {len(gains)} backend(s) produced a gain; "
                "consensus needs at least two",
            )
        )
    if at_scale:
        sample = assembly_sample(mdp, policy)
        data["assembly_sample"] = len(sample)
        findings.extend(
            _assembly_findings(model, mdp, sample, weight, tolerance))
    status = "failed" if findings else "passed"
    return CheckResult(
        name="consensus", status=status, findings=findings, data=data
    )


def _stationary_gain(mdp, policy) -> float:
    """The policy's gain ``pi . c``, with ``pi`` solved from the balance
    equations of its rows in the model's CSR rows."""
    rows = mdp.pair_table()
    sel = rows.selection(policy)
    return float(rows.stationary(sel) @ rows.cost[sel])


def assembly_sample(mdp, policy) -> "List[Tuple[Any, Any]]":
    """The ``(state, action)`` pairs the assembly check compares.

    Up to ``ASSEMBLY_SAMPLE_PAIRS // 2`` states, drawn by a fixed-seed
    generator (the same states for every report on the model); each
    contributes its policy action and its first other action, if any.
    """
    states = mdp.states
    k = min(len(states), ASSEMBLY_SAMPLE_PAIRS // 2)
    picks = np.sort(np.random.default_rng(0).choice(len(states), k, replace=False))
    pairs = []
    for i in picks.tolist():
        state = states[i]
        chosen = policy.action(state)
        others = [a for a in mdp.actions(state) if a != chosen]
        pairs.extend((state, action) for action in [chosen] + others[:1])
    return pairs


def _assembly_findings(model, mdp, sample, weight: float, tolerance: float):
    """Compare the sampled rows of *mdp* with the per-state oracles.

    A row must hold exactly the oracle's destinations, with rates equal
    to ``rate_scale x transition_rates`` within *tolerance* relative,
    and the effective cost rate ``rate_scale x (effective_power_rate +
    weight x delay_cost)`` likewise.
    """
    scale = mdp.rate_scale
    findings = []
    for state, action in sample:
        data = mdp.data(state, action)
        want = {model.index_of(dest): scale * rate
                for dest, rate in model.transition_rates(state, action).items()}
        cols = sorted(want)
        cost = scale * (model.effective_power_rate(state, action)
                        + weight * model.delay_cost(state))
        got = list(zip(data.cols.tolist(), data.vals.tolist()))
        ok = (data.cols.tolist() == cols
              and all(_close(v, want[j], tolerance) for j, v in got)
              and _close(data.effective_cost, cost, tolerance))
        if not ok:
            findings.append(
                CertFinding(
                    code="assembly-mismatch",
                    message=f"row of {state!r} under {action!r} disagrees "
                    f"with the model's per-state transition and cost "
                    f"methods: assembled {got} at cost "
                    f"{data.effective_cost:.12g}, expected "
                    f"{[(j, want[j]) for j in cols]} at cost {cost:.12g}",
                    state=repr(state),
                )
            )
    return findings


def _close(got: float, want: float, tolerance: float) -> bool:
    return abs(got - want) <= tolerance * max(1.0, abs(want))
