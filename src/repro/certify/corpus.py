"""Seeded adversarial corpus: corrupted policies that must never certify.

Property-testing for the certification engine itself. Each corpus
member is a realistic corruption of a genuinely solved policy --

- ``action-flip``: one state's action swapped for a measurably worse
  alternative while the claimed metrics still describe the optimum
  (a torn artifact write, a bit-flipped table);
- ``gain-perturbation``: the optimal policy with its claimed average
  power nudged 1-10% (a stale or miscopied metrics block);
- ``stale-ghost``: a policy solved for a *different* operating point
  served with that point's metrics (the cross-solve reuse layer
  handing back a neighbor's solution without re-solving);
- ``invalid-action``: a table entry naming an action the state does
  not admit (schema-valid garbage).

The contract, enforced by tests and the ``certify`` campaign of
:mod:`repro.robust.campaign`, is *zero false certifications*:
:func:`repro.certify.certify_solution` must reject every member with a
typed finding, at every seed, while the honest optimum certifies::

    python -m repro.robust.campaign certify --count 3 --capacity 250
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.certify import bellman as _bellman
from repro.certify.engine import certify_result, certify_solution
from repro.certify.report import CertificationReport
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system
from repro.errors import CertificationError

#: Every corruption kind the corpus generates.
CORRUPTION_KINDS = (
    "action-flip",
    "gain-perturbation",
    "stale-ghost",
    "invalid-action",
)

#: Minimum gain degradation (relative to scale) an action flip must
#: cause to enter the corpus -- flips in zero-occupancy states can be
#: gain-neutral and legitimately certify.
FLIP_MARGIN = 1e-4


@dataclass(frozen=True)
class CorruptedPolicy:
    """One corpus member: a corrupted policy plus its (false) claim."""

    kind: str
    seed: int
    description: str
    assignment: "Dict[Hashable, Hashable]"
    weight: float
    claimed_metrics: "Dict[str, float]"

    def certify(self, model, **kwargs) -> CertificationReport:
        """Run the engine against this member (must come back failed)."""
        return certify_solution(
            model,
            self.assignment,
            weight=self.weight,
            claimed_metrics=self.claimed_metrics,
            **kwargs,
        )


def _claimed(metrics) -> "Dict[str, float]":
    return {
        "average_power": float(metrics.average_power),
        "average_queue_length": float(metrics.average_queue_length),
    }


def _flip_candidates(mdp, assignment, rng) -> "List[Tuple[Hashable, Hashable]]":
    candidates = [
        (state, action)
        for state in mdp.states
        for action in mdp.actions(state)
        if action != assignment[state]
    ]
    rng.shuffle(candidates)
    return candidates


def _action_flip(model, mdp, base, rng, seed) -> CorruptedPolicy:
    """Flip one action so the gain measurably degrades (or evaluation
    turns singular) while the claimed metrics still describe the
    optimum."""
    from repro.ctmdp.policy import Policy

    assignment = base.policy.as_dict()
    base_gain = (
        base.metrics.average_power
        + base.weight * base.metrics.average_queue_length
    )
    scale = max(1.0, abs(base_gain))
    for state, action in _flip_candidates(mdp, assignment, rng):
        corrupted = dict(assignment)
        corrupted[state] = action
        try:
            gain, _, _ = _bellman.independent_evaluation(
                mdp, Policy(mdp, corrupted)
            )
        except np.linalg.LinAlgError:
            degradation = float("inf")  # multichain: certifiably broken
        else:
            # The evaluation is in the built CTMDP's stored units; the
            # claim is in original units (exact for power-of-two scales).
            degradation = gain / mdp.rate_scale - base_gain
        if degradation > FLIP_MARGIN * scale:
            return CorruptedPolicy(
                kind="action-flip",
                seed=seed,
                description=f"state {state!r} flipped to {action!r} "
                f"(gain +{degradation:.3g})",
                assignment=corrupted,
                weight=base.weight,
                claimed_metrics=_claimed(base.metrics),
            )
    raise CertificationError(
        "no action flip degrades the gain measurably -- the corpus "
        "cannot corrupt this model"
    )


def _gain_perturbation(model, base, rng, seed) -> CorruptedPolicy:
    factor = 1.0 + float(rng.choice([-1.0, 1.0])) * float(
        rng.uniform(0.01, 0.1)
    )
    claimed = _claimed(base.metrics)
    claimed["average_power"] *= factor
    return CorruptedPolicy(
        kind="gain-perturbation",
        seed=seed,
        description=f"claimed average power scaled by {factor:.4f}",
        assignment=base.policy.as_dict(),
        weight=base.weight,
        claimed_metrics=claimed,
    )


def _stale_ghost(model, base, rng, seed) -> CorruptedPolicy:
    """A policy solved for a different operating point, served with
    that point's metrics -- the reuse-layer failure mode."""
    base_rate = model.requestor.rate
    ghosts = [
        (base_rate * 4.0, base.weight),
        (base_rate / 4.0, base.weight),
        (base_rate, base.weight * 8.0 + 5.0),
        (base_rate * 6.0, base.weight * 10.0 + 10.0),
    ]
    order = list(rng.permutation(len(ghosts)))
    for index in order:
        rate, weight = ghosts[index]
        ghost = optimize_weighted(rated_model(model, rate), weight)
        if ghost.policy.as_dict() != base.policy.as_dict():
            return CorruptedPolicy(
                kind="stale-ghost",
                seed=seed,
                description=f"policy for rate={rate:.4g}, w={weight:.4g} "
                f"served at rate={base_rate:.4g}, w={base.weight:.4g}",
                assignment=ghost.policy.as_dict(),
                weight=base.weight,
                claimed_metrics=_claimed(ghost.metrics),
            )
    raise CertificationError(
        "every ghost operating point yields the same policy -- the "
        "corpus cannot build a stale-ghost member for this model"
    )


def _invalid_action(model, mdp, base, rng, seed) -> CorruptedPolicy:
    assignment = base.policy.as_dict()
    states = list(mdp.states)
    state = states[int(rng.integers(len(states)))]
    valid = set(mdp.actions(state))
    foreign = sorted(
        {a for s in states for a in mdp.actions(s)} - valid, key=repr
    )
    bogus = foreign[0] if foreign else "__corrupt-mode__"
    corrupted = dict(assignment)
    corrupted[state] = bogus
    return CorruptedPolicy(
        kind="invalid-action",
        seed=seed,
        description=f"state {state!r} commands inadmissible {bogus!r}",
        assignment=corrupted,
        weight=base.weight,
        claimed_metrics=_claimed(base.metrics),
    )


def build_corpus(
    model,
    weight: float = 0.5,
    seed: int = 0,
    kinds: "Sequence[str]" = CORRUPTION_KINDS,
) -> "List[CorruptedPolicy]":
    """Solve *model* honestly, then corrupt the solution every way.

    Deterministic in ``(model, weight, seed)``; raises
    :class:`~repro.errors.CertificationError` if a requested corruption
    cannot be constructed (better loud than a silently empty corpus).
    """
    unknown = sorted(set(kinds) - set(CORRUPTION_KINDS))
    if unknown:
        raise CertificationError(
            f"unknown corruption kinds {unknown}; valid: {CORRUPTION_KINDS}"
        )
    rng = np.random.default_rng(seed)
    base = optimize_weighted(model, weight)
    mdp = model.build_ctmdp(weight)
    members: "List[CorruptedPolicy]" = []
    for kind in CORRUPTION_KINDS:
        if kind not in kinds:
            continue
        if kind == "action-flip":
            members.append(_action_flip(model, mdp, base, rng, seed))
        elif kind == "gain-perturbation":
            members.append(_gain_perturbation(model, base, rng, seed))
        elif kind == "stale-ghost":
            members.append(_stale_ghost(model, base, rng, seed))
        elif kind == "invalid-action":
            members.append(_invalid_action(model, mdp, base, rng, seed))
    return members


def case(seed: int, capacity: int = 3) -> "Dict[str, Any]":
    """The campaign case at *seed* (:mod:`repro.robust.campaign`).

    On ``rated_model(paper_system(capacity), 1/6)`` at ``w = 0.5`` the
    honest optimum must certify, and every member of the seed's corpus
    must be rejected; any other verdict is a violation.
    """
    model = rated_model(paper_system(capacity=capacity), 1 / 6)
    reports = {"base": certify_result(model, optimize_weighted(model, 0.5))}
    for member in build_corpus(model, weight=0.5, seed=seed):
        reports[member.kind] = member.certify(model)
    return {
        "outcome": reports["base"].verdict,
        "verdicts": {name: r.verdict for name, r in reports.items()},
        "findings": {name: r.finding_codes for name, r in reports.items()},
        "violations": [
            f"{name}: verdict {r.verdict}, findings {r.finding_codes}"
            for name, r in reports.items()
            if r.certified != (name == "base")
        ],
    }
