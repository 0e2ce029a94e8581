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

The contract, enforced by tests and the CI ``certification`` job, is
*zero false certifications*: :func:`repro.certify.certify_solution`
must reject every member with a typed finding, at every seed.

Run directly for CI::

    python -m repro.certify.corpus --seed 0 --out certs/

exits non-zero if the honest baseline fails certification or any
corrupted member passes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.certify import bellman as _bellman
from repro.certify.engine import certify_solution
from repro.certify.report import CertificationReport
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_weighted
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


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    """CI entry point: honest base must certify, every member must not."""
    import argparse
    import json
    import pathlib

    from repro.certify.engine import certify_result
    from repro.dpm.presets import paper_system

    parser = argparse.ArgumentParser(
        description="Run the adversarial certification corpus."
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rate", type=float, default=1 / 6)
    parser.add_argument("--capacity", type=int, default=3)
    parser.add_argument("--weight", type=float, default=0.5)
    parser.add_argument(
        "--out", type=pathlib.Path, default=None,
        help="directory for certificate JSON artifacts",
    )
    args = parser.parse_args(argv)

    model = rated_model(paper_system(capacity=args.capacity), args.rate)
    base = optimize_weighted(model, args.weight)
    reports: "List[Tuple[str, CertificationReport]]" = [
        ("base", certify_result(model, base))
    ]
    for member in build_corpus(model, weight=args.weight, seed=args.seed):
        reports.append((member.kind, member.certify(model)))

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        for name, report in reports:
            path = args.out / f"seed{args.seed}-{name}.cert.json"
            path.write_text(json.dumps(report.to_document(), indent=2))

    failures = []
    for name, report in reports:
        want_certified = name == "base"
        ok = report.certified == want_certified
        print(
            f"{'OK  ' if ok else 'FAIL'} {name}: verdict={report.verdict} "
            f"findings={report.finding_codes}"
        )
        if not ok:
            failures.append(name)
    if failures:
        print(f"certification corpus FAILED: {failures}")
        return 1
    print(f"certification corpus passed at seed {args.seed}: "
          f"base certified, {len(reports) - 1} corruptions rejected")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
