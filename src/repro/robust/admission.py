"""The model-admission gate: every model earns its way to a solver.

PR 4 hardened the *execution* layer; this module hardens the *inputs*.
A user-supplied provider/queue configuration with a zero rate, a
disconnected mode graph, or a 1e9:1 stiffness ratio used to reach
``policy_iteration`` or the simulator raw and fail deep inside linear
algebra -- or converge to garbage silently. The paper engineers its
action-validity constraints precisely so the SYS chain stays connected
and the average-cost limit exists (Section III); here that guarantee
becomes a checked precondition.

Three admission levels trade cost for depth:

- ``"entry"`` -- cheap input-domain checks (:func:`admit_inputs`) wired
  directly into :class:`~repro.dpm.system.PowerManagedSystemModel` and
  the simulator: finite positive rates, sane capacity. O(modes^2).
- ``"standard"`` (default) -- everything above, plus structural checks
  on the built CTMDP's compiled arrays (conservation, nonnegativity,
  non-empty action sets) and the numerical diagnostics: stiffness
  ratio, near-zero and near-duplicate rates, extreme rate magnitudes,
  dynamic range. O(pairs x states) NumPy reductions.
- ``"full"`` -- everything above, plus a condition estimate of the
  policy-evaluation system (SVD of the bordered system for the
  first-listed policy) and the per-policy unichain sweep of
  :mod:`repro.dpm.verification` under a sample budget.

Checks produce :class:`Finding` records with a stable ``code``, a
severity, precise state/action coordinates, and (where one exists) a
remediation hint. :func:`admit_model` folds them into an
:class:`AdmissionReport` whose verdict is

- ``"ok"`` -- no findings above ``info``/``warning``;
- ``"repaired"`` -- an ``error``-free model whose rate magnitudes
  required the remediation ladder (canonical power-of-two rate
  rescaling, recorded in ``report.remediation`` and applied in
  ``report.repaired_model``; uniformization-slack advice for stiff
  chains);
- ``"rejected"`` -- at least one ``error`` finding; with
  ``raise_on_reject=True`` (the default for the library entry points)
  a :class:`~repro.errors.ModelRejectedError` carrying the report.

The rescaling remediation is *exact*: the factor is a power of two and
the solvers normalize their linear systems by the canonical exponent
shift (see :func:`repro.markov.generator.canonical_shift`), so a
repaired model produces policies, biases, stationary distributions and
(after dividing the gain by ``rate_scale``) gains bit-identical to the
unscaled solve whenever the unscaled solve succeeds at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import InvalidModelError, ModelRejectedError
from repro.markov.generator import canonical_shift
from repro.obs.runtime import active as obs_active

# -- thresholds --------------------------------------------------------------

#: Stiffness ratio (max/min positive exit rate) above which uniformized
#: methods degrade; flagged as a warning with a slack recommendation.
STIFFNESS_WARN = 1e8

#: Rates below this fraction of the largest rate are structurally zero
#: at double precision (the classify layer drops such edges too).
NEAR_ZERO_RELATIVE = 1e-9

#: Max exit rates outside ``[2**-20, 2**20]`` (~1e-6 .. ~1e6 in natural
#: units) trigger the canonical-rescaling remediation.
RATE_SCALE_LO_EXP = -20
RATE_SCALE_HI_EXP = 20

#: Beyond ~2**600 of dynamic range between the largest and smallest
#: positive rate, the exactness of exponent shifts is lost to denormals
#: and no rescaling can represent both ends; such models are rejected.
DYNAMIC_RANGE_LIMIT_EXP = 600

#: Condition estimate of the policy-evaluation system: warn above 1e10
#: (few trustworthy digits left), reject near machine-singular.
CONDITION_WARN = 1e10
CONDITION_REJECT = 1e15

#: Two actions of one state whose rate rows and costs agree within this
#: relative tolerance are near-duplicates (an informational finding --
#: harmless, but usually a config mistake).
DUPLICATE_RTOL = 1e-12

#: The full-level condition estimate runs a dense SVD of the bordered
#: evaluation system -- O(n^3); above this state count it is skipped and
#: the skip recorded in the diagnostics.
CONDITION_STATE_LIMIT = 2048

#: The near-duplicate-action lint sorts every (state, action) pair by
#: (state, exit rate, cost) -- the lexsort alone is half the gate's cost
#: at 2.5e5 pairs. It is a config smell detector, not a correctness
#: check, so above this pair count it is skipped (and the skip
#: recorded), keeping the sparse gate's overhead within its <3% budget
#: at 1e5 states.
DUPLICATE_PAIR_LIMIT = 100_000

#: Kronecker models at or below this state count are densified through
#: ``to_ctmdp`` so the per-entry checks (near-zero rates, duplicate
#: actions, precise coordinates) apply; above it the gate stays
#: matrix-free.
KRON_DENSIFY_LIMIT = 512

LEVELS = ("entry", "standard", "full")

#: Documented finding codes -> one-line fix, mirrored in the README
#: troubleshooting table.
FINDING_CODES = (
    "nonfinite-rate",
    "nonfinite-cost",
    "negative-rate",
    "nonconservative-row",
    "empty-action-set",
    "zero-exit-state",
    "near-zero-rate",
    "near-duplicate-actions",
    "extreme-rate-scale",
    "high-stiffness",
    "extreme-dynamic-range",
    "ill-conditioned-evaluation",
    "multichain-policy",
)


@dataclass(frozen=True)
class Finding:
    """One admission check result.

    ``code`` is one of :data:`FINDING_CODES`; ``severity`` is ``"info"``,
    ``"warning"``, ``"repair"`` (fixable by the remediation ladder) or
    ``"error"`` (grounds for rejection). ``state``/``action`` pin the
    finding to model coordinates where it has any.
    """

    code: str
    severity: str
    message: str
    state: Optional[str] = None
    action: Optional[str] = None
    value: Optional[float] = None
    remediation: Optional[str] = None

    def to_dict(self) -> "Dict[str, Any]":
        out: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        for key in ("state", "action", "remediation"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.value is not None:
            out["value"] = float(self.value)
        return out


@dataclass
class AdmissionReport:
    """Structured outcome of :func:`admit_model` / :func:`admit_ctmdp`.

    Attributes
    ----------
    verdict:
        ``"ok"``, ``"repaired"`` or ``"rejected"``.
    level:
        The admission level that ran.
    findings:
        All findings, construction order.
    diagnostics:
        Numerical summary (max/min exit rate, stiffness ratio,
        canonical shift, condition estimate when computed, ...).
    remediation:
        The applied/recommended remediation parameters -- e.g.
        ``{"rate_scale_exponent": -30, "uniformization_slack": 1.2}``.
    repaired_model:
        For ``"repaired"`` verdicts on a
        :class:`~repro.dpm.system.PowerManagedSystemModel`: the rescaled
        model to solve instead (``None`` otherwise). Solver gains from
        it divide by its ``rate_scale`` to recover original units --
        exactly, since the factor is a power of two.
    admitted_mdp:
        The built CTMDP that passed admission -- the repaired build when
        a remediation was applied, the original build otherwise, and
        ``None`` when rejected (or at ``"entry"`` level, which never
        builds). Solving this avoids rebuilding the model the gate
        already built and compiled.
    """

    verdict: str
    level: str
    findings: "List[Finding]" = field(default_factory=list)
    diagnostics: "Dict[str, Any]" = field(default_factory=dict)
    remediation: "Dict[str, Any]" = field(default_factory=dict)
    repaired_model: Optional[Any] = None
    admitted_mdp: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.verdict != "rejected"

    def errors(self) -> "List[Finding]":
        return [f for f in self.findings if f.severity == "error"]

    def to_dict(self) -> "Dict[str, Any]":
        """JSON-serializable form (exported via :mod:`repro.obs`)."""
        return {
            "verdict": self.verdict,
            "level": self.level,
            "findings": [f.to_dict() for f in self.findings],
            "diagnostics": {
                k: (v.item() if isinstance(v, np.generic) else v)
                for k, v in self.diagnostics.items()
            },
            "remediation": dict(self.remediation),
        }


# -- entry level -------------------------------------------------------------

def admit_inputs(provider, requestor, capacity: int) -> None:
    """Entry-level admission: input-domain checks, raising on violation.

    Wired into every construction entry point (SYS model, simulator).
    The provider/requestor constructors already enforce their own
    domains; this re-checks the cross-cutting finiteness/positivity
    invariants so that subclasses or hand-built stand-ins cannot smuggle
    degenerate rates past the gate. ``requestor`` may be ``None`` for
    entry points whose workload is not a rate (trace-driven
    simulation).
    """
    if int(capacity) < 1:
        raise InvalidModelError(f"queue capacity must be >= 1, got {capacity}")
    if requestor is not None:
        lam = float(requestor.rate)
        if not (np.isfinite(lam) and lam > 0.0):
            raise InvalidModelError(
                f"arrival rate must be positive and finite, got {lam!r}"
            )
    modes = provider.modes
    if not modes:
        raise InvalidModelError("provider has no modes")
    if not provider.active_modes:
        raise InvalidModelError("provider has no active mode (all mu == 0)")
    for m in modes:
        mu = float(provider.service_rate(m))
        if not np.isfinite(mu) or mu < 0.0:
            raise InvalidModelError(f"service rate of mode {m!r} is {mu!r}")
        p = float(provider.power_rate(m))
        if not np.isfinite(p) or p < 0.0:
            raise InvalidModelError(f"power rate of mode {m!r} is {p!r}")
        for d in modes:
            if d == m:
                continue
            chi = float(provider.switching_rate(m, d))
            if not np.isfinite(chi) or chi <= 0.0:
                raise InvalidModelError(
                    f"switching rate {m!r} -> {d!r} must be positive and "
                    f"finite, got {chi!r}"
                )
            ene = float(provider.switching_energy(m, d))
            if not np.isfinite(ene) or ene < 0.0:
                raise InvalidModelError(
                    f"switching energy {m!r} -> {d!r} is {ene!r}"
                )


# -- structural + numerical checks on a built CTMDP --------------------------

def _row_diff_max(g, p_a: int, p_b: int) -> float:
    """Max absolute elementwise difference of generator rows, dense or CSR."""
    if isinstance(g, np.ndarray):
        return float(np.max(np.abs(g[p_a] - g[p_b]), initial=0.0))
    diff = g[[p_a]] - g[[p_b]]
    return float(np.abs(diff.toarray()).max()) if diff.nnz else 0.0


def _structural_findings(comp, entries) -> "List[Finding]":
    findings: List[Finding] = []
    rows, cols, vals = entries
    if np.any(np.diff(comp.pair_offset) == 0):
        for i in np.nonzero(np.diff(comp.pair_offset) == 0)[0]:
            findings.append(Finding(
                code="empty-action-set", severity="error",
                message="state has no admissible action",
                state=repr(comp.states[int(i)]),
            ))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        for k in np.nonzero(bad)[0]:
            p, j = int(rows[k]), int(cols[k])
            findings.append(Finding(
                code="nonfinite-rate", severity="error",
                message=f"rate to column {j} is {float(vals[k])!r}",
                state=repr(comp.states[int(comp.pair_state[p])]),
                action=repr(comp.actions[int(comp.pair_state[p])]
                            [int(comp.pair_col[p])]),
            ))
        return findings  # magnitude checks below need finite entries
    if not np.all(np.isfinite(comp.cost)):
        for p in np.nonzero(~np.isfinite(comp.cost))[0]:
            findings.append(Finding(
                code="nonfinite-cost", severity="error",
                message=f"effective cost rate is {comp.cost[int(p)]!r}",
                state=repr(comp.states[int(comp.pair_state[int(p)])]),
                action=repr(comp.actions[int(comp.pair_state[int(p)])]
                            [int(comp.pair_col[int(p)])]),
            ))
    row_scale = np.bincount(
        rows, weights=np.abs(vals), minlength=comp.n_pairs
    )
    # Diagonals are negative by construction; only off-diagonal
    # negativity is structural.
    neg = (vals < -1e-9 * row_scale[rows]) & (cols != comp.pair_state[rows])
    if np.any(neg):
        for k in np.nonzero(neg)[0]:
            p, j = int(rows[k]), int(cols[k])
            findings.append(Finding(
                code="negative-rate", severity="error",
                message=f"rate to column {j} is {vals[k]:g}",
                state=repr(comp.states[int(comp.pair_state[p])]),
                action=repr(comp.actions[int(comp.pair_state[p])]
                            [int(comp.pair_col[p])]),
                value=float(vals[k]),
            ))
    row_sums = np.bincount(rows, weights=vals, minlength=comp.n_pairs)
    noncons = np.abs(row_sums) > 1e-9 * row_scale
    if np.any(noncons):
        for p in np.nonzero(noncons)[0]:
            findings.append(Finding(
                code="nonconservative-row", severity="error",
                message=(f"generator row sums to {row_sums[int(p)]:g} "
                         f"against magnitude {row_scale[int(p)]:g}"),
                state=repr(comp.states[int(comp.pair_state[int(p)])]),
                action=repr(comp.actions[int(comp.pair_state[int(p)])]
                            [int(comp.pair_col[int(p)])]),
                value=float(row_sums[int(p)]),
            ))
    return findings


def _exit_rate_findings(
    exit_rates, state_max_exit, label, diagnostics: "Dict[str, Any]",
    limit: "Optional[int]" = None,
) -> "tuple":
    """The exit-rate summary and the zero-exit warnings, shared by the
    pair and matrix-free views.

    Records ``max_exit_rate``, ``min_positive_exit_rate`` and
    ``canonical_shift`` into *diagnostics*, and warns about
    the first *limit* (all, for ``None``) states absorbing under every
    action (*state_max_exit* at most ``NEAR_ZERO_RELATIVE`` x the
    largest rate), naming each by ``label(index)``. Returns the
    findings and ``(max_rate, min_rate, shift)``.
    """
    max_rate = float(np.max(exit_rates, initial=0.0))
    positive = exit_rates[exit_rates > 0.0]
    min_rate = float(np.min(positive)) if positive.size else 0.0
    shift = canonical_shift(max_rate)
    diagnostics.update(
        max_exit_rate=max_rate,
        min_positive_exit_rate=min_rate,
        canonical_shift=shift,
    )
    findings: List[Finding] = []
    dead = state_max_exit <= NEAR_ZERO_RELATIVE * max_rate
    if len(state_max_exit) > 1 and np.any(dead):
        for i in np.nonzero(dead)[0][:limit]:
            findings.append(Finding(
                code="zero-exit-state", severity="warning",
                message=("state is absorbing under every action; the "
                         "chain cannot be irreducible"),
                state=repr(label(int(i))),
                value=float(state_max_exit[int(i)]),
            ))
    return findings, (max_rate, min_rate, shift)


def _rate_range_findings(
    max_rate: float, min_rate: float, shift: int,
    diagnostics: "Dict[str, Any]",
) -> "List[Finding]":
    """Stiffness, dynamic-range and rate-scale checks of the exit-rate
    summary, shared by the pair and matrix-free views."""
    findings: List[Finding] = []
    # Stiffness: widely separated time constants degrade uniformized
    # methods; recommend a slack slightly above 1 so the self-loop
    # probability of fast states stays bounded away from 0.
    if min_rate > 0.0 and max_rate > 0.0:
        stiffness = max_rate / min_rate
        diagnostics["stiffness_ratio"] = stiffness
        if stiffness > STIFFNESS_WARN:
            findings.append(Finding(
                code="high-stiffness", severity="warning",
                message=(f"exit-rate stiffness ratio {stiffness:.3g} exceeds "
                         f"{STIFFNESS_WARN:g}; uniformized value iteration "
                         "will need many sweeps"),
                value=float(stiffness),
                remediation=("prefer policy iteration; for value iteration "
                             "pass uniformization slack ~1.05 and a "
                             "time budget"),
            ))
        if stiffness > float(np.ldexp(1.0, DYNAMIC_RANGE_LIMIT_EXP)):
            findings.append(Finding(
                code="extreme-dynamic-range", severity="error",
                message=(f"rate dynamic range {stiffness:.3g} exceeds "
                         f"2**{DYNAMIC_RANGE_LIMIT_EXP}; no double-precision "
                         "rescaling can represent both ends"),
                value=float(stiffness),
            ))

    # Extreme overall magnitude: fixable by exact canonical rescaling.
    if max_rate > 0.0 and not (
        RATE_SCALE_LO_EXP <= shift <= RATE_SCALE_HI_EXP
    ):
        findings.append(Finding(
            code="extreme-rate-scale", severity="repair",
            message=(f"maximal exit rate {max_rate:.3g} (binary exponent "
                     f"{shift}) is outside the trusted magnitude window "
                     f"[2**{RATE_SCALE_LO_EXP}, 2**{RATE_SCALE_HI_EXP}]"),
            value=float(max_rate),
            remediation=(f"rescale rates by 2**{-shift} (exact); solver "
                         "gains divide by the same factor"),
        ))
    return findings


def _numerical_findings(
    comp, diagnostics: "Dict[str, Any]", entries
) -> "List[Finding]":
    rows, cols, vals = entries
    # Exit rates from the sparse diagonal entries (zero rows stay 0).
    exit_rates = np.zeros(comp.n_pairs)
    on_diag = cols == comp.pair_state[rows]
    exit_rates[rows[on_diag]] = -vals[on_diag]
    state_max_exit = np.zeros(comp.n_states)
    np.maximum.at(state_max_exit, comp.pair_state, exit_rates)
    findings, (max_rate, min_rate, shift) = _exit_rate_findings(
        exit_rates, state_max_exit, lambda i: comp.states[i], diagnostics
    )

    # Near-zero rates: positive but indistinguishable from a missing
    # edge at the chain's own magnitude. (Diagonals are <= 0, so the
    # strict positivity test already excludes them.)
    if max_rate > 0.0:
        near = (vals > 0.0) & (vals < NEAR_ZERO_RELATIVE * max_rate)
        count = int(np.count_nonzero(near))
        diagnostics["near_zero_rates"] = count
        if count:
            k = int(np.nonzero(near)[0][0])
            p, j = int(rows[k]), int(cols[k])
            findings.append(Finding(
                code="near-zero-rate", severity="warning",
                message=(f"{count} rate(s) below {NEAR_ZERO_RELATIVE:g} x "
                         "the maximal rate are structurally zero edges; "
                         f"first: rate {vals[k]:g} to column {j}"),
                state=repr(comp.states[int(comp.pair_state[p])]),
                action=repr(comp.actions[int(comp.pair_state[p])]
                            [int(comp.pair_col[p])]),
                value=float(vals[k]),
                remediation=("treat the edge as absent, or raise the rate "
                             "to its intended magnitude"),
            ))

    findings.extend(_rate_range_findings(max_rate, min_rate, shift, diagnostics))

    # Near-duplicate actions within a state (config smell, not an
    # error). Cheap vectorized prefilter first: duplicates must agree
    # on exit rate and cost, so sorting each state's pairs by those
    # scalars makes duplicates adjacent, and the full O(n_states) row
    # comparison runs only on the (rare) surviving neighbours.
    if comp.n_pairs > DUPLICATE_PAIR_LIMIT:
        diagnostics["duplicate_check"] = (
            f"skipped: n_pairs > {DUPLICATE_PAIR_LIMIT}"
        )
    elif comp.n_pairs > comp.n_states:
        costs = comp.cost
        rate_tol = DUPLICATE_RTOL * max(max_rate, 1e-300)
        cost_tol = DUPLICATE_RTOL * max(
            float(np.max(np.abs(costs), initial=0.0)), 1e-300
        )
        order = np.lexsort((costs, exit_rates, comp.pair_state))
        ps = comp.pair_state[order]
        ex = exit_rates[order]
        cs = costs[order]
        candidates = np.nonzero(
            (ps[1:] == ps[:-1])
            & (np.abs(ex[1:] - ex[:-1]) <= rate_tol)
            & (np.abs(cs[1:] - cs[:-1]) <= cost_tol)
        )[0]
        for k in candidates:
            p_a, p_b = int(order[k]), int(order[k + 1])
            if _row_diff_max(comp.generator, p_a, p_b) <= rate_tol:
                i = int(comp.pair_state[p_a])
                a_name = comp.actions[i][int(comp.pair_col[p_a])]
                b_name = comp.actions[i][int(comp.pair_col[p_b])]
                findings.append(Finding(
                    code="near-duplicate-actions", severity="info",
                    message=(f"actions {a_name!r} and {b_name!r} have "
                             "identical rates and costs"),
                    state=repr(comp.states[i]),
                    action=repr(a_name),
                ))
    return findings


def _condition_findings(comp, diagnostics: "Dict[str, Any]") -> "List[Finding]":
    """Condition estimate of the canonical evaluation system (full level)."""
    from repro.robust.guardrails import system_diagnostics

    findings: List[Finding] = []
    n = comp.n_states
    sel = comp.pair_offset[:-1]
    g_can, _, _ = comp.canonical()
    block = g_can[sel]
    if not isinstance(block, np.ndarray):
        block = block.toarray()
    a = np.zeros((n + 1, n + 1))
    a[:n, :n] = block
    a[:n, n] = -1.0
    a[n, 0] = 1.0
    info = system_diagnostics(a)
    cond = float(info.get("condition_number", np.inf))
    diagnostics["evaluation_condition_estimate"] = cond
    if cond > CONDITION_REJECT or not np.isfinite(cond):
        findings.append(Finding(
            code="ill-conditioned-evaluation", severity="error",
            message=(f"evaluation system condition estimate {cond:.3g} is "
                     "numerically singular at double precision"),
            value=cond,
        ))
    elif cond > CONDITION_WARN:
        findings.append(Finding(
            code="ill-conditioned-evaluation", severity="warning",
            message=(f"evaluation system condition estimate {cond:.3g} "
                     f"exceeds {CONDITION_WARN:g}; expect few trustworthy "
                     "digits in gain/bias"),
            value=cond,
            remediation="check for near-disconnected state clusters",
        ))
    return findings


def _kron_findings(kmdp, diagnostics: "Dict[str, Any]") -> "List[Finding]":
    """Matrix-free admission checks on a Kronecker model.

    Finiteness and conservation come from one ``G_a @ 1`` matvec per
    action; stiffness/scale diagnostics from the factored exit-rate
    diagonals. Per-entry checks (near-zero rates, near-duplicate
    actions, precise column coordinates) need entry enumeration and are
    skipped -- recorded in the diagnostics so reports say so.
    """
    findings: List[Finding] = []
    ones = np.ones(kmdp.n_states)
    for a, gen in enumerate(kmdp.generators):
        mask = kmdp.available[a]
        if not mask.any():
            continue
        if not np.all(np.isfinite(kmdp.costs[a][mask])):
            i = int(np.argmin(np.where(mask, np.isfinite(kmdp.costs[a]), True)))
            findings.append(Finding(
                code="nonfinite-cost", severity="error",
                message=f"effective cost rate is {float(kmdp.costs[a][i])!r}",
                state=repr(kmdp.state_label(i)),
                action=repr(kmdp.action_set[a]),
            ))
        if not gen.is_finite():
            findings.append(Finding(
                code="nonfinite-rate", severity="error",
                message="generator factors contain non-finite entries",
                action=repr(kmdp.action_set[a]),
            ))
            continue
        row_sums = gen.matvec(ones)
        tol = 1e-9 * max(gen.max_abs_entry(), 1.0)
        bad = mask & (np.abs(row_sums) > tol)
        if np.any(bad):
            i = int(np.argmax(bad))
            findings.append(Finding(
                code="nonconservative-row", severity="error",
                message=(f"generator row sums to {row_sums[i]:g} "
                         f"against magnitude {gen.max_abs_entry():g}"),
                state=repr(kmdp.state_label(i)),
                action=repr(kmdp.action_set[a]),
                value=float(row_sums[i]),
            ))
    if any(f.severity == "error" for f in findings):
        return findings

    exit_rates = kmdp.exit_rates()
    state_max_exit = np.max(
        np.where(kmdp.available, exit_rates, 0.0), axis=0
    )
    summary, (max_rate, min_rate, shift) = _exit_rate_findings(
        exit_rates, state_max_exit, kmdp.state_label, diagnostics, limit=10
    )
    diagnostics["entry_checks"] = "skipped: matrix-free Kronecker view"
    findings.extend(summary)
    findings.extend(_rate_range_findings(max_rate, min_rate, shift, diagnostics))
    return findings


def _record_report(report: AdmissionReport) -> None:
    """Labeled admission counters: one per gate, verdict, and finding.

    ``admission.findings.<code>`` makes the 13 finding codes queryable
    from a metrics export without parsing report JSON; verdict counters
    reflect the gate-level outcome (before any pipeline-level unichain
    escalation in :func:`admit_model`, which counts its own findings).
    """
    ins = obs_active()
    if not ins.enabled or ins.metrics is None:
        return
    metrics = ins.metrics
    metrics.counter("admission.gates").inc()
    metrics.counter(f"admission.verdict.{report.verdict}").inc()
    for finding in report.findings:
        metrics.counter(f"admission.findings.{finding.code}").inc()


def admit_ctmdp(
    mdp, level: str = "standard", backend: str = "auto"
) -> AdmissionReport:
    """Run the admission checks on a built model.

    Accepts a dense :class:`~repro.ctmdp.model.CTMDP`, a
    :class:`~repro.ctmdp.sparse.SparseCTMDP`, or a
    :class:`~repro.ctmdp.kron.KroneckerCTMDP`. Dense models admit
    through the compiled arrays; ``backend="sparse"`` (or ``"auto"``
    above the dense state limit) runs the identical scans on the CSR
    entry view instead -- same findings, no densification. Kronecker
    models at or below :data:`KRON_DENSIFY_LIMIT` states densify for
    full per-entry fidelity; larger ones use the matrix-free checks of
    :func:`_kron_findings`.

    Does not raise on findings; callers inspect the report (use
    :func:`admit_model` for the raising pipeline). Each call opens one
    ``admission.gate`` span (with per-phase child spans inside) and
    bumps the verdict/finding counters of :func:`_record_report`.
    """
    ins = obs_active()
    with ins.span(
        "admission.gate",
        level=level,
        backend=backend,
        n_states=int(mdp.n_states),
    ) as span:
        report = _admit_ctmdp_impl(mdp, level, backend)
        span.attrs.update(verdict=report.verdict)
        _record_report(report)
        return report


def _admit_ctmdp_impl(
    mdp, level: str, backend: str
) -> AdmissionReport:
    from repro.ctmdp.backends import BACKENDS, auto_tier
    from repro.ctmdp.compiled import compile_ctmdp
    from repro.ctmdp.kron import KroneckerCTMDP
    from repro.ctmdp.sparse import SparseCTMDP, compile_sparse_ctmdp

    if level not in LEVELS:
        raise InvalidModelError(f"unknown admission level {level!r}; use {LEVELS}")
    if backend not in BACKENDS:
        raise InvalidModelError(
            f"unknown backend {backend!r}; use one of {BACKENDS}"
        )
    diagnostics: Dict[str, Any] = {
        "n_states": mdp.n_states,
        "rate_scale": float(getattr(mdp, "rate_scale", 1.0)),
    }
    findings: List[Finding] = []

    ins = obs_active()
    if isinstance(mdp, KroneckerCTMDP):
        if mdp.n_states <= KRON_DENSIFY_LIMIT:
            diagnostics["admission_view"] = "densified-kron"
            # Stays inside the caller's admission.gate span/counters.
            inner = _admit_ctmdp_impl(mdp.to_ctmdp(), level, "compiled")
            inner.diagnostics.update(diagnostics)
            return inner
        diagnostics["admission_view"] = "matrix-free-kron"
        with ins.span("admission.kron"):
            findings.extend(_kron_findings(mdp, diagnostics))
        if level == "full":
            diagnostics["condition_check"] = (
                "skipped: matrix-free Kronecker view"
            )
        return AdmissionReport(
            verdict=_verdict(findings), level=level, findings=findings,
            diagnostics=diagnostics,
            remediation=_remediation(findings, diagnostics),
        )

    use_sparse = isinstance(mdp, SparseCTMDP) or backend == "sparse" or (
        backend in ("auto", "kron")
        and auto_tier(mdp.n_states)[0] == "sparse"
    )
    try:
        with ins.span("admission.compile"):
            if use_sparse:
                comp = compile_sparse_ctmdp(mdp)
                diagnostics["admission_view"] = "sparse"
            else:
                comp = compile_ctmdp(mdp)
    except InvalidModelError as exc:
        findings.append(Finding(
            code="empty-action-set", severity="error", message=str(exc),
        ))
        return AdmissionReport(
            verdict="rejected", level=level, findings=findings,
            diagnostics=diagnostics,
        )
    diagnostics["n_pairs"] = comp.n_pairs
    entries = comp.sparse_entries()
    with ins.span("admission.structural"):
        findings.extend(_structural_findings(comp, entries))
    if not any(f.code == "nonfinite-rate" for f in findings):
        with ins.span("admission.numerical"):
            findings.extend(_numerical_findings(comp, diagnostics, entries))
        if level == "full" and not any(
            f.severity == "error" for f in findings
        ):
            if comp.n_states <= CONDITION_STATE_LIMIT:
                with ins.span("admission.condition"):
                    findings.extend(_condition_findings(comp, diagnostics))
            else:
                diagnostics["condition_check"] = (
                    f"skipped: n_states > {CONDITION_STATE_LIMIT}"
                )
    verdict = _verdict(findings)
    remediation = _remediation(findings, diagnostics)
    return AdmissionReport(
        verdict=verdict, level=level, findings=findings,
        diagnostics=diagnostics, remediation=remediation,
    )


def _verdict(findings: "List[Finding]") -> str:
    if any(f.severity == "error" for f in findings):
        return "rejected"
    if any(f.severity == "repair" for f in findings):
        return "repaired"
    return "ok"


def _remediation(
    findings: "List[Finding]", diagnostics: "Dict[str, Any]"
) -> "Dict[str, Any]":
    out: Dict[str, Any] = {}
    if any(f.code == "extreme-rate-scale" for f in findings):
        out["rate_scale_exponent"] = -int(diagnostics.get("canonical_shift", 0))
    if any(f.code == "high-stiffness" for f in findings):
        out["uniformization_slack"] = 1.05
    return out


# -- the pipeline ------------------------------------------------------------

def admit_model(
    model,
    level: str = "standard",
    weight: float = 0.0,
    raise_on_reject: bool = True,
    sample_budget: int = 100,
    seed: int = 0,
    backend: str = "auto",
) -> AdmissionReport:
    """The single admission pipeline for every entry point.

    Accepts a :class:`~repro.dpm.system.PowerManagedSystemModel` or a
    raw :class:`~repro.ctmdp.model.CTMDP`. Runs entry checks, builds
    the CTMDP (SYS models), then the structural/numerical/conditioning
    checks of *level*; SYS models at ``"full"`` additionally get the
    per-policy unichain sweep of
    :func:`repro.dpm.verification.verify_all_policies_unichain` under
    *sample_budget*, which reads the CSR rows whichever *backend* built.

    When the only findings are fixable by the remediation ladder, the
    repaired (rescaled) model is built, re-checked, and returned on the
    report (``verdict="repaired"``, ``report.repaired_model``).

    ``backend`` selects the model representation SYS models build and
    admit through (see :func:`admit_ctmdp`); ``"auto"`` picks dense
    below the state-count threshold and the CSR view above it, so
    admission of a 10^5-state model never allocates the dense
    O(pairs x states) generator.

    Raises
    ------
    ModelRejectedError
        With ``raise_on_reject`` (default), when the verdict is
        ``"rejected"``; the exception carries the report.
    InvalidModelError
        From the entry-level input checks or the model's own
        constructors (these run before a report exists).
    """
    from repro.dpm.system import PowerManagedSystemModel, build_backend

    if level not in LEVELS:
        raise InvalidModelError(f"unknown admission level {level!r}; use {LEVELS}")

    is_sys = isinstance(model, PowerManagedSystemModel)
    if is_sys:
        admit_inputs(model.provider, model.requestor, model.capacity)
        if level == "entry":
            return AdmissionReport(verdict="ok", level=level)
        mdp = model.build_ctmdp(weight, backend=build_backend(backend))
    else:
        mdp = model
        if level == "entry":
            level = "standard"  # raw CTMDPs have no cheaper gate

    report = admit_ctmdp(mdp, level=level, backend=backend)

    if (is_sys and level == "full"
            and not any(f.severity == "error" for f in report.findings)):
        from repro.dpm.verification import verify_all_policies_unichain

        ins = obs_active()
        with ins.span(
            "admission.unichain", sample_budget=sample_budget
        ) as sweep_span:
            sweep = verify_all_policies_unichain(
                model, sample_budget=sample_budget, seed=seed
            )
            sweep_span.attrs.update(
                policies_checked=sweep.n_policies_checked,
                violations=len(sweep.violations),
            )
        report.diagnostics["unichain_policies_checked"] = sweep.n_policies_checked
        report.diagnostics["unichain_exhaustive"] = sweep.exhaustive
        if ins.enabled and ins.metrics is not None and sweep.violations:
            ins.metrics.counter(
                "admission.findings.multichain-policy"
            ).inc(len(sweep.violations))
        for assignment in sweep.violations:
            first = next(iter(assignment.items()))
            report.findings.append(Finding(
                code="multichain-policy", severity="error",
                message=("an admissible deterministic policy induces more "
                         "than one recurrent class; average-cost evaluation "
                         "is ill-posed"),
                state=repr(first[0]),
                action=repr(first[1]),
            ))
        report.verdict = _verdict(report.findings)
        report.remediation = _remediation(report.findings, report.diagnostics)

    if report.verdict != "rejected":
        report.admitted_mdp = mdp
    if report.verdict == "repaired" and is_sys:
        exponent = report.remediation.get("rate_scale_exponent")
        if exponent is not None:
            repaired = PowerManagedSystemModel(
                model.provider,
                model.requestor,
                model.capacity,
                include_transfer_states=model.include_transfer_states,
                rate_scale=float(np.ldexp(1.0, int(exponent))),
            )
            # Re-check the repaired model at the same structural level;
            # remediation must not merely move the problem.
            repaired_mdp = repaired.build_ctmdp(
                weight, backend=build_backend(backend))
            recheck = admit_ctmdp(repaired_mdp, level="standard", backend=backend)
            report.diagnostics["repaired_max_exit_rate"] = (
                recheck.diagnostics.get("max_exit_rate")
            )
            if recheck.verdict == "rejected":
                report.verdict = "rejected"
                report.findings.extend(recheck.findings)
                report.admitted_mdp = None
            else:
                report.repaired_model = repaired
                report.admitted_mdp = repaired_mdp

    if report.verdict == "rejected" and raise_on_reject:
        codes = sorted({f.code for f in report.errors()})
        raise ModelRejectedError(
            f"model rejected by admission: {', '.join(codes)}", report=report
        )
    return report
