"""Fault-tolerance layer: guardrails, checkpoints, fault injection.

The reproduction's workflow is a long chain of fragile numerics -- build
the joint SYS generator, solve the average-cost system, sweep weights
and replications -- and production use cannot afford a bare traceback
at the first singular matrix or crashed pool worker. This package
hardens the stack in independent pieces:

- :mod:`repro.robust.guardrails` -- numerical guardrails for the dense
  linear solves at the heart of policy evaluation: finite/residual
  checks, a least-squares fallback before giving up, and structured
  :class:`~repro.errors.SolverError` diagnostics payloads.
- :mod:`repro.robust.checkpoint` -- config-hash-keyed JSON checkpoints
  for the long-running drivers (frontier sweeps, weight searches,
  replication campaigns) so an interrupted run resumes to bit-identical
  final output.
- :mod:`repro.robust.faultinject` -- deterministic, seed-free fault
  injectors (worker crash, hang, NaN contamination) that the
  ``tests/robust`` suite uses to prove every recovery path in
  :func:`repro.sim.parallel.parallel_map` actually fires.
- :mod:`repro.robust.admission` -- the model-admission gate: structural
  and numerical checks plus an exact remediation ladder that every
  model-construction entry point routes through, producing a
  structured :class:`~repro.robust.admission.AdmissionReport`.
- :mod:`repro.robust.fuzz` -- the seeded adversarial-model fuzzer that
  drives degenerate models through admission, every solver tier and
  the simulator, asserting the "typed error or correct answer"
  invariant end to end.
- :mod:`repro.robust.campaign` -- the one seed rule, runner, reproducer
  format and entry point of the seeded campaigns: the fuzzer, the
  certification corpus and the serving chaos soak.

The recovery ladder itself (per-chunk timeouts, crashed-worker
detection, bounded deterministic retry, graceful degradation to serial
execution) lives in :mod:`repro.sim.parallel`, which consumes the
hooks defined here. DESIGN.md section 8 documents the failure
semantics end to end.
"""

from repro.robust.admission import (
    AdmissionReport,
    Finding,
    admit_ctmdp,
    admit_inputs,
    admit_model,
)
from repro.robust.checkpoint import Checkpoint, config_hash
from repro.robust.faultinject import Fault, FaultPlan, inject
from repro.robust.guardrails import (
    guardrails_disabled,
    solve_with_fallback,
    system_diagnostics,
)

__all__ = [
    "AdmissionReport",
    "Finding",
    "admit_ctmdp",
    "admit_inputs",
    "admit_model",
    "Checkpoint",
    "config_hash",
    "Fault",
    "FaultPlan",
    "inject",
    "guardrails_disabled",
    "solve_with_fallback",
    "system_diagnostics",
]
