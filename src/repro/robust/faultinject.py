"""Deterministic fault injection for the parallel execution layer.

Testing recovery code is the hard part of writing it: a retry path that
never fires in CI is a retry path that is broken in production. This
module gives the ``tests/robust`` suite (and CI's fault-injection job)
a way to make a *chosen* worker crash, hang past the timeout, or return
NaN-contaminated results -- deterministically, without sleeping on race
conditions or patching internals.

Design:

- A :class:`FaultPlan` is a list of :class:`Fault` records, each naming
  the *item index* it targets, the fault ``kind``, and how many
  *attempts* it fires on (``times``, default 1 -- so the first retry of
  the chunk succeeds, exercising exactly one recovery round).
- :func:`inject` installs the plan in a module global for the duration
  of a ``with`` block. Forked pool workers inherit the plan through the
  process image, exactly like the work itself -- nothing crosses the
  process boundary at runtime.
- Faults fire **only inside pool workers**: the chunk runner marks the
  process as a worker via :func:`mark_worker`, and :func:`maybe_fault`
  is a no-op elsewhere. The serial degradation path therefore always
  makes progress (it runs in the parent), and a hang can never wedge
  the parent process.
- Determinism comes from keying on ``(item index, attempt number)``,
  both of which the parent controls: the attempt counter is threaded
  into the worker with the chunk assignment, so no mutable state needs
  to survive a worker crash.

``kind`` semantics:

- ``"crash"`` -- the worker dies abruptly (``os._exit(1)``), modeling a
  segfaulting native library or an OOM kill; the parent sees a dead
  process / closed pipe.
- ``"hang"`` -- the worker sleeps for ``seconds`` (default far beyond
  any test timeout) before continuing, modeling a deadlocked or
  livelocked worker; the parent's per-chunk deadline fires first and
  the worker is terminated.
- ``"nan"`` -- the item's result is replaced by ``float("nan")``,
  modeling silent numerical corruption; the parent's result validation
  rejects the chunk.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Sequence

from repro.errors import ReproError

KINDS = ("crash", "hang", "nan")


class FaultInjectionError(ReproError):
    """A fault plan is malformed (unknown kind, negative index...)."""


@dataclass(frozen=True)
class Fault:
    """One injected fault: fire ``kind`` on ``item`` for the first
    ``times`` attempts of the chunk containing it."""

    kind: str
    item: int
    times: int = 1
    seconds: float = 3600.0  # hang duration; terminated long before

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; choose from {KINDS}"
            )
        if self.item < 0:
            raise FaultInjectionError(f"fault item index must be >= 0, got {self.item}")
        if self.times < 1:
            raise FaultInjectionError(f"fault times must be >= 1, got {self.times}")


@dataclass
class FaultPlan:
    """A set of faults to inject into one ``parallel_map`` call."""

    faults: "List[Fault]" = field(default_factory=list)

    def add(self, kind: str, item: int, times: int = 1, seconds: float = 3600.0) -> "FaultPlan":
        self.faults.append(Fault(kind=kind, item=item, times=times, seconds=seconds))
        return self

    def fault_for(self, item: int, attempt: int) -> "Optional[Fault]":
        """The armed fault for *item* on this *attempt*, if any.

        ``attempt`` counts from 0 (the first execution of the chunk);
        a fault with ``times=k`` fires on attempts ``0..k-1`` and is
        disarmed -- purely by arithmetic -- afterwards.
        """
        for fault in self.faults:
            if fault.item == item and attempt < fault.times:
                return fault
        return None


#: The active plan (``None`` = no injection) and the worker marker.
#: Both are inherited by forked workers through the process image.
_plan: "Optional[FaultPlan]" = None
_in_worker = False


@contextmanager
def inject(plan: FaultPlan) -> "Iterator[FaultPlan]":
    """Activate *plan* for the block; restores the previous plan on exit."""
    global _plan
    previous = _plan
    _plan = plan
    try:
        yield plan
    finally:
        _plan = previous


def active_plan() -> "Optional[FaultPlan]":
    return _plan


def mark_worker() -> None:
    """Record that this process is a pool worker (called after fork).

    Faults only fire in marked processes, so the parent's serial
    degradation path is immune by construction. The flag needs no
    reset: a forked worker never becomes the parent again.
    """
    global _in_worker
    _in_worker = True


def maybe_fault(item: int, attempt: int, result: Any) -> Any:
    """Apply the armed fault for ``(item, attempt)``, if any.

    Called by the chunk runner after computing each item's result.
    Crash faults never return; hang faults sleep then return the result
    untouched; NaN faults replace the result.
    """
    if _plan is None or not _in_worker:
        return result
    fault = _plan.fault_for(item, attempt)
    if fault is None:
        return result
    if fault.kind == "crash":
        # Abrupt death: no exception, no cleanup -- the parent must
        # detect the dead process, exactly like a segfault.
        os._exit(1)
    if fault.kind == "hang":
        time.sleep(fault.seconds)
        return result
    return float("nan")


def nan_contaminated(results: "Sequence[Any]") -> bool:
    """True if any result in the chunk is a float NaN.

    The default chunk validator installed by
    :func:`repro.sim.parallel.parallel_map` when fault injection is
    active; real callers pass their own ``validate`` when their result
    type needs deeper inspection.
    """
    return any(isinstance(r, float) and r != r for r in results)


# ---------------------------------------------------------------------------
# Numerical fault injection (the post-PR-6 solver ladder)
# ---------------------------------------------------------------------------

#: Faults injectable into the sparse numerical ladder:
#:
#: - ``"direct-fail"`` -- the sparse direct LU solve raises, forcing
#:   the ILU-GMRES rescue rung (models SuperLU failure on a matrix the
#:   ladder must still solve).
#: - ``"ilu-breakdown"`` -- ILU factorization raises inside the
#:   preconditioner builder, forcing the Jacobi fallback (models spilu
#:   breakdown on near-singular pivots).
#: - ``"krylov-stall"`` -- the GMRES rung's solution is replaced with
#:   NaN, modeling non-convergence; the ladder must fail with a typed
#:   :class:`~repro.errors.SolverError`, never return the vector.
#: - ``"singular-lu"`` -- SuperLU reports the system singular; the
#:   ladder must fail fast with a typed error (no GMRES rescue), and
#:   warm-started sweeps must fall back to a cold start with identical
#:   results.
NUMERICAL_KINDS = (
    "direct-fail",
    "ilu-breakdown",
    "krylov-stall",
    "singular-lu",
)


@dataclass
class NumericalFaultPlan:
    """Armed numerical faults, counted down as the hooks consume them.

    Unlike :class:`FaultPlan` these fire *in-process* (the numerical
    ladder runs in the solver's own process, not a pool worker): the
    hook sites in :mod:`repro.ctmdp.sparse` call :func:`numerical_fault`
    and a fired fault is consumed -- ``arm(kind, times=2)`` fires on the
    first two reaches of the site, then the real numerics resume. ``fired``
    records consumption so tests can assert the fault actually
    exercised the rung it targets.
    """

    armed: "dict[str, int]" = field(default_factory=dict)
    fired: "dict[str, int]" = field(default_factory=dict)

    def arm(self, kind: str, times: int = 1) -> "NumericalFaultPlan":
        if kind not in NUMERICAL_KINDS:
            raise FaultInjectionError(
                f"unknown numerical fault kind {kind!r}; "
                f"choose from {NUMERICAL_KINDS}"
            )
        if times < 1:
            raise FaultInjectionError(f"fault times must be >= 1, got {times}")
        self.armed[kind] = self.armed.get(kind, 0) + int(times)
        return self

    def consume(self, kind: str) -> bool:
        remaining = self.armed.get(kind, 0)
        if remaining <= 0:
            return False
        self.armed[kind] = remaining - 1
        self.fired[kind] = self.fired.get(kind, 0) + 1
        return True


_numerical_plan: "Optional[NumericalFaultPlan]" = None


@contextmanager
def inject_numerical(
    plan: NumericalFaultPlan,
) -> "Iterator[NumericalFaultPlan]":
    """Activate *plan* for the block; restores the previous plan on exit."""
    global _numerical_plan
    previous = _numerical_plan
    _numerical_plan = plan
    try:
        yield plan
    finally:
        _numerical_plan = previous


def numerical_fault(kind: str) -> bool:
    """Consume one armed numerical fault of *kind*, if any.

    The hook the ladder's rungs call at their injection points; with no
    plan active (production) this is one global read and a ``None``
    check.
    """
    if _numerical_plan is None:
        return False
    return _numerical_plan.consume(kind)
