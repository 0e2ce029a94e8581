"""The solve ladder every policy-evaluation solve runs through.

Each round of policy iteration solves one evaluation system
``c + G h = g 1``, ``h[ref] = 0``. On well-posed unichain models the
system is nonsingular and a direct factorization is the fastest route;
on ill-posed inputs (multichain models slipping through validation,
extreme rate ratios driving the condition number up) it either raises
or silently returns garbage. :meth:`Ladder.solve` wraps the solve in
one recovery ladder, written once for every tier:

1. **Rungs, in order.** A tier supplies its solvers as the ordered
   rungs (:class:`Rung`) of a :class:`Ladder` -- dense: LU then least squares
   (:func:`solve_with_fallback`); CSR: SuperLU then ILU-GMRES
   (:func:`repro.ctmdp.sparse.solve_sparse_with_fallback`); Kronecker:
   warm-started GMRES (:mod:`repro.ctmdp.kron`).
2. **Acceptance.** The first rung whose solution is finite and passes
   the tier's acceptance test -- a relative residual of at most
   :data:`RESIDUAL_RTOL` -- wins. For the direct rungs the test is one
   matrix-vector product, O(n^2) against the O(n^3) factorization, so
   the no-fault hot path stays within the <3 % overhead budget asserted
   by ``benchmarks/test_bench_robust_overhead``. A rung that raises, or
   whose solution is rejected, hands over to the next rung.
3. **Typed failure.** A rung that finds the system exactly singular
   (:class:`SingularSystem`) stops the ladder at once with a
   :class:`~repro.errors.SolverError` carrying ``reason:
   "singular_system"``; when every rung is rejected the ladder raises
   one ``SolverError`` with ``reason: "ladder_exhausted"``. Both carry
   each attempted rung's error and residual, the tier's own failure-path
   analysis (for the dense tier: condition number, rank, singular
   values -- an SVD that runs only here) and the caller's context.

The ladder is also where the solves are observed: the tier's span, its
per-rung acceptance counters, one residual-series row per solve (which
rung answered, why the ladder got there, the residual trajectory), the
fallback and exhaustion log lines, and the ``direct-fail`` /
``krylov-stall`` hooks of :class:`repro.robust.faultinject.NumericalFaultPlan`.

``guardrails_disabled()`` skips the dense tier's residual check -- it
exists purely so the overhead bench can measure that check.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import SolverError
from repro.obs.log import get_logger
from repro.obs.runtime import DISABLED
from repro.obs.runtime import active as obs_active
from repro.robust.faultinject import numerical_fault

#: Relative-residual acceptance threshold. A healthy solve lands near
#: machine epsilon, and anything above 1e-6 signals the solver lost the
#: system.
RESIDUAL_RTOL = 1e-6

#: Module switch for the overhead bench; never disable in production.
_enabled = True

#: Direct dense solver, module-level so tests can monkeypatch it to
#: force the fallback path on an otherwise healthy system.
_dense_solve = np.linalg.solve

logger = get_logger("robust.guardrails")


@contextmanager
def guardrails_disabled() -> "Iterator[None]":
    """Bypass the dense residual acceptance check (bench-only escape hatch)."""
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


def _relative_residual(
    a: np.ndarray, x: np.ndarray, b: np.ndarray,
    a_max: "Optional[float]" = None,
) -> float:
    """``||A x - b||_inf`` scaled by the problem's magnitude.

    *a_max* is an optional precomputed ``max |a_ij|``: iterative
    callers that assemble the same system from fixed arrays every
    round (policy iteration's bordered evaluation system) can compute
    per-row maxima once and hand the scale in, leaving the matvec as
    the check's only O(n^2) pass.
    """
    residual = float(np.abs(a @ x - b).max())
    if a_max is None:
        # max |a_ij| via two reduction scans instead of ``np.abs(a)``:
        # the O(n^2) |a| temporary was the single largest cost of the
        # acceptance check (see benchmarks/test_bench_robust_overhead).
        a_max = max(-float(a.min()), float(a.max()))
    scale = a_max * float(np.abs(x).max()) + float(np.abs(b).max())
    return residual / scale if scale > 0 else residual


def system_diagnostics(a: np.ndarray) -> "Dict[str, Any]":
    """Spectral diagnostics of a failed system (failure path only).

    Returns a JSON-serializable mapping with the matrix shape, its
    2-norm condition number, numerical rank, and smallest/largest
    singular values. This is a full SVD -- acceptable because it runs
    only when a solve has already failed.
    """
    singular_values = np.linalg.svd(a, compute_uv=False)
    largest = float(singular_values[0]) if len(singular_values) else 0.0
    smallest = float(singular_values[-1]) if len(singular_values) else 0.0
    tol = largest * max(a.shape) * np.finfo(float).eps
    return {
        "shape": list(a.shape),
        "condition_number": (largest / smallest) if smallest > 0 else float("inf"),
        "rank": int(np.count_nonzero(singular_values > tol)),
        "sigma_max": largest,
        "sigma_min": smallest,
    }


class SingularSystem(Exception):
    """Raised by a rung that finds the system exactly singular: the
    ladder stops there (``reason: "singular_system"``) rather than let a
    later rung return one member of a singular system's solution family."""


class Rung(NamedTuple):
    """One solver of a :class:`Ladder`.

    ``name`` labels the rung in series rows, span attributes and
    diagnostic keys (``<name>_error``, ``<name>_residual``) and selects
    the fault hook: ``direct-fail`` fires before a ``"direct"`` rung,
    ``krylov-stall`` after a ``"gmres"`` rung. ``label`` names it in
    messages; ``counter`` is bumped when its solution is accepted.
    """

    name: str
    label: str
    counter: Optional[str] = None


#: ``solver(callback, details) -> x``: one rung's solve. ``callback``
#: (``None`` unless instrumentation is on) takes a Krylov rung's
#: per-iteration residual norms; ``details`` takes facts about the
#: attempt (preconditioner, GMRES exit code) for the span, the series
#: row and the diagnostics. Raising ``RuntimeError``/``ValueError``
#: rejects the rung; :class:`SingularSystem` stops the ladder.
Solver = Callable[[Optional[Callable[[float], None]], Dict[str, Any]], np.ndarray]


@dataclass(frozen=True)
class Ladder:
    """A tier's ordered rungs and where its solves are observed.

    ``backend`` names the tier in diagnostics and log lines; ``span``
    and ``series`` name the tier's trace span and residual series (no
    span or rows when ``None``); ``failure_counter`` is bumped when
    every rung is rejected.
    """

    backend: str
    rungs: Tuple[Rung, ...]
    logger: logging.Logger
    span: Optional[str] = None
    series: Optional[str] = None
    failure_counter: Optional[str] = None

    def solve(
        self,
        solvers: "Sequence[Solver]",
        accept: "Optional[Callable[[np.ndarray], Tuple[float, Any]]]",
        what: str,
        context: "Optional[Dict[str, Any]]" = None,
        fields: "Optional[Dict[str, Any]]" = None,
        diagnose: "Optional[Callable[[], Dict[str, Any]]]" = None,
    ) -> Any:
        """Run *solvers* (one per rung, in order) until one is accepted.

        *accept* maps a finite candidate to ``(relative residual, value
        returned if accepted)``; ``None`` accepts any finite candidate
        (the rung's own convergence test decides). *fields* (sizes) go
        into the span, every series row and the diagnostics; *diagnose*
        adds the tier's failure-path analysis; *context* (iteration,
        reference state) is merged into the diagnostics.
        """
        ins = obs_active()
        metrics = ins.metrics if ins.enabled else None
        attempts: "Dict[str, Any]" = {}
        # The call's sizes, then whatever the rungs report.
        details: "Dict[str, Any]" = dict(fields or {})
        # Why the ladder reached its current rung: the previous rung's
        # rejection (``None`` while on the first rung).
        reason: "Optional[str]" = None
        with (ins if self.span is not None else DISABLED).span(
            self.span, what=what, **details
        ) as span:
            for index, (rung, solver) in enumerate(zip(self.rungs, solvers)):
                trajectory: "List[float]" = []
                callback = (
                    (lambda norm: trajectory.append(float(norm)))
                    if ins.enabled
                    else None
                )
                error: "Optional[str]" = None
                residual: "Optional[float]" = None
                try:
                    if rung.name == "direct" and numerical_fault("direct-fail"):
                        raise RuntimeError("injected direct-rung failure")
                    x = solver(callback, details)
                except SingularSystem as exc:
                    attempts[f"{rung.name}_error"] = str(exc)
                    span.attrs.update(rung="singular")
                    raise self._error(
                        "singular_system",
                        f"{what} is singular ({rung.label}: {exc}); the "
                        "induced chain is (numerically) multichain",
                        what, attempts, details, diagnose, context,
                    ) from exc
                except (RuntimeError, ValueError) as exc:
                    error = str(exc)
                else:
                    if rung.name == "gmres" and numerical_fault("krylov-stall"):
                        # Modeled non-convergence: the vector is poisoned
                        # as a stalled GMRES would leave it, so the
                        # acceptance test -- not the hook -- fails it.
                        x = np.full_like(x, np.nan)
                    if not np.all(np.isfinite(x)):
                        residual = float("inf")
                    elif accept is None:
                        value = x
                    else:
                        residual, value = accept(x)
                attempts[f"{rung.name}_error"] = error
                attempts[f"{rung.name}_residual"] = residual
                if error is None and (
                    residual is None or residual <= RESIDUAL_RTOL
                ):
                    self._observe(
                        span, metrics, what, rung.name, rung.counter,
                        reason or f"{rung.name} residual within tolerance",
                        trajectory, residual, details,
                    )
                    if index:
                        self.logger.info(
                            "%s solve fell back to %s what=%s reason=%s "
                            "iterations=%d residual=%.3g",
                            self.backend, rung.label, what, reason,
                            len(trajectory), residual,
                        )
                    return value
                rejection = error or (
                    f"{rung.name} residual {residual:.3g} > {RESIDUAL_RTOL:g}"
                )
                if index + 1 < len(self.rungs):
                    reason = rejection
            self._observe(
                span, metrics, what, "failed", self.failure_counter,
                reason or rejection, trajectory, residual, details,
            )
            self.logger.warning(
                "%s solve ladder exhausted what=%s reason=%s",
                self.backend, what, rejection,
            )
        raise self._error(
            "ladder_exhausted",
            f"{what} defeated "
            + " and ".join(rung.label for rung in self.rungs)
            + f" ({rejection}); the induced chain is likely multichain or "
            "the system is numerically singular -- check the model's "
            "action constraints",
            what, attempts, details, diagnose, context,
        )

    def _observe(
        self, span, metrics, what, rung, counter, reason, trajectory,
        residual, details,
    ) -> None:
        """Span attributes, counter and series row of a finished solve."""
        converged = rung != "failed"
        span.attrs.update(
            rung=rung, residual=residual, iterations=len(trajectory),
            converged=converged, **details,
        )
        if metrics is None:
            return
        if counter is not None:
            metrics.counter(counter).inc()
        if self.series is not None:
            metrics.series(self.series).append(
                what=what,
                rung=rung,
                reason=reason,
                iterations=len(trajectory),
                # A direct rung has no trajectory, and GMRES can return
                # before its first callback (a zero right-hand side): the
                # final residual keeps the row's trajectory non-empty.
                residuals=trajectory or [residual],
                residual=residual,
                converged=converged,
                **details,
            )

    def _error(
        self, reason, message, what, attempts, details, diagnose, context,
    ) -> SolverError:
        diagnostics: "Dict[str, Any]" = {
            "reason": reason,
            "what": what,
            "backend": self.backend,
            "residual_rtol": RESIDUAL_RTOL,
            **attempts,
            **details,
        }
        if diagnose is not None:
            diagnostics.update(diagnose())
        if context:
            diagnostics.update(context)
        return SolverError(message, diagnostics=diagnostics)


#: The dense tier: LU, then minimum-norm least squares -- exact for a
#: consistent singular system (e.g. a duplicated balance equation), and
#: identical to the direct solution up to roundoff on nonsingular ones.
DENSE_LADDER = Ladder(
    "compiled",
    (
        Rung("direct", "LU"),
        Rung("lstsq", "least squares", "solver.lstsq_fallbacks"),
    ),
    logger,
)


def solve_with_fallback(
    a: np.ndarray,
    b: np.ndarray,
    what: str = "linear system",
    context: "Optional[Dict[str, Any]]" = None,
    a_max: "Optional[float]" = None,
) -> np.ndarray:
    """Solve the dense system ``A x = b`` through :data:`DENSE_LADDER`.

    *context* (iteration, policy, reference state) is merged into the
    diagnostics of a failure; *a_max* is an optional precomputed
    ``max |a_ij|`` for the acceptance scale (see
    :func:`_relative_residual`).

    Raises
    ------
    SolverError
        When neither the direct solve nor the least-squares fallback
        produces a solution within :data:`RESIDUAL_RTOL`; ``diagnostics``
        carries both attempts and the spectral analysis.
    """

    def accept(x: np.ndarray) -> "Tuple[float, np.ndarray]":
        return (_relative_residual(a, x, b, a_max=a_max) if _enabled else 0.0), x

    return DENSE_LADDER.solve(
        (
            lambda callback, details: _dense_solve(a, b),
            lambda callback, details: np.linalg.lstsq(a, b, rcond=None)[0],
        ),
        accept,
        what=what,
        context=context,
        diagnose=lambda: system_diagnostics(a),
    )
