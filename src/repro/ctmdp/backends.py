"""Solver backend selection shared by every CTMDP solver entry point.

Three representation tiers sit behind one API:

- ``"dense"`` (alias ``"compiled"``): the dense compiled lowering --
  O(pairs x states) memory, O(n^3) direct evaluation. Fastest on small
  models; the bit-exactness baseline.
- ``"sparse"``: CSR lowering (:mod:`repro.ctmdp.sparse`) -- O(nnz)
  memory, one fresh SuperLU factorization per policy-iteration round
  (ILU-GMRES as the rescue rung). The tier from a few hundred states
  through 10^5.
- ``"kron"``: matrix-free Kronecker models (:mod:`repro.ctmdp.kron`) --
  O(sum of factor sizes) generator storage, uniformized value iteration
  and Krylov evaluation. The only tier that reaches 10^6 joint states.
- ``"reference"``: the dict-based per-state loops (debugging oracle).

``"auto"`` resolves from the model type and size: Kronecker models run
matrix-free, sparse models run sparse, and plain :class:`CTMDP` models
take :func:`auto_tier` of their state count -- dense up to
:data:`DENSE_STATE_LIMIT` states, sparse beyond. The SYS builder's
``backend="auto"`` and the admission gate's view ask the same function,
so a model is built, admitted and solved on one tier.

Every resolution is auditable: with instrumentation active, each call
appends a row to the :data:`DECISION_SERIES` series (requested backend,
resolved tier, state count, reason) and bumps a per-tier counter;
``auto`` selections additionally emit a structured log line so a model
silently landing on a weaker tier is visible at ``--log-level info``.
"""

from __future__ import annotations

import time

from repro.errors import SolverError
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active

#: Every accepted ``backend=`` argument.
BACKENDS = ("auto", "dense", "compiled", "sparse", "kron", "reference")

#: ``auto`` keeps plain CTMDPs on the dense compiled tier up to this
#: many states; beyond it CSR wins. Measured crossovers (DESIGN §10.2,
#: ``backend_crossover`` in ``BENCH_solver_core.json``): the SYS
#: build + solve + evaluate path turns in CSR's favour at ~50-85 states,
#: policy iteration on a dict-built model between 203 and 403 states.
#: The limit sits at the later of the two.
DENSE_STATE_LIMIT = 256

#: Series of backend-decision records: one row per resolution with
#: ``requested``/``resolved``/``n_states``/``reason``/``who`` fields.
DECISION_SERIES = "solver.backend.decisions"

logger = get_logger("ctmdp.backends")


def _record_decision(
    requested: str, resolved: str, n_states: int, reason: str, who: str
) -> None:
    """Append the decision record + counter and log auto selections."""
    ins = obs_active()
    if ins.enabled and ins.metrics is not None:
        ins.metrics.series(DECISION_SERIES).append(
            requested=requested,
            resolved=resolved,
            n_states=n_states,
            reason=reason,
            who=who,
        )
        ins.metrics.counter(f"solver.backend.selected.{resolved}").inc()
    if requested == "auto":
        logger.info(
            "backend auto-selected tier=%s n_states=%d reason=%s who=%s",
            resolved,
            n_states,
            reason,
            who,
        )
    else:
        logger.debug(
            "backend resolved tier=%s requested=%s n_states=%d who=%s",
            resolved,
            requested,
            n_states,
            who,
        )


def auto_tier(n_states: int) -> "tuple[str, str]":
    """``(tier, reason)`` that ``auto`` gives a plain model of
    *n_states* states: ``"compiled"`` up to :data:`DENSE_STATE_LIMIT`,
    ``"sparse"`` beyond."""
    if n_states <= DENSE_STATE_LIMIT:
        return "compiled", f"n_states<={DENSE_STATE_LIMIT} fits the dense tier"
    return "sparse", f"n_states>{DENSE_STATE_LIMIT} exceeds the dense tier"


def resolve_backend(mdp, backend: str, who: str = "solver") -> str:
    """Map a requested backend to the concrete tier for *mdp*.

    Returns one of ``"compiled"``, ``"sparse"``, ``"kron"`` or
    ``"reference"``; raises a typed :class:`SolverError` for unknown
    names or tier/model mismatches (e.g. forcing a plain CTMDP through
    the Kronecker tier, which has no tensor structure to exploit).
    """
    if backend not in BACKENDS:
        raise SolverError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    from repro.ctmdp.kron import KroneckerCTMDP
    from repro.ctmdp.sparse import SparseCTMDP

    if isinstance(mdp, KroneckerCTMDP):
        if backend in ("auto", "kron"):
            _record_decision(
                backend, "kron", mdp.n_states, "kronecker-model", who
            )
            return "kron"
        raise SolverError(
            f"{who} backend {backend!r} cannot run a KroneckerCTMDP; "
            "Kronecker models are matrix-free only (backend='kron' or "
            "'auto'); lower explicitly via to_ctmdp() for other tiers"
        )
    if isinstance(mdp, SparseCTMDP):
        if backend in ("auto", "sparse"):
            _record_decision(
                backend, "sparse", mdp.n_states, "sparse-model", who
            )
            return "sparse"
        raise SolverError(
            f"{who} backend {backend!r} cannot run a SparseCTMDP; "
            "sparse-built models never had a dict/dense form "
            "(backend='sparse' or 'auto')"
        )
    # Plain dict-based CTMDP.
    if backend == "kron":
        raise SolverError(
            f"{who} backend 'kron' needs a KroneckerCTMDP (tensor-"
            "structured model); wrap via KroneckerCTMDP.from_ctmdp or "
            "build one directly"
        )
    n_states = mdp.n_states
    if backend == "auto":
        resolved, reason = auto_tier(n_states)
    elif backend == "dense":
        resolved, reason = "compiled", "explicit request (dense alias)"
    else:
        resolved, reason = backend, "explicit request"
    _record_decision(backend, resolved, n_states, reason, who)
    return resolved


def lower(mdp, tier: str):
    """The model *tier*'s solver loops run on: the cached dense or CSR
    lowering of *mdp* (``"compiled"``/``"sparse"``), or a Kronecker
    model itself (``"kron"``). With metrics active, the time it takes
    goes to the ``profile.solver.lowering_s`` histogram."""
    ins = obs_active()
    if ins.enabled:
        started = time.perf_counter()
    if tier == "compiled":
        from repro.ctmdp.compiled import compile_ctmdp

        model = compile_ctmdp(mdp)
    elif tier == "sparse":
        from repro.ctmdp.sparse import compile_sparse_ctmdp

        model = compile_sparse_ctmdp(mdp)
    else:
        model = mdp
    if ins.enabled and ins.metrics is not None:
        ins.metrics.histogram("profile.solver.lowering_s", profiling=True).observe(
            time.perf_counter() - started
        )
    return model
