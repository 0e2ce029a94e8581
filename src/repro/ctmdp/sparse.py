"""CSR rows of a CTMDP and their rungs of the solve ladder.

The dense compiled core (:mod:`repro.ctmdp.compiled`) stores one full
length-``n`` generator row per ``(state, action)`` pair -- ``O(pairs x
states)`` memory -- and evaluates policies with an ``O(n^3)`` dense LU.
Both walls fall around a few thousand states. This module is the middle
tier of the solver backend ladder: the same pair-indexed layout and
sweep semantics (shared via :class:`PairIndexedCTMDP`), but the
generator held as one ``(pairs, states)`` CSR matrix, improvement
sweeps as a single sparse matvec, and policy evaluation through the
shared solve ladder of :mod:`repro.robust.guardrails` with this tier's
two rungs (:data:`LADDER`):

1. sparse LU (SuperLU ``splu``) on the bordered canonical system,
   accepted under the relative-residual test (``RESIDUAL_RTOL``);
2. GMRES with an ILU preconditioner (Jacobi when the ILU factorization
   itself fails), targeting :data:`KRYLOV_RTOL`;

and, when both are rejected, the ladder's typed
:class:`~repro.errors.SolverError` carrying residual diagnostics --
never a silent NaN.

A singular LU skips rung 2 and fails typed at once (``reason:
"singular_system"``): GMRES cannot converge on a singular matrix, and on
a singular-but-consistent one it can return a residual-passing member of
the solution family. An evaluation system is singular exactly when the
policy's chain is (numerically) multichain. Policy iteration runs every
improvement round through this ladder -- one fresh SuperLU factorization
per round -- and warm-started sweeps take the typed failure as a
rejected seed. The stationary solve is not a ladder: it is the
transposed system ``B^T z = e`` of the bordered evaluation system ``B``,
whose solution is ``[-pi; 0]``, solved on SuperLU alone
(:func:`_stationary_solve`). When the direct rung evaluated a policy,
that solve runs on the same LU, so a converged CSR policy is factored
once; after a GMRES rung it gets a fresh factorization.

:class:`SparseCTMDP` is also the repo's one stacked-row type: a dict
model's :meth:`~repro.ctmdp.model.CTMDP.pair_table` is its CSR rows, so
the dense lowering, the LP and the certificates read the arrays this
tier solves on, and each pair's exit rate is its one stored diagonal.

Tolerance contract: direct sparse solves agree with the dense core to
solver roundoff (policies exactly, in practice); any solution accepted
off the Krylov rung satisfies a relative residual of at most
``RESIDUAL_RTOL``, and on admitted (well-conditioned) models GMRES is
run to -- and the equivalence suite asserts -- :data:`KRYLOV_RTOL`
(1e-10).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, SuperLU, gmres, spilu, splu

from repro.ctmdp.compiled import PairIndexedCTMDP
from repro.ctmdp.model import chosen_rows
from repro.errors import (
    InvalidModelError,
    InvalidPolicyError,
    NotIrreducibleError,
)
from repro.markov.generator import (
    DEFAULT_ATOL,
    canonical_shift,
    normalize_distribution,
)
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active
from repro.robust.faultinject import numerical_fault
from repro.robust.guardrails import (
    RESIDUAL_RTOL,
    Ladder,
    Rung,
    SingularSystem,
    _relative_residual,
)

#: Relative-residual target for Krylov (GMRES) policy-evaluation solves.
#: This is the documented accuracy contract of the iterative rungs: on
#: admitted models the returned solution's relative residual is at most
#: this value, making sparse/kron results interchangeable with the dense
#: core far below model-level tolerances.
KRYLOV_RTOL = 1e-10

#: GMRES restart length / outer-iteration cap for the fallback rung.
GMRES_RESTART = 100
GMRES_MAXITER = 200

#: ILU preconditioner knobs for the GMRES rung. ``ILU_DROP_TOL`` is the
#: ``spilu`` magnitude threshold below which fill-in entries are
#: discarded -- small enough that the incomplete factors of the
#: canonically rescaled (unit-magnitude) evaluation systems stay close
#: to the exact LU, so GMRES typically converges in a handful of
#: iterations. ``ILU_FILL_FACTOR`` caps the factors' growth at 10x the
#: input's nnz, bounding the rung's memory at a small multiple of the
#: model itself. Both values land in the solve-info series rows and
#: ``SolverError`` diagnostics so a trace can attribute GMRES behavior
#: to the preconditioner configuration that produced it.
ILU_DROP_TOL = 1e-6
ILU_FILL_FACTOR = 10.0

#: Series of per-solve residual records: one row per policy evaluation
#: through the ladder, carrying which rung fired (``direct``/``gmres``),
#: why (``reason``), the CSR ``nnz``, and the residual trajectory --
#: a single accepted residual for the direct rung, the per-iteration
#: preconditioned GMRES norms for the Krylov rung.
KRYLOV_SERIES = "solver.sparse.krylov.residuals"

logger = get_logger("ctmdp.sparse")


def _direct_solve(a_csc, b: np.ndarray) -> "Tuple[np.ndarray, SuperLU]":
    """Direct sparse LU solve and the factorization it ran on
    (module-level so tests can force the Krylov rung by monkeypatching,
    mirroring ``guardrails._dense_solve``).

    A factorization failure raises
    :class:`~repro.robust.guardrails.SingularSystem`: ``splu`` raises
    ``RuntimeError`` exactly when it finds the matrix singular. With
    metrics active, records the LU fill-in -- ``(nnz(L) + nnz(U)) /
    nnz(A)`` -- the number that explains why a direct solve suddenly
    got slow or memory-hungry on a new model family.
    """
    try:
        if numerical_fault("singular-lu"):
            raise RuntimeError("injected singular factorization")
        lu = splu(a_csc)
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    ins = obs_active()
    if ins.enabled and ins.metrics is not None:
        ins.metrics.histogram("solver.sparse.lu_fill_factor").observe(
            float(lu.L.nnz + lu.U.nnz) / max(int(a_csc.nnz), 1)
        )
    return lu.solve(b), lu


def _ilu_preconditioner(a_csc) -> "Tuple[LinearOperator, Dict[str, object]]":
    """ILU preconditioner for GMRES; Jacobi when ILU breaks down.

    Returns the operator plus a solve-info dict naming the
    preconditioner kind and the :data:`ILU_DROP_TOL` /
    :data:`ILU_FILL_FACTOR` knobs it was built with, which the ladder
    copies into its telemetry rows and error diagnostics.
    """
    try:
        if numerical_fault("ilu-breakdown"):
            raise RuntimeError("injected ILU factorization breakdown")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ilu = spilu(
                a_csc, drop_tol=ILU_DROP_TOL, fill_factor=ILU_FILL_FACTOR
            )
        info: "Dict[str, object]" = {
            "preconditioner": "ilu",
            "ilu_drop_tol": ILU_DROP_TOL,
            "ilu_fill_factor": ILU_FILL_FACTOR,
        }
        return (
            LinearOperator(a_csc.shape, matvec=ilu.solve, dtype=float),
            info,
        )
    except Exception:
        diag = a_csc.diagonal()
        scale = np.where(np.abs(diag) > 0.0, diag, 1.0)
        return (
            LinearOperator(
                a_csc.shape, matvec=lambda x: x / scale, dtype=float
            ),
            {"preconditioner": "jacobi"},
        )


#: The CSR tier's rungs: SuperLU, whose singular signal stops the
#: ladder, then ILU-preconditioned GMRES.
LADDER = Ladder(
    "sparse",
    (
        Rung("direct", "sparse LU", "solver.sparse.direct_solves"),
        Rung("gmres", "ILU-GMRES", "solver.sparse.gmres_fallbacks"),
    ),
    logger,
    span="sparse_solve",
    series=KRYLOV_SERIES,
    failure_counter="solver.sparse.ladder_failures",
)


def solve_sparse_with_fallback(
    a,
    b: np.ndarray,
    what: str = "sparse linear system",
    context: "Optional[Dict]" = None,
) -> np.ndarray:
    """Solve ``a @ x = b`` through the sparse :data:`LADDER` (see module
    doc), accepting on the relative residual scaled by the largest
    ``|a_ij|`` (at least 1).

    The LU counts as singular when SuperLU reports it or its solution is
    non-finite. Any other direct-rung failure, and a finite LU solution
    that misses the residual test (ill-conditioning, not singularity),
    falls through to GMRES.
    """
    return _ladder_solve(a, b, what, context)[0]


def _ladder_solve(
    a, b: np.ndarray, what: str, context: "Optional[Dict]"
) -> "Tuple[np.ndarray, Optional[SuperLU]]":
    """:func:`solve_sparse_with_fallback`'s solution, plus the SuperLU
    factorization of *a* when the ladder accepted the direct rung
    (``None`` after a GMRES rung)."""
    a_csc = sp.csc_array(a)
    a_max = float(np.max(np.abs(a_csc.data), initial=1.0))
    lu = None

    def direct(callback, details) -> np.ndarray:
        nonlocal lu
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x, lu = _direct_solve(a_csc, b)
        if not np.all(np.isfinite(x)):
            raise SingularSystem("LU solution has non-finite entries")
        return x

    def krylov(callback, details) -> np.ndarray:
        nonlocal lu
        lu = None  # the direct rung was rejected
        # Run to the documented KRYLOV_RTOL target; the ladder accepts
        # under RESIDUAL_RTOL.
        precond, precond_info = _ilu_preconditioner(a_csc)
        details.update(precond_info)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            x, info = gmres(
                a_csc,
                b,
                M=precond,
                rtol=KRYLOV_RTOL,
                atol=0.0,
                restart=GMRES_RESTART,
                maxiter=GMRES_MAXITER,
                callback=callback,
                callback_type="pr_norm",
            )
        details["gmres_info"] = int(info)
        return x

    x = LADDER.solve(
        (direct, krylov),
        lambda x: (_relative_residual(a_csc, x, b, a_max=a_max), x),
        what=what,
        context=context,
        fields={"n": int(a_csc.shape[0]), "nnz": int(a_csc.nnz)},
    )
    return x, lu


def bordered_system(rows, reference_state: int):
    """CSC matrix ``[[G, -1], [e_ref, 0]]`` of the evaluation equations
    ``c + G h = g 1``, ``h[ref] = 0``, for one policy's ``(n, n)`` CSR
    generator *rows* -- the system every sparse evaluation solves.

    Assembled straight into CSC arrays: one conversion of *rows* (row
    indices ascending, duplicates summed), the reference row's single
    ``1`` appended as the last entry of its column, and the gain column
    of ``-1`` as column ``n``. The arrays equal those ``sp.block_array``
    builds from the same blocks, without its COO round trip and sort."""
    n = rows.shape[0]
    g = sp.csc_array(rows, dtype=float)
    g.sum_duplicates()
    end = int(g.indptr[reference_state + 1])
    data = np.concatenate(
        [g.data[:end], [1.0], g.data[end:], np.full(n, -1.0)])
    indices = np.concatenate(
        [g.indices[:end], [n], g.indices[end:], np.arange(n)], dtype=np.intp)
    indptr = np.append(g.indptr, g.indptr[-1] + n).astype(np.intp)
    indptr[reference_state + 1:] += 1
    return sp.csc_array((data, indices, indptr), shape=(n + 1, n + 1))


def sparse_stationary_distribution(
    generator, atol: float = DEFAULT_ATOL
) -> np.ndarray:
    """Stationary distribution of a CSR generator, sparse direct solve.

    The transposed solve of the bordered evaluation system
    (:func:`_stationary_solve`) on the generator's canonically
    rescaled rows, at reference state 0: the code
    :meth:`SparseCTMDP.stationary` runs on a policy's rows, so no
    separate balance matrix exists. The system's one dense line is its
    gain column of ``-1``, which COLAMD simply orders last; a dense
    *row* (a normalization equation) would send column-ordered sparse
    LU into catastrophic fill, and the transposed solve never builds
    one.

    The solve is direct-only, no Krylov rung: the system is nonsingular
    exactly when the chain is unichain, and GMRES cannot tell a unique
    solution from one member of a singular-but-consistent family (it
    would silently return an arbitrary mixture of recurrent classes).
    Singularity, non-finite solutions, and residual failures all raise
    :class:`NotIrreducibleError`.
    """
    gen = sp.csr_array(generator, dtype=float)
    n = gen.shape[0]
    if gen.shape != (n, n):
        raise InvalidModelError(
            f"stationary distribution needs a square generator, got {gen.shape}"
        )
    shift = canonical_shift(float(np.max(-gen.diagonal(), initial=0.0)))
    rows = sp.csr_array(
        (np.ldexp(gen.data, -shift), gen.indices, gen.indptr), shape=gen.shape)
    return _stationary_solve(bordered_system(rows, 0))


def _stationary_solve(system, lu: "Optional[SuperLU]" = None) -> np.ndarray:
    """Stationary distribution of the chain whose bordered evaluation
    *system* ``B = [[G, -1], [e_ref^T, 0]]`` is given
    (:func:`bordered_system`), read off ``B^T z = e_{n+1}``.

    Its solution is ``z = [-pi; 0]``: the first ``n`` rows say
    ``G^T (-pi) = 0`` (their sum forces ``z``'s last entry to 0, as the
    rows of ``G`` sum to zero), the last says ``pi . 1 = 1``. So
    ``pi`` costs one ``trans="T"`` solve on *lu*, the factorization of
    *system* an evaluation already built, or on a fresh one when *lu*
    is ``None``. Accepted under the relative residual of ``B^T z = e``
    (``RESIDUAL_RTOL``); a singular or non-finite solve, or a residual
    above it, raises :class:`NotIrreducibleError`.
    """
    n = system.shape[0] - 1
    ins = obs_active()
    with ins.span(
        "stationary_solve", backend="sparse", n_states=n, nnz=int(system.nnz)
    ) as span:
        e = np.zeros(n + 1)
        e[n] = 1.0
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if lu is None:
                    lu = splu(system)
                z = lu.solve(e, trans="T")
        except (RuntimeError, ValueError) as exc:
            raise NotIrreducibleError(
                "stationary distribution is not unique or does not exist: "
                f"sparse LU of the bordered system failed ({exc})"
            ) from exc
        a_max = float(np.max(np.abs(system.data), initial=1.0))
        residual = (
            _relative_residual(system.T, z, e, a_max=a_max)
            if np.all(np.isfinite(z))
            else float("inf")
        )
        span.attrs.update(residual=residual)
        if ins.enabled and ins.metrics is not None:
            ins.metrics.counter("solver.sparse.stationary_solves").inc()
        if residual > RESIDUAL_RTOL:
            raise NotIrreducibleError(
                "stationary distribution is not unique or does not exist: "
                f"bordered-system residual {residual:.3g} exceeds "
                f"{RESIDUAL_RTOL:g}; the chain is likely not unichain"
            )
    return normalize_distribution(-z[:n])


class SparseCTMDP(PairIndexedCTMDP):
    """CSR lowering of a CTMDP: the sparse solver backend's model form.

    Mirrors :class:`CompiledCTMDP`'s pair-indexed layout -- ``states``,
    per-state ``actions`` tuples, ``pair_state``/``pair_col``/
    ``pair_offset``, stacked ``cost`` and ``extra`` channels -- but the
    generator is a single ``(n_pairs, n_states)`` CSR matrix with
    Eqn.-2.4 diagonals included, so memory is O(nnz) and improvement
    sweeps are one sparse matvec.

    It is the one stacked-row type: every dict :class:`CTMDP`'s
    :meth:`~repro.ctmdp.model.CTMDP.pair_table` is one, built from COO
    triples via :meth:`from_coo` by the SYS assembly (whose dict build
    wraps the CSR build of its weight) or stacked from the pairs of a
    model built by ``add_action``.

    *states* is the label sequence, or a zero-argument factory of it
    that compares equal to another factory exactly when both list the
    same labels (the SYS assembly passes its
    :class:`~repro.dpm.system.SystemLabels`). A factory is kept as
    :attr:`label_key`, which :func:`~repro.ctmdp.policy.same_states`
    compares, and :attr:`states` builds one tuple from it on first
    read; ``n_states`` is the number of action tuples either way.
    """

    def __init__(
        self,
        states: "Sequence[Hashable] | Callable[[], Sequence[Hashable]]",
        actions: Sequence[Sequence[Hashable]],
        generator,
        cost: np.ndarray,
        rate_scale: float = 1.0,
        extra: "Optional[Dict[str, np.ndarray]]" = None,
    ) -> None:
        self.label_key = states if callable(states) else None
        self._states = None if callable(states) else tuple(states)
        self._index_pairs(actions)
        self.n_states = len(self.actions)
        if self._states is not None and len(self._states) != self.n_states:
            raise InvalidModelError(
                f"{self.n_states} action tuples for {len(self._states)} states"
            )
        self.generator = sp.csr_array(generator, dtype=float)
        if self.generator.shape != (self.n_pairs, self.n_states):
            raise InvalidModelError(
                f"generator shape {self.generator.shape} does not match "
                f"({self.n_pairs}, {self.n_states})"
            )
        self.cost = np.asarray(cost, dtype=float)
        if self.cost.shape != (self.n_pairs,):
            raise InvalidModelError(
                f"cost shape {self.cost.shape} does not match ({self.n_pairs},)"
            )
        self.extra: Dict[str, np.ndarray] = {}
        for name, channel in (extra or {}).items():
            channel = np.asarray(channel, dtype=float)
            if channel.shape != (self.n_pairs,):
                raise InvalidModelError(
                    f"extra channel {name!r} shape {channel.shape} does not "
                    f"match ({self.n_pairs},)"
                )
            channel.setflags(write=False)
            self.extra[name] = channel
        self.rate_scale = float(rate_scale)
        # Exit rate per pair from the stored diagonal entries: O(nnz).
        coo = self.generator.tocoo()
        diag = np.zeros(self.n_pairs)
        on_diag = coo.col == self.pair_state[coo.row]
        np.add.at(diag, coo.row[on_diag], coo.data[on_diag])
        self._exit_rates = np.maximum(-diag, 0.0)
        self._exit_rates.setflags(write=False)
        self._canonical = None
        self._entries = None
        for array in (self.cost, self.pair_state, self.pair_col,
                      self.pair_offset):
            array.setflags(write=False)
        self._init_pair_grid()

    # -- constructors --------------------------------------------------------

    @property
    def states(self) -> "Tuple[Hashable, ...]":
        """The state labels, built from :attr:`label_key` on first read
        when the model was given a factory."""
        if self._states is None:
            self._states = tuple(self.label_key())
        return self._states

    @classmethod
    def from_coo(
        cls,
        states: "Sequence[Hashable] | Callable[[], Sequence[Hashable]]",
        actions: Sequence[Sequence[Hashable]],
        pair_rows: np.ndarray,
        cols: np.ndarray,
        rates: np.ndarray,
        cost: np.ndarray,
        rate_scale: float = 1.0,
        extra: "Optional[Dict[str, np.ndarray]]" = None,
    ) -> "SparseCTMDP":
        """Build from off-diagonal COO rate triples, completing the
        Eqn.-2.4 diagonals (``-sum`` of each pair's off-diagonal rates).

        This is the constructor for models assembled at scale: nothing
        dense of size ``O(pairs x states)`` is ever created, and
        *states* may be a label factory (see the class docstring).
        """
        pair_rows = np.asarray(pair_rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        rates = np.asarray(rates, dtype=float)
        counts = np.array([len(a) for a in actions], dtype=np.intp)
        n_pairs = int(counts.sum())
        n = len(counts)
        pair_state = np.repeat(np.arange(n, dtype=np.intp), counts)
        if np.any(rates < 0.0):
            raise InvalidModelError("transition rates must be non-negative")
        if len(pair_rows) and (
            pair_rows.min() < 0 or pair_rows.max() >= n_pairs
            or cols.min() < 0 or cols.max() >= n
        ):
            raise InvalidModelError("COO indices out of range")
        if np.any(cols == pair_state[pair_rows]):
            raise InvalidModelError(
                "self-transitions must be omitted; diagonals are derived"
            )
        diag = np.zeros(n_pairs)
        np.add.at(diag, pair_rows, rates)
        generator = sp.coo_array(
            (
                np.concatenate([rates, -diag]),
                (
                    np.concatenate([pair_rows, np.arange(n_pairs)]),
                    np.concatenate([cols, pair_state]),
                ),
            ),
            shape=(n_pairs, n),
        ).tocsr()
        return cls(states, actions, generator, cost,
                   rate_scale=rate_scale, extra=extra)

    def with_cost(
        self,
        cost: np.ndarray,
        extra: "Optional[Dict[str, np.ndarray]]" = None,
    ) -> "SparseCTMDP":
        """Structural sibling: same states/actions/generator, new costs.

        This is the cross-weight reuse primitive (DESIGN §12): the
        weighted-cost sweep only varies the cost channel, so sibling
        models share every structural array by reference -- the CSR
        generator, pair indexing, exit rates, the admission scan view,
        and crucially the cached *canonical* generator, so re-weighting
        never re-copies or re-scales O(nnz) data. Only the new cost
        vector is validated and canonically rescaled (O(pairs)).
        """
        cost = np.asarray(cost, dtype=float)
        if cost.shape != (self.n_pairs,):
            raise InvalidModelError(
                f"cost shape {cost.shape} does not match ({self.n_pairs},)"
            )
        if not np.all(np.isfinite(cost)):
            raise InvalidModelError("cost overlay has non-finite entries")
        sibling = object.__new__(type(self))
        sibling.__dict__.update(self.__dict__)
        cost = cost.copy()
        cost.setflags(write=False)
        sibling.cost = cost
        if extra is not None:
            validated: Dict[str, np.ndarray] = {}
            for name, channel in extra.items():
                channel = np.asarray(channel, dtype=float)
                if channel.shape != (self.n_pairs,):
                    raise InvalidModelError(
                        f"extra channel {name!r} shape {channel.shape} does "
                        f"not match ({self.n_pairs},)"
                    )
                channel = channel.copy()
                channel.setflags(write=False)
                validated[name] = channel
            sibling.extra = validated
        # Share the skeleton's canonical generator; only the canonical
        # cost depends on the overlay (same exact ldexp as canonical()).
        g_can, _, shift = self.canonical()
        c_can = np.ldexp(cost, -shift)
        c_can.setflags(write=False)
        sibling._canonical = (g_can, c_can, shift)
        return sibling

    # -- solver interface ----------------------------------------------------

    def validate(self) -> None:
        """Cheap structural check mirroring ``CTMDP.validate``."""
        if self.n_states == 0:
            raise InvalidModelError("model has no states")
        if np.any(np.diff(self.pair_offset) == 0):
            empty = int(np.argmax(np.diff(self.pair_offset) == 0))
            raise InvalidModelError(
                f"state {self.states[empty]!r} has no actions"
            )

    def evaluate(
        self, sel: np.ndarray, reference_state: int, x0=None
    ) -> "tuple[float, np.ndarray, Callable[[], np.ndarray]]":
        """Gain, bias and a stationary-distribution thunk of the policy
        selecting rows *sel*.

        The canonical-unit bordered system (:func:`bordered_system`)
        gets one fresh SuperLU factorization through the sparse ladder,
        so every evaluation of a policy returns the same values bit for
        bit; a singular system raises ``reason: "singular_system"``.
        When the ladder accepted that factorization, the thunk reads the
        stationary distribution off it with one transposed solve
        (:func:`_stationary_solve`) and holds it until dropped; after a
        GMRES rung it calls :meth:`stationary`. *x0* is ignored (a
        direct solve).
        """
        n = self.n_states
        if not 0 <= reference_state < n:
            raise InvalidPolicyError(
                f"reference state {reference_state} out of range"
            )
        g_can, c_can, shift = self.canonical()
        system = bordered_system(g_can[sel], reference_state)
        solution, lu = _ladder_solve(
            system,
            np.concatenate([-c_can[sel], [0.0]]),
            what="policy evaluation system",
            context={"reference_state": reference_state},
        )
        stationary = (
            (lambda: self.stationary(sel)) if lu is None
            else (lambda: _stationary_solve(system, lu))
        )
        return float(np.ldexp(solution[n], shift)), solution[:n], stationary

    def evaluate_discounted(
        self, sel: np.ndarray, discount: float, x0=None
    ) -> np.ndarray:
        """Values ``v`` solving ``(a I - G) v = c`` for rows *sel*
        through the sparse ladder (*x0* is ignored)."""
        identity = sp.eye_array(self.n_states, format="csr")
        a = identity * discount - self.generator[sel]
        return solve_sparse_with_fallback(
            a, self.cost[sel], what="discounted evaluation system",
            context={"discount": discount},
        )

    def stationary(self, sel: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy selecting rows *sel*:
        the transposed solve (:func:`_stationary_solve`) on a fresh
        factorization of its bordered system at reference state 0, the
        system :meth:`evaluate` factors at that reference state."""
        return _stationary_solve(bordered_system(self.canonical()[0][sel], 0))

    def uniformized_transition(self, lam: float):
        """CSR ``(pairs, states)`` rows of ``P = I + G/lam``: the
        generator data scaled, and the identity entries folded in
        through a COO round-trip (duplicates sum onto the diagonals)."""
        coo = self.generator.tocoo()
        return sp.coo_array(
            (
                np.concatenate([coo.data / lam, np.ones(self.n_pairs)]),
                (
                    np.concatenate([coo.row, np.arange(self.n_pairs)]),
                    np.concatenate([coo.col, self.pair_state]),
                ),
            ),
            shape=self.generator.shape,
        ).tocsr()

    def off_diagonal(self) -> "Tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(indptr, cols, vals)``: the generator's off-diagonal
        entries in CSR layout, columns ascending within each pair."""
        g = self.generator
        if not g.has_sorted_indices:
            g = g.sorted_indices()
        rows = np.repeat(np.arange(self.n_pairs), np.diff(g.indptr))
        off = g.indices != self.pair_state[rows]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows[off], minlength=self.n_pairs))])
        return indptr, g.indices[off].astype(np.intp), g.data[off]

    def policy_weights(self, policy) -> sp.csr_array:
        """``(n, pairs)`` CSR matrix of each state's action probabilities
        under *policy* (one-hot for a deterministic one, whose action
        tuple is read in state order), so that ``weights @ generator``
        is the policy's own rows."""
        if not hasattr(policy, "distribution"):
            pairs = chosen_rows(self.actions, self.pair_offset, policy.actions)
            return sp.csr_array(
                (np.ones(self.n_states), (np.arange(self.n_states), pairs)),
                shape=(self.n_states, self.n_pairs))
        rows, pairs, probs = [], [], []
        for i, (state, actions) in enumerate(zip(self.states, self.actions)):
            for action, prob in policy.distribution(state).items():
                rows.append(i)
                pairs.append(self.pair_offset[i] + actions.index(action))
                probs.append(prob)
        return sp.csr_array((probs, (rows, pairs)),
                            shape=(self.n_states, self.n_pairs))

    def max_exit_rate(self) -> float:
        if self.n_pairs == 0:  # pragma: no cover - models have >= 1 pair
            return 0.0
        return float(np.max(self._exit_rates, initial=0.0))

    def exit_rates(self) -> np.ndarray:
        """``(P,)`` total exit rate of each pair (from the diagonal)."""
        return self._exit_rates

    def canonical(self):
        """``(G, c, shift)`` rescaled into canonical units (cached).

        Same exact power-of-two rescaling contract as the dense
        compiled form; only the CSR data vector is touched.
        """
        if self._canonical is None:
            shift = self.canonical_shift
            g = self.generator.copy()
            g.data = np.ldexp(g.data, -shift)
            c = np.ldexp(self.cost, -shift)
            c.setflags(write=False)
            self._canonical = (g, c, shift)
        return self._canonical

    def sparse_entries(self):
        """``(rows, cols, vals)`` of nonzero generator entries in
        row-major order -- the admission gate's scan view, straight from
        the CSR structure (no densification). A canonical CSR matrix
        (sorted columns, no duplicates) already lists them in that
        order, so only a non-canonical one is sorted."""
        if self._entries is None:
            coo = self.generator.tocoo()
            order = (slice(None) if self.generator.has_canonical_format
                     else np.lexsort((coo.col, coo.row)))
            rows = coo.row[order].astype(np.intp)
            cols = coo.col[order].astype(np.intp)
            vals = coo.data[order].copy()
            for array in (rows, cols, vals):
                array.setflags(write=False)
            self._entries = (rows, cols, vals)
        return self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SparseCTMDP(n_states={self.n_states}, n_pairs={self.n_pairs}, "
            f"nnz={self.generator.nnz})"
        )


def compile_sparse_ctmdp(mdp) -> SparseCTMDP:
    """The CSR rows of *mdp*: a :class:`SparseCTMDP` as is, a dict
    :class:`CTMDP`'s :meth:`~repro.ctmdp.model.CTMDP.pair_table`."""
    return mdp if isinstance(mdp, SparseCTMDP) else mdp.pair_table()
