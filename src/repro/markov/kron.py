"""Matrix-free Kronecker-structured generator operators.

The paper composes the joint SYS generator from small per-component
generators with tensor sums and products (Definition 4.4). Forming the
joint matrix throws that structure away and costs O(n^2) memory -- fatal
at the multi-server scales ROADMAP item 1 targets. This module keeps
the factored form: a :class:`KroneckerGenerator` is a sum of Kronecker
terms

``G = sum_t  coeff_t * (A_t1 (x) A_t2 (x) ... (x) A_tK)``

over a fixed axis layout ``dims = (n_1, ..., n_K)``, where each factor
is a small dense or CSR matrix and ``None`` marks an identity factor
(skipped entirely). Its matvec applies the factors axis by axis --
``O(nnz(A_tk) * n / n_k)`` per factor instead of ``O(n^2)`` -- so the
joint generator of a 10^6-state product chain is applied without ever
being materialized.

Factor ``A`` on axis ``k`` acts on the operand viewed, without a copy,
as a ``(left, n_k, right)`` array (``left``/``right`` the products of
the orders before/after ``k``): one batched ``np.matmul`` of the
``(n_k, n_k)`` block with it, or a single ``(left, n_k) @ A.T`` product
when ``right == 1``, writes straight into an output buffer. CSR factors
up to :data:`DENSE_BLOCK_ORDER` are densified once, at construction, so
every factor of a tensor-structured model runs as a small dense BLAS
block; larger CSR factors (the single-axis wrappers of dict models) keep
the move-axis-and-copy contraction. :meth:`KroneckerGenerator.matvec`
and :meth:`~KroneckerGenerator.rmatvec` take an ``out`` vector and
``work`` scratch from the caller, so a solver that allocates those once
applies the operator without allocating anything of size ``n``.

Tensor-sum structure (``A (+) B = A (x) I + I (x) B``) is the common
case: one single-factor term per axis, built by
:meth:`KroneckerGenerator.tensor_sum`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import InvalidGeneratorError

#: Largest joint order :meth:`KroneckerGenerator.to_dense` materializes
#: by default; beyond it the dense array is almost certainly a bug.
DENSE_LIMIT = 4096

#: Largest order of a CSR factor the apply loop contracts as a dense
#: block (densified once, at construction; 64 x 64 is 32 KB).
DENSE_BLOCK_ORDER = 64


def _as_factor(factor, dim: int):
    """Validate one per-axis factor: square of order *dim*, or ``None``."""
    if factor is None:
        return None
    if sp.issparse(factor):
        mat = sp.csr_array(factor, dtype=float)
    else:
        mat = np.asarray(factor, dtype=float)
    if mat.ndim != 2 or mat.shape != (dim, dim):
        raise InvalidGeneratorError(
            f"Kronecker factor shape {mat.shape} does not match axis order {dim}"
        )
    return mat


def _apply_axis(factor, tensor: np.ndarray, axis: int) -> np.ndarray:
    """Contract *factor* with *tensor* along *axis* (dense or CSR factor).

    Moves the axis to the front, flattens the rest into a contiguous
    copy, and runs one ``(n_k, n_k) @ (n_k, n/n_k)`` product. The apply
    loop uses it only for CSR factors above :data:`DENSE_BLOCK_ORDER`.
    """
    moved = np.moveaxis(tensor, axis, 0)
    shape = moved.shape
    flat = np.ascontiguousarray(moved).reshape(shape[0], -1)
    out = factor @ flat
    return np.moveaxis(np.asarray(out).reshape(shape), 0, axis)


def _contract(block, src: np.ndarray, dst: np.ndarray, left: int, m: int,
              right: int, transpose: bool) -> None:
    """``dst = (I_left (x) B (x) I_right) src`` with ``B`` the *block*
    (its transpose when *transpose*), written into the buffer *dst*."""
    if sp.issparse(block):
        np.copyto(
            dst.reshape(left, m, right),
            _apply_axis(block.T if transpose else block,
                        src.reshape(left, m, right), 1),
        )
    elif right == 1:
        np.matmul(src.reshape(left, m), block if transpose else block.T,
                  out=dst.reshape(left, m))
    else:
        np.matmul(block.T if transpose else block,
                  src.reshape(left, m, right), out=dst.reshape(left, m, right))


def _check_buffer(buf, shape: "Tuple[int, ...]", name: str, operand) -> None:
    """An output or scratch buffer must be a C-contiguous float array of
    *shape* (so its reshapes are views) that shares no memory with the
    *operand*."""
    if not (isinstance(buf, np.ndarray) and buf.dtype == np.float64
            and buf.shape == shape and buf.flags.c_contiguous
            and buf.flags.writeable):
        raise InvalidGeneratorError(
            f"{name} must be a writable C-contiguous float64 array of "
            f"shape {shape}"
        )
    if np.may_share_memory(buf, operand):
        raise InvalidGeneratorError(f"{name} overlaps the operand")


class KroneckerGenerator:
    """A sum of Kronecker-product terms, applied matrix-free.

    Parameters
    ----------
    dims:
        Per-axis orders ``(n_1, ..., n_K)``; the operator acts on
        vectors of length ``prod(dims)`` laid out with axis 0 varying
        slowest (``np.kron`` order, matching
        :func:`repro.markov.tensor.product_states`).
    terms:
        Sequence of ``(coeff, factors)`` pairs; ``factors`` has one
        entry per axis -- a square matrix of the axis order (dense
        ndarray or scipy sparse) or ``None`` for the identity.
    """

    def __init__(self, dims: Sequence[int], terms) -> None:
        self.dims: Tuple[int, ...] = tuple(int(d) for d in dims)
        if not self.dims or any(d < 1 for d in self.dims):
            raise InvalidGeneratorError(f"invalid axis orders {self.dims!r}")
        self.n = int(np.prod(self.dims))
        checked: List[Tuple[float, tuple]] = []
        for coeff, factors in terms:
            factors = tuple(factors)
            if len(factors) != len(self.dims):
                raise InvalidGeneratorError(
                    f"term has {len(factors)} factors for {len(self.dims)} axes"
                )
            checked.append(
                (float(coeff),
                 tuple(_as_factor(f, d) for f, d in zip(factors, self.dims)))
            )
        self._terms: Tuple[Tuple[float, tuple], ...] = tuple(checked)
        # What the apply loop runs: per term, one (block, left, m, right)
        # step per non-identity factor, small CSR factors densified.
        plan = []
        for coeff, factors in checked:
            steps = []
            for axis, factor in enumerate(factors):
                if factor is None:
                    continue
                if (sp.issparse(factor)
                        and factor.shape[0] <= DENSE_BLOCK_ORDER):
                    factor = factor.toarray()
                steps.append((
                    factor,
                    int(np.prod(self.dims[:axis])),
                    self.dims[axis],
                    int(np.prod(self.dims[axis + 1:])),
                ))
            plan.append((coeff, tuple(steps)))
        self._plan = tuple(plan)
        #: Scratch n-vectors the apply loop needs: work[0] holds every
        #: term after the first, and a term of several factors needs one
        #: spare beside its destination (work[0] for the first term,
        #: work[1] for later ones).
        self.work_vectors = max(
            (int(t > 0) + int(len(steps) > 1)
             for t, (_, steps) in enumerate(plan)),
            default=0,
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def tensor_sum(cls, factors) -> "KroneckerGenerator":
        """``A_1 (+) ... (+) A_K``: one single-factor term per axis.

        The K-fold generalization of Definition 4.4's tensor sum -- the
        generator of K chains evolving independently in parallel.
        """
        factors = list(factors)
        dims = [
            (f.shape[0] if sp.issparse(f) else np.asarray(f).shape[0])
            for f in factors
        ]
        terms = []
        for k, factor in enumerate(factors):
            per_axis = [None] * len(factors)
            per_axis[k] = factor
            terms.append((1.0, per_axis))
        return cls(dims, terms)

    @classmethod
    def tensor_product(cls, factors, coeff: float = 1.0) -> "KroneckerGenerator":
        """A single Kronecker-product term ``coeff * A_1 (x) ... (x) A_K``."""
        factors = list(factors)
        dims = [
            (f.shape[0] if sp.issparse(f) else np.asarray(f).shape[0])
            for f in factors
        ]
        return cls(dims, [(coeff, factors)])

    # -- operator interface --------------------------------------------------

    @property
    def shape(self) -> "Tuple[int, int]":
        return (self.n, self.n)

    @property
    def dtype(self):
        return np.dtype(float)

    @property
    def terms(self) -> "Tuple[Tuple[float, tuple], ...]":
        return self._terms

    def matvec(self, x: np.ndarray, *, out: "Optional[np.ndarray]" = None,
               work: "Optional[np.ndarray]" = None) -> np.ndarray:
        """``G @ x`` without forming ``G``, written into and returning
        *out* (a fresh vector when ``None``).

        *work* is scratch of shape ``(k, n)`` with ``k >=``
        :attr:`work_vectors`, allocated per call when ``None``. *out*
        and *work* must be C-contiguous float arrays sharing no memory
        with *x* or each other; a caller that keeps them across calls
        applies the operator without allocating anything of size ``n``.
        """
        return self._apply(x, out, work, transpose=False)

    def rmatvec(self, x: np.ndarray, *, out: "Optional[np.ndarray]" = None,
                work: "Optional[np.ndarray]" = None) -> np.ndarray:
        """``G.T @ x`` (transposing factor by factor); buffers as in
        :meth:`matvec`."""
        return self._apply(x, out, work, transpose=True)

    def _apply(self, x, out, work, transpose: bool) -> np.ndarray:
        """The apply loop shared by :meth:`matvec` and :meth:`rmatvec`."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise InvalidGeneratorError(
                f"operand shape {x.shape} does not match operator order {self.n}"
            )
        if out is None:
            out = np.empty(self.n)
        else:
            _check_buffer(out, (self.n,), "out", x)
        if work is None:
            work = np.empty((self.work_vectors, self.n))
        else:
            # Any number of rows from work_vectors up.
            _check_buffer(work, (max(len(work), self.work_vectors), self.n),
                          "work", x)
            if np.may_share_memory(work, out):
                raise InvalidGeneratorError("work overlaps out")
        x = np.ascontiguousarray(x)
        if not self._plan:
            out.fill(0.0)
        for t, (coeff, steps) in enumerate(self._plan):
            # Term 0 is built in `out`, later terms in work[0] and then
            # added; intermediates alternate with the spare so that the
            # last step writes the destination.
            dest = work[0] if t else out
            if not steps:
                np.multiply(x, coeff, out=dest)
            src = x
            for k, (block, left, m, right) in enumerate(steps):
                dst = dest if (len(steps) - k) % 2 else work[int(t > 0)]
                _contract(block, src, dst, left, m, right, transpose)
                src = dst
            if steps and coeff != 1.0:
                np.multiply(dest, coeff, out=dest)
            if t:
                np.add(out, dest, out=out)
        return out

    def __matmul__(self, x):
        return self.matvec(x)

    def diagonal(self) -> np.ndarray:
        """``diag(G)`` -- the Kronecker product of per-factor diagonals.

        ``diag(A (x) B) = diag(A) (x) diag(B)``, so the joint diagonal
        (exit rates, for a generator) costs O(K n) and never forms the
        matrix.
        """
        out = np.zeros(self.n)
        for coeff, factors in self._terms:
            d = np.ones(1)
            for dim, factor in zip(self.dims, factors):
                if factor is None:
                    dk = np.ones(dim)
                elif sp.issparse(factor):
                    dk = factor.diagonal()
                else:
                    dk = np.diag(factor)
                d = np.kron(d, dk)
            out += coeff * d
        return out

    def is_finite(self) -> bool:
        """Whether every factor entry is finite."""
        for _, factors in self._terms:
            for factor in factors:
                if factor is None:
                    continue
                data = factor.data if sp.issparse(factor) else factor
                if not np.all(np.isfinite(data)):
                    return False
        return True

    def max_abs_entry(self) -> float:
        """An upper bound on ``max |G_ij|`` from the factored form.

        Exact for tensor sums (single-factor terms); for product terms
        it is the product of per-factor maxima, an upper bound by
        submultiplicativity of the max over the Kronecker pattern.
        """
        total = 0.0
        for coeff, factors in self._terms:
            bound = abs(coeff)
            for factor in factors:
                if factor is None:
                    continue
                data = factor.data if sp.issparse(factor) else factor
                bound *= float(np.max(np.abs(data), initial=0.0))
            total += bound
        return total

    # -- materializations (small sizes / cross-checks) -----------------------

    def to_dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        """The dense joint matrix; guarded by *limit* on the order."""
        if self.n > limit:
            raise InvalidGeneratorError(
                f"refusing to densify a {self.n}-state Kronecker operator "
                f"(limit {limit}); raise `limit` explicitly if intended"
            )
        out = np.zeros((self.n, self.n))
        for coeff, factors in self._terms:
            term = np.ones((1, 1))
            for dim, factor in zip(self.dims, factors):
                if factor is None:
                    block = np.eye(dim)
                elif sp.issparse(factor):
                    block = factor.toarray()
                else:
                    block = factor
                term = np.kron(term, block)
            out += coeff * term
        return out

    def to_csr(self) -> "sp.csr_array":
        """The joint matrix in CSR form (still O(nnz), not O(n^2))."""
        out = None
        for coeff, factors in self._terms:
            term = sp.csr_array(np.ones((1, 1)))
            for dim, factor in zip(self.dims, factors):
                if factor is None:
                    block = sp.eye_array(dim, format="csr")
                else:
                    block = sp.csr_array(factor)
                term = sp.kron(term, block, format="csr")
            out = coeff * term if out is None else out + coeff * term
        return sp.csr_array(out)

    def aslinearoperator(self):
        """A :class:`scipy.sparse.linalg.LinearOperator` view."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(
            self.shape, matvec=self.matvec, rmatvec=self.rmatvec,
            dtype=float,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"KroneckerGenerator(dims={self.dims!r}, "
            f"n={self.n}, terms={len(self._terms)})"
        )
