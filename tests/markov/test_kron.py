"""Tests for the matrix-free Kronecker generator operator."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.markov.kron as kron_mod
from repro.errors import InvalidGeneratorError
from repro.markov.kron import DENSE_BLOCK_ORDER, KroneckerGenerator
from repro.markov.tensor import tensor_sum


def random_generator(rng, n: int) -> np.ndarray:
    """A dense random CTMC generator of order n."""
    g = rng.uniform(0.1, 2.0, size=(n, n))
    np.fill_diagonal(g, 0.0)
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


def dense_of(dims, terms) -> np.ndarray:
    """The joint matrix of *terms*, built with ``np.kron`` directly."""
    out = np.zeros((int(np.prod(dims)),) * 2)
    for coeff, factors in terms:
        term = np.ones((1, 1))
        for dim, factor in zip(dims, factors):
            if factor is None:
                factor = np.eye(dim)
            elif sp.issparse(factor):
                factor = factor.toarray()
            term = np.kron(term, factor)
        out += coeff * term
    return out


#: Every way to apply an operator: ``matvec`` or ``rmatvec``, into a
#: fresh vector or into caller buffers.
APPLY_MODES = tuple(
    (name, buffered)
    for name in ("matvec", "rmatvec")
    for buffered in (False, True)
)


def apply(op, x, name: str, buffered: bool) -> np.ndarray:
    """``op.<name>(x)``; with *buffered*, into NaN-filled ``out`` and
    ``work`` buffers (so no result relies on their contents), checking
    that the result is ``out`` itself."""
    if not buffered:
        return getattr(op, name)(x)
    out = np.full(op.n, np.nan)
    work = np.full((op.work_vectors, op.n), np.nan)
    result = getattr(op, name)(x, out=out, work=work)
    assert result is out
    return out


def assert_applies_as(op, dense: np.ndarray, x) -> None:
    """*op* applies as *dense* (and its transpose) in every apply mode."""
    for name, buffered in APPLY_MODES:
        expected = (dense if name == "matvec" else dense.T) @ np.asarray(x)
        np.testing.assert_allclose(
            apply(op, x, name, buffered), expected, atol=1e-12,
            err_msg=f"{name}, buffered={buffered}",
        )


class TestMatvec:
    """The cases apply the operator in every mode of :data:`APPLY_MODES`
    (``@`` is ``matvec`` into a fresh vector)."""

    def test_tensor_sum_matches_dense(self):
        rng = np.random.default_rng(0)
        a, b, c = (random_generator(rng, n) for n in (2, 3, 4))
        op = KroneckerGenerator.tensor_sum([a, b, c])
        dense = tensor_sum(tensor_sum(a, b), c)
        x = rng.standard_normal(24)
        assert_applies_as(op, dense, x)
        np.testing.assert_allclose(op.to_dense(), dense, atol=1e-12)

    def test_sparse_factors_match_dense_factors(self):
        rng = np.random.default_rng(1)
        a, b = random_generator(rng, 3), random_generator(rng, 5)
        dense_op = KroneckerGenerator.tensor_sum([a, b])
        sparse_op = KroneckerGenerator.tensor_sum(
            [sp.csr_array(a), sp.csr_array(b)]
        )
        x = rng.standard_normal(15)
        for name, buffered in APPLY_MODES:
            np.testing.assert_allclose(
                apply(sparse_op, x, name, buffered),
                apply(dense_op, x, name, buffered), atol=1e-12,
                err_msg=f"{name}, buffered={buffered}",
            )

    def test_product_term_matches_kron(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((3, 3)), rng.standard_normal((4, 4))
        op = KroneckerGenerator.tensor_product([a, b], coeff=2.5)
        x = rng.standard_normal(12)
        assert_applies_as(op, 2.5 * np.kron(a, b), x)

    def test_identity_factors_skipped(self):
        rng = np.random.default_rng(3)
        a = random_generator(rng, 3)
        op = KroneckerGenerator((2, 3), [(1.0, (None, a))])
        dense = np.kron(np.eye(2), a)
        x = rng.standard_normal(6)
        assert_applies_as(op, dense, x)

    def test_matmul_operator(self):
        rng = np.random.default_rng(4)
        a = random_generator(rng, 4)
        op = KroneckerGenerator.tensor_sum([a])
        x = rng.standard_normal(4)
        np.testing.assert_allclose(op @ x, a @ x, atol=1e-12)

    def test_rejects_wrong_operand_shape(self):
        op = KroneckerGenerator.tensor_sum([np.eye(2), np.eye(3)])
        for name, buffered in APPLY_MODES:
            with pytest.raises(InvalidGeneratorError):
                apply(op, np.zeros(5), name, buffered)

    def test_product_term_on_non_adjacent_axes(self):
        # Several-factor terms first, in the middle and last, so the
        # intermediates alternate through `out` and both work vectors.
        rng = np.random.default_rng(9)
        dims = (2, 3, 4)
        a, b, c = (random_generator(rng, n) for n in dims)
        terms = [
            (2.0, (a, None, c)),
            (0.5, (None, b, None)),
            (-1.0, (a, b, c)),
            (1.5, (None, None, None)),
            (1.0, (sp.csr_array(a), None, c)),
        ]
        op = KroneckerGenerator(dims, terms)
        assert op.work_vectors == 2
        assert_applies_as(op, dense_of(dims, terms), rng.standard_normal(24))

    @pytest.mark.parametrize("order, sparse_path", [
        (DENSE_BLOCK_ORDER, False),
        (DENSE_BLOCK_ORDER + 1, True),
    ])
    def test_csr_factor_on_middle_axis(self, monkeypatch, order, sparse_path):
        # Only CSR factors above DENSE_BLOCK_ORDER keep the sparse
        # contraction; it must write into the buffer like a dense block.
        calls = []
        original = kron_mod._apply_axis

        def spy(factor, tensor, axis):
            calls.append(factor.shape)
            return original(factor, tensor, axis)

        monkeypatch.setattr(kron_mod, "_apply_axis", spy)
        rng = np.random.default_rng(10)
        dims = (2, order, 3)
        a, c = random_generator(rng, 2), random_generator(rng, 3)
        middle = sp.csr_array(
            np.where(rng.random((order, order)) < 0.05,
                     rng.standard_normal((order, order)), 0.0)
            + np.eye(order)
        )
        terms = [(1.0, (None, middle, None)), (0.5, (a, middle, c))]
        op = KroneckerGenerator(dims, terms)
        assert_applies_as(op, dense_of(dims, terms), rng.standard_normal(op.n))
        assert bool(calls) == sparse_path

    @pytest.mark.parametrize("x", [
        np.linspace(-1.0, 1.0, 48)[::2], np.arange(24) - 12,
    ], ids=["strided", "int"])
    def test_operand_converted(self, x):
        rng = np.random.default_rng(11)
        a, b = random_generator(rng, 3), random_generator(rng, 8)
        op = KroneckerGenerator.tensor_sum([a, b])
        assert_applies_as(op, tensor_sum(a, b), x)


class TestBuffers:
    """The ``out`` / ``work`` contract of ``matvec`` and ``rmatvec``."""

    @pytest.fixture
    def op(self):
        rng = np.random.default_rng(13)
        a, b = random_generator(rng, 3), random_generator(rng, 4)
        return KroneckerGenerator((3, 4), [(1.0, (a, None)), (2.0, (a, b))])

    @pytest.mark.parametrize("name", ["matvec", "rmatvec"])
    def test_out_aliasing_operand_rejected(self, op, name):
        x = np.ones(op.n)
        with pytest.raises(InvalidGeneratorError, match="overlaps"):
            getattr(op, name)(x, out=x)
        half, buf = op.n // 2, np.ones(2 * op.n)
        with pytest.raises(InvalidGeneratorError, match="overlaps"):
            getattr(op, name)(buf[: op.n], out=buf[half: half + op.n])

    @pytest.mark.parametrize("name", ["matvec", "rmatvec"])
    @pytest.mark.parametrize("out", [
        np.zeros(11), np.zeros((12, 1)), np.zeros(12, dtype=np.float32),
        np.zeros(24)[::2],
    ], ids=["short", "2d", "float32", "strided"])
    def test_out_of_wrong_shape_or_layout_rejected(self, op, name, out):
        with pytest.raises(InvalidGeneratorError, match="out must be"):
            getattr(op, name)(np.ones(op.n), out=out)

    @pytest.mark.parametrize("name", ["matvec", "rmatvec"])
    def test_work_checked(self, op, name):
        x = np.ones(op.n)
        with pytest.raises(InvalidGeneratorError, match="work must be"):
            getattr(op, name)(x, work=np.empty((op.work_vectors - 1, op.n)))
        with pytest.raises(InvalidGeneratorError, match="work overlaps out"):
            work = np.empty((op.work_vectors + 1, op.n))
            getattr(op, name)(x, out=work[-1], work=work)
        with pytest.raises(InvalidGeneratorError, match="work overlaps the"):
            work = np.ones((op.work_vectors, op.n))
            getattr(op, name)(work[0], work=work)

    def test_buffered_apply_allocates_no_n_vector(self):
        # Several-factor terms first and later, so intermediates pass
        # through `out` and both work vectors.
        rng = np.random.default_rng(14)
        dims = (6, 7, 8, 9)
        a, b, c, d = (random_generator(rng, n) for n in dims)
        op = KroneckerGenerator(dims, [
            (2.0, (a, None, c, None)),
            (0.5, (None, b, None, None)),
            (-1.0, (a, None, c, d)),
        ])
        x = rng.standard_normal(op.n)
        out = np.empty(op.n)
        work = np.empty((op.work_vectors, op.n))
        op.matvec(x, out=out, work=work)
        tracemalloc.start()
        try:
            op.matvec(x, out=out, work=work)
            op.rmatvec(x, out=out, work=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * op.n


class TestStructure:
    def test_diagonal_matches_dense(self):
        rng = np.random.default_rng(5)
        a, b = random_generator(rng, 3), random_generator(rng, 4)
        op = KroneckerGenerator.tensor_sum([sp.csr_array(a), b])
        np.testing.assert_allclose(
            op.diagonal(), np.diag(op.to_dense()), atol=1e-12
        )

    def test_to_csr_matches_to_dense(self):
        rng = np.random.default_rng(6)
        a, b = random_generator(rng, 2), random_generator(rng, 5)
        op = KroneckerGenerator.tensor_sum([a, sp.csr_array(b)])
        np.testing.assert_allclose(
            op.to_csr().toarray(), op.to_dense(), atol=1e-12
        )

    def test_is_finite(self):
        a = np.array([[-1.0, 1.0], [1.0, -1.0]])
        assert KroneckerGenerator.tensor_sum([a]).is_finite()
        bad = a.copy()
        bad[0, 1] = np.nan
        assert not KroneckerGenerator.tensor_sum([bad]).is_finite()

    def test_max_abs_entry_bounds_dense_max(self):
        rng = np.random.default_rng(7)
        a, b = random_generator(rng, 3), random_generator(rng, 3)
        op = KroneckerGenerator.tensor_sum([a, b])
        assert op.max_abs_entry() >= np.max(np.abs(op.to_dense())) - 1e-12

    def test_aslinearoperator_shape_and_matvec(self):
        rng = np.random.default_rng(8)
        a = random_generator(rng, 4)
        lin = KroneckerGenerator.tensor_sum([a]).aslinearoperator()
        assert lin.shape == (4, 4)
        x = rng.standard_normal(4)
        np.testing.assert_allclose(lin @ x, a @ x, atol=1e-12)


class TestValidation:
    def test_rejects_empty_dims(self):
        with pytest.raises(InvalidGeneratorError):
            KroneckerGenerator((), [])

    def test_rejects_factor_shape_mismatch(self):
        with pytest.raises(InvalidGeneratorError):
            KroneckerGenerator((2, 3), [(1.0, (np.eye(2), np.eye(2)))])

    def test_rejects_wrong_factor_count(self):
        with pytest.raises(InvalidGeneratorError):
            KroneckerGenerator((2, 3), [(1.0, (np.eye(2),))])

    def test_to_dense_guarded_by_limit(self):
        op = KroneckerGenerator.tensor_sum([np.eye(8), np.eye(8)])
        with pytest.raises(InvalidGeneratorError):
            op.to_dense(limit=16)
        assert op.to_dense(limit=64).shape == (64, 64)
