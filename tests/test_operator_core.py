import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_csr, dense_blocks, random_diagonals

from moyal_lab.operator_core import (
    Diagonals,
    FockSpace,
    Operator,
    TridiagonalBlocks,
    adjoint,
    annihilator,
    commutator,
    expm,
    hermitian_eig,
    hermitian_eigvals,
    hermitian_ground,
    identity,
    tensor,
)


class TestFockSpace:
    def test_levels_stored(self):
        assert FockSpace(5).levels == 5

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            FockSpace(1)


class TestOperator:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Operator(np.array([[np.nan, 0], [0, 1]]))

    def test_matrix_is_read_only(self):
        """The stored diagonals are read-only; ``mat`` is a new matrix each
        time, so writing to it leaves the operator as it was."""
        op = identity(3)
        for part in (op.offsets, op.diagonals):
            with pytest.raises(ValueError):
                part[0] = 5
        m = op.mat
        assert m is not op.mat
        m[0, 0] = 5.0
        assert np.array_equal(op.toarray(), np.eye(3))

    def test_stored_zeros_dropped(self):
        # The pattern is the non-zero pattern: a stored zero linking the two
        # levels leaves no diagonal behind.
        m = scipy.sparse.csr_array(
            (np.array([2.0, 0.0, 3.0]), np.array([0, 1, 1]), np.array([0, 2, 3])), shape=(2, 2)
        )
        op = Operator(m)
        assert op.mat.nnz == 2
        assert op.offsets.tolist() == [0]
        assert np.array_equal(Operator(op.mat).toarray(), op.toarray())

    def test_exact_cancellation_stores_no_zeros(self):
        a = Operator(np.array([[1, 2j], [0, 3]]))
        # A complex csr_array is adopted as it is, explicit zero included;
        # u @ v cancels exactly (1 - 1) in its only non-zero entry.
        u = scipy.sparse.csr_array(
            (np.array([1, 1, 0], dtype=complex), np.array([0, 1, 0]), np.array([0, 2, 3])), shape=(2, 2)
        )
        v = scipy.sparse.csr_array(np.array([[1, 0], [-1, 0]], dtype=complex))
        for op in (a - a, Operator(u @ v)):
            assert op.mat.nnz == 0 and op.norm() == 0.0
        adopted = Operator(u)
        assert adopted.mat.nnz == 2 and np.all(adopted.mat.data != 0)

    def test_adopted_non_finite_rejected(self):
        m = scipy.sparse.csr_array(np.array([[np.nan, 0], [0, 1]], dtype=complex))
        with pytest.raises(ValueError):
            Operator(m)

    def test_adopted_input_becomes_read_only(self):
        """Diagonals are adopted as given and made read-only; a matrix input
        is copied into diagonals, and ``mat`` gives it back as canonical CSR."""
        values = np.array([[0, 0, -3], [4, 5, 6], [1j, 2, 0]], dtype=complex)
        op = Operator(Diagonals(np.array([-2, 0, 1]), values))
        assert op.diagonals is values and not values.flags.writeable
        assert np.array_equal(op.toarray(), [[4, 1j, 0], [0, 5, 2], [-3, 0, 6]])
        m = scipy.sparse.csr_array(np.array([[1, 2j], [0, 3]]))
        op = Operator(m)
        assert m.data.flags.writeable
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(op.mat, part), getattr(m, part))
        assert op.mat.has_canonical_format

    @pytest.mark.parametrize(
        "offsets, values",
        [([1, 0], np.eye(2)), ([0, 0], np.eye(2)), ([1], [[1.0, 1.0]]), ([-1], [[1.0, 0.0]]), ([0], [[1.0, np.inf]])],
    )
    def test_rejects_invalid_diagonals(self, offsets, values):
        # Unsorted or repeated offsets, entries outside the matrix, non-finite entries.
        with pytest.raises(ValueError):
            Operator(Diagonals(np.array(offsets), np.array(values, dtype=complex)))

    def test_all_zero_diagonals_dropped(self):
        op = Operator(Diagonals(np.array([-1, 0, 5]), np.array([[0, 2, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)))
        assert op.offsets.tolist() == [-1] and op.dim == 3
        assert (op - op).offsets.size == 0 and (op - op).dim == 3

    def test_other_inputs_made_canonical_complex_csr(self):
        dense = np.array([[0.0, 2.0], [3.0, 0.0]])
        coo = scipy.sparse.coo_array(
            (np.array([2.0, 1.0, 2.0, -1.0, 1.0]), (np.array([0, 1, 1, 0, 0]), np.array([1, 0, 0, 0, 0]))),
            shape=(2, 2),
        )  # duplicates sum to dense, with a cancelling pair at (0, 0)
        for m in (scipy.sparse.csr_array(dense), coo):
            op = Operator(m)
            assert isinstance(op.mat, scipy.sparse.csr_array)
            assert op.mat.dtype == np.complex128 and op.mat.has_canonical_format
            assert op.mat.nnz == 2 and np.array_equal(op.toarray(), dense)

    def test_arithmetic(self):
        a = Operator(np.array([[1, 2], [3, 4]], dtype=complex))
        b = identity(2)
        assert np.allclose((a + b).toarray(), a.toarray() + np.eye(2))
        assert np.allclose((a - b).toarray(), a.toarray() - np.eye(2))
        assert np.allclose((2.0 * a).toarray(), 2 * a.toarray())
        assert np.allclose((a / 2.0).toarray(), a.toarray() / 2)
        assert np.allclose((a @ b).toarray(), a.toarray())
        assert np.allclose((-a).toarray(), -a.toarray())

    def test_matmul_dimension_check(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_trace_norm_dag(self):
        a = Operator(np.array([[1, 1j], [0, 2]], dtype=complex))
        assert a.trace() == pytest.approx(3)
        assert a.norm() == pytest.approx(np.sqrt(6))
        assert np.allclose(a.dag().toarray(), a.toarray().conj().T)


class TestDiagonalsMatchCSR:
    """Operations on stored diagonals against scipy's CSR results, bit for bit
    (stored zeros aside, which neither form keeps)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [3, 5, 12])
    def test_products(self, levels, seed):
        rng = np.random.default_rng(seed)
        for left, right in ((1, 1), (2, 5), (4, 4), (6, 3), (8, 8), (9, 8)):
            a = random_diagonals(levels, min(left, 2 * levels**2 - 1), rng)
            b = random_diagonals(levels, min(right, 2 * levels**2 - 1), rng)
            assert_same_csr((a @ b).mat, a.mat @ b.mat)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [3, 5, 12])
    def test_sums_scalars_adjoint_norm_trace(self, levels, seed):
        rng = np.random.default_rng(100 + seed)
        s = complex(*rng.normal(size=2))
        for left, right in ((1, 1), (3, 3), (5, 2), (8, 8)):
            a = random_diagonals(levels, left, rng)
            b = random_diagonals(levels, right, rng)
            for got, ref in (
                (a + b, a.mat + b.mat), (a - b, a.mat - b.mat), (a - a, a.mat - a.mat), (-a, -a.mat),
                (a * s, a.mat * s), (s * a, a.mat * s), (a / s, a.mat / s), (a / 2.0, a.mat / 2.0),
                (a.dag(), a.mat.conj().T),
            ):
                assert_same_csr(got.mat, ref)
            assert a.norm() == np.linalg.norm(a.mat.data)
            assert a.trace() == complex(a.mat.trace())


class TestAnnihilator:
    def test_matrix_elements(self):
        b = annihilator(FockSpace(4))
        expected = np.zeros((4, 4))
        for n in range(1, 4):
            expected[n - 1, n] = np.sqrt(n)
        assert np.allclose(b.toarray(), expected)

    def test_number_operator_diagonal(self):
        b = annihilator(FockSpace(6))
        num = adjoint(b) @ b
        assert np.allclose(num.toarray(), np.diag(np.arange(6.0)))

    def test_ccr_on_safe_block(self):
        n = 7
        b = annihilator(FockSpace(n))
        defect = commutator(b, adjoint(b)) - identity(n)
        # Exact except the bottom-right corner element -(N-1) - 1 = -N.
        assert np.allclose(defect.toarray()[: n - 1, : n - 1], 0.0, atol=1e-14)
        assert defect.toarray()[n - 1, n - 1] == pytest.approx(-n)


class TestTensor:
    def test_kron_convention(self):
        a = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        t = tensor(a, identity(3))
        assert t.dim == 6
        assert np.allclose(t.toarray(), np.kron(a.toarray(), np.eye(3)))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scipy_kron(self, seed):
        """Pattern and entries equal those of ``scipy.sparse.kron`` bit for
        bit: general complex factors with ladder, wrap-around and wide
        offsets, dim-1 factors, single-entry factors (a lone entry times a
        lone entry) and all-zero operators."""
        rng = np.random.default_rng(300 + seed)
        shapes = ((1, 1), (2, 1), (2, 3), (2, 5), (3, 1), (3, 4), (3, 8))
        factors = [random_diagonals(levels, count, rng) for levels, count in shapes]
        lone = [complex(*rng.normal(size=2)) for _ in range(2)]
        factors += [Operator(np.array([[lone[0]]])), Operator(np.zeros((1, 1)))]
        factors += [Operator(scipy.sparse.coo_array(([lone[1]], ([0], [3])), shape=(4, 4))), Operator(np.zeros((4, 4)))]
        for a in factors:
            for b in factors:
                assert_same_csr(tensor(a, b).mat, scipy.sparse.kron(a.mat, b.mat))

    def test_mixed_product(self):
        rng = np.random.default_rng(7)
        a = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        lhs = tensor(a, b) @ tensor(a, b)
        rhs = tensor(a @ a, b @ b)
        assert np.allclose(lhs.toarray(), rhs.toarray())


def _chains(rng, sizes, scale=1.0):
    """Random real tridiagonal blocks of the given sizes on a shuffled
    basis, and the same operator as a dense matrix."""
    dim = sum(sizes)
    blocks, m = [], np.zeros((dim, dim))
    for index in np.split(rng.permutation(dim), np.cumsum(sizes)[:-1]):
        diag, off = scale * rng.normal(size=index.size), scale * rng.normal(size=index.size - 1)
        blocks.append((index, diag, off))
        m[np.ix_(index, index)] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return TridiagonalBlocks(dim, tuple(blocks)), m


def _scatter(h, exps):
    """The block exponentials of ``expm(h, t)`` as one dense matrix."""
    out = np.zeros((h.dim, h.dim), dtype=complex)
    for (index, _, _), e in zip(h.blocks, exps):
        out[np.ix_(index, index)] = e
    return out


class TestExpm:
    def test_zero_gives_identity(self):
        h, _ = _chains(np.random.default_rng(0), [1, 3, 4])
        for (_, diag, _), e in zip(h.blocks, expm(h, 0.0)):
            assert np.array_equal(e, np.eye(diag.size))

    def test_diagonal_oracle(self):
        d = np.array([1.0, -2.0, 0.5])
        h = TridiagonalBlocks(3, tuple((np.array([k]), d[k:k + 1], np.zeros(0)) for k in range(3)))
        assert np.allclose(_scatter(h, expm(h, 0.7)), np.diag(np.exp(-0.7j * d)))

    def test_antihermitian_gives_unitary(self):
        h, _ = _chains(np.random.default_rng(0), [5, 2])
        u = _scatter(h, expm(h, 1.3))
        assert np.allclose(u @ u.conj().T, np.eye(7), atol=1e-12)

    def test_rejects_non_finite(self):
        h = TridiagonalBlocks(2, ((np.arange(2), np.array([0.0, np.nan]), np.ones(1)),))
        with pytest.raises(ValueError):
            expm(h, 1.0)

    def test_matches_series_oracle(self):
        h, m = _chains(np.random.default_rng(3), [4], scale=0.1)
        for t in (1.0, -1.0):
            series = np.eye(4, dtype=complex)
            term = np.eye(4, dtype=complex)
            for k in range(1, 30):
                term = term @ (-1j * t * m) / k
                series = series + term
            assert np.allclose(_scatter(h, expm(h, t)), series, atol=1e-13)


class TestBlockExpm:
    """The block-wise exponential against scipy's dense scaling-and-squaring."""

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_blocks(self, seed):
        h, m = _chains(np.random.default_rng(seed), [1, 5, 2, 4, 1, 3], scale=0.3)
        for t in (1.0, -3.0):
            exact = scipy.linalg.expm(-1j * t * m)
            assert np.max(np.abs(_scatter(h, expm(h, t)) - exact)) <= 1e-12 * max(1.0, np.abs(exact).max())

    @pytest.mark.parametrize("seed", range(4))
    def test_single_dense_block(self, seed):
        h, m = _chains(np.random.default_rng(seed), [12], scale=0.1)
        assert len(h.blocks) == 1
        for t in (1.0, -1.0):
            exact = scipy.linalg.expm(-1j * t * m)
            assert np.max(np.abs(_scatter(h, expm(h, t)) - exact)) <= 1e-12 * max(1.0, np.abs(exact).max())


class TestHermitianEig:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eig(Operator(np.array([[0, 1], [0, 0]], dtype=complex)))

    def test_diagonal_oracle(self):
        vals, vecs = hermitian_eig(Operator(np.diag([3.0, 1.0, 2.0]).astype(complex)))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])

    def test_phase_fixing_deterministic(self):
        rng = np.random.default_rng(11)
        h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = h + h.conj().T
        _, v1 = hermitian_eig(Operator(h))
        phase = np.exp(0.7j)
        _, v2 = hermitian_eig(Operator((phase * h.ravel() / phase).reshape(6, 6)))
        assert np.allclose(v1, v2)
        for col in v1.T:
            lead = col[np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-12 * max(1.0, abs(lead))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = h + h.conj().T
        vals, vecs = hermitian_eig(Operator(h))
        assert np.allclose((vecs * vals) @ vecs.conj().T, h, atol=1e-12)


class TestTridiagonalBlocks:
    @staticmethod
    def blocks(seed: int) -> TridiagonalBlocks:
        # Blocks of sizes 1, 3 and 4 on a shuffled basis of dimension 8.
        rng = np.random.default_rng(seed)
        index = rng.permutation(8)
        parts = []
        for lo, hi in ((0, 1), (1, 4), (4, 8)):
            parts.append((index[lo:hi], rng.normal(size=hi - lo), rng.normal(size=hi - lo - 1)))
        return TridiagonalBlocks(8, tuple(parts))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_dense(self, seed):
        h = self.blocks(seed)
        dense = dense_blocks(h)
        vals, _ = hermitian_eig(Operator(dense))
        # -inf bounds every block, so every block is solved.
        every = np.full(len(h.blocks), -np.inf)
        assert np.allclose(hermitian_eigvals(h, every, h.dim), vals, atol=1e-13)
        w, g = hermitian_ground(h, every)
        assert np.allclose(w, vals[:2], atol=1e-13)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(dense @ g, vals[0] * g, atol=1e-12)

    def test_rejects_non_finite(self):
        h = TridiagonalBlocks(2, ((np.array([0, 1]), np.array([1.0, np.inf]), np.array([0.5])),))
        with pytest.raises(ValueError):
            hermitian_eigvals(h, np.full(len(h.blocks), -np.inf), h.dim)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
def test_adjoint_is_involution(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = Operator(m)
    assert np.array_equal(adjoint(adjoint(op)).toarray(), op.toarray())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_commutator_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    a = Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    b = Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.allclose(commutator(a, b).toarray(), -commutator(b, a).toarray())


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_expm_inverse_property(seed):
    h, _ = _chains(np.random.default_rng(seed), [1, 4], scale=0.5)
    for t in (1.0, -2.5):
        prod = _scatter(h, expm(h, t)) @ _scatter(h, expm(h, -t))
        assert np.allclose(prod, np.eye(5), atol=1e-11)


def test_import_leaves_csgraph_unloaded():
    """``import moyal_lab`` does not load scipy.sparse.csgraph (about 23 ms
    and 1 MB): every block the package solves is known from a conserved
    quantity, so none is found from a sparsity pattern."""
    import moyal_lab

    src = os.path.dirname(os.path.dirname(moyal_lab.__file__))
    code = "import sys, moyal_lab; print('scipy.sparse.csgraph' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
