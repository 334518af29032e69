import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moyal_lab.operator_core import (
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
        op = identity(3)
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    def test_arithmetic(self):
        a = Operator(np.array([[1, 2], [3, 4]], dtype=complex))
        b = identity(2)
        assert np.allclose((a + b).mat, a.mat + np.eye(2))
        assert np.allclose((a - b).mat, a.mat - np.eye(2))
        assert np.allclose((2.0 * a).mat, 2 * a.mat)
        assert np.allclose((a / 2.0).mat, a.mat / 2)
        assert np.allclose((a @ b).mat, a.mat)
        assert np.allclose((-a).mat, -a.mat)

    def test_matmul_dimension_check(self):
        with pytest.raises(ValueError):
            identity(2) @ identity(3)

    def test_trace_norm_dag(self):
        a = Operator(np.array([[1, 1j], [0, 2]], dtype=complex))
        assert a.trace() == pytest.approx(3)
        assert a.norm() == pytest.approx(np.sqrt(6))
        assert np.allclose(a.dag().mat, a.mat.conj().T)


class TestAnnihilator:
    def test_matrix_elements(self):
        b = annihilator(FockSpace(4))
        expected = np.zeros((4, 4))
        for n in range(1, 4):
            expected[n - 1, n] = np.sqrt(n)
        assert np.allclose(b.mat, expected)

    def test_number_operator_diagonal(self):
        b = annihilator(FockSpace(6))
        num = adjoint(b) @ b
        assert np.allclose(num.mat, np.diag(np.arange(6.0)))

    def test_ccr_on_safe_block(self):
        n = 7
        b = annihilator(FockSpace(n))
        defect = commutator(b, adjoint(b)) - identity(n)
        # Exact except the bottom-right corner element -(N-1) - 1 = -N.
        assert np.allclose(defect.mat[: n - 1, : n - 1], 0.0, atol=1e-14)
        assert defect.mat[n - 1, n - 1] == pytest.approx(-n)


class TestTensor:
    def test_kron_convention(self):
        a = Operator(np.array([[0, 1], [0, 0]], dtype=complex))
        t = tensor(a, identity(3))
        assert t.dim == 6
        assert np.allclose(t.mat, np.kron(a.mat, np.eye(3)))

    def test_mixed_product(self):
        rng = np.random.default_rng(7)
        a = Operator(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        b = Operator(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        lhs = tensor(a, b) @ tensor(a, b)
        rhs = tensor(a @ a, b @ b)
        assert np.allclose(lhs.mat, rhs.mat)


class TestExpm:
    def test_zero_gives_identity(self):
        assert np.allclose(expm(Operator(np.zeros((4, 4)))).mat, np.eye(4))

    def test_diagonal_oracle(self):
        d = Operator(np.diag([1.0, -2.0, 0.5]).astype(complex))
        assert np.allclose(expm(d).mat, np.diag(np.exp([1.0, -2.0, 0.5])))

    def test_antihermitian_gives_unitary(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = h + h.conj().T
        u = expm(Operator(1j * h))
        assert np.allclose((u @ u.dag()).mat, np.eye(5), atol=1e-12)

    def test_non_normal_falls_back(self):
        # Nilpotent upper triangular matrix: exp is I + M exactly.
        m = np.array([[0, 3.0], [0, 0]], dtype=complex)
        assert np.allclose(expm(Operator(m)).mat, np.eye(2) + m)

    def test_matches_series_oracle(self):
        rng = np.random.default_rng(3)
        m = 0.1 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        series = np.eye(4, dtype=complex)
        term = np.eye(4, dtype=complex)
        for k in range(1, 30):
            term = term @ m / k
            series = series + term
        assert np.allclose(expm(Operator(m)).mat, series, atol=1e-13)


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
        dense = h.to_operator()
        vals, _ = hermitian_eig(dense)
        assert np.allclose(hermitian_eigvals(h), vals, atol=1e-13)
        w, g = hermitian_ground(h)
        assert np.allclose(w, vals, atol=1e-13)
        assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(dense.mat @ g, vals[0] * g, atol=1e-12)

    def test_rejects_non_finite(self):
        h = TridiagonalBlocks(2, ((np.array([0, 1]), np.array([1.0, np.inf]), np.array([0.5])),))
        with pytest.raises(ValueError):
            hermitian_eigvals(h)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=1000))
def test_adjoint_is_involution(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    op = Operator(m)
    assert np.array_equal(adjoint(adjoint(op)).mat, op.mat)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_commutator_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    a = Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    b = Operator(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    assert np.allclose(commutator(a, b).mat, -commutator(b, a).mat)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_expm_inverse_property(seed):
    rng = np.random.default_rng(seed)
    m = 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    prod = expm(Operator(m)) @ expm(Operator(-m))
    assert np.allclose(prod.mat, np.eye(4), atol=1e-11)
