import os

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from moyal_lab.operator_core import Operator, adjoint, annihilator, commutator, identity
from moyal_lab.moyal_rep import (
    HSSpace,
    HSState,
    ModelConfig,
    apply_op,
    basis_state,
    block_norm,
    block_values,
    build_rep,
    dimensionless,
    hs_inner,
    hs_norm,
    ladders,
    left_action,
    restrict,
    right_action,
    row_norm,
    state_from_matrix,
)


@pytest.fixture(scope="module")
def hs():
    return HSSpace(ModelConfig(theta=1.0, truncation=8))


@pytest.fixture(scope="module")
def rep(hs):
    return build_rep(hs)


class TestConfigAndSpace:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(theta=0.0, truncation=8)
        with pytest.raises(ValueError):
            ModelConfig(theta=1.0, truncation=3)

    def test_indexing_roundtrip(self, hs):
        for m in range(hs.levels):
            for n in range(hs.levels):
                assert hs.label(hs.index(m, n)) == (m, n)

    def test_index_convention(self, hs):
        assert hs.index(2, 3) == 2 * hs.levels + 3

    def test_index_bounds(self, hs):
        with pytest.raises(ValueError):
            hs.index(hs.levels, 0)

    def test_safe_indices(self, hs):
        n = hs.levels
        labels = {hs.label(k) for k in hs.safe_indices}
        assert labels == {(m, k) for m in range(n - 1) for k in range(n - 1)}

    def test_complete_shell_indices(self, hs):
        n = hs.levels
        labels = {hs.label(k) for k in hs.complete_shell_indices}
        assert labels == {
            (m, k) for m in range(n) for k in range(n) if m + k <= n - 2
        }

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    def test_index_sets_match_label_loops(self, levels):
        # The index arithmetic against the label loops it replaced: same
        # arrays, same order, same dtype.
        space = HSSpace(ModelConfig(theta=1.0, truncation=levels))
        n = levels

        def loop(top, keep=lambda m, k: True):
            return np.array([m * n + k for m in range(top) for k in range(top) if keep(m, k)])

        expected = {
            "safe": (space.safe_indices, loop(n - 1)),
            "complete shells": (space.complete_shell_indices, loop(n - 1, lambda m, k: m + k <= n - 2)),
            "depth 2": (space.safe_block(2), loop(n - 2)),
            "depth 3": (space.safe_block(3), loop(n - 3)),
        }
        for total in (0, 1, n - 2, n, 2 * n - 2):
            expected[f"shell {total}"] = (space.shell_indices(total), loop(n, lambda m, k: m + k <= total))
        for name, (got, want) in expected.items():
            assert got.dtype == want.dtype and np.array_equal(got, want), name


class TestStates:
    def test_vector_matrix_roundtrip(self, hs):
        rng = np.random.default_rng(5)
        mat = rng.normal(size=(hs.levels, hs.levels))
        psi = state_from_matrix(hs, mat)
        assert np.allclose(psi.as_matrix(), mat)
        assert psi.vec[hs.index(1, 2)] == mat[1, 2]

    def test_length_validation(self, hs):
        with pytest.raises(ValueError):
            HSState(hs, np.zeros(3))

    def test_basis_state_is_dyad(self, hs):
        psi = basis_state(hs, 2, 5)
        mat = psi.as_matrix()
        assert mat[2, 5] == 1.0
        assert np.count_nonzero(mat) == 1


class TestActions:
    def test_left_action_is_left_multiplication(self, hs):
        rng = np.random.default_rng(0)
        n = hs.levels
        a = Operator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        psi = state_from_matrix(hs, rng.normal(size=(n, n)))
        out = apply_op(left_action(a, hs), psi)
        assert np.allclose(out.as_matrix(), a.toarray() @ psi.as_matrix())

    def test_right_action_is_right_multiplication(self, hs):
        rng = np.random.default_rng(1)
        n = hs.levels
        a = Operator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        psi = state_from_matrix(hs, rng.normal(size=(n, n)))
        out = apply_op(right_action(a, hs), psi)
        assert np.allclose(out.as_matrix(), psi.as_matrix() @ a.toarray())

    def test_left_right_commute(self, hs):
        rng = np.random.default_rng(2)
        n = hs.levels
        a = Operator(rng.normal(size=(n, n)))
        b = Operator(rng.normal(size=(n, n)))
        lr = left_action(a, hs) @ right_action(b, hs)
        rl = right_action(b, hs) @ left_action(a, hs)
        assert np.allclose(lr.toarray(), rl.toarray())

    def test_right_action_antihomomorphism(self, hs):
        rng = np.random.default_rng(3)
        n = hs.levels
        a = Operator(rng.normal(size=(n, n)))
        b = Operator(rng.normal(size=(n, n)))
        composed = right_action(a, hs) @ right_action(b, hs)
        assert np.allclose(composed.toarray(), right_action(b @ a, hs).toarray())


class TestInnerProduct:
    def test_matches_vector_dot(self, hs):
        rng = np.random.default_rng(4)
        phi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        psi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        assert hs_inner(phi, psi) == pytest.approx(complex(np.vdot(phi.vec, psi.vec)))

    def test_basis_orthonormal(self, hs):
        a = basis_state(hs, 1, 2)
        b = basis_state(hs, 2, 1)
        assert hs_inner(a, a) == pytest.approx(1.0)
        assert hs_inner(a, b) == pytest.approx(0.0)
        assert hs_norm(a) == pytest.approx(1.0)

    def test_adjoints_are_hs_adjoints(self, hs, rep):
        rng = np.random.default_rng(6)
        phi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        psi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        for op, opd in ((rep.B_L, rep.B_Ldag), (rep.B_R, rep.B_Rdag)):
            lhs = hs_inner(phi, apply_op(op, psi))
            rhs = hs_inner(apply_op(opd, phi), psi)
            assert lhs == pytest.approx(rhs)


class TestLadderStructure:
    def test_bl_matrix_elements(self, hs, rep):
        # B_L |m><n| = sqrt(m) |m-1><n|
        psi = basis_state(hs, 3, 2)
        out = apply_op(rep.B_L, psi)
        expected = np.zeros((hs.levels, hs.levels))
        expected[2, 2] = np.sqrt(3)
        assert np.allclose(out.as_matrix(), expected)

    def test_br_raises_ket_side(self, hs, rep):
        # B_R |m><n| = sqrt(n+1) |m><n+1|
        psi = basis_state(hs, 1, 2)
        out = apply_op(rep.B_R, psi)
        expected = np.zeros((hs.levels, hs.levels))
        expected[1, 3] = np.sqrt(3)
        assert np.allclose(out.as_matrix(), expected)

    def test_bl_ccr_positive(self, hs, rep):
        defect = commutator(rep.B_L, rep.B_Ldag) - identity(hs.dim)
        assert block_norm(defect, hs.safe_indices) < 1e-13

    def test_br_ccr_negative(self, hs, rep):
        defect = commutator(rep.B_R, rep.B_Rdag) + identity(hs.dim)
        assert block_norm(defect, hs.safe_indices) < 1e-13


class TestAlgebra:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_position_noncommutativity(self, theta):
        space = HSSpace(ModelConfig(theta=theta, truncation=8))
        r = build_rep(space)
        ix = space.safe_indices
        eye = identity(space.dim)
        defect = commutator(r.X1, r.X2) - 1j * theta * eye
        assert block_norm(defect, ix) < 1e-12

    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_heisenberg_pairs(self, theta):
        space = HSSpace(ModelConfig(theta=theta, truncation=8))
        r = build_rep(space)
        ix = space.safe_indices
        eye = identity(space.dim)
        assert block_norm(commutator(r.X1, r.P1) - 1j * eye, ix) < 1e-12
        assert block_norm(commutator(r.X2, r.P2) - 1j * eye, ix) < 1e-12
        assert block_norm(commutator(r.X1, r.P2), ix) < 1e-12
        assert block_norm(commutator(r.P1, r.P2), ix) < 1e-12

    def test_commuting_coordinates(self, hs, rep):
        assert block_norm(commutator(rep.X1c, rep.X2c), hs.safe_indices) < 1e-12

    def test_commuting_coordinates_canonical_with_momenta(self, hs, rep):
        ix = hs.safe_indices
        eye = identity(hs.dim)
        assert block_norm(commutator(rep.X1c, rep.P1) - 1j * eye, ix) < 1e-12
        assert block_norm(commutator(rep.X2c, rep.P2) - 1j * eye, ix) < 1e-12

    def test_xc_is_average_of_left_right(self, hs, rep):
        # X^c = (X^L + X^R) / 2 with X^R built from the right action.
        b = annihilator(hs.fock())
        brd = adjoint(right_action(b, hs))
        br = right_action(b, hs)
        s = np.sqrt(hs.theta / 2.0)
        x1r = s * (br + brd)
        x2r = 1j * s * (brd - br)
        assert np.allclose(rep.X1c.toarray(), 0.5 * (rep.X1 + x1r).toarray(), atol=1e-13)
        assert np.allclose(rep.X2c.toarray(), 0.5 * (rep.X2 + x2r).toarray(), atol=1e-13)

    def test_hermiticity_of_observables(self, hs, rep):
        for op in (rep.X1, rep.X2, rep.X1c, rep.X2c, rep.P1, rep.P2):
            assert np.allclose(op.toarray(), op.toarray().conj().T)


@pytest.mark.parametrize("levels, theta", [(4, 0.3), (5, 1.0), (12, 0.7), (16, 2.9)])
def test_build_rep_is_the_kron_definition(levels, theta):
    # build_rep assembles its fields from the ladder diagonals; the
    # definition is operator algebra on the left and right actions of b.
    # The two must agree entry for entry, not only to rounding.
    space = HSSpace(ModelConfig(theta=theta, truncation=levels))
    b = annihilator(space.fock())
    b_l, b_r = left_action(b, space), right_action(b, space)
    b_ld, b_rd = adjoint(b_l), adjoint(b_r)
    s = np.sqrt(theta / 2.0)
    x1, x2 = s * (b_l + b_ld), 1j * s * (b_ld - b_l)
    p1 = (1j / np.sqrt(2.0 * theta)) * (b_ld - b_l - b_rd + b_r)
    p2 = (1.0 / np.sqrt(2.0 * theta)) * (b_rd + b_r - b_ld - b_l)
    definition = dict(
        B_L=b_l, B_R=b_r, B_Ldag=b_ld, B_Rdag=b_rd, X1=x1, X2=x2,
        X1c=x1 + (theta / 2.0) * p2, X2c=x2 - (theta / 2.0) * p1, P1=p1, P2=p2,
    )
    rep = build_rep(space)
    for name, op in definition.items():
        got = getattr(rep, name).mat
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(op.mat, part)), (name, part)


def test_build_rep_refuses_oversized_space(monkeypatch):
    # The ten sparse operators at N = 1100 are estimated at 960 N^2 bytes,
    # about 1.08 GiB: on a machine that reports 1 GiB of memory the guard
    # names N and raises before allocating anything.
    pages = {"SC_PHYS_PAGES": 2**18, "SC_PAGE_SIZE": 2**12}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    with pytest.raises(ValueError, match="N=1100"):
        build_rep(HSSpace(ModelConfig(theta=1.0, truncation=1100)))


class TestDimensionless:
    def test_scaling(self, rep):
        sp = dimensionless(rep, 1.0)
        assert np.allclose(sp.x1c.toarray(), rep.X1c.toarray())
        assert np.allclose(sp.p1.toarray(), rep.P1.toarray())
        assert np.allclose(sp.p1_half.toarray(), 0.5 * rep.P1.toarray())

    def test_four_tuple_order(self, rep):
        sp = dimensionless(rep, 2.0)
        t = sp.four_tuple()
        assert np.allclose(t[0].toarray(), sp.x1c.toarray())
        assert np.allclose(t[3].toarray(), sp.p2_half.toarray())


class TestRestrict:
    def test_block_selection(self, hs):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(hs.dim, hs.dim))
        op = Operator(m)
        ix = np.array([0, 3, 5])
        assert np.allclose(restrict(op, ix).toarray(), m[np.ix_(ix, ix)])
        assert block_norm(op, ix) == pytest.approx(np.linalg.norm(m[np.ix_(ix, ix)]))

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    def test_equals_fancy_indexing(self, levels):
        """The same CSR arrays (values and dtypes) as two fancy-index passes,
        for ascending indices."""
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        rng = np.random.default_rng(levels)
        rep = build_rep(space)
        sample = np.sort(rng.choice(space.dim, size=space.dim // 3, replace=False))
        for op in (rep.X1c, rep.P2, random_sparse(space.dim, rng, 0.2)):
            for ix in (space.safe_indices, space.complete_shell_indices, space.safe_block(3), sample):
                got, ref = restrict(op, ix), op.mat[ix][:, ix]
                for part in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(got, part), getattr(ref, part))
                    assert getattr(got, part).dtype == getattr(ref, part).dtype

    @pytest.mark.parametrize("ix", [[3, 1, 5], [0, 2, 2]])
    def test_rejects_unsorted_or_repeated_indices(self, rep, ix):
        with pytest.raises(ValueError, match="ascending"):
            restrict(rep.X1, np.array(ix))


@pytest.mark.parametrize("levels", [4, 5, 12])
def test_ladders_equal_build_rep_fields(levels):
    space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
    rep = build_rep(space)
    for got, ref in zip(ladders(space), (rep.B_L, rep.B_R)):
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got.mat, part), getattr(ref.mat, part))


def random_sparse(dim: int, rng: np.random.Generator, density: float = 0.05) -> Operator:
    """Complex operator whose real and imaginary parts have different patterns."""
    re = scipy.sparse.random_array((dim, dim), density=density, rng=rng)
    im = scipy.sparse.random_array((dim, dim), density=density, rng=rng)
    return Operator(scipy.sparse.csr_array(re - 1j * im))


BLOCKS = [
    pytest.param(lambda space: space.safe_indices, id="safe"),
    pytest.param(lambda space: space.safe_block(2), id="depth2"),
]


class TestBlockValues:
    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_row_norm_is_block_norm(self, levels, block):
        """Bit for bit, alone and aligned with other operators' patterns."""
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        rng = np.random.default_rng(levels)
        ix = block(space)
        ops = [random_sparse(space.dim, rng) for _ in range(3)]
        rows = block_values(ops, ix)
        for op, row in zip(ops, rows):
            assert row_norm(block_values([op], ix)[0]) == block_norm(op, ix)
            assert row_norm(row) == block_norm(op, ix)

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_rows_align_row_major(self, levels, block):
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        rng = np.random.default_rng(100 + levels)
        ix = block(space)
        ops = [random_sparse(space.dim, rng, density) for density in (0.02, 0.05, 0.1)]
        dense = [restrict(op, ix).toarray() for op in ops]
        union = np.any([d != 0 for d in dense], axis=0)
        assert np.array_equal(block_values(ops, ix), np.array([d[union] for d in dense]))

    def test_cancelled_operator_gives_zero_row(self, hs):
        rng = np.random.default_rng(5)
        op = random_sparse(hs.dim, rng, 0.2)
        gone = op - op
        rows = block_values([op, gone], hs.safe_indices)
        assert rows.shape[1] > 0
        assert not rows[1].any()
        assert row_norm(rows[1]) == 0.0
        assert block_values([gone], hs.safe_indices).shape == (1, 0)

    def test_dimension_mismatch(self, hs):
        with pytest.raises(ValueError):
            block_values([identity(hs.dim), identity(hs.dim + 1)], hs.safe_indices)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_action_factorization_property(seed):
    """left_action(a) right_action(b) applied to psi equals a psi b."""
    space = HSSpace(ModelConfig(theta=1.0, truncation=5))
    rng = np.random.default_rng(seed)
    n = space.levels
    a = Operator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    b = Operator(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    psi = state_from_matrix(hs=space, mat=rng.normal(size=(n, n)))
    out = apply_op(left_action(a, space) @ right_action(b, space), psi)
    assert np.allclose(out.as_matrix(), a.toarray() @ psi.as_matrix() @ b.toarray(), atol=1e-12)
