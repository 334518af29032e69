import numpy as np
import pytest
import scipy.sparse

from conftest import random_diagonals
from moyal_lab.operator_core import Operator, commutator
from moyal_lab.moyal_rep import (
    HSSpace,
    HSState,
    ModelConfig,
    apply_op,
    basis_state,
    block_norm,
    build_rep,
    hs_inner,
    hs_norm,
)
from moyal_lab.oscillator_models import OscParams, h1, h3, zeeman_decomposition
from moyal_lab.schwinger_su2 import schwinger_noncommutative
from moyal_lab.symmetry_lab import (
    SymmetryReport,
    su2_commutant,
    theta_apply,
    theta_conjugate,
    time_reversal_suite,
)


@pytest.fixture(scope="module")
def hs():
    return HSSpace(ModelConfig(theta=1.0, truncation=12))


@pytest.fixture(scope="module")
def rep(hs):
    return build_rep(hs)


@pytest.fixture(scope="module")
def gens(hs):
    return schwinger_noncommutative(hs)


class TestThetaOnStates:
    def test_dyad_transposes(self, hs):
        out = theta_apply(basis_state(hs, 1, 3))
        expected = basis_state(hs, 3, 1)
        assert np.allclose(out.vec, expected.vec)

    def test_antilinearity(self, hs):
        psi = basis_state(hs, 0, 1)
        out = theta_apply(HSState(hs, 1j * psi.vec))
        expected = basis_state(hs, 1, 0)
        assert np.allclose(out.vec, -1j * expected.vec)

    def test_involution_and_norm(self, hs):
        rng = np.random.default_rng(0)
        psi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        twice = theta_apply(theta_apply(psi))
        assert np.allclose(twice.vec, psi.vec)
        assert hs_norm(theta_apply(psi)) == pytest.approx(hs_norm(psi))

    def test_antiunitarity(self, hs):
        rng = np.random.default_rng(1)
        phi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        psi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        lhs = hs_inner(theta_apply(phi), theta_apply(psi))
        assert lhs == pytest.approx(np.conj(hs_inner(phi, psi)))


class TestThetaOnOperators:
    def test_consistent_with_state_action(self, hs):
        """theta_conjugate(O) Theta psi = Theta (O psi) for random O, psi."""
        rng = np.random.default_rng(2)
        o = Operator(rng.normal(size=(hs.dim, hs.dim)) + 1j * rng.normal(size=(hs.dim, hs.dim)))
        psi = HSState(hs, rng.normal(size=hs.dim) + 1j * rng.normal(size=hs.dim))
        lhs = apply_op(theta_conjugate(o, hs), theta_apply(psi))
        rhs = theta_apply(apply_op(o, psi))
        assert np.linalg.norm(lhs.vec - rhs.vec) < 1e-12 * max(1.0, o.norm())

    def test_ladder_exchange_exact(self, hs, rep):
        # Theta B_{L/R} Theta^{-1} = B_{R/L}^dag, with no truncation error.
        assert np.allclose(theta_conjugate(rep.B_L, hs).toarray(), rep.B_Rdag.toarray())
        assert np.allclose(theta_conjugate(rep.B_R, hs).toarray(), rep.B_Ldag.toarray())
        assert np.allclose(theta_conjugate(rep.B_Ldag, hs).toarray(), rep.B_R.toarray())

    def test_momenta_flip(self, hs, rep):
        for p_i in (rep.P1, rep.P2):
            diff = theta_conjugate(p_i, hs) + p_i
            assert block_norm(diff, hs.safe_indices) < 1e-12

    def test_commuting_coordinates_inert(self, hs, rep):
        for x in (rep.X1c, rep.X2c):
            diff = theta_conjugate(x, hs) - x
            assert block_norm(diff, hs.safe_indices) < 1e-12

    def test_position_shear(self, hs, rep):
        theta = hs.theta
        ix = hs.safe_indices
        d1 = theta_conjugate(rep.X1, hs) - (rep.X1 + theta * rep.P2)
        d2 = theta_conjugate(rep.X2, hs) - (rep.X2 - theta * rep.P1)
        assert block_norm(d1, ix) < 1e-12
        assert block_norm(d2, ix) < 1e-12

    def test_dimension_mismatch(self, hs):
        with pytest.raises(ValueError):
            theta_conjugate(Operator(np.eye(3)), hs)


def random_sparse(dim: int, rng: np.random.Generator) -> Operator:
    re = scipy.sparse.random_array((dim, dim), density=0.05, rng=rng)
    im = scipy.sparse.random_array((dim, dim), density=0.05, rng=rng)
    return Operator(scipy.sparse.csr_array(re + 1j * im))


class TestThetaConjugateStorage:
    """The entry relabelling against conj(O) permuted by fancy indexing."""

    @pytest.mark.parametrize("levels", [4, 5, 12])
    def test_diagonal_operators_equal_permuted_conjugate(self, levels):
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        rng = np.random.default_rng(levels)
        perm = np.arange(space.dim).reshape(space.levels, space.levels).T.ravel()
        for count in (1, 3, 8):
            op = random_diagonals(space.levels, count, rng)
            ref = op.mat.conj()[perm][:, perm]
            ref.sort_indices()
            got = theta_conjugate(op, space).mat
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, part), getattr(ref, part))

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    def test_equals_permuted_conjugate(self, levels):
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        op = random_sparse(space.dim, np.random.default_rng(levels))
        perm = np.arange(space.dim).reshape(levels, levels).T.ravel()
        ref = Operator(op.mat.conj()[perm][:, perm]).mat
        got = theta_conjugate(op, space).mat
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, part), getattr(ref, part))
        assert got.indices.dtype == ref.indices.dtype
        assert got.has_canonical_format

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    def test_involution_bit_for_bit(self, levels):
        space = HSSpace(ModelConfig(theta=0.7, truncation=levels))
        op = random_sparse(space.dim, np.random.default_rng(50 + levels))
        back = theta_conjugate(theta_conjugate(op, space), space).mat
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back, part), getattr(op.mat, part))


class TestSU2Commutant:
    def test_h1_fully_symmetric(self, hs, gens):
        residuals = su2_commutant(h1(hs), gens, hs)
        assert max(residuals) <= 1e-12 * h1(hs).norm()

    def test_h3_breaks_to_u1(self, hs, gens):
        h = h3(hs, OscParams(1.0, 1.0))
        r1, r2, r3 = su2_commutant(h, gens, hs)
        assert r1 > 0.01 * h.norm()
        assert r2 > 0.01 * h.norm()
        assert r3 <= 1e-12 * h.norm()


class TestSuite:
    @pytest.fixture()
    def report(self, hs, rep, gens):
        return time_reversal_suite(rep, gens, OscParams(1.0, 1.0), hs)

    def test_all_transformation_rules(self, report, hs, rep):
        scale = max(op.norm() for op in (rep.X1, rep.P1))
        for name, resid in report.time_reversal.items():
            if name == "H3_breaking_norm":
                continue
            assert resid <= 1e-12 * max(scale, 1.0), name

    def test_h3_breaking_is_large(self, report):
        assert report.time_reversal["H3_breaking_norm"] > 0.1

    def test_breaking_equals_twice_zeeman(self, report, hs):
        decomp = zeeman_decomposition(hs, OscParams(1.0, 1.0))
        expected = 2.0 * decomp.zeeman_coeff * block_norm(decomp.J3, hs.safe_indices)
        assert report.time_reversal["H3_breaking_norm"] == pytest.approx(expected, rel=1e-10)

    def test_zeeman_difference_residual(self, report):
        assert report.zeeman_difference_residual <= 1e-10

    def test_coefficient_linear_in_theta(self):
        """The breaking coefficient -2 mu theta omega^2 scales linearly."""
        norms = []
        for theta in (0.5, 0.25, 0.125):
            space = HSSpace(ModelConfig(theta=theta, truncation=10))
            r = build_rep(space)
            g = schwinger_noncommutative(space)
            rep_out = time_reversal_suite(r, g, OscParams(1.0, 1.0), space)
            norms.append(rep_out.time_reversal["H3_breaking_norm"])
        assert norms[0] / norms[1] == pytest.approx(2.0, rel=1e-8)
        assert norms[1] / norms[2] == pytest.approx(2.0, rel=1e-8)

    def test_json_schema(self, report):
        d = report.to_json_dict()
        assert set(d) == {
            "model",
            "params",
            "su2_residuals",
            "time_reversal",
            "zeeman_difference_residual",
        }
        assert set(d["params"]) == {"mu", "omega", "theta", "N"}
        assert len(d["su2_residuals"]) == 3

    def test_zeeman_exclusivity(self, hs, gens):
        """h3 minus its Zeeman term passes both symmetry tests.

        The stripped operator is an h2-type model at the renormalized
        parameters, so its SU(2) generators live in the Bogoliubov frame
        with the physical-model angle; J3 itself is frame-invariant.
        """
        from moyal_lab.bogoliubov_flow import bogoliubov_pair, phi_for
        from moyal_lab.schwinger_su2 import schwinger_from_ladders

        p = OscParams(1.0, 1.0)
        decomp = zeeman_decomposition(hs, p)
        stripped = h3(hs, p) - decomp.zeeman_coeff * decomp.J3
        primed = schwinger_from_ladders(
            *bogoliubov_pair(hs, phi_for(p, hs.theta, "h3")), context="primed"
        )
        residuals = su2_commutant(stripped, primed, hs)
        assert max(residuals) <= 1e-10 * stripped.norm()
        # J3 commutes in either frame; Theta invariance is frame-free.
        assert su2_commutant(stripped, gens, hs)[2] <= 1e-10 * stripped.norm()
        diff = theta_conjugate(stripped, hs) - stripped
        assert block_norm(diff, hs.safe_indices) <= 1e-10 * stripped.norm()
