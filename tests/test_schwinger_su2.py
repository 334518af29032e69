import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.csgraph import connected_components
from hypothesis import given, settings
from hypothesis import strategies as st

from moyal_lab import schwinger_su2
from moyal_lab.bogoliubov_flow import bogoliubov_pair
from moyal_lab.operator_core import Operator, commutator, expm, identity
from moyal_lab.moyal_rep import (
    HSSpace,
    ModelConfig,
    basis_state,
    block_norm,
    build_rep,
    dimensionless,
)
from moyal_lab.schwinger_su2 import (
    JLabel,
    _shell_rotation,
    adjoint_rep_matrix,
    casimir,
    casimir_quartic,
    commutative_phase_space,
    conjugate_by_rotation,
    covariance_residual,
    jj3_labels,
    phase_space_generators,
    position_noncovariance,
    rotation_matrix,
    schwinger_commutative,
    schwinger_from_ladders,
    schwinger_noncommutative,
)

CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


@pytest.fixture(scope="module")
def hs():
    return HSSpace(ModelConfig(theta=1.0, truncation=10))


@pytest.fixture(scope="module")
def gens_nc(hs):
    return schwinger_noncommutative(hs)


def closure_defect(gens, norm_fn):
    j = gens.as_tuple()
    return max(norm_fn(commutator(j[a], j[b]) - 1j * j[c]) for a, b, c in CYCLIC)


class TestClosure:
    def test_commutative(self):
        gens = schwinger_commutative(8)
        space = HSSpace(ModelConfig(theta=1.0, truncation=8))
        scale = max(op.norm() for op in gens.as_tuple())
        defect = closure_defect(gens, lambda op: block_norm(op, space.safe_indices))
        assert defect <= 1e-12 * scale

    def test_noncommutative(self, hs, gens_nc):
        scale = max(op.norm() for op in gens_nc.as_tuple())
        defect = closure_defect(gens_nc, lambda op: block_norm(op, hs.safe_indices))
        assert defect <= 1e-12 * scale

    def test_phase4d_exact(self):
        gens = phase_space_generators()
        assert closure_defect(gens, lambda op: np.linalg.norm(op.toarray())) == 0.0

    def test_generators_hermitian(self, gens_nc):
        for j in gens_nc.as_tuple():
            assert np.allclose(j.toarray(), j.toarray().conj().T, atol=1e-14)


class TestSubstitution:
    @pytest.mark.parametrize("levels", [4, 7, 12])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_commutative_equals_noncommutative(self, levels, theta):
        """a1 -> B_L and a2^dag -> B_R: on the truncated lattice the two sets
        of generators are the same matrices, entry for entry."""
        space = HSSpace(ModelConfig(theta=theta, truncation=levels))
        pairs = zip(schwinger_commutative(levels).as_tuple(), schwinger_noncommutative(space).as_tuple())
        for commutative, noncommutative in pairs:
            assert np.array_equal(commutative.toarray(), noncommutative.toarray())


class TestLabels:
    def test_jlabel_values(self):
        lbl = JLabel(3, 1)
        assert lbl.j == 2.0
        assert lbl.j3 == 1.0

    def test_label_order_matches_index(self, hs):
        labels = jj3_labels(hs.levels)
        for k, lbl in enumerate(labels):
            assert hs.index(lbl.m, lbl.n) == k

    def test_j3_eigenvalues_exact(self, hs, gens_nc):
        # Exact up to sqrt(m)**2 != m rounding (a few ulps of the label).
        for lbl in jj3_labels(hs.levels):
            k = hs.index(lbl.m, lbl.n)
            col = gens_nc.J3.toarray()[:, k]
            expected = np.zeros(hs.dim)
            expected[k] = lbl.j3
            assert np.allclose(col, expected, atol=1e-13)

    def test_casimir_eigenvalues_on_safe_labels(self, hs, gens_nc):
        c2 = casimir(gens_nc)
        safe = set(hs.safe_indices.tolist())
        for lbl in jj3_labels(hs.levels):
            k = hs.index(lbl.m, lbl.n)
            if k not in safe:
                continue
            col = c2.toarray()[np.ix_(list(safe), [k])].ravel()
            psi = basis_state(hs, lbl.m, lbl.n).vec[list(safe)]
            assert np.allclose(col, lbl.j * (lbl.j + 1) * psi, atol=1e-12)

    def test_jplus_raises_m_lowers_n(self, hs, gens_nc):
        # J+ |m><n| ~ |m+1><n-1| : raises j3 by one, keeps j.
        k = hs.index(2, 3)
        out = gens_nc.plus().toarray()[:, k]
        nz = np.nonzero(np.abs(out) > 1e-12)[0]
        assert list(nz) == [hs.index(3, 2)]
        assert out[hs.index(3, 2)] == pytest.approx(np.sqrt(3) * np.sqrt(3))


class TestCasimir:
    def test_quartic_closed_form_agrees(self, hs, gens_nc):
        diff = casimir(gens_nc) - casimir_quartic(hs)
        assert block_norm(diff, hs.safe_indices) < 1e-12 * casimir(gens_nc).norm()

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_quartic_from_ladders_matches_representation_fields(self, levels, theta):
        """Built from ``ladders`` and their adjoints, the quartic form has the
        entries of the same products of ``build_rep``'s ladder fields, bit for bit."""
        space = HSSpace(ModelConfig(theta=theta, truncation=levels))
        rep = build_rep(space)
        k = rep.B_Ldag @ rep.B_L + rep.B_R @ rep.B_Rdag
        ref = 0.25 * (k @ (k + 2.0 * identity(space.dim)))
        got = casimir_quartic(space)
        assert np.array_equal(got.offsets, ref.offsets)
        assert got.diagonals.tobytes() == ref.diagonals.tobytes()

    def test_phase4d_casimir_exact(self):
        gens = phase_space_generators()
        assert np.array_equal(casimir(gens).toarray(), 0.75 * np.eye(4, dtype=complex))

    def test_casimir_commutes_with_generators(self, hs, gens_nc):
        c2 = casimir(gens_nc)
        for j in gens_nc.as_tuple():
            assert block_norm(commutator(c2, j), hs.safe_indices) < 1e-10


class TestRotations:
    def test_rotation_is_orthogonal(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            lam = rng.normal(size=3)
            r = rotation_matrix(lam)
            assert np.allclose(r @ r.T, np.eye(4), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0)

    def test_rotation_sign_convention(self, hs, gens_nc):
        """Small-angle oracle: conjugation slope equals the i lam.J4 generator.

        d/dt U(t lam) O_a U(t lam)^dag at t=0 is -i lam.[J, O_a], and its
        matrix in the 4-tuple basis must match the derivative of R(t lam).
        """
        rep = build_rep(hs)
        sp = dimensionless(rep, hs.theta)
        ops = sp.four_tuple()
        ix = hs.complete_shell_indices
        lam = np.array([0.3, -0.2, 0.4])
        eps = 1e-6
        r_slope = (rotation_matrix(eps * lam) - np.eye(4)) / eps
        for a in range(4):
            conj = conjugate_by_rotation(gens_nc, [ops[a]], eps * lam)[0]
            slope = (conj - ops[a]) / eps
            predicted = sum(r_slope[a, b] * ops[b].toarray() for b in range(4))
            assert np.linalg.norm((slope - Operator(predicted)).toarray()[np.ix_(ix, ix)]) < 1e-5

    def test_covariant_four_tuple(self):
        space = HSSpace(ModelConfig(theta=1.0, truncation=16))
        rep = build_rep(space)
        sp = dimensionless(rep, space.theta)
        gens = schwinger_noncommutative(space)
        rng = np.random.default_rng(1)
        for _ in range(3):
            lam = rng.normal(size=3)
            lam *= rng.uniform(0.0, np.pi) / np.linalg.norm(lam)
            chk = covariance_residual(gens, sp.four_tuple(), lam, space)
            assert chk.rotation_residual < 1e-8
            assert chk.span_residual < 1e-8

    def test_position_dichotomy(self):
        space = HSSpace(ModelConfig(theta=1.0, truncation=16))
        rep = build_rep(space)
        gens = schwinger_noncommutative(space)
        covariant = position_noncovariance(gens, rep.X1, rep.X2, [0.0, 0.0, 0.9], space)
        broken = position_noncovariance(gens, rep.X1, rep.X2, [0.7, 0.2, 0.0], space)
        assert covariant < 1e-10
        assert broken > 0.01 * rep.X1.norm()


def rotation_matrix_expm(lam) -> np.ndarray:
    """exp(i lam.J4) from scipy's dense scaling-and-squaring exponential."""
    gen = sum(l * j.toarray() for l, j in zip(lam, phase_space_generators().as_tuple()))
    return scipy.linalg.expm(1j * gen).real


def rotation_series(lam) -> np.ndarray:
    """exp(i lam.J4) from its Taylor series, summed in extended precision."""
    a = sum(
        np.longdouble(l) * (1j * j.toarray()).real.astype(np.longdouble)
        for l, j in zip(lam, phase_space_generators().as_tuple())
    )
    term = total = np.eye(4, dtype=np.longdouble)
    for k in range(1, 60):
        term = term @ a / k
        total = total + term
    return total.astype(float)


def random_angles(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Rotation vectors with uniform direction and |lam| in [0.1, pi]."""
    out = []
    for _ in range(count):
        d = rng.normal(size=3)
        out.append(d * rng.uniform(0.1, np.pi) / np.linalg.norm(d))
    return out


class TestRotationClosedForm:
    def test_doublet_generator_squares_to_scalar(self):
        g4 = phase_space_generators().as_tuple()
        for lam in random_angles(np.random.default_rng(11), 200):
            g = sum(l * j.toarray() for l, j in zip(lam, g4))
            half2 = (np.linalg.norm(lam) / 2.0) ** 2
            assert np.abs(g @ g - half2 * np.eye(4)).max() <= 1e-15 * half2

    def test_matches_expm_form(self):
        """Within the dense exponential's own error (the closed form stays
        within 2.2e-16 of the exact rotation, 40-digit reference)."""
        for lam in random_angles(np.random.default_rng(12), 200):
            assert np.abs(rotation_matrix(lam) - rotation_matrix_expm(lam)).max() <= 2e-15

    def test_matches_extended_precision_series(self):
        for lam in random_angles(np.random.default_rng(13), 200):
            assert np.abs(rotation_matrix(lam) - rotation_series(lam)).max() <= 4.5e-16

    def test_zero_angle_is_identity(self):
        assert np.array_equal(rotation_matrix([0.0, 0.0, 0.0]), np.eye(4))


class TestShellRotationMemo:
    """Covariance and noncovariance of one rotation share one exponential."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        calls = []

        def counted(h, t):
            calls.append(h.dim)
            return expm(h, t)

        monkeypatch.setattr(schwinger_su2, "expm", counted)
        _shell_rotation.cache_clear()
        return calls

    @pytest.fixture(scope="class")
    def shell_case(self):
        space = HSSpace(ModelConfig(theta=0.9, truncation=12))
        rep = build_rep(space)
        return space, rep, dimensionless(rep, space.theta).four_tuple()

    def test_one_exponential_per_rotation(self, shell_case, expm_calls):
        space, rep, basis = shell_case
        gens, lam = schwinger_noncommutative(space), [0.4, -0.9, 0.3]
        covariance_residual(gens, basis, lam, space)
        position_noncovariance(gens, rep.X1, rep.X2, np.array(lam), space)
        assert len(expm_calls) == 1
        position_noncovariance(gens, rep.X1, rep.X2, [0.4, -0.9, 0.31], space)
        assert len(expm_calls) == 2
        position_noncovariance(schwinger_noncommutative(space), rep.X1, rep.X2, lam, space)
        assert len(expm_calls) == 3

    def test_memoized_results_equal_cold_calls(self, shell_case, expm_calls):
        space, rep, basis = shell_case
        gens, lam = schwinger_noncommutative(space), [-1.1, 0.2, 0.7]
        warm_cov = covariance_residual(gens, basis, lam, space)
        warm_noncov = position_noncovariance(gens, rep.X1, rep.X2, lam, space)
        _shell_rotation.cache_clear()
        cold_noncov = position_noncovariance(gens, rep.X1, rep.X2, lam, space)
        _shell_rotation.cache_clear()
        cold_cov = covariance_residual(gens, basis, lam, space)
        assert (cold_cov, cold_noncov) == (warm_cov, warm_noncov)
        assert len(expm_calls) == 3

    def test_generators_without_rep_equal_those_with_it(self, shell_case):
        space, rep, _ = shell_case
        pairs = zip(schwinger_noncommutative(space).as_tuple(), schwinger_noncommutative(space, rep).as_tuple())
        for got, ref in pairs:
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got.mat, part), getattr(ref.mat, part))


class TestShellRotations:
    def test_generators_split_into_spin_j_shells(self):
        """A generic rotation generator keeps m + n: the connected components
        of its non-zero pattern are the 2N - 1 shells, none larger than N."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=7))
        gens = schwinger_noncommutative(space)
        gen = sum(l * j.toarray() for l, j in zip([0.4, -1.3, 0.8], gens.as_tuple()))
        count, labels = connected_components(gen != 0, directed=False)
        shells = [sorted({sum(space.label(k)) for k in np.flatnonzero(labels == c)}) for c in range(count)]
        assert sorted(shells) == [[s] for s in range(2 * 7 - 1)]

    def test_primed_generators_rejected(self):
        """Bogoliubov-mixed ladders give generators that do not keep m + n,
        so they have no spin-j chains to exponentiate."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=8))
        rep = build_rep(space)
        gens = schwinger_from_ladders(*bogoliubov_pair(space, 0.3), "primed")
        basis = dimensionless(rep, space.theta).four_tuple()
        with pytest.raises(ValueError, match="keep m \\+ n"):
            covariance_residual(gens, basis, [0.4, -0.9, 0.3], space)
        with pytest.raises(ValueError, match="keep m \\+ n"):
            position_noncovariance(gens, rep.X1, rep.X2, [0.4, -0.9, 0.3], space)

    def test_commutative_generators_give_same_covariance(self):
        """The two-mode generators on H x H are the same matrices as the
        Hilbert-Schmidt ones, so every covariance value agrees exactly."""
        space = HSSpace(ModelConfig(theta=0.7, truncation=9))
        rep = build_rep(space)
        basis = dimensionless(rep, space.theta).four_tuple()
        lam = [0.5, 1.2, -0.4]
        checks = []
        for gens in (schwinger_commutative(9), schwinger_noncommutative(space)):
            checks.append((
                covariance_residual(gens, basis, lam, space),
                position_noncovariance(gens, rep.X1, rep.X2, lam, space),
            ))
        assert checks[0] == checks[1]

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=10),
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_conjugation_matches_dense(self, levels, lam, seed):
        """Sparse shell-wise conjugation against the dense u O u^dag."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=levels))
        gens = schwinger_noncommutative(space)
        rng = np.random.default_rng(seed)
        ops = [
            Operator(rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))),
            dimensionless(build_rep(space), space.theta).x1c,
        ]
        gen = sum(l * j.toarray() for l, j in zip(lam, gens.as_tuple()))
        u = Operator(scipy.linalg.expm(-1j * gen))
        for got, op in zip(conjugate_by_rotation(gens, ops, lam), ops):
            dense = u @ op @ u.dag()
            assert np.max(np.abs(got.toarray() - dense.toarray())) <= 1e-12 * max(1.0, np.abs(dense.toarray()).max())


class TestAdjointRep:
    def test_matches_phase4d_generators(self, hs, gens_nc):
        """The fitted 4x4 adjoint matrices equal the explicit generators."""
        rep = build_rep(hs)
        sp = dimensionless(rep, hs.theta)
        ix = hs.complete_shell_indices
        g4 = phase_space_generators()
        for j_nc, j_4 in zip(gens_nc.as_tuple(), g4.as_tuple()):
            m = adjoint_rep_matrix(j_nc, sp.four_tuple(), ix)
            assert np.allclose(m, j_4.toarray(), atol=1e-10)

    def test_raises_outside_span(self, hs, gens_nc):
        rep = build_rep(hs)
        # X1 alone does not close under J1.
        with pytest.raises(ValueError):
            adjoint_rep_matrix(gens_nc.J1, [rep.X1], hs.complete_shell_indices)


class TestCommutativePhaseSpace:
    def test_canonical_pairs(self):
        x1, x2, p1, p2 = commutative_phase_space(8)
        space = HSSpace(ModelConfig(theta=1.0, truncation=8))
        ix = space.safe_indices
        eye = identity(64)
        assert block_norm(commutator(x1, p1) - 1j * eye, ix) < 1e-12
        assert block_norm(commutator(x2, p2) - 1j * eye, ix) < 1e-12
        assert block_norm(commutator(x1, x2), ix) < 1e-12
        assert block_norm(commutator(x1, p2), ix) < 1e-12
