import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from moyal_lab.operator_core import Operator, annihilator, commutator, identity
from moyal_lab.moyal_rep import (
    HSSpace,
    ModelConfig,
    apply_op,
    basis_state,
    block_norm,
    build_rep,
    hs_inner,
    hs_norm,
    state_from_matrix,
)
from moyal_lab.oscillator_models import (
    OscParams,
    critical_point,
    h2,
    h3,
    renormalized_params,
)
from moyal_lab.bogoliubov_flow import (
    DILATATION_CONSTANT,
    GroundState,
    _sector_flow,
    bogoliubov_pair,
    c_operators,
    c_operators_primed,
    dilatation,
    dilatation_unitary,
    ground_state_closed,
    ground_state_unitary,
    intertwiner_check,
    phi_for,
    required_levels,
)


@pytest.fixture(scope="module")
def hs():
    return HSSpace(ModelConfig(theta=1.0, truncation=12))


def dilatation_quadratic(hs: HSSpace) -> Operator:
    """Oracle for the ladder-form dilatation: (1/2)(X^c . P + P . X^c)."""
    rep = build_rep(hs)
    return 0.5 * (
        rep.X1c @ rep.P1 + rep.P1 @ rep.X1c + rep.X2c @ rep.P2 + rep.P2 @ rep.X2c
    )


class TestPhi:
    def test_h2_value(self):
        # mu = omega = theta = 1: phi = 0.5 log(1/2).
        assert phi_for(OscParams(1.0, 1.0), 1.0, "h2") == pytest.approx(
            0.5 * math.log(0.5), abs=1e-15
        )

    def test_h3_frozen_value(self):
        # tanh(phi) = -(sqrt(5) - 1) / (sqrt(5) + 1), e^{2 phi} = 1/sqrt(5).
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        assert math.exp(2.0 * phi) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-14)
        assert math.tanh(phi) == pytest.approx(-(math.sqrt(5) - 1) / (math.sqrt(5) + 1), abs=1e-14)

    def test_critical_point_is_zero(self):
        for theta in (0.25, 1.0, 4.0):
            p = critical_point(theta)
            assert phi_for(p, theta, "h2") == pytest.approx(0.0, abs=1e-14)

    def test_h3_always_negative(self):
        for mu in (0.3, 1.0, 5.0):
            for omega in (0.3, 1.0, 5.0):
                for theta in (0.1, 1.0, 10.0):
                    assert phi_for(OscParams(mu, omega), theta, "h3") < 0.0

    def test_h3_strong_coupling(self):
        # v = mu omega theta / 2 = 5e9: phi = -log1p(1 / v^2) / 4, far below
        # the rounding of log(v / sqrt(1 + v^2)).
        phi = phi_for(OscParams(1e5, 1e5), 1.0, "h3")
        assert phi == pytest.approx(-0.25 * math.log1p(4e-20), rel=1e-15)
        with pytest.raises(ValueError, match="underflows"):
            phi_for(OscParams(1e200, 1e200), 1.0, "h3")

    def test_tanh_matches_alpha_beta_ratio(self):
        """Oracle: the h2 mixing angle satisfies tanh(2 phi)... the primed
        frame diagonalizes the (alpha, beta) quadratic form, equivalent to
        tanh(phi) = (alpha - omega) / beta away from the critical point."""
        p = OscParams(2.0, 0.5)
        theta = 1.3
        rp = renormalized_params(p, theta)
        phi = phi_for(p, theta, "h2")
        assert math.tanh(phi) == pytest.approx((rp.alpha - p.omega) / rp.beta, abs=1e-12)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            phi_for(OscParams(1.0, 1.0), 1.0, "h1")


class TestBogoliubovPair:
    def test_preserves_algebra(self, hs):
        bl, br = bogoliubov_pair(hs, 0.4)
        ix = hs.safe_indices
        eye = identity(hs.dim)
        assert block_norm(commutator(bl, bl.dag()) - eye, ix) < 1e-12
        assert block_norm(commutator(br, br.dag()) + eye, ix) < 1e-12
        assert block_norm(commutator(bl, br), ix) < 1e-12

    def test_zero_angle_is_identity_map(self, hs):
        rep = build_rep(hs)
        bl, br = bogoliubov_pair(hs, 0.0)
        assert np.allclose(bl.toarray(), rep.B_L.toarray())
        assert np.allclose(br.toarray(), rep.B_R.toarray())

    def test_diagonalizes_h2(self, hs):
        """In the primed ladder basis h2 is omega (B_L'^dag B_L' + B_R' B_R'^dag + 1)."""
        p = OscParams(2.0, 0.5)
        phi = phi_for(p, hs.theta, "h2")
        bl, br = bogoliubov_pair(hs, phi)
        ladder = p.omega * (
            bl.dag() @ bl + br @ br.dag() + identity(hs.dim)
        )
        assert block_norm(h2(hs, p) - ladder, hs.safe_indices) < 1e-11

    def test_diagonalizes_h3(self, hs):
        """h3 = (lambda_+/2mu)(2 n_L' + 1) + (lambda_-/2mu)(2 B_R' B_R'^dag - 1 + 2)."""
        p = OscParams(1.0, 1.0)
        rp = renormalized_params(p, hs.theta)
        bl, br = bogoliubov_pair(hs, rp.phi)
        eye = identity(hs.dim)
        ladder = (rp.lambda_plus / (2 * p.mu)) * (2.0 * (bl.dag() @ bl) + eye) + (
            rp.lambda_minus / (2 * p.mu)
        ) * (2.0 * (br @ br.dag()) + eye)
        assert block_norm(h3(hs, p) - ladder, hs.safe_indices) < 1e-11


class TestDilatation:
    def test_hermitian_exactly(self, hs):
        d = dilatation(hs)
        assert np.array_equal(d.toarray(), d.toarray().conj().T)

    @pytest.mark.parametrize("levels", [4, 5, 12, 33])
    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5])
    def test_ladders_match_representation_fields(self, levels, theta):
        """Built from ``ladders`` and their adjoints, D has the entries of the
        same products of ``build_rep``'s four ladder fields, bit for bit."""
        space = HSSpace(ModelConfig(theta=theta, truncation=levels))
        rep = build_rep(space)
        ref = 1j * (rep.B_Ldag @ rep.B_R - rep.B_L @ rep.B_Rdag)
        got = dilatation(space)
        assert np.array_equal(got.offsets, ref.offsets)
        assert got.diagonals.tobytes() == ref.diagonals.tobytes()

    def test_two_forms_agree(self):
        for theta in (0.3, 1.0, 2.5):
            for levels in (8, 12):
                space = HSSpace(ModelConfig(theta=theta, truncation=levels))
                diff = dilatation(space) - dilatation_quadratic(space)
                assert block_norm(diff, space.safe_indices) < 1e-12

    def test_scaling_constant_calibration(self):
        """The constant's derivation: [D, X^c] = k X^c on the safe block with
        k = -i, so exp(-i c phi D) scales X^c by e^phi for c = i / k = -1."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=8))
        rep = build_rep(space)
        d = dilatation(space)
        for xc in (rep.X1c, rep.X2c):
            assert block_norm(commutator(d, xc) + 1j * xc, space.safe_indices) < 1e-12
        assert DILATATION_CONSTANT == -1.0

    def test_unitary_scales_positions(self):
        """U X^c U^dag = e^phi X^c on a deep shell (finite-flow oracle).

        The flow moves edge corruption inward two levels per step, so the
        compared shell sits far from the truncation boundary.
        """
        space = HSSpace(ModelConfig(theta=1.0, truncation=24))
        rep = build_rep(space)
        phi = 0.3
        u = dilatation_unitary(space, phi)
        ix = space.shell_indices(6)
        conj = u @ rep.X1c @ u.dag()
        target = math.exp(phi) * rep.X1c
        diff = (conj - target).toarray()[np.ix_(ix, ix)]
        assert np.linalg.norm(diff) < 1e-8

    def test_unitary_is_unitary(self, hs):
        u = dilatation_unitary(hs, 0.7)
        assert np.allclose((u @ u.dag()).toarray(), np.eye(hs.dim), atol=1e-11)

    def test_generator_splits_into_j3_sectors(self):
        """The dilatation keeps m - n: the connected components of its
        non-zero pattern are the 2N - 1 sectors, so its exponential never
        works on more than N levels."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=7))
        count, labels = connected_components(dilatation(space).mat != 0, directed=False)
        sectors = [
            sorted({m - n for m, n in map(space.label, np.flatnonzero(labels == c))})
            for c in range(count)
        ]
        assert sorted(sectors) == [[d] for d in range(-6, 7)]

    def test_unitary_implements_pair(self):
        """U B_L U^dag equals the hyperbolic mixture on a deep shell."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=24))
        rep = build_rep(space)
        phi = 0.2
        u = dilatation_unitary(space, phi)
        conj = u @ rep.B_L @ u.dag()
        bl_p, _ = bogoliubov_pair(space, phi)
        ix = space.shell_indices(6)
        diff = (conj - bl_p).toarray()[np.ix_(ix, ix)]
        assert np.linalg.norm(diff) < 1e-8


class TestDilatationChains:
    """``dilatation_unitary`` against scipy's dense exponential of the ladder form."""

    @pytest.mark.parametrize("levels", [4, 5, 12, 24])
    @pytest.mark.parametrize("phi", [-0.7, -0.3, 0.35])
    def test_matches_ladder_form_exponential(self, levels, phi):
        space = HSSpace(ModelConfig(theta=0.8, truncation=levels))
        oracle = scipy.linalg.expm((-1j * DILATATION_CONSTANT * phi) * dilatation(space).toarray())
        got = dilatation_unitary(space, phi).toarray()
        assert np.abs(got - oracle).max() <= 1e-13
        # Non-zero exactly on the union of the sector blocks d x d, and real.
        d = np.subtract(*np.divmod(np.arange(space.dim), levels))
        assert np.array_equal(got != 0, d[:, None] == d)
        assert not got.imag.any()

    def test_zero_angle_is_identity(self):
        space = HSSpace(ModelConfig(theta=0.8, truncation=6))
        u, eye = dilatation_unitary(space, 0.0).mat, identity(space.dim).mat
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(u, part), getattr(eye, part))


class TestGroundState:
    def test_required_levels(self):
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        n = required_levels(phi)
        t = abs(math.tanh(phi))
        assert t ** (2 * n) <= 1e-14 < t ** (2 * (n - 1))

    def test_required_levels_rejects_saturated_angle(self):
        # tanh(40) rounds to 1: no truncation meets the tail bound.
        with pytest.raises(ValueError, match="tail bound"):
            required_levels(40.0)

    def test_truncation_guard(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=8))
        with pytest.raises(ValueError):
            ground_state_closed(hs, -2.0)

    def test_closed_form_coefficients(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=24))
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        g = ground_state_closed(hs, phi)
        mat = g.psi0.as_matrix()
        t = -math.tanh(phi)
        for m in range(6):
            assert mat[m, m] == pytest.approx((1.0 / math.cosh(phi)) * t**m, abs=1e-14)
        off = mat - np.diag(np.diagonal(mat))
        assert np.linalg.norm(off) == 0.0

    def test_closed_form_normalized(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        g = ground_state_closed(hs, phi)
        assert g.norm == pytest.approx(1.0, abs=1e-10)

    def test_unitary_matches_closed(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        a = ground_state_closed(hs, phi)
        b = ground_state_unitary(hs, phi)
        assert np.linalg.norm(a.psi0.vec - b.psi0.vec) < 1e-10

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_sector_flow_matches_dense(self, levels, fraction, sign):
        """The N-level m = n sector flow against expm_multiply of the dense
        N^2 x N^2 generator, for either sign of phi up to the tail-bound
        limit at N."""
        hs = HSSpace(ModelConfig(theta=1.0, truncation=levels))
        phi = sign * fraction * math.atanh(1e-14 ** (1.0 / (2 * levels)))
        rep = build_rep(hs)
        k = (rep.B_Ldag @ rep.B_R - rep.B_L @ rep.B_Rdag).toarray()
        # K |0><0| = |1><1|, and the closed form's |1><1| coefficient is
        # -tanh(phi) sech(phi) ~ -phi, so the flow runs along -phi K.
        dense = scipy.sparse.linalg.expm_multiply(-phi * k, basis_state(hs, 0, 0).vec)
        got = np.diag(_sector_flow(levels, -phi)).ravel()
        assert np.max(np.abs(got - dense)) <= 1e-13

    @pytest.mark.parametrize(
        ("model", "mu", "omega"), [("h2", 2.0, 2.0), ("h2", 0.5, 0.7), ("h3", 1.0, 1.0), ("h3", 3.0, 0.5)]
    )
    def test_flow_is_dilatation_of_vacuum(self, model, mu, omega):
        """The flow is the (0, 0) column of ``dilatation_unitary`` on N + pad
        levels, cut to N, for angles of both signs (h2 > 0 here, h3 < 0)."""
        phi = phi_for(OscParams(mu, omega), 1.0, model)
        levels = required_levels(phi)
        pad = math.ceil(math.log(1e-17) / math.log(abs(math.tanh(phi))))
        big = HSSpace(ModelConfig(theta=1.0, truncation=levels + pad))
        column = apply_op(dilatation_unitary(big, phi), basis_state(big, 0, 0)).as_matrix()
        assert not (column - np.diag(np.diagonal(column))).any()
        flow = ground_state_unitary(HSSpace(ModelConfig(theta=1.0, truncation=levels)), phi)
        assert np.max(np.abs(np.diagonal(flow.psi0.as_matrix()) - np.diagonal(column)[:levels])) <= 1e-13

    @pytest.mark.parametrize(
        ("model", "mu", "omega", "levels", "edge"),
        [("h2", 2.0, 2.0, 15, 2.2e-8), ("h3", 1.0, 1.0, 17, 2.9e-8)],
    )
    def test_padding_removes_edge_error(self, model, mu, omega, levels, edge):
        """On N levels the chain's top level reflects the flow, so it misses
        the closed form by `edge` at these points, above the CLI's 1e-10
        gate; the padded flow of ground_state_unitary agrees to rounding."""
        hs = HSSpace(ModelConfig(theta=1.0, truncation=levels))
        phi = phi_for(OscParams(mu, omega), 1.0, model)
        assert required_levels(phi) == levels
        closed = ground_state_closed(hs, phi).psi0.vec
        unpadded = np.diag(_sector_flow(levels, -phi)).ravel()
        assert np.linalg.norm(unpadded - closed) == pytest.approx(edge, rel=0.05)
        assert np.linalg.norm(ground_state_unitary(hs, phi).psi0.vec - closed) < 1e-15

    @pytest.mark.parametrize(
        ("model", "mu", "omega", "theta", "extra"),
        [("h2", 2.0, 2.0, 1.0, 0), ("h2", 1.2, 1.7, 1.0, 18), ("h3", 0.5, 1.0, 1.0, 80), ("h3", 1.0, 1.0, 0.3, 262)],
    )
    def test_short_chain_matches_full_chain(self, model, mu, omega, theta, extra):
        """For N >= pad the flow runs on 2 pad levels and leaves the
        coefficients from pad on at 0: their exact values, the closed form's,
        are below tanh^pad <= 1e-17.  The kept ones match the N + pad chain's
        up to the rounding of two eigenbases, a few ulp of sech(phi); that
        chain's own values from pad on are rounding too, up to 1.4e-16 here."""
        phi = phi_for(OscParams(mu, omega), theta, model)
        pad = math.ceil(math.log(1e-17) / math.log(abs(math.tanh(phi))))
        levels = pad + extra
        hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
        short = np.diagonal(ground_state_unitary(hs, phi).psi0.as_matrix()).real
        full = _sector_flow(levels + pad, DILATATION_CONSTANT * phi)[:levels]
        closed = np.diagonal(ground_state_closed(hs, phi).psi0.as_matrix()).real
        assert not short[pad:].any()
        assert np.max(np.abs(closed[pad:]), initial=0.0) <= 1e-17
        assert np.max(np.abs(full[pad:]), initial=0.0) <= 2e-16
        assert np.max(np.abs(short - full)) <= 8 * np.finfo(float).eps

    def test_annihilated_by_primed_lowering(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        p = OscParams(1.0, 1.0)
        rp = renormalized_params(p, 1.0)
        g = ground_state_closed(hs, rp.phi)
        bl, _ = bogoliubov_pair(hs, rp.phi)
        assert hs_norm(apply_op(bl, g.psi0)) < 1e-10

    def test_all_eigenvalues_positive(self):
        """The geometric ratio -tanh(phi) is positive for the physical
        model, so psi0 is a positive diagonal operator (a density matrix)."""
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        g = ground_state_closed(hs, phi)
        eigs = np.real(np.diagonal(g.psi0.as_matrix()))
        assert np.all(eigs > 0.0)

    def test_critical_point_ground_is_vacuum_dyad(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=16))
        g = ground_state_closed(hs, 0.0)
        expected = basis_state(hs, 0, 0)
        assert np.allclose(g.psi0.vec, expected.vec)


class TestCOperators:
    def test_kill_vacuum_dyad_at_critical_point(self):
        for theta in (0.25, 1.0, 4.0):
            hs = HSSpace(ModelConfig(theta=theta, truncation=12))
            p = critical_point(theta)
            vac = basis_state(hs, 0, 0)
            for c in c_operators(hs, p):
                assert hs_norm(apply_op(c, vac)) < 1e-12

    def test_do_not_kill_vacuum_off_critical(self, hs):
        p = OscParams(1.0, 1.0)
        vac = basis_state(hs, 0, 0)
        norms = [hs_norm(apply_op(c, vac)) for c in c_operators(hs, p)]
        assert min(norms) > 0.01

    def test_primed_kill_exact_ground(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        p = OscParams(1.0, 1.0)
        rp = renormalized_params(p, 1.0)
        g = ground_state_closed(hs, rp.phi)
        for c in c_operators_primed(bogoliubov_pair(hs, rp.phi)):
            assert hs_norm(apply_op(c, g.psi0)) < 1e-10


class TestIntertwiner:
    def test_relations_hold(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        p = OscParams(1.0, 1.0)
        rp = renormalized_params(p, 1.0)
        g = ground_state_closed(hs, rp.phi)
        report = intertwiner_check(g, rp.lambda_plus, 1.0)
        assert report.residual < 1e-12
        assert report.tanh_residual < 1e-12

    def test_fails_with_wrong_lambda(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=40))
        p = OscParams(1.0, 1.0)
        rp = renormalized_params(p, 1.0)
        g = ground_state_closed(hs, rp.phi)
        report = intertwiner_check(g, 2.0 * rp.lambda_plus, 1.0)
        assert report.residual > 1e-3

    @pytest.mark.parametrize("levels", [4, 9, 24])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_csr_ladder_on_general_states(self, levels, seed):
        """Scaling the rows and columns of psi0 gives the residuals of scipy's
        CSR ladder products bit for bit, for states that are not diagonal."""
        rng = np.random.default_rng(seed)
        theta, lam = 0.7, float(rng.normal())
        hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
        m = rng.normal(size=(levels, levels)) + 1j * rng.normal(size=(levels, levels))
        m[rng.random(m.shape) < 0.2] = 0.0
        g = GroundState(psi0=state_from_matrix(hs, m), phi=float(rng.normal()), norm=1.0)
        b = annihilator(hs.fock()).mat
        left, right = b @ m, m @ b
        sub = np.ix_(np.arange(levels - 1), np.arange(levels - 1))
        report = intertwiner_check(g, lam, theta)
        assert report.residual == float(np.linalg.norm(((1.0 + theta * lam) * left - right)[sub]))
        assert report.tanh_residual == float(np.linalg.norm((left + math.tanh(g.phi) * right)[sub]))

    @pytest.mark.parametrize("levels", [16, 200])
    @pytest.mark.parametrize("phi", [-0.3, 0.35])
    def test_sparse_ladder_matches_dense(self, levels, phi):
        """Scaling the rows and columns of psi0 gives the residuals of the
        dense ladder products bit for bit."""
        hs = HSSpace(ModelConfig(theta=1.0, truncation=levels))
        g = ground_state_closed(hs, phi)
        lam = 0.7
        b = annihilator(hs.fock()).toarray()
        m = g.psi0.as_matrix()
        left, right = b @ m, m @ b
        sub = np.ix_(np.arange(levels - 1), np.arange(levels - 1))
        report = intertwiner_check(g, lam, 1.0)
        assert report.residual == float(np.linalg.norm(((1.0 + lam) * left - right)[sub]))
        assert report.tanh_residual == float(np.linalg.norm((left + math.tanh(phi) * right)[sub]))
