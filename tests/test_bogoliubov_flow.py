import math

import numpy as np
import pytest

from moyal_lab.operator_core import commutator, identity
from moyal_lab.moyal_rep import (
    HSSpace,
    ModelConfig,
    apply_op,
    basis_state,
    block_norm,
    build_rep,
    hs_inner,
    hs_norm,
    restrict,
)
from moyal_lab.oscillator_models import (
    OscParams,
    critical_point,
    h2,
    h3,
    renormalized_params,
)
from moyal_lab.bogoliubov_flow import (
    bogoliubov_frame,
    bogoliubov_pair,
    c_operators,
    c_operators_primed,
    dilatation,
    dilatation_quadratic,
    dilatation_scaling_constant,
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
        assert np.allclose(bl.mat, rep.B_L.mat)
        assert np.allclose(br.mat, rep.B_R.mat)

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
        assert np.array_equal(d.mat, d.mat.conj().T)

    def test_two_forms_agree(self, hs):
        diff = dilatation(hs) - dilatation_quadratic(hs)
        assert block_norm(diff, hs.safe_indices) < 1e-12

    def test_scaling_constant_calibration(self):
        assert dilatation_scaling_constant() == pytest.approx(-1.0, abs=1e-12)

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
        diff = restrict(conj - target, ix)
        assert np.linalg.norm(diff) < 1e-8

    def test_unitary_is_unitary(self, hs):
        u = dilatation_unitary(hs, 0.7)
        assert np.allclose((u @ u.dag()).mat, np.eye(hs.dim), atol=1e-11)

    def test_frame_bundle(self, hs):
        frame = bogoliubov_frame(hs, 0.25)
        assert frame.phi == 0.25
        assert frame.scaling_constant == pytest.approx(-1.0)
        bl, _ = bogoliubov_pair(hs, 0.25)
        assert np.allclose(frame.B_L_prime.mat, bl.mat)

    def test_unitary_implements_pair(self):
        """U B_L U^dag equals the hyperbolic mixture on a deep shell."""
        space = HSSpace(ModelConfig(theta=1.0, truncation=24))
        rep = build_rep(space)
        phi = 0.2
        frame = bogoliubov_frame(space, phi)
        conj = frame.U @ rep.B_L @ frame.U.dag()
        ix = space.shell_indices(6)
        diff = restrict(conj - frame.B_L_prime, ix)
        assert np.linalg.norm(diff) < 1e-8


class TestGroundState:
    def test_required_levels(self):
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        n = required_levels(phi)
        t = abs(math.tanh(phi))
        assert t ** (2 * n) <= 1e-14 < t ** (2 * (n - 1))

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
        frame = bogoliubov_frame(hs, rp.phi)
        g = ground_state_closed(hs, rp.phi)
        for c in c_operators_primed(frame):
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
