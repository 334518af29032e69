import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_blocks
from moyal_lab.operator_core import (
    FockSpace,
    adjoint,
    annihilator,
    commutator,
    hermitian_eigvals,
    identity,
    tensor,
)
from moyal_lab.moyal_rep import HSSpace, ModelConfig, block_norm, build_rep
from moyal_lab.oscillator_models import (
    MODELS,
    sector_blocks,
    OscParams,
    alpha_beta,
    analytic_spectrum,
    critical_point,
    h1,
    h2,
    h3,
    h_commutative,
    lambdas,
    renormalize,
    renormalized_params,
    sector_hamiltonian,
    zeeman_decomposition,
)
from moyal_lab.schwinger_su2 import schwinger_noncommutative

positive = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@pytest.fixture(scope="module")
def hs():
    return HSSpace(ModelConfig(theta=1.0, truncation=10))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            OscParams(mu=0.0, omega=1.0)
        with pytest.raises(ValueError):
            OscParams(mu=1.0, omega=-1.0)

    def test_alpha_beta_frozen_values(self):
        # mu = omega = theta = 1: alpha = 5/4, beta = -3/4.
        a, b = alpha_beta(OscParams(1.0, 1.0), 1.0)
        assert a == pytest.approx(1.25, abs=1e-15)
        assert b == pytest.approx(-0.75, abs=1e-15)

    def test_critical_point(self):
        for theta in (0.25, 1.0, 4.0):
            p = critical_point(theta)
            assert p.mu == pytest.approx(1.0 / math.sqrt(theta))
            assert p.omega == pytest.approx(2.0 / math.sqrt(theta))
            # At the critical point the off-diagonal coefficient vanishes.
            _, b = alpha_beta(p, theta)
            assert abs(b) < 1e-15

    def test_renormalize_frozen_values(self):
        mu_p, om_p = renormalize(OscParams(1.0, 1.0), 1.0)
        assert mu_p == pytest.approx(0.8, abs=1e-15)
        assert om_p == pytest.approx(math.sqrt(1.25), abs=1e-15)

    def test_lambdas_frozen_values(self):
        lp, lm = lambdas(OscParams(1.0, 1.0), 1.0)
        assert lp == pytest.approx((math.sqrt(5) + 1) / 2, abs=1e-14)
        assert lm == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-14)

    def test_commutative_limit(self):
        p = OscParams(1.3, 0.7)
        mu_p, om_p = renormalize(p, 0.0)
        assert mu_p == pytest.approx(p.mu)
        assert om_p == pytest.approx(p.omega)
        lp, lm = lambdas(p, 0.0)
        assert lp == pytest.approx(p.mu * p.omega)
        assert lm == pytest.approx(p.mu * p.omega)


class TestParamIdentities:
    @settings(max_examples=60, deadline=None)
    @given(positive, positive, positive)
    def test_lambda_identities(self, mu, omega, theta):
        p = OscParams(mu, omega)
        lp, lm = lambdas(p, theta)
        # Conditioning: the product amplifies the rounding of theta*lm by
        # the factor (1 + theta*lp), so the bound scales with it.
        cond = 1.0 + theta * lp
        assert (1.0 + theta * lp) * (1.0 - theta * lm) == pytest.approx(
            1.0, abs=max(1e-14, 5e-16 * cond)
        )
        assert lp * lm == pytest.approx(mu**2 * omega**2, rel=1e-12)

    def test_lambda_identity_grid(self):
        # Moderate 5 x 5 x 3 grid: the identity holds to 1e-12 absolute.
        for mu in (0.5, 0.75, 1.0, 1.5, 2.0):
            for omega in (0.5, 0.75, 1.0, 1.5, 2.0):
                for theta in (0.25, 1.0, 4.0):
                    lp, lm = lambdas(OscParams(mu, omega), theta)
                    assert (1.0 + theta * lp) * (1.0 - theta * lm) == pytest.approx(
                        1.0, abs=1e-12
                    )

    @settings(max_examples=60, deadline=None)
    @given(positive, positive, positive)
    def test_invariant_combination(self, mu, omega, theta):
        p = OscParams(mu, omega)
        mu_p, om_p = renormalize(p, theta)
        assert mu_p * om_p**2 == pytest.approx(mu * omega**2, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(positive, positive, positive)
    def test_lambda_sum_difference(self, mu, omega, theta):
        p = OscParams(mu, omega)
        lp, lm = lambdas(p, theta)
        mu_p, om_p = renormalize(p, theta)
        assert (lp + lm) / (2.0 * mu) == pytest.approx(om_p, rel=1e-12)
        assert (lp - lm) / mu == pytest.approx(mu * theta * omega**2, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(positive, positive, positive)
    def test_tanh_phi_relations(self, mu, omega, theta):
        rp = renormalized_params(OscParams(mu, omega), theta)
        t = abs(math.tanh(rp.phi))
        assert t == pytest.approx(1.0 - theta * rp.lambda_minus, abs=1e-12)
        assert t == pytest.approx(rp.lambda_minus / rp.lambda_plus, abs=1e-12)
        assert t == pytest.approx(1.0 / (1.0 + theta * rp.lambda_plus), abs=1e-12)
        assert rp.phi < 0.0


class TestCommutativeModel:
    def test_spectrum_is_harmonic(self):
        h = h_commutative(8, OscParams(1.0, 1.5))
        evals = np.linalg.eigvalsh(h.toarray())
        # Lowest levels 1.5 * (m + n + 1), degeneracy m + n + 1.
        expected = sorted(1.5 * (m + n + 1) for m in range(8) for n in range(8))
        assert np.allclose(np.sort(evals)[:10], expected[:10], atol=1e-12)

    def test_ground_is_vacuum(self):
        h = h_commutative(6, OscParams(1.0, 1.0))
        evals, evecs = np.linalg.eigh(h.toarray())
        ground = np.abs(evecs[:, 0])
        assert ground[0] == pytest.approx(1.0)
        assert np.linalg.norm(ground[1:]) < 1e-12


class TestHamiltonians:
    def test_h1_ladder_diagonal(self, hs):
        h = h1(hs)
        # Diagonal entries m + n + 1 on the lattice.
        diag = np.real(np.diagonal(h.toarray()))
        for k in hs.safe_indices:
            m, n = hs.label(int(k))
            assert diag[k] == pytest.approx(m + n + 1, abs=1e-13)

    def test_h2_hermitian_and_psd(self, hs):
        h = h2(hs, OscParams(1.0, 1.0))
        assert np.allclose(h.toarray(), h.toarray().conj().T, atol=1e-13)
        evals = np.linalg.eigvalsh(h.toarray())
        assert evals[0] > 0.0

    def test_h2_at_critical_point_is_scaled_h1(self, hs):
        # At (mu0, omega0) the off-diagonal term vanishes and h2 = omega0 h1.
        p = critical_point(hs.theta)
        diff = h2(hs, p) - p.omega * h1(hs)
        assert block_norm(diff, hs.safe_indices) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(positive, positive, positive)
    def test_h3_equals_decomposition(self, mu, omega, theta):
        space = HSSpace(ModelConfig(theta=theta, truncation=10))
        p = OscParams(mu, omega)
        decomp = zeeman_decomposition(space, p)
        recomposed = decomp.h2_part + decomp.zeeman_coeff * decomp.J3
        h = h3(space, p)
        assert block_norm(h - recomposed, space.safe_indices) <= 5e-15 * max(1.0, h.norm())

    def test_zeeman_coefficient_value(self, hs):
        decomp = zeeman_decomposition(hs, OscParams(1.0, 1.0))
        assert decomp.zeeman_coeff == pytest.approx(1.0, abs=1e-15)

    def test_zeeman_j3_matches_generators(self, hs):
        decomp = zeeman_decomposition(hs, OscParams(1.0, 1.0))
        j3 = schwinger_noncommutative(hs).J3
        assert np.allclose(decomp.J3.toarray(), j3.toarray())

    def test_h1_commutes_with_su2(self, hs):
        # Quadratic-times-quadratic products are exact on the depth-2 block.
        gens = schwinger_noncommutative(hs)
        ix = hs.safe_block(depth=2)
        h = h1(hs)
        for j in gens.as_tuple():
            assert block_norm(commutator(h, j), ix) <= 1e-10 * h.norm()

    def test_h2_commutes_with_primed_su2(self, hs):
        """Generic h2 is SU(2) symmetric in its own Bogoliubov frame.

        The bare generators satisfy [h2, J1] = (beta/2)(B_L^2 - B_R^2 - h.c.),
        so only the frame-changed (primed-ladder) generators commute.
        """
        from moyal_lab.bogoliubov_flow import bogoliubov_pair, phi_for
        from moyal_lab.schwinger_su2 import schwinger_from_ladders

        p = OscParams(2.0, 0.5)
        h = h2(hs, p)
        ix = hs.safe_block(depth=2)
        bare = schwinger_noncommutative(hs)
        primed = schwinger_from_ladders(
            *bogoliubov_pair(hs, phi_for(p, hs.theta, "h2")), context="primed"
        )
        for j in primed.as_tuple():
            assert block_norm(commutator(h, j), ix) <= 1e-10 * h.norm()
        # J3 is frame-invariant, the transverse bare generators are broken.
        assert block_norm(commutator(h, bare.J3), ix) <= 1e-10 * h.norm()
        assert block_norm(commutator(h, bare.J1), ix) > 1e-3 * h.norm()

    def test_h2_critical_commutes_with_bare_su2(self, hs):
        gens = schwinger_noncommutative(hs)
        ix = hs.safe_block(depth=2)
        h = h2(hs, critical_point(hs.theta))
        for j in gens.as_tuple():
            assert block_norm(commutator(h, j), ix) <= 1e-10 * h.norm()

    def test_h3_commutes_only_with_j3(self, hs):
        gens = schwinger_noncommutative(hs)
        h = h3(hs, OscParams(1.0, 1.0))
        ix = hs.safe_block(depth=2)
        assert block_norm(commutator(h, gens.J3), ix) <= 1e-10 * h.norm()
        assert block_norm(commutator(h, gens.J1), ix) > 1e-3 * h.norm()
        assert block_norm(commutator(h, gens.J2), ix) > 1e-3 * h.norm()


def padded_oracle(model: str, p: OscParams, theta: float, levels: int) -> np.ndarray:
    """Exact compression by padding: the dense quadratic form built on
    N + 2 levels and restricted to the N^2 block.  Each product climbs at
    most one level, so every retained matrix element is the infinite one."""
    big = levels + 2
    if model == "commutative":
        b = annihilator(FockSpace(big))
        a1, a2 = tensor(b, identity(big)), tensor(identity(big), b)
        full = p.omega * (adjoint(a1) @ a1 + adjoint(a2) @ a2 + identity(big**2))
    else:
        rep = build_rep(HSSpace(ModelConfig(theta=theta, truncation=big)))
        p2 = rep.P1 @ rep.P1 + rep.P2 @ rep.P2
        xc2 = rep.X1c @ rep.X1c + rep.X2c @ rep.X2c
        if model == "h1":
            full = (1.0 / theta) * xc2 + (theta / 4.0) * p2
        elif model == "h2":
            full = p2 / (2.0 * p.mu) + 0.5 * p.mu * p.omega**2 * xc2
        else:
            x2 = rep.X1 @ rep.X1 + rep.X2 @ rep.X2
            full = p2 / (2.0 * p.mu) + 0.5 * p.mu * p.omega**2 * x2
    idx = np.array([m * big + n for m in range(levels) for n in range(levels)])
    return full.toarray()[np.ix_(idx, idx)]


class TestSectorForm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(MODELS), positive, positive, positive, st.integers(min_value=4, max_value=10)
    )
    def test_matches_padded_oracle(self, model, mu, omega, theta, levels):
        p = OscParams(mu, omega)
        h = sector_hamiltonian(model, p, theta, levels)
        assert h.dim == levels**2
        assert len(h.blocks) == 2 * levels - 1
        dense = dense_blocks(h)
        oracle = padded_oracle(model, p, theta, levels)
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert np.linalg.norm(dense - oracle) <= 1e-12 * scale
        reference = np.linalg.eigvalsh(dense)
        assert np.max(np.abs(hermitian_eigvals(h) - reference)) <= 1e-12 * scale

    def test_no_entries_between_sectors(self):
        # Every non-zero of the oracle joins labels with the same m - n.
        levels = 6
        oracle = padded_oracle("h3", OscParams(0.7, 1.9), 1.4, levels)
        d = np.array([m - n for m in range(levels) for n in range(levels)])
        rows, cols = np.nonzero(oracle)
        assert np.array_equal(d[rows], d[cols])

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            sector_hamiltonian("h4", OscParams(1.0, 1.0), 1.0, 8)

    @pytest.mark.parametrize(
        "model, theta, levels", [("h1", 0.0, 8), ("h2", 1.0, 3), ("commutative", 1.0, 1)]
    )
    def test_invalid_space_rejected(self, model, theta, levels):
        with pytest.raises(ValueError):
            sector_hamiltonian(model, OscParams(1.0, 1.0), theta, levels)


def build_operator(model, p, theta, levels):
    if model == "commutative":
        return h_commutative(levels, p)
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    return h1(hs) if model == "h1" else {"h2": h2, "h3": h3}[model](hs, p)


@pytest.mark.parametrize(
    "model, levels",
    [(model, levels) for model in MODELS for levels in (4, 5, 12, 33)] + [("commutative", 2), ("commutative", 3)],
)
def test_operators_are_their_sectors_scattered(model, levels):
    # The three diagonals 0 and +-(N + 1) against the sectors' entries,
    # exactly: a coupling left on the +(N + 1) diagonal at n = N - 1 would
    # join (m, N - 1) to (m + 2, 0).
    rng = np.random.default_rng(levels)
    draws = [(OscParams(*rng.uniform(0.1, 10.0, 2)), float(rng.uniform(0.1, 10.0))) for _ in range(3)]
    critical = critical_point(4.0)
    assert alpha_beta(critical, 4.0)[1] == 0.0
    for p, theta in [*draws, (critical, 4.0)]:
        op = build_operator(model, p, theta, levels)
        dense = dense_blocks(sector_hamiltonian(model, p, theta, levels))
        rows, cols = np.nonzero(dense)
        assert np.array_equal(op.offsets, np.unique(cols - rows))
        assert np.array_equal(op.toarray(), dense)


def sectors_by_loop(levels, alpha, beta, zeeman):
    """The per-sector loop that ``sector_blocks`` replaced, kept as its reference."""
    blocks = []
    for d in range(1 - levels, levels):
        k = np.arange(levels - abs(d))
        m = k + max(d, 0)
        n = k + max(-d, 0)
        diag = alpha * (m + n + 1) + zeeman * d / 2.0
        off = beta * np.sqrt((m[:-1] + 1.0) * (n[:-1] + 1.0))
        blocks.append((m * levels + n, diag, off))
    return blocks


@pytest.mark.parametrize("levels", [2, 3, 4, 12, 33])
@pytest.mark.parametrize("zeeman", [0.0, 0.7310249])
def test_sectors_match_loop_bit_for_bit(levels, zeeman):
    alpha, beta = alpha_beta(OscParams(1.37, 0.41), 2.2)
    got = sector_blocks(levels, alpha, beta, zeeman)
    ref = sectors_by_loop(levels, alpha, beta, zeeman)
    assert got.dim == levels**2
    assert len(got.blocks) == len(ref)
    for block, expected in zip(got.blocks, ref):
        for a, b in zip(block, expected):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


class TestAnalyticSpectrum:
    def test_model_list(self):
        assert MODELS == ("commutative", "h1", "h2", "h3")

    def test_h1_energy(self):
        f = analytic_spectrum("h1")
        assert f.energy(2, 3) == 6.0
        assert f.energy_jj3(2.5, 0.5) == 6.0

    def test_h2_energy(self):
        f = analytic_spectrum("h2", OscParams(1.0, 2.0))
        assert f.energy(1, 1) == pytest.approx(6.0)

    def test_h3_energy_frozen_values(self):
        f = analytic_spectrum("h3", OscParams(1.0, 1.0), 1.0)
        assert f.energy(0, 0) == pytest.approx(math.sqrt(5) / 2.0, abs=1e-14)
        lp, lm = lambdas(OscParams(1.0, 1.0), 1.0)
        assert f.energy(1, 0) == pytest.approx((3 * lp + lm) / 2.0, abs=1e-14)

    def test_h3_two_forms_agree(self):
        """lambda form over (m, n) equals the (j, j3) form to 1e-12."""
        f = analytic_spectrum("h3", OscParams(1.3, 0.8), 0.6)
        for m in range(6):
            for n in range(6):
                j = (m + n) / 2.0
                j3 = (m - n) / 2.0
                assert f.energy(m, n) == pytest.approx(f.energy_jj3(j, j3), abs=1e-12)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            analytic_spectrum("h4")

    def test_missing_params_rejected(self):
        with pytest.raises(ValueError):
            analytic_spectrum("h3", OscParams(1.0, 1.0), None)
