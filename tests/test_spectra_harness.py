import math

import numpy as np
import pytest
import scipy.linalg

from conftest import dense_blocks
from moyal_lab.operator_core import TridiagonalBlocks, hermitian_eigvals, hermitian_ground
from moyal_lab.moyal_rep import HSSpace, ModelConfig, basis_state
from moyal_lab.oscillator_models import (
    MODELS,
    OscParams,
    SpectrumFormula,
    analytic_spectrum,
    critical_point,
    sector_blocks,
)
from moyal_lab.bogoliubov_flow import ground_state_closed, phi_for
from moyal_lab.spectra_harness import (
    _closed_form,
    _sector_bounds,
    build_model,
    convergence_study,
    diagonalize_compare,
    ground_overlap,
    trusted_level_count,
)


class TestTrustedLevelCount:
    def test_formula_aware_counts(self):
        # Symmetric spectrum: energy window below E(0, cut+1) recovers the
        # simplex of shells with m + n <= cut, cut = floor(N/3).
        f1 = analytic_spectrum("h1")
        assert trusted_level_count(12, f1) == sum(range(1, 6))  # shells 0..4
        # The physical model is asymmetric, so the window holds fewer levels
        # than the symmetric shell count at the same truncation.
        f3 = analytic_spectrum("h3", OscParams(1.0, 1.0), 1.0)
        assert 0 < trusted_level_count(12, f3) < trusted_level_count(12, f1)


class TestDiagonalizeCompare:
    def test_h1_multiplicities(self):
        h, f = build_model("h1", OscParams(1.0, 1.0), 1.0, 16)
        report = diagonalize_compare(h, f, 16)
        assert report.max_abs_residual <= 1e-12
        # 2j+1 levels at energy 2j+1 for the compared multiplets.
        for energy, mult in report.degeneracy_table[:5]:
            assert mult == round(energy)

    def test_h2_critical_point(self):
        theta = 1.0
        p = critical_point(theta)
        h, f = build_model("h2", p, theta, 16)
        report = diagonalize_compare(h, f, 16)
        assert report.max_abs_residual <= 1e-12
        assert report.numeric[0] == pytest.approx(2.0, abs=1e-12)

    def test_h3_frozen_lowest_level(self):
        h, f = build_model("h3", OscParams(1.0, 1.0), 1.0, 16)
        report = diagonalize_compare(h, f, 16)
        assert report.numeric[0] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-8)

    def test_h3_zeeman_splitting(self):
        """Each j-multiplet splits into equally spaced levels, spacing 1.0."""
        h, f = build_model("h3", OscParams(1.0, 1.0), 1.0, 20)
        report = diagonalize_compare(h, f, 20)
        # Sorted order interleaves multiplets; the j=1/2 doublet members
        # E(0,1) and E(1,0) land at sorted positions 1 and 3.
        assert report.numeric[3] - report.numeric[1] == pytest.approx(1.0, abs=1e-8)
        # j=1 triplet members E(0,2), E(1,1), E(2,0) are equally spaced.
        triplet = sorted(
            v
            for v in report.numeric
            if any(abs(v - f.energy(m, 2 - m)) < 1e-6 for m in range(3))
        )
        assert triplet[1] - triplet[0] == pytest.approx(1.0, abs=1e-8)
        assert triplet[2] - triplet[1] == pytest.approx(1.0, abs=1e-8)

    def test_commutative_ladder(self):
        h, f = build_model("commutative", OscParams(1.0, 1.0), 1.0, 12)
        report = diagonalize_compare(h, f, 12)
        assert list(report.numeric[:6]) == pytest.approx([1, 2, 2, 3, 3, 3], abs=1e-10)

    def test_lists_sorted_and_sized(self):
        h, f = build_model("h2", OscParams(1.0, 1.0), 1.0, 12)
        report = diagonalize_compare(h, f, 12)
        assert report.compared_levels == trusted_level_count(12, f)
        assert list(report.numeric) == sorted(report.numeric)
        assert list(report.analytic) == sorted(report.analytic)
        assert len(report.numeric) == report.compared_levels
        assert report.max_abs_residual == pytest.approx(
            max(abs(a - b) for a, b in zip(report.numeric, report.analytic))
        )

    def test_dimension_mismatch(self):
        h, f = build_model("h1", OscParams(1.0, 1.0), 1.0, 12)
        with pytest.raises(ValueError):
            diagonalize_compare(h, f, 10)


class TestConvergence:
    def test_h2_fixed_levels(self):
        rows = convergence_study("h2", OscParams(1.0, 1.0), 1.0, [12, 16, 24], k0=10)
        assert [n for n, _ in rows] == [12, 16, 24]
        residuals = [r for _, r in rows]
        # Non-increasing to 1e-10 slack.
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a + 1e-10
        assert residuals[-1] <= 1e-8

    def test_critical_h2_flat(self):
        theta = 1.0
        rows = convergence_study("h2", critical_point(theta), theta, [8, 12, 16])
        assert all(r <= 1e-12 for _, r in rows)

    def test_validation(self):
        with pytest.raises(ValueError):
            convergence_study("h2", OscParams(1.0, 1.0), 1.0, [16, 12])
        with pytest.raises(ValueError):
            convergence_study("h2", OscParams(1.0, 1.0), 1.0, [4, 8])
        with pytest.raises(ValueError):
            convergence_study("h2", OscParams(1.0, 1.0), 1.0, [])


class TestGroundOverlap:
    def test_critical_point_vacuum(self):
        theta = 1.0
        p = critical_point(theta)
        hs = HSSpace(ModelConfig(theta=theta, truncation=16))
        h, f = build_model("h2", p, theta, 16)
        g = ground_state_closed(hs, 0.0)
        assert ground_overlap(h, f, g) >= 1.0 - 1e-10

    def test_h3_exact_ground(self):
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        hs = HSSpace(ModelConfig(theta=1.0, truncation=36))
        h, f = build_model("h3", OscParams(1.0, 1.0), 1.0, 36)
        g = ground_state_closed(hs, phi)
        assert ground_overlap(h, f, g) >= 1.0 - 1e-8

    @pytest.mark.parametrize("model, mu, omega", [("h3", 1.0, 1.0), ("h2", 2.0, 1.5)])
    def test_sector_and_dense_paths_agree(self, model, mu, omega):
        p = OscParams(mu, omega)
        phi = phi_for(p, 1.0, model)
        hs = HSSpace(ModelConfig(theta=1.0, truncation=20))
        h, f = build_model(model, p, 1.0, 20)
        _, vecs = np.linalg.eigh(dense_blocks(h))
        # The exact ground state, and the vacuum dyad, which overlaps it by
        # about sech(phi) and so tests the vector rather than a value near 1.
        for g in (ground_state_closed(hs, phi), ground_state_closed(hs, 0.0)):
            dense = abs(np.vdot(vecs[:: hs.levels + 1, 0], g.coeffs / g.norm))
            assert ground_overlap(h, f, g) == pytest.approx(dense, abs=1e-12)
        assert ground_overlap(h, f, ground_state_closed(hs, 0.0)) < 0.999

    def test_degenerate_ground_rejected(self):
        # alpha = 1, beta = 0 and a Zeeman term 2 give the labels (m, n) the
        # energy 2m + 1, so all eight labels (0, n) share the ground level.
        hs = HSSpace(ModelConfig(theta=1.0, truncation=8))
        g = ground_state_closed(hs, 0.0)
        formula = SpectrumFormula("test", lambda m, n: 2.0 * m + 1.0, lambda j, j3: 2.0 * (j + j3) + 1.0)
        degenerate = sector_blocks(8, 1.0, 0.0, 2.0)
        every = np.full(len(degenerate.blocks), -np.inf)
        assert np.array_equal(hermitian_eigvals(degenerate, every, 64), _closed_form(formula, 8)[0])
        with pytest.raises(ValueError, match="degenerate"):
            ground_overlap(degenerate, formula, g)

    def test_ground_outside_diagonal_sector(self):
        # alpha = 1, beta = 0 and a Zeeman term -4 give (m, n) the energy
        # 1 - m + 3n, so the unique ground label is (N - 1, 0), in sector
        # d = N - 1: the numeric ground vector has no m = n entry.
        hs = HSSpace(ModelConfig(theta=1.0, truncation=16))
        formula = SpectrumFormula("test", lambda m, n: 1.0 - m + 3.0 * n, lambda j, j3: 1.0 + 2.0 * j - 4.0 * j3)
        h = sector_blocks(16, 1.0, 0.0, -4.0)
        _, vec = hermitian_ground(h, _sector_bounds(formula, 16))
        assert np.flatnonzero(vec).tolist() == [hs.index(15, 0)]
        with np.errstate(all="raise"):
            assert ground_overlap(h, formula, ground_state_closed(hs, 0.3)) == 0.0


def all_sector_ground(h: TridiagonalBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Reference for ``hermitian_ground``: every block solved, the vector
    from the first block in block order that holds the lowest level."""
    per_block = [scipy.linalg.eigvalsh_tridiagonal(diag, off) for _, diag, off in h.blocks]
    index, diag, off = h.blocks[int(np.argmin([w[0] for w in per_block]))]
    _, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    vec = np.zeros(h.dim, dtype=np.complex128)
    vec[index] = v[:, 0]
    return np.sort(np.concatenate(per_block))[:2], vec


class TestPrunedGround:
    def test_matches_all_sector_solve(self):
        """Solving sectors in ascending order of their closed-form bound and
        stopping past the second level gives the levels and vector of the
        full solve bit for bit."""
        rng = np.random.default_rng(22)
        for case in range(240):
            model = ("h2", "h3")[case % 2]
            mu, omega, theta = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=3))
            levels = int(rng.integers(8, 65))
            h, f = build_model(model, OscParams(mu, omega), theta, levels)
            bounds = _sector_bounds(f, levels)
            got, want = hermitian_ground(h, bounds), all_sector_ground(h)
            label = (model, mu, omega, theta, levels)
            assert np.array_equal(got[0], want[0]), label
            assert np.array_equal(got[1], want[1]), label
            lowest = [scipy.linalg.eigvalsh_tridiagonal(diag, off)[0] for _, diag, off in h.blocks]
            assert np.all(bounds <= lowest), label

    def test_stops_at_the_second_level(self, monkeypatch):
        """h2 at N = 24: the sectors d = 0 and +-1 hold the two lowest
        levels, and d = +-2 are bounded above them, so three of 47 sectors
        are solved."""
        h, f = build_model("h2", OscParams(2.0, 2.0), 1.0, 24)
        solve, sizes = scipy.linalg.eigvalsh_tridiagonal, []

        def counted(diag, off):
            sizes.append(diag.size)
            return solve(diag, off)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counted)
        levels, _ = hermitian_ground(h, _sector_bounds(f, 24))
        assert levels == pytest.approx([2.0, 4.0], abs=1e-12)
        assert sorted(sizes) == [23, 23, 24]


def all_sector_levels(h: TridiagonalBlocks) -> np.ndarray:
    """Reference for ``hermitian_eigvals``: every block solved, all levels sorted."""
    return np.sort(np.concatenate([scipy.linalg.eigvalsh_tridiagonal(diag, off) for _, diag, off in h.blocks]))


class TestBoundedEigvals:
    def test_matches_all_sector_solve(self):
        """Solving sectors in ascending order of their closed-form bound and
        stopping past the k-th level keeps the k lowest levels of the full
        solve bit for bit, for one and two levels, the trusted count and the
        whole lattice."""
        rng = np.random.default_rng(23)
        for case in range(200):
            model = MODELS[case % 4]
            mu, omega, theta = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=3))
            levels = int(rng.integers(8, 65))
            h, f = build_model(model, OscParams(mu, omega), theta, levels)
            bounds, want = _sector_bounds(f, levels), all_sector_levels(h)
            for k in sorted({1, 2, trusted_level_count(levels, f), levels**2}):
                label = (model, mu, omega, theta, levels, k)
                assert np.array_equal(hermitian_eigvals(h, bounds, k), want[:k]), label

    def test_spectrum_solves_the_sectors_below_its_last_level(self, monkeypatch):
        """h3 at N = 24 and mu = omega = theta = 1 compares its trusted levels
        after solving 12 of its 47 sectors: the others are bounded above the
        last level compared."""
        h, f = build_model("h3", OscParams(1.0, 1.0), 1.0, 24)
        solve, sizes = scipy.linalg.eigvalsh_tridiagonal, []

        def counted(diag, off):
            sizes.append(diag.size)
            return solve(diag, off)

        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", counted)
        report = diagonalize_compare(h, f, 24)
        assert sorted(sizes) == [16, 17, 18, 19, 20, 21, 21, 22, 22, 23, 23, 24]
        assert np.array_equal(report.numeric, all_sector_levels(h)[:report.compared_levels])
