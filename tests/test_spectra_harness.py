import math

import numpy as np
import pytest

from conftest import dense_blocks
from moyal_lab.operator_core import TridiagonalBlocks
from moyal_lab.moyal_rep import HSSpace, ModelConfig, basis_state
from moyal_lab.oscillator_models import OscParams, analytic_spectrum, critical_point
from moyal_lab.bogoliubov_flow import ground_state_closed, phi_for
from moyal_lab.spectra_harness import (
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
        h, _ = build_model("h2", p, theta, 16)
        g = ground_state_closed(hs, 0.0)
        assert ground_overlap(h, g) >= 1.0 - 1e-10

    def test_h3_exact_ground(self):
        phi = phi_for(OscParams(1.0, 1.0), 1.0, "h3")
        hs = HSSpace(ModelConfig(theta=1.0, truncation=36))
        h, _ = build_model("h3", OscParams(1.0, 1.0), 1.0, 36)
        g = ground_state_closed(hs, phi)
        assert ground_overlap(h, g) >= 1.0 - 1e-8

    @pytest.mark.parametrize("model, mu, omega", [("h3", 1.0, 1.0), ("h2", 2.0, 1.5)])
    def test_sector_and_dense_paths_agree(self, model, mu, omega):
        p = OscParams(mu, omega)
        phi = phi_for(p, 1.0, model)
        hs = HSSpace(ModelConfig(theta=1.0, truncation=20))
        h, _ = build_model(model, p, 1.0, 20)
        _, vecs = np.linalg.eigh(dense_blocks(h))
        # The exact ground state, and the vacuum dyad, which overlaps it by
        # about sech(phi) and so tests the vector rather than a value near 1.
        for g in (ground_state_closed(hs, phi), ground_state_closed(hs, 0.0)):
            dense = abs(np.vdot(vecs[:, 0], g.psi0.vec / g.norm))
            assert ground_overlap(h, g) == pytest.approx(dense, abs=1e-12)
        assert ground_overlap(h, ground_state_closed(hs, 0.0)) < 0.999

    def test_degenerate_ground_rejected(self):
        hs = HSSpace(ModelConfig(theta=1.0, truncation=8))
        g = ground_state_closed(hs, 0.0)
        levels = np.repeat(np.arange(32.0), 2)
        degenerate = TridiagonalBlocks(
            64, tuple((np.array([k]), levels[k : k + 1], np.empty(0)) for k in range(64))
        )
        with pytest.raises(ValueError, match="degenerate"):
            ground_overlap(degenerate, g)
