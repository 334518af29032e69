"""Truncation-aware numerical spectroscopy.

Diagonalizes the oscillator Hamiltonians and compares the trustworthy
low end of the spectrum against the closed forms.  Pairing between the
numeric and analytic lists is by sorted order, not by label, so the
comparison stops at the energy where edge-contaminated labels start
interleaving the well-converged ones (see trusted_level_count).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operator_core import TridiagonalBlocks, hermitian_eigvals, hermitian_ground
from .moyal_rep import HSState, hs_inner, hs_norm
from .oscillator_models import OscParams, SpectrumFormula, analytic_spectrum, sector_hamiltonian
from .bogoliubov_flow import GroundState

__all__ = [
    "SpectrumReport",
    "build_model",
    "trusted_level_count",
    "diagonalize_compare",
    "convergence_study",
    "ground_overlap",
]


def build_model(
    model: str, p: OscParams, theta: float, levels: int
) -> tuple[TridiagonalBlocks, SpectrumFormula]:
    """Hamiltonian on its J3 sectors plus its closed-form spectrum for the named model."""
    return (sector_hamiltonian(model, p, theta, levels), analytic_spectrum(model, p, theta))


def _analytic_levels(formula: SpectrumFormula, levels: int) -> np.ndarray:
    """Closed-form energies of all N^2 labels (m, n), ascending."""
    m, n = np.divmod(np.arange(levels**2), levels)
    return np.sort(formula.energy(m, n))


def trusted_level_count(levels: int, formula: SpectrumFormula) -> int:
    """Number of sorted levels that sit safely below the truncation edge.

    It counts the analytic lattice energies strictly below the lowest
    energy of any label outside the core max(m, n) <= floor(N/3); sorted
    order pairing is only valid up to that energy, because just above it
    the numeric list starts interleaving edge labels whose truncation
    error is order one (for asymmetric spectra such as the physical model,
    cheap-mode labels like (0, N-1) fall below many well-converged ones).
    The core is a third of the truncation rather than half because the
    Bogoliubov rotation dresses label (m, n) with components on
    (m+k, n+k) whose amplitudes tanh(phi)^k carry a combinatorial factor
    sqrt(C(m+k, k) C(n+k, k)); the enhancement makes mid-lattice labels
    converge far more slowly than the bare tanh tail suggests.
    """
    cut = levels // 3
    if cut + 1 >= levels:
        return 0
    edge = min(formula.energy(0, cut + 1), formula.energy(cut + 1, 0))
    margin = 1e-9 * abs(edge)
    return int(np.count_nonzero(_analytic_levels(formula, levels) < edge - margin))


def _median_gap(values: np.ndarray) -> float:
    """Median spacing between distinct levels.

    Gaps at solver-noise scale (inside a degenerate multiplet) are excluded
    so the median reflects the spacing of genuinely different levels.
    """
    gaps = np.diff(values)
    scale = max(1.0, float(np.max(np.abs(values)))) if values.size else 1.0
    significant = gaps[gaps > 1e-10 * scale]
    return float(np.median(significant)) if significant.size else 0.0


def _degeneracy_table(values: np.ndarray) -> list[tuple[float, int]]:
    """Group near-equal levels; tolerance 1e-6 times the median level gap."""
    med = _median_gap(values)
    tol = 1e-6 * med if med > 0.0 else 1e-12
    table: list[tuple[float, int]] = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > tol:
            block = values[start:k]
            table.append((float(np.mean(block)), len(block)))
            start = k
    return table


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted numeric-vs-analytic comparison over the trusted levels."""

    model: str
    params: dict
    N: int
    compared_levels: int
    numeric: tuple[float, ...]
    analytic: tuple[float, ...]
    max_abs_residual: float
    degeneracy_table: tuple[tuple[float, int], ...]

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "N": self.N,
            "compared_levels": self.compared_levels,
            "numeric": list(self.numeric),
            "analytic": list(self.analytic),
            "max_abs_residual": self.max_abs_residual,
            "degeneracy_table": [[e, mult] for e, mult in self.degeneracy_table],
        }


def diagonalize_compare(
    h: TridiagonalBlocks,
    formula: SpectrumFormula,
    levels: int,
    params: dict | None = None,
) -> SpectrumReport:
    """Compare the lowest trusted eigenvalues against the closed form."""
    if h.dim != levels**2:
        raise ValueError(f"operator dimension {h.dim} does not match N={levels}")
    k = trusted_level_count(levels, formula)
    if k == 0:
        raise ValueError("empty trust region")
    numeric = hermitian_eigvals(h)[:k]
    analytic = _analytic_levels(formula, levels)[:k]
    residual = float(np.max(np.abs(numeric - analytic)))
    return SpectrumReport(
        model=formula.model,
        params=dict(params or {}),
        N=levels,
        compared_levels=k,
        numeric=tuple(float(v) for v in numeric),
        analytic=tuple(float(v) for v in analytic),
        max_abs_residual=residual,
        degeneracy_table=tuple(_degeneracy_table(numeric)),
    )


def convergence_study(
    model: str,
    p: OscParams,
    theta: float,
    n_list: list[int],
    k0: int | None = None,
) -> list[tuple[int, float]]:
    """Residual over a fixed number of lowest levels, per truncation.

    The compared-level count defaults to the trusted count of the smallest
    truncation so that every entry measures the same physical levels.
    Unlike diagonalize_compare this places no trust gate on k0: tracking
    levels that are not yet converged at small N is exactly what a
    convergence study is for.
    """
    if list(n_list) != sorted(n_list) or len(n_list) == 0:
        raise ValueError("n_list must be non-empty and ascending")
    if any(n < 8 for n in n_list):
        raise ValueError("every truncation must be at least 8")
    out: list[tuple[int, float]] = []
    for n in n_list:
        h, formula = build_model(model, p, theta, n)
        if k0 is None:
            k0 = trusted_level_count(n, formula)
        if k0 > n**2:
            raise ValueError(f"k0={k0} exceeds the lattice size at N={n}")
        numeric = hermitian_eigvals(h)[:k0]
        analytic = _analytic_levels(formula, n)[:k0]
        out.append((n, float(np.max(np.abs(numeric - analytic)))))
    return out


def _sector_bounds(formula: SpectrumFormula, levels: int) -> np.ndarray:
    """Lower bounds on the lowest level of each ``sector_blocks`` block, d ascending.

    Each block is the exact compression of its infinite sector d, so its
    lowest level is at least the exact one, at the label
    (max(d, 0), max(-d, 0)); a 1e-9 relative margin covers rounding.
    """
    d = np.arange(1 - levels, levels)
    exact = formula.energy(np.maximum(d, 0), np.maximum(-d, 0))
    return exact - 1e-9 * np.abs(exact)


def ground_overlap(h: TridiagonalBlocks, formula: SpectrumFormula, psi0: GroundState) -> float:
    """Overlap of the numeric ground eigenvector of h, the ``sector_blocks``
    of the model whose closed form is ``formula``, with the exact psi0.

    Only the sectors that can hold the two lowest levels are solved
    (``_sector_bounds``).  Those levels count as degenerate within 1e-6
    times the closed form's median level gap.
    """
    hs = psi0.psi0.space
    if h.dim != hs.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {hs.dim}")
    evals, vec = hermitian_ground(h, _sector_bounds(formula, hs.levels))
    med = _median_gap(_analytic_levels(formula, hs.levels))
    tol = 1e-6 * med if med > 0.0 else 1e-12
    if evals[1] - evals[0] <= tol:
        raise ValueError(
            f"numeric ground level is degenerate (E0={evals[0]:.12g}, E1={evals[1]:.12g})"
        )
    ground = HSState(hs, vec)
    reference = HSState(hs, psi0.psi0.vec / psi0.norm)
    return float(abs(hs_inner(ground, reference)) / hs_norm(ground))
