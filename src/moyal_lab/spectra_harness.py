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
from .moyal_rep import HSState, check_memory, hs_norm
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

# Bytes per label (m, n) at the peak of a spectrum request: tracemalloc
# measured 58 (h2) to 66 (h3) at N = 512 and 1024.
_SPECTRUM_BYTES_PER_LABEL = 72


def build_model(
    model: str, p: OscParams, theta: float, levels: int
) -> tuple[TridiagonalBlocks, SpectrumFormula]:
    """Hamiltonian on its J3 sectors plus its closed-form spectrum for the named model
    (ValueError, before any N^2 array, if a spectrum request would not fit in memory)."""
    check_memory(_SPECTRUM_BYTES_PER_LABEL * levels**2, f"sector spectrum at N={levels}")
    return (sector_hamiltonian(model, p, theta, levels), analytic_spectrum(model, p, theta))


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
    return _closed_form(formula, levels)[1]


def _closed_form(formula: SpectrumFormula, levels: int) -> tuple[np.ndarray, int]:
    """Closed-form energies of all N^2 labels (m, n), ascending, and how many
    lie in the trust window (``trusted_level_count``)."""
    m, n = np.divmod(np.arange(levels**2), levels)
    analytic = np.sort(formula.energy(m, n))
    cut = levels // 3
    if cut + 1 >= levels:
        return analytic, 0
    edge = min(formula.energy(0, cut + 1), formula.energy(cut + 1, 0))
    margin = 1e-9 * abs(edge)
    return analytic, int(np.count_nonzero(analytic < edge - margin))


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
    numeric, analytic, residual = _compare(h, formula, levels, None)
    return SpectrumReport(
        model=formula.model,
        params=dict(params or {}),
        N=levels,
        compared_levels=numeric.size,
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
        numeric, _, residual = _compare(*build_model(model, p, theta, n), n, k0)
        k0 = numeric.size
        out.append((n, residual))
    return out


def _compare(
    h: TridiagonalBlocks, formula: SpectrumFormula, levels: int, k: int | None
) -> tuple[np.ndarray, np.ndarray, float]:
    """The k lowest levels of h, the sectors of the model whose closed form
    is ``formula`` (k None: the trusted count), the k lowest closed-form
    levels, and their largest absolute difference.  Sectors are solved in
    ascending order of their bound (``_sector_bounds``)."""
    analytic, trusted = _closed_form(formula, levels)
    k = trusted if k is None else k
    if not 0 < k <= levels**2:
        raise ValueError(f"cannot compare {k} levels at N={levels}")
    numeric = hermitian_eigvals(h, _sector_bounds(formula, levels), k)
    return numeric, analytic[:k], float(np.max(np.abs(numeric - analytic[:k])))


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
    hs = psi0.space
    if h.dim != hs.dim:
        raise ValueError(f"dimension mismatch: {h.dim} vs {hs.dim}")
    evals, vec = hermitian_ground(h, _sector_bounds(formula, hs.levels))
    med = _median_gap(_closed_form(formula, hs.levels)[0])
    tol = 1e-6 * med if med > 0.0 else 1e-12
    if evals[1] - evals[0] <= tol:
        raise ValueError(
            f"numeric ground level is degenerate (E0={evals[0]:.12g}, E1={evals[1]:.12g})"
        )
    # psi0 is diagonal, so only the m = n entries of vec meet it: one product
    # per column, summed as ``hs_inner`` sums the columns.
    overlap = complex(np.sum(vec[:: hs.levels + 1].conj() * (psi0.coeffs / psi0.norm)))
    return float(abs(overlap) / hs_norm(HSState(hs, vec)))
