"""Oscillator Hamiltonians on the commutative and noncommutative plane.

Four models:

* ``commutative`` -- two decoupled modes on H x H, spectrum omega(2j+1),
* ``h1``          -- the fixed-coefficient quadratic form in (X^c, P),
* ``h2``          -- its (mu, omega) variant, still built from the commuting
  coordinates; SU(2)-symmetric, diagonalized by a Bogoliubov rotation,
* ``h3``          -- the physical oscillator in the noncommuting positions,
  equal to an h2-type part with renormalized parameters plus a Zeeman term.

Every Hamiltonian is built from its ladder matrix elements, one J3 sector
at a time (``sector_hamiltonian``); ``h1``, ``h2``, ``h3`` and
``h_commutative`` scatter the sectors into a sparse operator.  The tests
compare the sectors against the phase-space quadratic forms, built
on a padded space, which catches convention errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .operator_core import FockSpace, Operator, TridiagonalBlocks
from .moyal_rep import HSSpace, ModelConfig, build_rep
from .schwinger_su2 import schwinger_noncommutative

__all__ = [
    "MODELS",
    "OscParams",
    "RenormalizedParams",
    "SpectrumFormula",
    "ZeemanDecomposition",
    "h_commutative",
    "h1",
    "h2",
    "h3",
    "sector_hamiltonian",
    "sector_blocks",
    "alpha_beta",
    "critical_point",
    "renormalize",
    "lambdas",
    "renormalized_params",
    "zeeman_decomposition",
    "analytic_spectrum",
]

MODELS = ("commutative", "h1", "h2", "h3")


@dataclass(frozen=True)
class OscParams:
    """Bare mass and angular frequency (both of dimension 1/length)."""

    mu: float
    omega: float

    def __post_init__(self) -> None:
        if not (self.mu > 0.0 and self.omega > 0.0):
            raise ValueError("mu and omega must be positive")


@dataclass(frozen=True)
class RenormalizedParams:
    """Derived parameters of the physical oscillator at given (mu, omega, theta)."""

    mu_prime: float
    omega_prime: float
    lambda_plus: float
    lambda_minus: float
    alpha: float
    beta: float
    phi: float  # Bogoliubov angle of the physical model (always negative)


def alpha_beta(p: OscParams, theta: float) -> tuple[float, float]:
    """Diagonal / off-diagonal ladder coefficients of the h2 form."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    quarter = p.mu * p.omega**2 * theta / 4.0
    inv = 1.0 / (p.mu * theta)
    return (quarter + inv, quarter - inv)


def critical_point(theta: float) -> OscParams:
    """Parameters mu0 = omega0 / 2 = 1 / sqrt(theta) at which h2 is already diagonal."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    root = 1.0 / math.sqrt(theta)
    return OscParams(mu=root, omega=2.0 * root)


def renormalize(p: OscParams, theta: float) -> tuple[float, float]:
    """Observable (mu', omega') with mu omega^2 = mu' omega'^2 invariant."""
    if theta < 0.0:
        raise ValueError("theta must be non-negative")
    u2 = (p.mu * p.omega * theta / 2.0) ** 2
    mu_prime = p.mu / (1.0 + u2)
    omega_prime = p.omega * math.sqrt(1.0 + u2)
    return (mu_prime, omega_prime)


def lambdas(p: OscParams, theta: float) -> tuple[float, float]:
    """Spectral coefficients lambda_+- of the physical oscillator."""
    if theta < 0.0:
        raise ValueError("theta must be non-negative")
    mw = p.mu * p.omega
    u = mw * theta
    root = math.sqrt(4.0 + u**2)
    # lambda_minus via the conjugate expression; the naive difference
    # (root - u) cancels catastrophically for large mu omega theta.
    return (mw * (root + u) / 2.0, 2.0 * mw / (root + u))


def renormalized_params(p: OscParams, theta: float) -> RenormalizedParams:
    """Bundle of every derived parameter, with phi taken from the physical model."""
    from .bogoliubov_flow import phi_for  # deferred to avoid an import cycle

    mu_p, om_p = renormalize(p, theta)
    lp, lm = lambdas(p, theta)
    a, b = alpha_beta(p, theta)
    return RenormalizedParams(
        mu_prime=mu_p,
        omega_prime=om_p,
        lambda_plus=lp,
        lambda_minus=lm,
        alpha=a,
        beta=b,
        phi=phi_for(p, theta, "h3"),
    )


def sector_blocks(levels: int, alpha: float, beta: float, zeeman: float) -> TridiagonalBlocks:
    """The 2N - 1 sectors d = m - n of a quadratic Hamiltonian, d ascending.

    Sector d holds the labels (m, n) with m - n = d in order of m + n.  Its
    diagonal is alpha (m + n + 1) + zeeman d / 2, and its off-diagonal,
    between (m, n) and (m + 1, n + 1), is beta sqrt((m + 1)(n + 1)).  These
    are the matrix elements of the infinite operator, so the blocks are its
    exact compression onto the N^2 block: the truncated spectrum is
    variational, approaching the exact levels from above.
    """
    sectors = np.arange(1 - levels, levels)
    sizes = levels - np.abs(sectors)
    ends = np.cumsum(sizes)
    d = np.repeat(sectors, sizes)
    k = np.arange(levels**2) - np.repeat(ends - sizes, sizes)
    m = k + np.maximum(d, 0)
    n = k + np.maximum(-d, 0)
    diag = alpha * (m + n + 1) + zeeman * d / 2.0
    # Couplings to the next label; the last label of each sector has none.
    off = beta * np.sqrt((m + 1.0) * (n + 1.0))
    index = m * levels + n
    return TridiagonalBlocks(levels**2, tuple(
        (index[lo:hi], diag[lo:hi], off[lo:hi - 1]) for lo, hi in zip((ends - sizes).tolist(), ends.tolist())
    ))


def sector_hamiltonian(model: str, p: OscParams | None, theta: float, levels: int) -> TridiagonalBlocks:
    """The named model on its 2N - 1 J3 sectors, in O(N^2) memory.

    J3 = (m - n) / 2 commutes with h1 and h2, and h3 is an h2-type part with
    renormalized parameters plus the Zeeman term mu theta omega^2 J3.  The
    ladder coefficients are (omega, 0) for the commutative model (which
    ignores theta), (1, 0) for h1 and ``alpha_beta`` for h2 and h3.
    Raises ValueError for N < 4 and theta <= 0 (N < 2 for the commutative
    model).
    """
    if model == "commutative":
        return sector_blocks(FockSpace(levels).levels, p.omega, 0.0, 0.0)
    ModelConfig(theta=theta, truncation=levels)  # validates theta and N
    if model == "h1":
        coeffs = (1.0, 0.0, 0.0)
    elif model == "h2":
        coeffs = (*alpha_beta(p, theta), 0.0)
    elif model == "h3":
        dressed = OscParams(*renormalize(p, theta))
        coeffs = (*alpha_beta(dressed, theta), p.mu * theta * p.omega**2)
    else:
        raise ValueError(f"unknown model {model!r}")
    return sector_blocks(levels, *coeffs)


def h_commutative(levels: int, p: OscParams) -> Operator:
    """Two decoupled modes, ladder form omega (a1^dag a1 + a2^dag a2 + 1)."""
    return sector_hamiltonian("commutative", p, 1.0, levels).to_operator()


def h1(hs: HSSpace) -> Operator:
    """Fixed-coefficient unphysical oscillator (exactly diagonal, spectrum m+n+1)."""
    return sector_hamiltonian("h1", None, hs.theta, hs.levels).to_operator()


def h2(hs: HSSpace, p: OscParams) -> Operator:
    """Unphysical (mu, omega) oscillator in the commuting coordinates."""
    return sector_hamiltonian("h2", p, hs.theta, hs.levels).to_operator()


def h3(hs: HSSpace, p: OscParams) -> Operator:
    """Physical oscillator in the noncommuting positions."""
    return sector_hamiltonian("h3", p, hs.theta, hs.levels).to_operator()


@dataclass(frozen=True)
class ZeemanDecomposition:
    """h3 split into a renormalized h2-type part plus zeeman_coeff * J3."""

    h2_part: Operator
    zeeman_coeff: float
    J3: Operator


def zeeman_decomposition(hs: HSSpace, p: OscParams) -> ZeemanDecomposition:
    rep = build_rep(hs)
    mu_p, om_p = renormalize(p, hs.theta)
    xc2 = rep.X1c @ rep.X1c + rep.X2c @ rep.X2c
    p2 = rep.P1 @ rep.P1 + rep.P2 @ rep.P2
    part = p2 / (2.0 * mu_p) + 0.5 * mu_p * om_p**2 * xc2
    j3 = schwinger_noncommutative(hs, rep).J3
    return ZeemanDecomposition(
        h2_part=part,
        zeeman_coeff=p.mu * hs.theta * p.omega**2,
        J3=j3,
    )


@dataclass(frozen=True)
class SpectrumFormula:
    """Closed-form energies over occupation labels (m, n).

    ``energy`` takes ints or integer arrays of labels.  ``energy_jj3`` is
    the same spectrum expressed over (j, j3); for the SU(2)-symmetric
    models it is independent of j3.
    """

    model: str
    energy: Callable[[int, int], float]
    energy_jj3: Callable[[float, float], float]


def analytic_spectrum(model: str, p: OscParams | None = None, theta: float | None = None) -> SpectrumFormula:
    if model == "commutative":
        if p is None:
            raise ValueError("commutative model needs OscParams")
        om = p.omega
        return SpectrumFormula(model, lambda m, n: om * (m + n + 1), lambda j, j3: om * (2 * j + 1))
    if model == "h1":
        return SpectrumFormula(model, lambda m, n: m + n + 1.0, lambda j, j3: 2 * j + 1)
    if model == "h2":
        if p is None:
            raise ValueError("h2 needs OscParams")
        om = p.omega
        return SpectrumFormula(model, lambda m, n: om * (m + n + 1), lambda j, j3: om * (2 * j + 1))
    if model == "h3":
        if p is None or theta is None:
            raise ValueError("h3 needs OscParams and theta")
        lp, lm = lambdas(p, theta)
        mu_p, om_p = renormalize(p, theta)
        two_mu = 2.0 * p.mu
        zee = theta * mu_p * om_p**2

        def bare(m: int, n: int) -> float:
            return (lp * (2 * m + 1) + lm * (2 * n + 1)) / two_mu

        def dressed(j: float, j3: float) -> float:
            return om_p * (2 * j + 1) + zee * j3

        return SpectrumFormula(model, bare, dressed)
    raise ValueError(f"unknown model {model!r}")
