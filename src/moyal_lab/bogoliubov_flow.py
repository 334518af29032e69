"""Bogoliubov / dilatation machinery and the exact oscillator ground state.

The hyperbolic mixing angle phi diagonalizes the quadratic Hamiltonians;
the same change of frame is implemented unitarily by the dilatation
operator.  The exact ground state is available in closed form (a diagonal
Hilbert-Schmidt operator with geometric coefficients) and in unitary form
(the dilatation flow applied to the vacuum dyad); the two must agree.

Two conventions in this corner are ambiguous (the constant multiplying
phi*D in the unitary, and the sign of the ground-state exponent), so both
are calibrated numerically at small phi and then frozen, rather than
trusted from any formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .operator_core import Operator, TridiagonalBlocks, adjoint, annihilator, commutator, expm, from_entries
from .moyal_rep import (
    HSSpace,
    HSState,
    ModelConfig,
    RepOperators,
    build_rep,
    check_memory,
    hs_norm,
    restrict,
    state_from_matrix,
)
from .oscillator_models import OscParams, sector_blocks

__all__ = [
    "BogoliubovFrame",
    "GroundState",
    "IntertwinerReport",
    "phi_for",
    "bogoliubov_pair",
    "bogoliubov_frame",
    "dilatation",
    "dilatation_scaling_constant",
    "dilatation_unitary",
    "required_levels",
    "ground_state_closed",
    "ground_state_unitary",
    "c_operators",
    "c_operators_primed",
    "intertwiner_check",
]


def phi_for(p: OscParams, theta: float, model: str) -> float:
    """Bogoliubov angle: exp(phi) = sqrt(mu omega theta / 2) for h2, and
    exp(2 phi) = mu' omega' theta / 2 for h3 (always negative there)."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    if model == "h2":
        return 0.5 * math.log(p.mu * p.omega * theta / 2.0)
    if model == "h3":
        # mu' omega' theta / 2 = v / sqrt(1 + v^2), so phi < 0; log1p keeps it
        # from rounding to 0 at large v, the split form 1 / v^2 from overflowing.
        v = p.mu * p.omega * theta / 2.0
        if v < 1.0:
            return 0.5 * math.log(v) - 0.25 * math.log1p(v * v)
        phi = -0.25 * math.log1p((1.0 / v) ** 2)
        if phi == 0.0:
            raise ValueError(f"mu omega theta / 2 = {v:.3g}: the h3 Bogoliubov angle underflows")
        return phi
    raise ValueError(f"unknown model {model!r}")


def bogoliubov_pair(hs: HSSpace, phi: float, rep: RepOperators | None = None) -> tuple[Operator, Operator]:
    """Hyperbolically mixed ladder operators (B_L', B_R'); ``rep`` is that of ``hs``, if built."""
    rep = rep if rep is not None else build_rep(hs)
    c, s = math.cosh(phi), math.sinh(phi)
    return (c * rep.B_L + s * rep.B_R, s * rep.B_L + c * rep.B_R)


def dilatation(hs: HSSpace) -> Operator:
    """Dilatation generator, ladder form i (B_L^dag B_R - B_L B_R^dag).

    Exactly Hermitian even at the truncation edge.
    """
    rep = build_rep(hs)
    return 1j * (rep.B_Ldag @ rep.B_R - rep.B_L @ rep.B_Rdag)


@lru_cache(maxsize=1)
def dilatation_scaling_constant() -> float:
    """Constant c in U = exp(-i c phi D) such that U X^c U^dag = e^phi X^c.

    Calibrated from the commutator slope [D, X1c] = k X1c at phi -> 0
    instead of trusting a sign convention.  The value is representation
    independent, so a small space suffices.
    """
    hs = HSSpace(ModelConfig(theta=1.0, truncation=8))
    rep = build_rep(hs)
    d = dilatation(hs)
    ix = hs.safe_indices
    lhs = restrict(commutator(d, rep.X1c), ix).toarray().ravel()
    basis = restrict(rep.X1c, ix).toarray().ravel()
    k = np.vdot(basis, lhs) / np.vdot(basis, basis)
    resid = np.linalg.norm(lhs - k * basis)
    if resid > 1e-10 * np.linalg.norm(lhs):
        raise AssertionError("dilatation flow does not scale X1c")
    c = 1j / k
    if abs(c.imag) > 1e-10:
        raise AssertionError("dilatation scaling constant is not real")
    return float(c.real)


def dilatation_unitary(hs: HSSpace, phi: float) -> Operator:
    """Unitary exp(-i c phi D) of the phi-dilatation, c calibrated.

    D keeps d = m - n and maps (m, n) to (m + 1, n + 1) with
    i sqrt((m + 1)(n + 1)): on sector d it is S J S^dag, with J the
    zero-diagonal ``sector_blocks`` chain (beta = 1, equal for d and -d)
    and S = diag(i^k), so a block is the real matrix
    S e^(-i c phi J) S^dag.  phi = 0 gives the identity exactly."""
    n = hs.levels
    chains = sector_blocks(n, 0.0, 1.0, 0.0).blocks
    exps = []
    for e in expm(TridiagonalBlocks(hs.dim, chains[n - 1:]), dilatation_scaling_constant() * phi):
        s = np.array([1, 1j, -1, -1j])[np.arange(len(e)) % 4]
        exps.append((s[:, None] * e * s.conj()).real.ravel())
    coords = np.hstack([np.reshape(np.meshgrid(ix, ix, indexing="ij"), (2, -1)) for ix, _, _ in chains])
    vals = np.concatenate([exps[abs(d)] for d in range(1 - n, n)])
    return from_entries(hs.dim, *coords, vals)


@dataclass(frozen=True)
class BogoliubovFrame:
    """Primed ladder operators of the frame change.

    The unitary realizing it is :func:`dilatation_unitary` with the same
    phi and the constant ``scaling_constant``.
    """

    phi: float
    B_L_prime: Operator
    B_R_prime: Operator
    scaling_constant: float


def bogoliubov_frame(hs: HSSpace, phi: float) -> BogoliubovFrame:
    bl_p, br_p = bogoliubov_pair(hs, phi)
    return BogoliubovFrame(
        phi=phi,
        B_L_prime=bl_p,
        B_R_prime=br_p,
        scaling_constant=dilatation_scaling_constant(),
    )


@dataclass(frozen=True)
class GroundState:
    """Normalized exact ground state as a Hilbert-Schmidt element."""

    psi0: HSState
    phi: float
    gamma: float
    norm: float


def _gamma_of(phi: float) -> float:
    ratio = -math.tanh(phi)
    if ratio > 0.0:
        return math.log(ratio)
    return -math.inf if ratio == 0.0 else math.nan


def required_levels(phi: float) -> int:
    """Smallest N with tanh(phi)^(2N) <= 1e-14, the ground state's tail bound."""
    tail = 1e-14
    t = abs(math.tanh(phi))
    if t == 0.0:
        return 2
    if t == 1.0:
        raise ValueError(f"|tanh(phi)| rounds to 1 at phi={phi:.6g}: no truncation reaches the tail bound")
    return max(2, math.ceil(math.log(tail) / (2.0 * math.log(t))))


def _check_tail(hs: HSSpace, phi: float) -> None:
    need = required_levels(phi)
    if hs.levels < need:
        raise ValueError(
            f"truncation {hs.levels} too small for phi={phi:.6g}; need at least {need} levels"
        )
    # A ground-state run holds about nine N x N complex arrays at once: the
    # closed and flow states, the sector Hamiltonian and its eigenpairs, and
    # the overlap's copies and products.
    check_memory(10 * 16 * hs.dim, f"ground state at N={hs.levels}")


def ground_state_closed(hs: HSSpace, phi: float) -> GroundState:
    """Closed form sech(phi) * sum_m (-tanh phi)^m |m><m|."""
    _check_tail(hs, phi)
    n = hs.levels
    coeffs = (1.0 / math.cosh(phi)) * (-math.tanh(phi)) ** np.arange(n)
    mat = np.diag(coeffs.astype(np.complex128))
    state = HSState(hs, mat.ravel())
    return GroundState(psi0=state, phi=phi, gamma=_gamma_of(phi), norm=hs_norm(state))


def _sector_flow(levels: int, t: float) -> np.ndarray:
    """exp(t K) |0><0| on the m = n sector, as the coefficients of |m><m|.

    K = B_L^dag B_R - B_L B_R^dag keeps that sector:
    K |m><m| = (m + 1) |m+1><m+1| - m |m-1><m-1|, the first term absent
    at the top level.  So the flow is N-dimensional, not N^2.
    """
    k = np.arange(1.0, levels)
    gen = scipy.sparse.diags_array([k, -k], offsets=[-1, 1], format="csr")
    return scipy.sparse.linalg.expm_multiply(t * gen, np.eye(1, levels)[0])


@lru_cache(maxsize=1)
def _ground_exponent_sign() -> float:
    """Sign s in psi0 = exp(s phi (B_L^dag B_R - B_L B_R^dag)) |0><0|.

    Calibrated against the closed form at small phi and then frozen.
    """
    hs = HSSpace(ModelConfig(theta=1.0, truncation=8))
    phi = 0.05
    target = np.diagonal(ground_state_closed(hs, phi).psi0.as_matrix())
    return min(
        (-1.0, 1.0),
        key=lambda s: np.linalg.norm(_sector_flow(hs.levels, s * phi) - target),
    )


def ground_state_unitary(hs: HSSpace, phi: float) -> GroundState:
    """Unitary flow applied to the vacuum dyad; must match the closed form.

    An N-level chain reflects the flow at its top level (up to 1e-7 error),
    so it runs on pad more levels, the fewest with |tanh phi|^pad <= 1e-17,
    and is cut back to N: the exact compression of the infinite flow.
    """
    _check_tail(hs, phi)
    pad = math.ceil(math.log(1e-17) / math.log(abs(math.tanh(phi)))) if phi else 0
    coeffs = _sector_flow(hs.levels + pad, _ground_exponent_sign() * phi)[: hs.levels]
    state = state_from_matrix(hs, np.diag(coeffs))
    return GroundState(psi0=state, phi=phi, gamma=_gamma_of(phi), norm=hs_norm(state))


def c_operators(hs: HSSpace, p: OscParams) -> tuple[Operator, Operator]:
    """Annihilation-type operators built from X^c and P.

    They kill the vacuum dyad only at the critical point.
    """
    rep = build_rep(hs)
    mw = p.mu * p.omega
    scale = 1.0 / math.sqrt(2.0 * mw)
    c1 = scale * (mw * rep.X1c + 1j * rep.P1)
    c2 = scale * (mw * rep.X2c + 1j * rep.P2)
    return (c1, c2)


def c_operators_primed(frame: BogoliubovFrame) -> tuple[Operator, Operator]:
    """Primed variants that annihilate the exact ground state."""
    br_pd = adjoint(frame.B_R_prime)
    c1 = (frame.B_L_prime + br_pd) / math.sqrt(2.0)
    c2 = -1j * (frame.B_L_prime - br_pd) / math.sqrt(2.0)
    return (c1, c2)


@dataclass(frozen=True)
class IntertwinerReport:
    """Residuals of the two equivalent ground-state intertwiner relations."""

    residual: float       # (1 + theta lambda_+) b psi0 = psi0 b
    tanh_residual: float  # b psi0 = -tanh(phi) psi0 b


def intertwiner_check(psi0: GroundState, lambda_plus: float, theta: float) -> IntertwinerReport:
    """Safe-block residuals of the relations tying psi0 to the bare ladder."""
    hs = psi0.psi0.space
    b = annihilator(hs.fock()).mat
    m = psi0.psi0.as_matrix()
    left = b @ m
    right = m @ b
    safe = np.arange(hs.levels - 1)
    sub = np.ix_(safe, safe)
    primary = float(np.linalg.norm(((1.0 + theta * lambda_plus) * left - right)[sub]))
    tanh_form = float(np.linalg.norm((left + math.tanh(psi0.phi) * right)[sub]))
    return IntertwinerReport(residual=primary, tanh_residual=tanh_form)
