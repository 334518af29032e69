"""Bogoliubov / dilatation machinery and the exact oscillator ground state.

The hyperbolic mixing angle phi diagonalizes the quadratic Hamiltonians;
the same change of frame is implemented unitarily by the dilatation
operator.  The exact ground state is available in closed form (a diagonal
Hilbert-Schmidt operator with geometric coefficients) and in unitary form
(the dilatation flow applied to the vacuum dyad); the two must agree.

The unitary and the flow take their sign from one constant,
``DILATATION_CONSTANT``, derived where it is defined.  Nothing is fitted at
run time, so a wrong sign in either shows up as a ground state that misses
the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .operator_core import Operator, TridiagonalBlocks, adjoint, expm, from_entries
from .moyal_rep import HSSpace, RepOperators, build_rep, check_memory, ladders
from .oscillator_models import OscParams, sector_blocks

__all__ = [
    "DILATATION_CONSTANT",
    "GroundState",
    "IntertwinerReport",
    "phi_for",
    "bogoliubov_pair",
    "dilatation",
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
    """Mixed ladders (B_L', B_R') of the frame change ``dilatation_unitary``
    implements; ``rep`` is that of ``hs``, if built (else only B_L, B_R are)."""
    bl, br = (rep.B_L, rep.B_R) if rep is not None else ladders(hs)
    c, s = math.cosh(phi), math.sinh(phi)
    return (c * bl + s * br, s * bl + c * br)


def dilatation(hs: HSSpace) -> Operator:
    """Dilatation generator, ladder form i (B_L^dag B_R - B_L B_R^dag).

    Exactly Hermitian even at the truncation edge.
    """
    bl, br = ladders(hs)
    return 1j * (adjoint(bl) @ br - bl @ adjoint(br))


# D = i(B_L^dag B_R - B_L B_R^dag) gives [D, X^c] = -i X^c, so exp(i phi D)
# scales X^c by e^phi: the unitary is exp(-i c phi D) with c = -1.  The
# ground-state flow generator is K = -iD, so the flow exp(c phi K) |0><0| is
# that unitary applied to the vacuum dyad.
DILATATION_CONSTANT = -1.0


def dilatation_unitary(hs: HSSpace, phi: float) -> Operator:
    """Unitary exp(-i c phi D) of the phi-dilatation, c = ``DILATATION_CONSTANT``.

    D keeps d = m - n and maps (m, n) to (m + 1, n + 1) with
    i sqrt((m + 1)(n + 1)): on sector d it is S J S^dag, with J the
    zero-diagonal ``sector_blocks`` chain (beta = 1, equal for d and -d)
    and S = diag(i^k), so a block is the real matrix
    S e^(-i c phi J) S^dag.  phi = 0 gives the identity exactly."""
    n = hs.levels
    chains = sector_blocks(n, 0.0, 1.0, 0.0).blocks
    exps = []
    for e in expm(TridiagonalBlocks(hs.dim, chains[n - 1:]), DILATATION_CONSTANT * phi):
        s = np.array([1, 1j, -1, -1j])[np.arange(len(e)) % 4]
        exps.append((s[:, None] * e * s.conj()).real.ravel())
    # Entry (i, j) of a chain's block, row-major, couples its labels index[i]
    # and index[j]: each label repeats, and the whole chain recurs, size times.
    index = [index for index, _, _ in chains]
    sizes = np.array([labels.size for labels in index])
    rows = np.repeat(np.concatenate(index), np.repeat(sizes, sizes))
    cols = np.concatenate([labels for labels in index for _ in labels])
    vals = np.concatenate([exps[abs(d)] for d in range(1 - n, n)])
    return from_entries(hs.dim, rows, cols, vals)


@dataclass(frozen=True)
class GroundState:
    """Exact ground state sum_m coeffs[m] |m><m| on ``space``, held as its
    m = n diagonal: ``coeffs`` is the read-only (N,) complex array of those
    amplitudes and ``norm`` its Hilbert-Schmidt norm."""

    space: HSSpace
    coeffs: np.ndarray
    phi: float
    norm: float


def _ground_state(hs: HSSpace, coeffs: np.ndarray, phi: float) -> GroundState:
    c = coeffs.astype(np.complex128)
    c.setflags(write=False)
    # Tr(psi0^dag psi0) of the diagonal state, one product per column, summed
    # as ``hs_norm`` sums the columns.
    return GroundState(space=hs, coeffs=c, phi=phi, norm=float(np.sqrt(np.sum(c.conj() * c).real)))


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
    # The states are N coefficients; this 160 N^2-byte guard holds for the
    # flow's L x L real eigenbasis: pad <= 2.43 N + 1 at the tail bound, so
    # L = min(N, pad) + pad <= 3.43 N + 1 takes about 94 N^2 bytes.
    check_memory(10 * 16 * hs.dim, f"ground state at N={hs.levels}")


def ground_state_closed(hs: HSSpace, phi: float) -> GroundState:
    """Closed form sech(phi) * sum_m (-tanh phi)^m |m><m|."""
    _check_tail(hs, phi)
    coeffs = (1.0 / math.cosh(phi)) * (-math.tanh(phi)) ** np.arange(hs.levels)
    return _ground_state(hs, coeffs, phi)


def _sector_flow(levels: int, t: float) -> np.ndarray:
    """exp(t K) |0><0| on the m = n sector, as the coefficients of |m><m|.

    K = B_L^dag B_R - B_L B_R^dag keeps that sector:
    K |m><m| = (m + 1) |m+1><m+1| - m |m-1><m-1|, the first term absent
    at the top level.  So the flow is N-dimensional, not N^2.  As in
    ``dilatation_unitary``, K = -i S J S^dag there, with J the zero-diagonal
    chain with off-diagonal 1 ... N - 1 and S = diag(i^k), so the flow is
    S V e^(-i t w) V^T e0 for J = V diag(w) V^T: the real parts a and b of
    V (cos(t w) - i sin(t w)) V[0] are two matrix-vector products, and
    coefficient k is a_k or b_k times the real or imaginary part of i^k.
    t = 0 gives e0 exactly.
    """
    if t == 0.0:
        return np.eye(1, levels)[0]
    w, v = scipy.linalg.eigh_tridiagonal(np.zeros(levels), np.arange(1.0, levels))
    tw = t * w
    a = v @ (np.cos(tw) * v[0])
    b = v @ (np.sin(tw) * v[0])
    k = np.arange(levels)
    return np.where(k % 2, b, a) * np.where(k % 4 < 2, 1.0, -1.0)


def ground_state_unitary(hs: HSSpace, phi: float) -> GroundState:
    """Unitary flow applied to the vacuum dyad; must match the closed form.

    It is ``dilatation_unitary`` applied to |0><0|, run on the m = n sector.

    A chain reflects the flow at its top level (up to 1e-7 error on N
    levels), so it runs on pad more levels, the fewest with
    |tanh phi|^pad <= 1e-17, and is cut back: the exact compression of the
    infinite flow.  Coefficients from level pad on are below tanh^pad, so
    they are 0 here and the chain has min(N, pad) + pad levels.
    """
    _check_tail(hs, phi)
    pad = math.ceil(math.log(1e-17) / math.log(abs(math.tanh(phi)))) if phi else 1
    kept = min(hs.levels, pad)
    coeffs = np.zeros(hs.levels)
    coeffs[:kept] = _sector_flow(kept + pad, DILATATION_CONSTANT * phi)[:kept]
    return _ground_state(hs, coeffs, phi)


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


def c_operators_primed(pair: tuple[Operator, Operator]) -> tuple[Operator, Operator]:
    """Primed variants, from the ``bogoliubov_pair`` of the ground state's
    phi, that annihilate the exact ground state."""
    bl_p, br_pd = pair[0], adjoint(pair[1])
    c1 = (bl_p + br_pd) / math.sqrt(2.0)
    c2 = -1j * (bl_p - br_pd) / math.sqrt(2.0)
    return (c1, c2)


@dataclass(frozen=True)
class IntertwinerReport:
    """Residuals of the two equivalent ground-state intertwiner relations."""

    residual: float       # (1 + theta lambda_+) b psi0 = psi0 b
    tanh_residual: float  # b psi0 = -tanh(phi) psi0 b


def intertwiner_check(psi0: GroundState, lambda_plus: float, theta: float) -> IntertwinerReport:
    """Safe-block (m, n <= N - 2) residuals of the relations tying psi0 to the
    bare ladder.  For the diagonal psi0 = sum_k c_k |k><k|, b psi0 and psi0 b
    are non-zero there only at (k, k + 1), k <= N - 3, with the values
    sqrt(k + 1) c_(k+1) and sqrt(k + 1) c_k."""
    c = psi0.coeffs
    root = np.sqrt(np.arange(1.0, c.size - 1))
    left, right = root * c[1:-1], root * c[:-2]
    primary = float(np.linalg.norm((1.0 + theta * lambda_plus) * left - right))
    tanh_form = float(np.linalg.norm(left + math.tanh(psi0.phi) * right))
    return IntertwinerReport(residual=primary, tanh_residual=tanh_form)
