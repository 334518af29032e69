"""Time reversal and symmetry-breaking diagnostics.

Time reversal acts antiunitarily on Hilbert-Schmidt elements as
psi -> psi^dag.  Since the package stores linear matrices only, operator
conjugation is computed by the swap-conjugate formula
Theta O Theta^{-1} = S conj(O) S, where S is the factor-swap permutation
of the product basis; it is applied as that index permutation of
conj(O), never as a matrix.  The state-level and operator-level
realizations are cross-checked against each other by tests, never by
composing a fake linear matrix for Theta itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operator_core import Operator, commutator
from .moyal_rep import HSSpace, HSState, RepOperators, block_norm
from .oscillator_models import OscParams, h2, h3
from .schwinger_su2 import SU2Generators

__all__ = [
    "SymmetryReport",
    "theta_apply",
    "theta_conjugate",
    "su2_commutant",
    "time_reversal_suite",
]


def theta_apply(psi: HSState) -> HSState:
    """Antiunitary time reversal on states: psi -> psi^dag."""
    return HSState(psi.space, psi.as_matrix().conj().T.ravel())


def theta_conjugate(op: Operator, hs: HSSpace) -> Operator:
    """Theta O Theta^{-1} via the swap-conjugate formula.

    S maps index m N + n to n N + m, so S conj(O) S is conj(O) with rows
    and columns both permuted that way.
    """
    if op.dim != hs.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {hs.dim}")
    perm = np.arange(hs.dim).reshape(hs.levels, hs.levels).T.ravel()
    return Operator(op.mat.conj()[perm][:, perm])


def su2_commutant(h: Operator, gens: SU2Generators, hs: HSSpace) -> tuple[float, float, float]:
    """Block norms of [H, J_i] for i = 1, 2, 3.

    Both factors are quadratic in the ladder operators, so the product's
    intermediate states climb two levels; the depth-2 block is the exact one.
    """
    ix = hs.safe_block(depth=2)
    return tuple(block_norm(commutator(h, j), ix) for j in gens.as_tuple())


@dataclass(frozen=True)
class SymmetryReport:
    """Residuals quantifying which symmetries a Hamiltonian keeps or breaks."""

    model: str
    params: dict
    su2_residuals: tuple[float, float, float]
    time_reversal: dict = field(default_factory=dict)
    zeeman_difference_residual: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "params": dict(self.params),
            "su2_residuals": list(self.su2_residuals),
            "time_reversal": dict(self.time_reversal),
            "zeeman_difference_residual": self.zeeman_difference_residual,
        }


def time_reversal_suite(
    rep: RepOperators, gens: SU2Generators, p: OscParams, hs: HSSpace
) -> SymmetryReport:
    """Safe-block residuals for every time-reversal transformation rule.

    The headline entries: positions pick up a momentum shear with opposite
    signs for left and right actions, the commuting coordinates are inert,
    H2 is invariant, and the H3 defect is exactly minus twice the Zeeman
    term mu theta omega^2 J3 (recorded as ``zeeman_difference_residual``).
    """
    theta = hs.theta
    ix = hs.safe_indices

    def tr(op: Operator) -> Operator:
        return theta_conjugate(op, hs)

    x1r = 2.0 * rep.X1c - rep.X1
    x2r = 2.0 * rep.X2c - rep.X2
    ham2 = h2(hs, p)
    ham3 = h3(hs, p)
    breaking = tr(ham3) - ham3

    rules = {
        "X1L_shear": block_norm(tr(rep.X1) - (rep.X1 + theta * rep.P2), ix),
        "X2L_shear": block_norm(tr(rep.X2) - (rep.X2 - theta * rep.P1), ix),
        "X1R_shear": block_norm(tr(x1r) - (x1r - theta * rep.P2), ix),
        "X2R_shear": block_norm(tr(x2r) - (x2r + theta * rep.P1), ix),
        "P1_flip": block_norm(tr(rep.P1) + rep.P1, ix),
        "P2_flip": block_norm(tr(rep.P2) + rep.P2, ix),
        "X1c_invariant": block_norm(tr(rep.X1c) - rep.X1c, ix),
        "X2c_invariant": block_norm(tr(rep.X2c) - rep.X2c, ix),
        "J3_flip": block_norm(tr(gens.J3) + gens.J3, ix),
        "H2_invariant": block_norm(tr(ham2) - ham2, ix),
        "H3_breaking_norm": block_norm(breaking, ix),
    }
    zeeman_resid = block_norm(breaking + 2.0 * (p.mu * theta * p.omega**2) * gens.J3, ix)
    return SymmetryReport(
        model="h3",
        params={"mu": p.mu, "omega": p.omega, "theta": theta, "N": hs.levels},
        su2_residuals=su2_commutant(ham3, gens, hs),
        time_reversal=rules,
        zeeman_difference_residual=zeeman_resid,
    )
