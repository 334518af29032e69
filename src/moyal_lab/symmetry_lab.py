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

from .operator_core import Operator, commutator, from_entries
from .moyal_rep import HSSpace, HSState, RepOperators, block_norm, block_values, row_norm
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

    S maps index m N + n to n N + m, so S conj(O) S is conj(O) with each
    entry moved to the swapped row and column.
    """
    if op.dim != hs.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {hs.dim}")
    perm = np.arange(hs.dim).reshape(hs.levels, hs.levels).T.ravel()
    rows, cols, values = op.entries()
    return from_entries(hs.dim, perm[rows], perm[cols], values.conj())


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
    ham2, ham3 = h2(hs, p), h3(hs, p)
    base = (rep.X1, rep.X2, rep.X1c, rep.X2c, rep.P1, rep.P2, gens.J3, ham2, ham3)
    rows = block_values([*base, *(theta_conjugate(op, hs) for op in base)], hs.safe_indices)
    x1, x2, x1c, x2c, p1, p2, j3, e2, e3 = rows[:9]
    tx1, tx2, tx1c, tx2c, tp1, tp2, tj3, te2, te3 = rows[9:]
    # Theta(2 X^c_i - X_i) from the images: Theta is antilinear, 2 and 1 real.
    two, shear = complex(2.0), complex(theta)
    x1r, x2r = two * x1c - x1, two * x2c - x2
    tx1r, tx2r = two * tx1c - tx1, two * tx2c - tx2
    breaking = te3 - e3

    rules = {
        "X1L_shear": row_norm(tx1 - (x1 + shear * p2)),
        "X2L_shear": row_norm(tx2 - (x2 - shear * p1)),
        "X1R_shear": row_norm(tx1r - (x1r - shear * p2)),
        "X2R_shear": row_norm(tx2r - (x2r + shear * p1)),
        "P1_flip": row_norm(tp1 + p1),
        "P2_flip": row_norm(tp2 + p2),
        "X1c_invariant": row_norm(tx1c - x1c),
        "X2c_invariant": row_norm(tx2c - x2c),
        "J3_flip": row_norm(tj3 + j3),
        "H2_invariant": row_norm(te2 - e2),
        "H3_breaking_norm": row_norm(breaking),
    }
    zeeman_resid = row_norm(breaking + complex(2.0 * (p.mu * theta * p.omega**2)) * j3)
    return SymmetryReport(
        model="h3",
        params={"mu": p.mu, "omega": p.omega, "theta": theta, "N": hs.levels},
        su2_residuals=su2_commutant(ham3, gens, hs),
        time_reversal=rules,
        zeeman_difference_residual=zeeman_resid,
    )
