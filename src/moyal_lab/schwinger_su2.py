"""Schwinger-type su(2) generators in three incarnations.

* commutative: bilinears in two independent oscillator modes on H x H,
* noncommutative: bilinears in the left/right ladder operators on the
  vectorized Hilbert-Schmidt space,
* phase4d: the fixed 4x4 matrices acting on the phase-space 4-tuple
  (x1c, x2c, p1/2, p2/2).

Also provides (j, j3) labeling of the basis lattice, the Casimir in both
its generic and closed quartic form, and the covariance diagnostics that
separate the commuting coordinates (fully SU(2)-covariant) from the
noncommuting positions (covariant only under the J3 rotation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operator_core import (
    FockSpace, Operator, TridiagonalBlocks, adjoint, annihilator, commutator, expm, from_entries, identity, tensor,
)
from .moyal_rep import HSSpace, RepOperators, block_values, ladders

__all__ = [
    "SU2Generators",
    "JLabel",
    "CovarianceCheck",
    "schwinger_commutative",
    "schwinger_from_ladders",
    "schwinger_noncommutative",
    "casimir",
    "casimir_quartic",
    "jj3_labels",
    "phase_space_generators",
    "rotation_matrix",
    "conjugate_by_rotation",
    "covariance_residual",
    "position_noncovariance",
    "adjoint_rep_matrix",
    "commutative_phase_space",
]


@dataclass(frozen=True)
class SU2Generators:
    J1: Operator
    J2: Operator
    J3: Operator
    context: str  # "commutative" | "noncommutative" | "phase4d"

    def as_tuple(self) -> tuple[Operator, Operator, Operator]:
        return (self.J1, self.J2, self.J3)

    def plus(self) -> Operator:
        return self.J1 + 1j * self.J2

    def minus(self) -> Operator:
        return self.J1 - 1j * self.J2


@dataclass(frozen=True)
class JLabel:
    """(m, n) lattice point with its angular momentum labels."""

    m: int
    n: int

    @property
    def j(self) -> float:
        return (self.m + self.n) / 2.0

    @property
    def j3(self) -> float:
        return (self.m - self.n) / 2.0


def schwinger_commutative(levels: int) -> SU2Generators:
    """Generators on H x H with a1 = b x 1 and a2 = 1 x b: the ladder pair
    (a1, a2^dag), the substitution that gives the noncommutative ones."""
    b = annihilator(FockSpace(levels))
    eye = identity(levels)
    return schwinger_from_ladders(tensor(b, eye), adjoint(tensor(eye, b)), "commutative")


def schwinger_from_ladders(bl: Operator, br: Operator, context: str) -> SU2Generators:
    """Generators from any ladder pair with [bl, bl^dag] = +1, [br, br^dag] = -1.

    Hyperbolically mixed (Bogoliubov) pairs satisfy the same relations, so
    this also produces the symmetry algebra of a frame-changed Hamiltonian.
    """
    bld, brd = adjoint(bl), adjoint(br)
    lowered, raised = br @ bl, bld @ brd
    return SU2Generators(
        J1=0.5 * (lowered + raised),
        J2=0.5j * (lowered - raised),
        J3=0.5 * (bld @ bl - br @ brd),
        context=context,
    )


def schwinger_noncommutative(hs: HSSpace, rep: RepOperators | None = None) -> SU2Generators:
    """Generators on the vectorized Hilbert-Schmidt space.

    Obtained from the commutative ones by the substitution a1 -> B_L and
    a2^dag -> B_R (the right action raises the ket-side label); ``rep`` is
    the representation of ``hs``, if built (else only B_L, B_R are)."""
    bl, br = (rep.B_L, rep.B_R) if rep is not None else ladders(hs)
    return schwinger_from_ladders(bl, br, "noncommutative")


def casimir(g: SU2Generators) -> Operator:
    """Quadratic Casimir J1^2 + J2^2 + J3^2."""
    return g.J1 @ g.J1 + g.J2 @ g.J2 + g.J3 @ g.J3


def casimir_quartic(hs: HSSpace) -> Operator:
    """Closed-form Casimir (1/4) K (K + 2) with K = B_L^dag B_L + B_R B_R^dag.

    Independent of :func:`casimir`; the two must agree on the safe block.
    """
    bl, br = ladders(hs)
    k = adjoint(bl) @ bl + br @ adjoint(br)
    return 0.25 * (k @ (k + 2.0 * identity(hs.dim)))


def jj3_labels(levels: int) -> list[JLabel]:
    """All (m, n) labels of the truncated lattice in index order."""
    if levels < 2:
        raise ValueError("need at least 2 levels")
    return [JLabel(m, n) for m in range(levels) for n in range(levels)]


# J1, J2, J3 on the phase-space 4-tuple (x1c, x2c, p1/2, p2/2).
_PHASE4D = 0.5j * np.array(
    [
        [[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]],
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]],
    ],
    dtype=complex,
)
_PHASE4D.setflags(write=False)


def phase_space_generators() -> SU2Generators:
    """The fixed 4x4 generators acting on (x1c, x2c, p1/2, p2/2)."""
    return SU2Generators(*(Operator(j) for j in _PHASE4D), context="phase4d")


def rotation_matrix(lam) -> np.ndarray:
    """4x4 rotation R(lambda) = exp(i lambda . J4) in closed form: with
    h = |lambda| / 2, (lambda . J4)^2 = h^2 I, so R = cos(h) I +
    i (sin(h) / h) lambda . J4, which is real (I at lambda = 0).
    Sign convention fixed repo-wide; a test re-derives it from operator
    conjugation at small lambda instead of trusting the formula."""
    lam = np.asarray(lam, dtype=float)
    half = np.linalg.norm(lam) / 2.0
    gen = sum(l * j for l, j in zip(lam, _PHASE4D))
    return (np.cos(half) * np.eye(4) + 1j * np.sinc(half / np.pi) * gen).real


def conjugate_by_rotation(gens: SU2Generators, ops, lam) -> list[Operator]:
    """Conjugate each operator: O -> exp(-i lam.J) O exp(+i lam.J).

    The generators keep m + n, so u is block diagonal on the 2N - 1 spin-j
    shells (those above m + n = N - 1 are truncated chains): each block of
    O between two shells is conjugated on its own and scattered back.  The
    phase-space operators step m + n by one, so that costs O(N^4) instead
    of the dense O(N^6).
    """
    levels = math.isqrt(gens.J3.dim)
    u = _shell_rotation(gens, tuple(float(x) for x in lam), levels, 2 * levels - 1)
    stack, deltas = _shell_blocks(list(ops), levels, 2 * levels - 1)
    _conjugate_blocks(u, stack, deltas)
    out = []
    for blocks in stack:
        k, s, a, b = np.nonzero(blocks)
        rows, cols = s + deltas[k] + a * (levels - 1), s + b * (levels - 1)
        out.append(from_entries(gens.J3.dim, rows, cols, blocks[k, s, a, b]))
    return out


@lru_cache(maxsize=1)
def _shell_rotation(gens: SU2Generators, lam: tuple[float, ...], levels: int, shells: int) -> np.ndarray:
    """u = exp(-i lam.J) on the shells m + n < shells, as a read-only
    (shells, L, L) stack, L = min(shells, levels): block s is u on shell s
    indexed by m, and zero where m is off the shell.

    The basis of shell s is m ascending at index s + m (N - 1), and lam.J
    keeps m + n, so its only diagonals are 0 and +-(N - 1) (any other
    offset raises ValueError): on a shell it is a Hermitian chain
    S J S^dag, with J real tridiagonal and S a diagonal phase.  The
    covariance and noncovariance checks of one rotation share this single
    exponential.
    """
    n = levels
    if gens.J3.dim != n * n:
        raise ValueError(f"generators of dimension {gens.J3.dim} do not act on N = {n} levels")
    if not np.isin(np.concatenate([j.offsets for j in gens.as_tuple()]), (1 - n, 0, n - 1)).all():
        raise ValueError("rotation generators must keep m + n")
    gen = lam[0] * gens.J1 + lam[1] * gens.J2 + lam[2] * gens.J3
    diagonal = dict(zip(gen.offsets.tolist(), gen.diagonals))
    zero = np.zeros(gen.dim, dtype=np.complex128)
    main, upper = diagonal.get(0, zero).real, diagonal.get(n - 1, zero)
    ms = [np.arange(max(0, s - n + 1), min(s, n - 1) + 1) for s in range(shells)]
    chains, phases = [], []
    for s, m in enumerate(ms):
        index = s + m * (n - 1)
        off = upper[index[:-1]]
        chains.append((index, main[index], np.abs(off)))
        # S_{k+1} = S_k e^(-i arg off_k) makes the chain real.
        phases.append(np.exp(-1j * np.append(0.0, np.cumsum(np.angle(off)))))
    u = np.zeros((shells, min(shells, n), min(shells, n)), dtype=np.complex128)
    for block, m, p, e in zip(u, ms, phases, expm(TridiagonalBlocks(gen.dim, tuple(chains)), 1.0)):
        block[m[0]:m[-1] + 1, m[0]:m[-1] + 1] = p[:, None] * e * p.conj()
    u.setflags(write=False)
    return u


def _shell_blocks(ops: list[Operator], levels: int, shells: int) -> tuple[np.ndarray, np.ndarray]:
    """Entries of each op between the shells m + n < shells, as an
    (ops, deltas, shells, L, L) stack and the ascending shell changes
    ``deltas`` of all of them: [i, k, s] is the block of op i from shell s
    to shell s + deltas[k], indexed by m as in ``_shell_rotation``."""
    n, width = levels, min(shells, levels)
    parts = []
    for op in ops:
        if op.dim != n * n:
            raise ValueError(f"dimension mismatch: {op.dim} vs {n * n}")
        rows, cols, values = op.entries()
        (mr, nr), (mc, nc) = np.divmod(rows, n), np.divmod(cols, n)
        keep = (mr + nr < shells) & (mc + nc < shells)
        parts.append(((mr + nr - mc - nc)[keep], (mc + nc)[keep], mr[keep], mc[keep], values[keep]))
    deltas = np.unique(np.concatenate([part[0] for part in parts]))
    stack = np.zeros((len(ops), deltas.size, shells, width, width), dtype=np.complex128)
    for block, (delta, s, mr, mc, values) in zip(stack, parts):
        block[deltas.searchsorted(delta), s, mr, mc] = values
    return stack, deltas


def _conjugate_blocks(u: np.ndarray, stack: np.ndarray, deltas: np.ndarray) -> None:
    """Replace every block O_{s+delta,s} of a ``_shell_blocks`` stack by
    u_{s+delta} O_{s+delta,s} u_s^dag."""
    shells, ud = u.shape[0], u.conj().transpose(0, 2, 1)
    for k, d in enumerate(deltas.tolist()):
        lo, hi = max(0, -d), min(shells, shells - d)
        stack[:, k, lo:hi] = u[lo + d:hi + d] @ stack[:, k, lo:hi] @ ud[lo:hi]


def _shell_rows(gens: SU2Generators, ops: list[Operator], lam, hs: HSSpace) -> np.ndarray:
    """Values of ops and then of their rotations on the complete shells
    (m + n <= N - 2), one flattened block stack per row: those shells are
    closed under the generators, so the conjugates there need nothing
    outside them.  Columns zero in every row (the padding among them) are
    dropped; they change no norm or least-squares fit of the rows."""
    shells = hs.levels - 1
    u = _shell_rotation(gens, tuple(float(x) for x in lam), hs.levels, shells)
    stack, deltas = _shell_blocks(ops + ops, hs.levels, shells)
    _conjugate_blocks(u, stack[len(ops):], deltas)
    rows = stack.reshape(2 * len(ops), -1)
    return rows[:, rows.any(axis=0)]


def _span_fit(targets: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares coefficients of each target row in span(basis rows),
    from the normal equations, and the norm of each y - c @ basis."""
    coeffs, *_ = np.linalg.lstsq(basis.conj() @ basis.T, basis.conj() @ targets.T, rcond=None)
    return coeffs.T, np.linalg.norm(targets - coeffs.T @ basis, axis=1)


@dataclass(frozen=True)
class CovarianceCheck:
    """Outcome of the finite-rotation covariance test."""

    rotation_residual: float  # max block norm of (conjugated - R(lam) . Xi)
    span_residual: float      # max least-squares residual within span(Xi)


def covariance_residual(gens: SU2Generators, basis_ops, lam, hs: HSSpace) -> CovarianceCheck:
    """Check that the 4-tuple conjugates to R(lambda) times itself.

    Finite rotations are exact only on complete (m + n <= N-2) shells, so
    the comparison block is shell-limited rather than the plain safe block.
    """
    basis_ops = list(basis_ops)
    if len(basis_ops) != 4:
        raise ValueError("need exactly four phase-space operators")
    rows = _shell_rows(gens, basis_ops, lam, hs)
    basis, targets = rows[:4], rows[4:]
    rot_res = np.linalg.norm(targets - rotation_matrix(lam) @ basis, axis=1)
    _, span_res = _span_fit(targets, basis)
    return CovarianceCheck(rotation_residual=float(rot_res.max()), span_residual=float(span_res.max()))


def position_noncovariance(gens: SU2Generators, x1: Operator, x2: Operator, lam, hs: HSSpace) -> float:
    """Best-fit residual of the conjugated positions within span{X1, X2}.

    Near zero for pure-J3 rotations; strictly positive for generic
    rotations with a J1 or J2 component.
    """
    rows = _shell_rows(gens, [x1, x2], lam, hs)
    _, resid = _span_fit(rows[2:], rows[:2])
    return float(resid.max())


def adjoint_rep_matrix(j_op: Operator, ops, indices: np.ndarray) -> np.ndarray:
    """4x4 matrix M with [O_a, J] = sum_b M[a, b] O_b, fitted on a block."""
    ops = list(ops)
    rows = block_values(ops + [commutator(op, j_op) for op in ops], indices)
    coeffs, resid = _span_fit(rows[len(ops):], rows[: len(ops)])
    scale = np.maximum(np.linalg.norm(rows[: len(ops)], axis=1), 1.0)
    if np.any(resid > 1e-10 * scale):
        raise ValueError(f"commutator does not close on the given span (residual {resid.max():.3e})")
    return coeffs


def commutative_phase_space(levels: int) -> tuple[Operator, Operator, Operator, Operator]:
    """Dimensionless pair-oscillator variables (x1, x2, p1, p2) on H x H."""
    b = annihilator(FockSpace(levels))
    eye = identity(levels)
    a1 = tensor(b, eye)
    a2 = tensor(eye, b)
    x1 = (a1 + adjoint(a1)) / np.sqrt(2.0)
    x2 = (a2 + adjoint(a2)) / np.sqrt(2.0)
    p1 = 1j * (adjoint(a1) - a1) / np.sqrt(2.0)
    p2 = 1j * (adjoint(a2) - a2) / np.sqrt(2.0)
    return (x1, x2, p1, p2)
