"""Hilbert-Schmidt representation of the noncommutative plane.

States of the quantum Hilbert space are operators psi on the truncated
Fock space, vectorized with index(m, n) = m * N + n.  Left multiplication
by a then becomes kron(a, I) and right multiplication kron(I, a.T), so
psi -> a psi b is a single Kronecker product; that stays the definition,
which tests check ``build_rep`` and ``tensor`` against.  Positions, momenta,
ladder operators and the commuting coordinates are all built here.

Truncation corrupts only matrix elements touching the top level, so every
algebraic identity is asserted on a "safe block":

* ``safe_indices``     -- labels with m, n <= N-2; exact for polynomial
  identities (each operator factor steps at most one level).
* ``complete_shell_indices`` -- labels with m + n <= N-2; these shells are
  closed under the su(2) generators, which makes finite rotations exact
  there (needed for unitary-conjugation checks, where the m, n <= N-2
  block is *not* trustworthy).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_core import Diagonals, FockSpace, Operator, from_entries, identity, tensor

__all__ = [
    "ModelConfig",
    "HSSpace",
    "HSState",
    "RepOperators",
    "ScaledPhaseSpace",
    "left_action",
    "right_action",
    "build_rep",
    "ladders",
    "check_memory",
    "hs_inner",
    "hs_norm",
    "dimensionless",
    "basis_state",
    "state_from_matrix",
    "apply_op",
    "block_norm",
    "block_values",
    "row_norm",
]


@dataclass(frozen=True)
class ModelConfig:
    """Noncommutativity scale theta (length^2) and per-factor truncation N."""

    theta: float
    truncation: int

    def __post_init__(self) -> None:
        if not self.theta > 0.0:
            raise ValueError("theta must be positive")
        if self.truncation < 4:
            raise ValueError("truncation must be at least 4")


@dataclass(frozen=True)
class HSSpace:
    """Vectorized space of N x N Hilbert-Schmidt operators (dimension N^2)."""

    config: ModelConfig

    @property
    def levels(self) -> int:
        return self.config.truncation

    @property
    def theta(self) -> float:
        return self.config.theta

    @property
    def dim(self) -> int:
        return self.levels**2

    def fock(self) -> FockSpace:
        return FockSpace(self.levels)

    def index(self, m: int, n: int) -> int:
        n_lev = self.levels
        if not (0 <= m < n_lev and 0 <= n < n_lev):
            raise ValueError(f"label ({m}, {n}) outside truncation {n_lev}")
        return m * n_lev + n

    def label(self, k: int) -> tuple[int, int]:
        return divmod(k, self.levels)

    @cached_property
    def safe_indices(self) -> np.ndarray:
        return self.safe_block(1)

    @cached_property
    def complete_shell_indices(self) -> np.ndarray:
        return self.shell_indices(self.levels - 2)

    def safe_block(self, depth: int = 1) -> np.ndarray:
        """Labels with m, n <= N-1-depth; exact for products whose
        intermediate states climb at most ``depth`` levels."""
        n = self.levels
        top = n - depth
        if top < 1:
            raise ValueError(f"depth {depth} leaves no safe labels at N={n}")
        return (np.arange(top)[:, None] * n + np.arange(top)).ravel()

    def shell_indices(self, max_total: int) -> np.ndarray:
        """Labels with m + n <= max_total, in index order."""
        k = np.arange(self.dim)
        m, n = np.divmod(k, self.levels)
        return k[m + n <= max_total]


class HSState:
    """Vector of N^2 amplitudes, viewable as the N x N operator psi."""

    __slots__ = ("space", "_vec")

    def __init__(self, space: HSSpace, vec) -> None:
        v = np.array(vec, dtype=np.complex128).ravel()
        if v.size != space.dim:
            raise ValueError(f"state length {v.size} does not match dim {space.dim}")
        if not np.all(np.isfinite(v)):
            raise ValueError("state amplitudes must be finite")
        v.setflags(write=False)
        self.space = space
        self._vec = v

    @property
    def vec(self) -> np.ndarray:
        return self._vec

    def as_matrix(self) -> np.ndarray:
        n = self.space.levels
        return self._vec.reshape(n, n)

    def __repr__(self) -> str:
        return f"HSState(dim={self.space.dim})"


def basis_state(hs: HSSpace, m: int, n: int) -> HSState:
    vec = np.zeros(hs.dim, dtype=np.complex128)
    vec[hs.index(m, n)] = 1.0
    return HSState(hs, vec)


def state_from_matrix(hs: HSSpace, mat) -> HSState:
    return HSState(hs, np.asarray(mat).ravel())


def apply_op(op: Operator, psi: HSState) -> HSState:
    """op psi, summed as scipy's CSR matrix-vector product sums: from zero
    over ascending offsets, with products in split real arithmetic."""
    dim = psi.space.dim
    if op.dim != dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {dim}")
    pad = int(np.abs(op.offsets).max(initial=0))
    x = np.pad(psi.vec, pad)
    re, im = np.zeros(dim), np.zeros(dim)
    for k, d in zip(op.offsets, op.diagonals):
        s = x[pad + k:pad + k + dim]  # s[i] = vec[i + k], 0 outside
        re = re + (d.real * s.real - d.imag * s.imag)
        im = im + (d.real * s.imag + d.imag * s.real)
    return HSState(psi.space, np.stack([re, im], axis=-1).view(np.complex128))


def left_action(a: Operator, hs: HSSpace) -> Operator:
    """Operator realizing psi -> a psi in the vectorized representation."""
    if a.dim != hs.levels:
        raise ValueError(f"dimension mismatch: {a.dim} vs {hs.levels}")
    return tensor(a, identity(hs.levels))


def right_action(a: Operator, hs: HSSpace) -> Operator:
    """Operator realizing psi -> psi a (an antihomomorphism)."""
    if a.dim != hs.levels:
        raise ValueError(f"dimension mismatch: {a.dim} vs {hs.levels}")
    rows, cols, values = a.entries()
    return tensor(identity(hs.levels), from_entries(a.dim, cols, rows, values))


def hs_inner(phi: HSState, psi: HSState) -> complex:
    """Hilbert-Schmidt inner product Tr(phi^dag psi).

    Computed from the matrix forms so tests can compare it independently
    against the plain conjugated dot product of the amplitude vectors.
    """
    if phi.space.dim != psi.space.dim:
        raise ValueError("states live on different spaces")
    return complex(np.trace(phi.as_matrix().conj().T @ psi.as_matrix()))


def hs_norm(psi: HSState) -> float:
    return float(np.sqrt(hs_inner(psi, psi).real))


@dataclass(frozen=True)
class RepOperators:
    """Ladder, position and momentum operators on the vectorized space."""

    B_L: Operator
    B_R: Operator
    B_Ldag: Operator
    B_Rdag: Operator
    X1: Operator
    X2: Operator
    X1c: Operator
    X2c: Operator
    P1: Operator
    P2: Operator


def check_memory(need: int, what: str) -> None:
    """Raise ValueError when ``need`` bytes exceed the machine's physical
    memory; ``what`` names the request in the message."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ValueError(
            f"{what} needs {need / 2**30:.3g} GiB; this machine has {memory / 2**30:.3g} GiB"
        )


def _ladder_fields(hs: HSSpace, entries: int):
    """The ladder diagonals of B_L and B_R and the assembler of a field from
    diagonals, once ``entries`` stored entries fit in memory (see build_rep)."""
    check_memory(24 * entries, f"representation at N={hs.levels}")
    n, root = hs.levels, np.sqrt(np.arange(1, hs.levels, dtype=np.float64))

    def field(*diagonals, offsets=(n, -n, 1, -1)) -> Operator:
        # Diagonal k starts at row -k when k < 0 (scipy's diags convention).
        values = np.zeros((len(offsets), hs.dim), dtype=np.complex128)
        for row, k, v in zip(values, offsets, diagonals):
            row[max(-k, 0):hs.dim - max(k, 0)] = v
        order = np.argsort(offsets)
        return Operator(Diagonals(np.asarray(offsets)[order], values[order]))

    return np.repeat(root, n), np.tile(np.append(root, 0.0), n)[:-1], field


def ladders(hs: HSSpace) -> tuple[Operator, Operator]:
    """B_L and B_R of ``build_rep(hs)``, equal bit for bit, without the other eight fields."""
    v_l, v_r, field = _ladder_fields(hs, 2 * hs.dim)
    return field(v_l, offsets=(hs.levels,)), field(v_r, offsets=(-1,))


def build_rep(hs: HSSpace) -> RepOperators:
    """All ten representation operators for the given space.

    B_L / B_R are the left and right actions of the lowering operator; the
    daggered versions are their Hilbert-Schmidt adjoints, which in this
    vectorization coincide with the matrix adjoints (asserted by tests).
    Each field is assembled in one step from the ladder diagonals: B_L at
    offset +N with sqrt(m + 1), B_R at -1 with sqrt(n + 1) (0 at
    n = N - 1), their adjoints at -N and +1.  The values repeat the scalar
    operations of the kron definition in its order, so entries match it
    bit for bit.  Raises ValueError, before allocating, when the ten
    operators would exceed the machine's physical memory: each is counted
    as four 16-byte diagonals, with half as much again for the
    temporaries of their products (960 N^2 bytes in all).
    """
    v_l, v_r, field = _ladder_fields(hs, 10 * 4 * hs.dim)
    n, theta = hs.levels, hs.theta
    # |X| = sqrt(theta/2) on the B_L diagonals and |P| = 1/sqrt(2 theta) on
    # all four; the commuting X^c_i = X_i + (theta/2) eps_ij P_j add h.
    s, r, half = np.sqrt(theta / 2.0), 1.0 / np.sqrt(2.0 * theta), theta / 2.0
    x, p_l, p_r = s * v_l, r * v_l, r * v_r
    h_l, h_r = half * p_l, half * p_r
    return RepOperators(
        B_L=field(v_l, offsets=(n,)), B_R=field(v_r, offsets=(-1,)),
        B_Ldag=field(v_l, offsets=(-n,)), B_Rdag=field(v_r, offsets=(1,)),
        X1=field(x, x, offsets=(n, -n)),
        X2=field(1j * -x, 1j * x, offsets=(n, -n)),
        X1c=field(x - h_l, x - h_l, h_r, h_r),
        X2c=field(1j * (h_l - x), 1j * (x - h_l), 1j * h_r, 1j * -h_r),
        P1=field(1j * -p_l, 1j * p_l, 1j * -p_r, 1j * p_r),
        P2=field(-p_l, -p_l, p_r, p_r),
    )


@dataclass(frozen=True)
class ScaledPhaseSpace:
    """Dimensionless phase space variables and the halved momenta."""

    x1c: Operator
    x2c: Operator
    p1: Operator
    p2: Operator
    p1_half: Operator
    p2_half: Operator

    def four_tuple(self) -> tuple[Operator, Operator, Operator, Operator]:
        return (self.x1c, self.x2c, self.p1_half, self.p2_half)


def dimensionless(rep: RepOperators, theta: float) -> ScaledPhaseSpace:
    """Scale x_i^c = X_i^c / sqrt(theta), p_i = sqrt(theta) P_i."""
    if not theta > 0.0:
        raise ValueError("theta must be positive")
    root = np.sqrt(theta)
    p1 = root * rep.P1
    p2 = root * rep.P2
    return ScaledPhaseSpace(
        x1c=rep.X1c / root,
        x2c=rep.X2c / root,
        p1=p1,
        p2=p2,
        p1_half=p1 / 2.0,
        p2_half=p2 / 2.0,
    )


def block_norm(op: Operator, indices: np.ndarray) -> float:
    """Frobenius norm of op restricted to the given basis indices."""
    inside = np.zeros(op.dim, dtype=bool)
    inside[indices] = True
    rows, cols, values = op.entries()
    return float(np.linalg.norm(values[inside[rows] & inside[cols]]))


def block_values(ops, indices: np.ndarray) -> np.ndarray:
    """Entries of each operator on ``indices x indices``, one row each,
    aligned on the union of their non-zero patterns in row-major order (the
    order ``block_norm`` reads), with 0 where an operator stores nothing."""
    dim = ops[0].dim
    for op in ops:
        if op.dim != dim:
            raise ValueError(f"dimension mismatch: {op.dim} vs {dim}")
    offsets, slots = np.unique(np.concatenate([op.offsets for op in ops]), return_inverse=True)
    owner = np.repeat(np.arange(len(ops)), [op.offsets.size for op in ops])
    stack = np.zeros((len(ops), offsets.size, dim), dtype=np.complex128)
    stack[owner, slots] = np.concatenate([op.diagonals for op in ops])
    inside = np.zeros(dim + 1, dtype=bool)  # the extra slot: columns outside
    inside[indices] = True
    cols = np.arange(dim) + offsets[:, None]
    keep = inside[:-1] & inside[np.where((cols >= 0) & (cols < dim), cols, dim)] & stack.any(axis=0)
    rows, slot = np.nonzero(np.ascontiguousarray(keep.T))
    return stack[:, slot, rows]


def row_norm(values: np.ndarray) -> float:
    """Frobenius norm of a ``block_values`` row, summed as ``block_norm`` sums."""
    return float(np.linalg.norm(values[values != 0]))
