"""Hilbert-Schmidt representation of the noncommutative plane.

States of the quantum Hilbert space are operators psi on the truncated
Fock space, vectorized with index(m, n) = m * N + n.  Left multiplication
by a then becomes kron(a, I) and right multiplication kron(I, a.T), so
psi -> a psi b is a single Kronecker product.  Positions, momenta,
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

from .operator_core import FockSpace, Operator, adjoint, annihilator, identity, tensor

__all__ = [
    "ModelConfig",
    "HSSpace",
    "HSState",
    "RepOperators",
    "ScaledPhaseSpace",
    "left_action",
    "right_action",
    "build_rep",
    "hs_inner",
    "hs_norm",
    "dimensionless",
    "basis_state",
    "state_from_matrix",
    "apply_op",
    "restrict",
    "block_norm",
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
        n = self.levels
        return np.array([m * n + k for m in range(n - 1) for k in range(n - 1)])

    @cached_property
    def complete_shell_indices(self) -> np.ndarray:
        n = self.levels
        return np.array(
            [m * n + k for m in range(n - 1) for k in range(n - 1) if m + k <= n - 2]
        )

    def safe_block(self, depth: int = 1) -> np.ndarray:
        """Labels with m, n <= N-1-depth; exact for products whose
        intermediate states climb at most ``depth`` levels."""
        n = self.levels
        top = n - depth
        if top < 1:
            raise ValueError(f"depth {depth} leaves no safe labels at N={n}")
        return np.array([m * n + k for m in range(top) for k in range(top)])

    def shell_indices(self, max_total: int) -> np.ndarray:
        n = self.levels
        return np.array(
            [m * n + k for m in range(n) for k in range(n) if m + k <= max_total]
        )


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
    if op.dim != psi.space.dim:
        raise ValueError(f"dimension mismatch: {op.dim} vs {psi.space.dim}")
    return HSState(psi.space, op.mat @ psi.vec)


def left_action(a: Operator, hs: HSSpace) -> Operator:
    """Operator realizing psi -> a psi in the vectorized representation."""
    if a.dim != hs.levels:
        raise ValueError(f"dimension mismatch: {a.dim} vs {hs.levels}")
    return tensor(a, identity(hs.levels))


def right_action(a: Operator, hs: HSSpace) -> Operator:
    """Operator realizing psi -> psi a (an antihomomorphism)."""
    if a.dim != hs.levels:
        raise ValueError(f"dimension mismatch: {a.dim} vs {hs.levels}")
    return tensor(identity(hs.levels), Operator(a.mat.T))


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


def build_rep(hs: HSSpace) -> RepOperators:
    """All ten representation operators for the given space.

    B_L / B_R are the left and right actions of the lowering operator; the
    daggered versions are their Hilbert-Schmidt adjoints, which in this
    vectorization coincide with the matrix adjoints (asserted by tests).
    Raises ValueError, before allocating, when the ten dense operators
    would exceed the machine's physical memory.
    """
    need = 10 * 16 * hs.dim**2
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > memory:
        raise ValueError(
            f"dense representation at N={hs.levels} needs {need / 2**30:.3g} GiB;"
            f" this machine has {memory / 2**30:.3g} GiB"
        )
    theta = hs.theta
    b = annihilator(hs.fock())
    b_l = left_action(b, hs)
    b_r = right_action(b, hs)
    b_ld = adjoint(b_l)
    b_rd = adjoint(b_r)

    s = np.sqrt(theta / 2.0)
    x1 = s * (b_l + b_ld)
    x2 = 1j * s * (b_ld - b_l)
    p1 = (1j / np.sqrt(2.0 * theta)) * (b_ld - b_l - b_rd + b_r)
    p2 = (1.0 / np.sqrt(2.0 * theta)) * (b_rd + b_r - b_ld - b_l)
    # Commuting coordinates X_i^c = X_i + (theta/2) eps_ij P_j.
    x1c = x1 + (theta / 2.0) * p2
    x2c = x2 - (theta / 2.0) * p1
    return RepOperators(
        B_L=b_l, B_R=b_r, B_Ldag=b_ld, B_Rdag=b_rd,
        X1=x1, X2=x2, X1c=x1c, X2c=x2c, P1=p1, P2=p2,
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


def restrict(op: Operator, indices: np.ndarray) -> np.ndarray:
    """Submatrix of op on the given basis indices."""
    return op.mat[np.ix_(indices, indices)]


def block_norm(op: Operator, indices: np.ndarray) -> float:
    """Frobenius norm of op restricted to the given basis indices."""
    return float(np.linalg.norm(restrict(op, indices)))
