"""Dense complex operator algebra on truncated single-mode Fock spaces.

Everything downstream (the Hilbert-Schmidt representation, Schwinger
generators, oscillator Hamiltonians) is built from the primitives here:
ladder matrices, adjoints, commutators, Kronecker products, matrix
exponentials (taken block by block on a generator's invariant blocks) and
a Hermitian eigensolver with deterministic output.
Hamiltonians with a conserved quantity are also held block by block as
real symmetric tridiagonal blocks, which the same eigensolver accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import connected_components

__all__ = [
    "FockSpace",
    "Operator",
    "TridiagonalBlocks",
    "identity",
    "annihilator",
    "adjoint",
    "commutator",
    "tensor",
    "expm",
    "invariant_blocks",
    "hermitian_eig",
    "hermitian_eigvals",
    "hermitian_ground",
]

# Normality / hermiticity checks are scale-relative.
NORMALITY_RTOL = 1e-12
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson Fock space spanned by |0> ... |N-1>."""

    levels: int

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError(f"Fock space needs at least 2 levels, got {self.levels}")


class Operator:
    """Immutable dense complex square matrix acting on one fixed space.

    Binary operations require equal dimensions and always return new
    operators; the wrapped array is read-only, so values can be shared
    freely across threads.
    """

    __slots__ = ("_mat",)

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        m.setflags(write=False)
        self._mat = m

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self._mat.conj().T)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self._mat))

    def trace(self) -> complex:
        return complex(np.trace(self._mat))

    def _same_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Operator") -> "Operator":
        self._same_dim(other)
        return Operator(self._mat + other._mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._same_dim(other)
        return Operator(self._mat - other._mat)

    def __neg__(self) -> "Operator":
        return Operator(-self._mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self._mat * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return Operator(self._mat / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        self._same_dim(other)
        return Operator(self._mat @ other._mat)

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


@dataclass(frozen=True)
class TridiagonalBlocks:
    """Hermitian operator held as a direct sum of real symmetric tridiagonal blocks.

    Each block is ``(index, diag, off)``: it acts on the basis positions
    ``index``, in that order, with main diagonal ``diag`` and first
    off-diagonal ``off``.  Entries between different blocks are zero, so
    memory grows with ``dim`` rather than ``dim**2``.
    """

    dim: int
    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    def to_operator(self) -> Operator:
        """The same operator as a dense matrix."""
        mat = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for index, diag, off in self.blocks:
            mat[index, index] = diag
            mat[index[:-1], index[1:]] = off
            mat[index[1:], index[:-1]] = off
        return Operator(mat)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=np.complex128))


def annihilator(space: FockSpace) -> Operator:
    """Lowering operator with <m|b|n> = sqrt(n) for m = n-1."""
    n = space.levels
    return Operator(np.diag(np.sqrt(np.arange(1, n, dtype=np.float64)), k=1))


def adjoint(a: Operator) -> Operator:
    return a.dag()


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; index convention (m, n) -> m * dim(b) + n."""
    return Operator(np.kron(a.mat, b.mat))


def invariant_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Basis index sets that m maps into themselves.

    They are the connected components of the non-zero pattern of m, so m
    is block diagonal on them up to a permutation of the basis.  Each set
    is ascending, and the sets are ordered by their smallest index.
    """
    _, labels = connected_components(scipy.sparse.csr_array(m != 0), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _expm_hermitian(m: np.ndarray, factor: complex) -> np.ndarray:
    """exp(factor h) for Hermitian h = m, one invariant block at a time."""
    out = np.zeros_like(m)
    for index in invariant_blocks(m):
        block = np.ix_(index, index)
        h = m[block]
        w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
        out[block] = (v * np.exp(factor * w)) @ v.conj().T
    return out


def expm(a: Operator) -> Operator:
    """Matrix exponential.

    Hermitian and anti-Hermitian inputs (every rotation and flow generator
    in this package) are diagonalized with eigh, one invariant block at a
    time: the su(2) generators keep m + n and the dilatation m - n, so no
    block has more than N levels.  Other normal inputs go through a
    unitary Schur decomposition; anything else falls back to scipy's
    scaling-and-squaring.
    """
    m = a.mat
    scale = np.linalg.norm(m)
    if scale == 0.0:
        return identity(a.dim)
    if np.linalg.norm(m - m.conj().T) <= NORMALITY_RTOL * scale:
        return Operator(_expm_hermitian(m, 1.0))
    if np.linalg.norm(m + m.conj().T) <= NORMALITY_RTOL * scale:
        return Operator(_expm_hermitian(m / 1j, 1j))
    defect = np.linalg.norm(m @ m.conj().T - m.conj().T @ m)
    if defect <= NORMALITY_RTOL * scale**2:
        t, q = scipy.linalg.schur(m, output="complex")
        return Operator((q * np.exp(np.diag(t))) @ q.conj().T)
    return Operator(scipy.linalg.expm(m))


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Make the first significant component of each column real positive.

    Needed so that eigendecompositions are reproducible inputs for report
    files; the threshold avoids latching onto numerical noise.
    """
    out = v.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        lead = np.flatnonzero(mags > 1e-8 * mags.max())[0]
        phase = col[lead] / mags[lead]
        out[:, k] = col * np.conj(phase)
    return out


def _symmetrized(h: Operator) -> np.ndarray:
    m = h.mat
    scale = np.linalg.norm(m)
    dev = np.linalg.norm(m - m.conj().T)
    if dev > HERMITICITY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} at norm {scale:.3e}")
    return (m + m.conj().T) / 2.0


def hermitian_eig(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of h.

    Rejects inputs whose anti-Hermitian part exceeds the tolerance, then
    symmetrizes before calling the solver.
    """
    w, v = np.linalg.eigh(_symmetrized(h))
    return w, _fix_column_phases(v)


def hermitian_eigvals(h: Operator | TridiagonalBlocks) -> np.ndarray:
    """Ascending eigenvalues only.

    Dense operators get the same validation as :func:`hermitian_eig`;
    tridiagonal blocks are solved one block at a time (non-finite entries
    raise ValueError there too).
    """
    if isinstance(h, TridiagonalBlocks):
        return np.sort(np.concatenate(_block_eigvals(h)))
    return np.linalg.eigvalsh(_symmetrized(h))


def _block_eigvals(h: TridiagonalBlocks) -> list[np.ndarray]:
    return [scipy.linalg.eigvalsh_tridiagonal(diag, off) for _, diag, off in h.blocks]


def hermitian_ground(h: Operator | TridiagonalBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of h and the unit eigenvector of the lowest one.

    Tridiagonal blocks are solved once each for their eigenvalues; the
    vector comes from the block that holds the lowest of them.
    """
    if not isinstance(h, TridiagonalBlocks):
        w, v = hermitian_eig(h)
        return w, v[:, 0]
    per_block = _block_eigvals(h)
    index, diag, off = h.blocks[int(np.argmin([w[0] for w in per_block]))]
    _, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    vec = np.zeros(h.dim, dtype=np.complex128)
    vec[index] = v[:, 0]
    return np.sort(np.concatenate(per_block)), vec
