"""Sparse complex operator algebra on truncated single-mode Fock spaces.

Everything downstream (the Hilbert-Schmidt representation, Schwinger
generators, oscillator Hamiltonians) is built from the primitives here:
ladder matrices, adjoints, commutators, Kronecker products and the
exponential of a Hermitian or anti-Hermitian generator, taken block by
block (it serves the su(2) shell rotations; the dilatation unitary comes
from its J3-sector chains).  Every ladder polynomial has a few non-zeros
per row, so operators are held in compressed sparse row form; a dense
array is made only on request.  Hamiltonians with a conserved quantity
are held block by block as real symmetric tridiagonal blocks, and the
spectral solvers take them in that form; a dense Hermitian eigensolver
with deterministic eigenvector phases remains for operators.
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

# Scale-relative tolerances of expm's Hermitian / anti-Hermitian test and
# of hermitian_eig's input check.
EXPM_RTOL = 1e-12
HERMITICITY_RTOL = 1e-10


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson Fock space spanned by |0> ... |N-1>."""

    levels: int

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError(f"Fock space needs at least 2 levels, got {self.levels}")


class Operator:
    """Immutable complex square matrix on one fixed space: a canonical
    ``csr_array`` with no stored zeros and read-only arrays (a writable
    complex ``csr_array``, such as a scipy result, is adopted as it is).
    Binary operations require equal dimensions and always return new
    operators."""

    __slots__ = ("_mat",)

    def __init__(self, mat) -> None:
        if isinstance(mat, scipy.sparse.csr_array) and mat.dtype == np.complex128:
            m = mat
        else:
            m = scipy.sparse.csr_array(mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if not m.data.flags.writeable:
            m = m.copy()
        m.sum_duplicates()
        if not m.data.all():
            m.eliminate_zeros()
        if not np.all(np.isfinite(m.data)):
            raise ValueError("operator entries must be finite")
        for part in (m.data, m.indices, m.indptr):
            part.setflags(write=False)
        self._mat = m

    @property
    def mat(self) -> scipy.sparse.csr_array:
        return self._mat

    def toarray(self) -> np.ndarray:
        """The matrix as a new dense array."""
        return self._mat.toarray()

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self._mat.conj().T)

    def norm(self) -> float:
        """Frobenius norm."""
        return float(np.linalg.norm(self._mat.data))

    def trace(self) -> complex:
        return complex(self._mat.trace())

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
        """The same operator, scattered into one sparse matrix."""
        rows, cols, vals = [], [], []
        for index, diag, off in self.blocks:
            rows += [index, index[:-1], index[1:]]
            cols += [index, index[1:], index[:-1]]
            vals += [diag, off, off]
        coords = (np.concatenate(rows), np.concatenate(cols))
        return Operator(scipy.sparse.coo_array((np.concatenate(vals), coords), shape=(self.dim, self.dim)))


def identity(dim: int) -> Operator:
    return Operator(scipy.sparse.eye_array(dim))


def annihilator(space: FockSpace) -> Operator:
    """Lowering operator with <m|b|n> = sqrt(n) for m = n-1."""
    n = space.levels
    return Operator(scipy.sparse.diags_array(np.sqrt(np.arange(1, n, dtype=np.float64)), offsets=1))


def adjoint(a: Operator) -> Operator:
    return a.dag()


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; index convention (m, n) -> m * dim(b) + n."""
    return Operator(scipy.sparse.kron(a.mat, b.mat))


def invariant_blocks(m) -> list[np.ndarray]:
    """Basis index sets that m maps into themselves.

    They are the connected components of the non-zero pattern of m, so m
    is block diagonal on them up to a permutation of the basis.  Each set
    is ascending, and the sets are ordered by their smallest index.
    """
    _, labels = connected_components(scipy.sparse.csr_array(m != 0), directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _expm_hermitian(m: scipy.sparse.csr_array, factor: complex) -> scipy.sparse.csr_array:
    """exp(factor h) for Hermitian h = m, one dense invariant block at a time."""
    blocks = invariant_blocks(m)
    order = np.concatenate(blocks)
    p = m[order][:, order].tocoo()  # block diagonal, rows in order
    starts = np.cumsum([0] + [index.size for index in blocks])
    exps = []
    parts = np.split(np.arange(p.nnz), np.searchsorted(p.row, starts[1:-1]))
    for lo, hi, part in zip(starts, starts[1:], parts):
        h = np.zeros((hi - lo, hi - lo), dtype=np.complex128)
        h[p.row[part] - lo, p.col[part] - lo] = p.data[part]
        w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
        exps.append((v * np.exp(factor * w)) @ v.conj().T)
    back = np.argsort(order)
    return scipy.sparse.block_diag(exps, format="csr")[back][:, back]


def expm(a: Operator) -> Operator:
    """Matrix exponential of a Hermitian or anti-Hermitian operator.

    The input is diagonalized with eigh, one invariant block at a time:
    the su(2) shell rotations keep m + n, so no block has more than N
    levels (the dilatation unitary comes from its J3-sector chains
    instead).  Any other input raises ValueError.
    """
    scale = a.norm()
    if scale == 0.0:
        return identity(a.dim)
    if (a - a.dag()).norm() <= EXPM_RTOL * scale:
        return Operator(_expm_hermitian(a.mat, 1.0))
    if (a + a.dag()).norm() <= EXPM_RTOL * scale:
        return Operator(_expm_hermitian(a.mat / 1j, 1j))
    raise ValueError("expm needs a Hermitian or anti-Hermitian operator")


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


def hermitian_eig(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of h.

    Rejects inputs whose anti-Hermitian part exceeds the tolerance, then
    symmetrizes before calling the solver.
    """
    m = h.toarray()
    scale = np.linalg.norm(m)
    dev = np.linalg.norm(m - m.conj().T)
    if dev > HERMITICITY_RTOL * max(scale, 1.0):
        raise ValueError(f"matrix is not Hermitian: deviation {dev:.3e} at norm {scale:.3e}")
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w, _fix_column_phases(v)


def hermitian_eigvals(h: TridiagonalBlocks) -> np.ndarray:
    """Ascending eigenvalues, solved one block at a time (non-finite
    entries raise ValueError)."""
    return np.sort(np.concatenate(_block_eigvals(h)))


def _block_eigvals(h: TridiagonalBlocks) -> list[np.ndarray]:
    return [scipy.linalg.eigvalsh_tridiagonal(diag, off) for _, diag, off in h.blocks]


def hermitian_ground(h: TridiagonalBlocks) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of h and the unit eigenvector of the lowest one.

    Each block is solved once for its eigenvalues; the vector comes from
    the block that holds the lowest of them.
    """
    per_block = _block_eigvals(h)
    index, diag, off = h.blocks[int(np.argmin([w[0] for w in per_block]))]
    _, v = scipy.linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 0))
    vec = np.zeros(h.dim, dtype=np.complex128)
    vec[index] = v[:, 0]
    return np.sort(np.concatenate(per_block)), vec
