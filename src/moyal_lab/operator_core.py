"""Sparse complex operator algebra on truncated single-mode Fock spaces.

Everything downstream (the Hilbert-Schmidt representation, Schwinger
generators, oscillator Hamiltonians) is built from the primitives here:
ladder matrices, adjoints, commutators and Kronecker products.  Every
ladder polynomial is a few diagonals of the matrix, so operators are held
as their non-zero diagonals: products, sums, adjoints, traces and norms
are numpy operations on those, and a compressed sparse row matrix or a
dense array is made only on request.  Operators with a conserved quantity
are held block by block as real symmetric tridiagonal blocks (the J3
sectors of the Hamiltonians and of the dilatation, the spin-j shells of an
su(2) rotation generator); the spectral solvers and the exponential
exp(-i t J) take them in that form.  A dense Hermitian eigensolver with
deterministic eigenvector phases remains for operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse

__all__ = [
    "FockSpace",
    "Diagonals",
    "Operator",
    "TridiagonalBlocks",
    "from_entries",
    "identity",
    "annihilator",
    "adjoint",
    "commutator",
    "tensor",
    "expm",
    "hermitian_eig",
    "hermitian_eigvals",
    "hermitian_ground",
]

# Scale-relative tolerance of hermitian_eig's input check.
HERMITICITY_RTOL = 1e-10
# Products with more diagonal pairs than this (dense-ish operands, such as
# random test matrices) go through scipy's CSR product, which does less work.
_MAX_DIAGONAL_PAIRS = 64


@dataclass(frozen=True)
class FockSpace:
    """Truncated boson Fock space spanned by |0> ... |N-1>."""

    levels: int

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ValueError(f"Fock space needs at least 2 levels, got {self.levels}")


class Diagonals(NamedTuple):
    """An ``Operator``'s storage: strictly ascending integer ``offsets`` and
    a (len(offsets), dim) complex array whose row k holds entry
    (i, i + offsets[k]) at position i, and 0 where that column is outside
    the matrix."""

    offsets: np.ndarray
    values: np.ndarray


class _Valid(Diagonals):
    """Diagonals built by this module, whose offsets and padding need no check."""

    __slots__ = ()


def _entries_to_diagonals(dim: int, rows, cols, values) -> _Valid:
    """Diagonals holding the given entries (no duplicate positions)."""
    shift = cols - rows + (dim - 1)
    present = np.zeros(2 * dim - 1, dtype=bool)
    present[shift] = True
    slot = np.cumsum(present) - 1
    out = np.zeros((int(slot[-1]) + 1, dim), dtype=np.complex128)
    out[slot[shift], rows] = values
    return _Valid(np.flatnonzero(present) - (dim - 1), out)


def _matrix_to_diagonals(mat) -> _Valid:
    m = scipy.sparse.coo_array(mat, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator matrix must be square, got shape {m.shape}")
    m.sum_duplicates()
    return _entries_to_diagonals(m.shape[0], m.row, m.col, m.data)


@lru_cache(maxsize=256)
def _product_plan(left: tuple[int, ...], right: tuple[int, ...], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets of a product of operators with the given offsets, and the
    table that sums it: row s lists the pairs (j, k), as j * len(left) + k,
    with right[j] + left[k] = offsets[s], in ascending left offset, padded
    with len(left) * len(right) (the index of a zero row).  Sums outside
    the matrix collect only zeros and are left out."""
    a, b = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
    sums = b[:, None] + a
    offsets = np.unique(sums[np.abs(sums) < dim])
    # For one sum, ascending j (right offset) is descending left offset.
    pairs = [np.flatnonzero(sums == s)[::-1] for s in offsets]
    table = np.full((offsets.size, max(map(len, pairs), default=0)), sums.size)
    for row, p in zip(table, pairs):
        row[:p.size] = p
    offsets.setflags(write=False)  # shared by every product with this plan
    return offsets, table


class Operator:
    """Immutable complex square matrix on one fixed space, held as its
    non-zero diagonals (see ``Diagonals``; both arrays read-only).

    The constructor takes a ``Diagonals`` pair, whose arrays it adopts, or
    any matrix ``scipy.sparse.coo_array`` accepts, dense or sparse; all-zero
    diagonals are dropped.  ``mat`` is a new canonical ``csr_array`` (sorted
    indices, no stored zeros) on every call.  Binary operations require
    equal dimensions and always return new operators; their entries equal
    those of scipy's CSR operations bit for bit.
    """

    __slots__ = ("_offsets", "_values")

    def __init__(self, mat) -> None:
        if not isinstance(mat, Diagonals):
            mat = _matrix_to_diagonals(mat)
        offsets, values = mat
        if type(mat) is Diagonals:  # built outside this module: check the layout
            offsets = np.asarray(offsets, dtype=np.int64)
            values = np.ascontiguousarray(values, dtype=np.complex128)
            if values.ndim != 2 or offsets.shape != values.shape[:1] or values.shape[1] < 1:
                raise ValueError("need one diagonal of length dim >= 1 per offset")
            cols = np.arange(values.shape[1]) + offsets[:, None]
            if np.any(np.diff(offsets) <= 0) or values[(cols < 0) | (cols >= values.shape[1])].any():
                raise ValueError("offsets must ascend, with zeros outside the matrix")
        if not np.isfinite(values).all():
            raise ValueError("operator entries must be finite")
        nonzero = values.any(axis=1)
        if not nonzero.all():
            offsets, values = offsets[nonzero], values[nonzero]
        offsets.setflags(write=False)
        values.setflags(write=False)
        self._offsets, self._values = offsets, values

    @property
    def offsets(self) -> np.ndarray:
        return self._offsets

    @property
    def diagonals(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.shape[1]

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and values of the non-zero entries, in row-major order."""
        rows, k = np.nonzero(np.ascontiguousarray((self._values != 0).T))
        return rows, rows + self._offsets[k], self._values[k, rows]

    @property
    def mat(self) -> scipy.sparse.csr_array:
        rows, cols, values = self.entries()
        indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=self.dim)))
        return scipy.sparse.csr_array((values, cols, indptr), shape=(self.dim, self.dim))

    def toarray(self) -> np.ndarray:
        """The matrix as a new dense array."""
        rows, cols, values = self.entries()
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        out[rows, cols] = values
        return out

    def dag(self) -> "Operator":
        rows, cols, values = self.entries()
        return from_entries(self.dim, cols, rows, values.conj())

    def norm(self) -> float:
        """Frobenius norm, summed over the non-zero entries in row-major order."""
        by_row = self._values.T
        return float(np.linalg.norm(by_row[by_row != 0]))

    def trace(self) -> complex:
        k = np.searchsorted(self._offsets, 0)
        if k == self._offsets.size or self._offsets[k] != 0:
            return 0j
        return complex(self._values[k].sum())

    def _same_dim(self, other: "Operator") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other: "Operator", sign: int) -> "Operator":
        """self + sign * other, entry by entry as scipy adds (0 where absent)."""
        self._same_dim(other)
        a, b = self._offsets, other._offsets
        if a.shape == b.shape and (a == b).all():
            values = self._values + other._values if sign > 0 else self._values - other._values
            return Operator(_Valid(a, values))
        offsets = np.union1d(a, b)
        values = np.zeros((offsets.size, self.dim), dtype=np.complex128)
        values[np.searchsorted(offsets, a)] = self._values
        slots = np.searchsorted(offsets, b)
        if sign > 0:
            values[slots] += other._values
        else:
            values[slots] -= other._values
        return Operator(_Valid(offsets, values))

    def __add__(self, other: "Operator") -> "Operator":
        return self._combine(other, 1)

    def __sub__(self, other: "Operator") -> "Operator":
        return self._combine(other, -1)

    def __neg__(self) -> "Operator":
        return Operator(_Valid(self._offsets, -self._values))

    def __mul__(self, scalar) -> "Operator":
        return Operator(_Valid(self._offsets, self._values * complex(scalar)))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Operator":
        return self * (1.0 / complex(scalar))

    def __matmul__(self, other: "Operator") -> "Operator":
        """Entry (i, i + a + b) sums left[a][i] * right[b][i + a] over a
        ascending from 0, with products in split real arithmetic: the sums
        and rounding of scipy's CSR product."""
        self._same_dim(other)
        a, b, dim = self._offsets, other._offsets, self.dim
        if a.size * b.size > _MAX_DIAGONAL_PAIRS:
            return Operator(self.mat @ other.mat)
        offsets, table = _product_plan(tuple(a.tolist()), tuple(b.tolist()), dim)
        if not offsets.size:
            return Operator(_Valid(offsets, np.zeros((0, dim), dtype=np.complex128)))
        # Real and imaginary parts of right[b_j][i + a_k] at [j, k, i].
        pad = int(np.abs(a).max(initial=0))
        padded = np.zeros((2, b.size, dim + 2 * pad))
        padded[0, :, pad:pad + dim] = other._values.real
        padded[1, :, pad:pad + dim] = other._values.imag
        rr, ri = padded.take(pad + a[:, None] + np.arange(dim), axis=2)
        lr, li = self._values.real, self._values.imag
        terms = np.zeros((2, b.size * a.size + 1, dim))
        tr, ti = terms[:, :-1].reshape(2, b.size, a.size, dim)
        np.subtract(lr * rr, li * ri, out=tr)
        np.add(lr * ri, li * rr, out=ti)
        parts = terms[:, table]
        total = parts[:, :, 0]
        for r in range(1, table.shape[1]):
            total = total + parts[:, :, r]
        out = np.empty(total.shape[1:], dtype=np.complex128)
        out.real, out.imag = total
        return Operator(_Valid(offsets, out))

    def __repr__(self) -> str:
        return f"Operator(dim={self.dim})"


def from_entries(dim: int, rows, cols, values) -> Operator:
    """Operator with the given entries at distinct positions (others 0)."""
    return Operator(_entries_to_diagonals(dim, np.asarray(rows), np.asarray(cols), values))


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


def identity(dim: int) -> Operator:
    return Operator(_Valid(np.zeros(1, dtype=np.int64), np.ones((1, dim), dtype=np.complex128)))


def annihilator(space: FockSpace) -> Operator:
    """Lowering operator with <m|b|n> = sqrt(n) for m = n-1."""
    root = np.sqrt(np.arange(1, space.levels, dtype=np.float64))
    return Operator(_Valid(np.ones(1, dtype=np.int64), np.append(root, 0.0)[None, :]))


def adjoint(a: Operator) -> Operator:
    return a.dag()


def commutator(a: Operator, b: Operator) -> Operator:
    return a @ b - b @ a


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product; index convention (m, n) -> m * dim(b) + n."""
    return Operator(scipy.sparse.kron(a.mat, b.mat))


def expm(h: TridiagonalBlocks, t: float) -> list[np.ndarray]:
    """exp(-i t J) of each block J of h, as a dense array in the block's
    basis order: with J = V diag(w) V^T it is V e^(-i t w) V^T.  t = 0
    gives identities exactly.  Callers whose generator is S J S^dag for a
    diagonal phase S multiply the phases in themselves."""
    if t == 0.0:
        return [np.eye(diag.size, dtype=np.complex128) for _, diag, _ in h.blocks]
    out = []
    for _, diag, off in h.blocks:
        w, v = scipy.linalg.eigh_tridiagonal(diag, off)
        out.append((v * np.exp(-1j * t * w)) @ v.T)
    return out


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
