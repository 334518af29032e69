"""Shared pytest plumbing.

The acceptance tests record one pass/fail line per criterion; output
capture would otherwise hide the lines for passing criteria, so they are
replayed in the terminal summary.
"""

import numpy as np
import scipy.sparse

criterion_lines: list[str] = []


def random_diagonals(levels: int, count: int, rng: np.random.Generator):
    """Operator on the N^2-dimensional product space with ``count`` random
    diagonals: ladder offsets (+-1, +-N, +-(N +- 1), whose entries wrap
    across rows of the N x N label grid) and wide ones near +-(N^2 - 1).
    Entries are general complex numbers (some purely real or imaginary)
    with stored zeros among them."""
    from moyal_lab.operator_core import Diagonals, Operator

    dim = levels**2
    ladder = [1, levels - 1, levels, levels + 1]
    pool = np.unique([*ladder, *(-k for k in ladder), dim - 1, 2 - dim, dim // 2, *rng.integers(1 - dim, dim, 4)])
    offsets = np.sort(rng.choice(pool, size=count, replace=False))
    values = rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))
    draw = rng.random(values.shape)
    values[draw < 0.1] = 0.0
    values.real[(draw >= 0.1) & (draw < 0.2)] = 0.0
    values.imag[(draw >= 0.2) & (draw < 0.3)] = 0.0
    cols = np.arange(dim) + offsets[:, None]
    values[(cols < 0) | (cols >= dim)] = 0.0
    return Operator(Diagonals(offsets, values))


def assert_same_csr(got, ref) -> None:
    """``got`` (a canonical CSR matrix, as ``Operator.mat`` gives) equals the
    scipy matrix ``ref`` in pattern and entries, bit for bit; stored zeros
    aside, which ``Operator`` does not keep."""
    ref = scipy.sparse.csr_array(ref)
    ref.sum_duplicates()
    ref.eliminate_zeros()
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, part), getattr(ref, part)), part


def dense_blocks(h) -> np.ndarray:
    """The ``TridiagonalBlocks`` h as a dense real matrix, block by block."""
    mat = np.zeros((h.dim, h.dim))
    for index, diag, off in h.blocks:
        mat[index, index] = diag
        mat[index[:-1], index[1:]] = off
        mat[index[1:], index[:-1]] = off
    return mat


def record_criterion(line: str) -> None:
    criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if criterion_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in criterion_lines:
            terminalreporter.write_line(line)
