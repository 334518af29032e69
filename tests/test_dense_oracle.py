"""The sparse representation against the dense construction it replaced.

The oracle is rebuilt here from numpy alone: Kronecker products of the
N x N ladder matrix, the swap matrix S for time reversal, dense products
and ``scipy.linalg.expm``.  At N <= 12 these take a few MiB.
"""

import math

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_blocks
from moyal_lab.bogoliubov_flow import bogoliubov_pair, c_operators, dilatation
from moyal_lab.cli import algebra_residuals
from moyal_lab.moyal_rep import HSSpace, ModelConfig, build_rep, dimensionless
from moyal_lab.oscillator_models import OscParams, sector_hamiltonian
from moyal_lab.schwinger_su2 import (
    casimir_quartic,
    covariance_residual,
    phase_space_generators,
    schwinger_noncommutative,
)
from moyal_lab.symmetry_lab import theta_conjugate, time_reversal_suite

CASES = dict(
    levels=st.integers(min_value=4, max_value=12),
    theta=st.floats(min_value=0.1, max_value=10.0),
)


def dense_rep(levels: int, theta: float) -> dict[str, np.ndarray]:
    b = np.diag(np.sqrt(np.arange(1.0, levels)), k=1)
    eye = np.eye(levels)
    b_l, b_r = np.kron(b, eye), np.kron(eye, b.T)
    b_ld, b_rd = b_l.conj().T, b_r.conj().T
    s = math.sqrt(theta / 2.0)
    x1, x2 = s * (b_l + b_ld), 1j * s * (b_ld - b_l)
    p1 = (1j / math.sqrt(2.0 * theta)) * (b_ld - b_l - b_rd + b_r)
    p2 = (1.0 / math.sqrt(2.0 * theta)) * (b_rd + b_r - b_ld - b_l)
    return dict(
        B_L=b_l, B_R=b_r, B_Ldag=b_ld, B_Rdag=b_rd, X1=x1, X2=x2,
        X1c=x1 + (theta / 2.0) * p2, X2c=x2 - (theta / 2.0) * p1, P1=p1, P2=p2,
    )


def swap(levels: int) -> np.ndarray:
    s = np.zeros((levels**2, levels**2))
    for m in range(levels):
        for n in range(levels):
            s[m * levels + n, n * levels + m] = 1.0
    return s


def block(mat: np.ndarray, ix: np.ndarray) -> float:
    return float(np.linalg.norm(mat[np.ix_(ix, ix)]))


def assert_same(op, dense: np.ndarray) -> None:
    assert np.max(np.abs(op.toarray() - dense)) <= 1e-12 * max(1.0, np.abs(dense).max())


def assert_close(value: float, dense: float) -> None:
    assert abs(value - dense) <= 1e-12 * max(1.0, abs(dense))


@settings(max_examples=15, deadline=None)
@given(**CASES, phi=st.floats(min_value=-1.5, max_value=1.5))
def test_operators_match_dense(levels, theta, phi):
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rep = build_rep(hs)
    d = dense_rep(levels, theta)
    for name, mat in d.items():
        assert_same(getattr(rep, name), mat)
    gens = schwinger_noncommutative(hs)
    assert_same(gens.J1, 0.5 * (d["B_R"] @ d["B_L"] + d["B_Ldag"] @ d["B_Rdag"]))
    assert_same(gens.J2, 0.5j * (d["B_R"] @ d["B_L"] - d["B_Ldag"] @ d["B_Rdag"]))
    assert_same(gens.J3, 0.5 * (d["B_Ldag"] @ d["B_L"] - d["B_R"] @ d["B_Rdag"]))
    k = d["B_Ldag"] @ d["B_L"] + d["B_R"] @ d["B_Rdag"]
    assert_same(casimir_quartic(hs), 0.25 * k @ (k + 2.0 * np.eye(hs.dim)))
    assert_same(dilatation(hs), 1j * (d["B_Ldag"] @ d["B_R"] - d["B_L"] @ d["B_Rdag"]))
    bl_p, br_p = bogoliubov_pair(hs, phi)
    assert_same(bl_p, math.cosh(phi) * d["B_L"] + math.sinh(phi) * d["B_R"])
    assert_same(br_p, math.sinh(phi) * d["B_L"] + math.cosh(phi) * d["B_R"])
    p = OscParams(1.3, 0.7)
    mw = p.mu * p.omega
    c1, c2 = c_operators(hs, p)
    assert_same(c1, (mw * d["X1c"] + 1j * d["P1"]) / math.sqrt(2.0 * mw))
    assert_same(c2, (mw * d["X2c"] + 1j * d["P2"]) / math.sqrt(2.0 * mw))
    s = swap(levels)
    for name in ("B_L", "X1", "P2", "X2c"):
        assert_same(theta_conjugate(getattr(rep, name), hs), s @ d[name].conj() @ s)


@settings(max_examples=15, deadline=None)
@given(**CASES, mu=st.floats(min_value=0.2, max_value=3.0), omega=st.floats(min_value=0.2, max_value=3.0))
def test_residuals_match_dense(levels, theta, mu, omega):
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rep = build_rep(hs)
    d = dense_rep(levels, theta)
    eye = np.eye(hs.dim)
    ix = hs.safe_indices

    # algebra_residuals: [A, B] - c, and its size relative to AB and BA.
    pairs = {
        "[X1, X2] - i theta": ("X1", "X2", 1j * theta), "[X1, P1] - i": ("X1", "P1", 1j),
        "[X2, P2] - i": ("X2", "P2", 1j), "[X1, P2]": ("X1", "P2", 0.0), "[X2, P1]": ("X2", "P1", 0.0),
        "[P1, P2]": ("P1", "P2", 0.0), "[B_L, B_Ldag] - 1": ("B_L", "B_Ldag", 1.0),
        "[B_R, B_Rdag] + 1": ("B_R", "B_Rdag", -1.0), "[B_L, B_R]": ("B_L", "B_R", 0.0),
        "[B_L, B_Rdag]": ("B_L", "B_Rdag", 0.0), "[X1c, X2c]": ("X1c", "X2c", 0.0),
        "[X1c, P1] - i": ("X1c", "P1", 1j), "[X2c, P2] - i": ("X2c", "P2", 1j),
    }
    rows = algebra_residuals(hs)
    assert [name for name, _, _ in rows] == list(pairs)
    for name, resid, rel in rows:
        a, b, c = pairs[name]
        ab, ba = d[a] @ d[b], d[b] @ d[a]
        dense = block(ab - ba - c * eye, ix)
        assert abs(resid - dense) <= 1e-12 * max(1.0, block(ab, ix))
        assert abs(rel - dense / (block(ab, ix) + block(ba, ix))) <= 1e-14

    # time_reversal_suite: every rule through S conj(O) S.
    p = OscParams(mu, omega)
    suite = time_reversal_suite(rep, schwinger_noncommutative(hs), p, hs)
    s = swap(levels)

    def tr(mat):
        return s @ mat.conj() @ s

    x1r, x2r = 2.0 * d["X1c"] - d["X1"], 2.0 * d["X2c"] - d["X2"]
    j3 = 0.5 * (d["B_Ldag"] @ d["B_L"] - d["B_R"] @ d["B_Rdag"])
    ham2, ham3 = (dense_blocks(sector_hamiltonian(m, p, theta, levels)) for m in ("h2", "h3"))
    rules = {
        "X1L_shear": tr(d["X1"]) - (d["X1"] + theta * d["P2"]),
        "X2L_shear": tr(d["X2"]) - (d["X2"] - theta * d["P1"]),
        "X1R_shear": tr(x1r) - (x1r - theta * d["P2"]),
        "X2R_shear": tr(x2r) - (x2r + theta * d["P1"]),
        "P1_flip": tr(d["P1"]) + d["P1"],
        "P2_flip": tr(d["P2"]) + d["P2"],
        "X1c_invariant": tr(d["X1c"]) - d["X1c"],
        "X2c_invariant": tr(d["X2c"]) - d["X2c"],
        "J3_flip": tr(j3) + j3,
        "H2_invariant": tr(ham2) - ham2,
        "H3_breaking_norm": tr(ham3) - ham3,
    }
    assert set(suite.time_reversal) == set(rules)
    for name, mat in rules.items():
        assert_close(suite.time_reversal[name], block(mat, ix))
    zeeman = tr(ham3) - ham3 + 2.0 * p.mu * theta * p.omega**2 * j3
    assert_close(suite.zeeman_difference_residual, block(zeeman, ix))
    j1 = 0.5 * (d["B_R"] @ d["B_L"] + d["B_Ldag"] @ d["B_Rdag"])
    j2 = 0.5j * (d["B_R"] @ d["B_L"] - d["B_Ldag"] @ d["B_Rdag"])
    deep = hs.safe_block(depth=2)
    for value, j in zip(suite.su2_residuals, (j1, j2, j3)):
        assert_close(value, block(ham3 @ j - j @ ham3, deep))


@settings(max_examples=10, deadline=None)
@given(**CASES, lam=st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3))
def test_covariance_matches_dense(levels, theta, lam):
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rep = build_rep(hs)
    gens = schwinger_noncommutative(hs)
    basis = dimensionless(rep, theta).four_tuple()
    check = covariance_residual(gens, basis, lam, hs)

    gen = sum(l * j.toarray() for l, j in zip(lam, gens.as_tuple()))
    u = scipy.linalg.expm(-1j * gen)
    ix = np.ix_(hs.complete_shell_indices, hs.complete_shell_indices)
    cols = np.column_stack([op.toarray()[ix].ravel() for op in basis])
    rot = scipy.linalg.expm(1j * sum(l * j.toarray() for l, j in zip(lam, phase_space_generators().as_tuple())))
    rot_res = span_res = 0.0
    for a, op in enumerate(basis):
        y = (u @ op.toarray() @ u.conj().T)[ix].ravel()
        rot_res = max(rot_res, float(np.linalg.norm(y - cols @ rot[a].real)))
        coeffs, *_ = np.linalg.lstsq(cols, y, rcond=None)
        span_res = max(span_res, float(np.linalg.norm(y - cols @ coeffs)))
    # Both residuals are rounding-sized; the dense exponential rounds
    # differently from the per-shell one.
    scale = max(1.0, float(np.linalg.norm(cols)))
    assert abs(check.rotation_residual - rot_res) <= 1e-12 * scale
    assert abs(check.span_residual - span_res) <= 1e-12 * scale
