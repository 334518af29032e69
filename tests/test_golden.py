"""Reports that must stay byte-identical across performance changes.

``tests/golden/`` holds ``--no-timestamp`` reports of the fourteen requests
below.  The ``algebra``, ``symmetry`` and ``sweep`` reports (N = 9, 12, 32,
33, 96 and 128, two thetas in each sweep) come from numpy products on the
operators' stored diagonals and numpy sums and norms on aligned safe-block
values, with no LAPACK call.  The ``ground``, ``spectrum`` and ``converge``
reports add LAPACK's tridiagonal eigensolver on the J3 sectors, and
``ground`` the ground-state flow.  On one machine and numpy and scipy
version every byte is reproducible; a change of those kernels may require
regenerating them, by running the requests below with ``--no-timestamp``
and ``--out``.
"""

from pathlib import Path

import pytest

from moyal_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"

REQUESTS = {
    "sweep_n12.csv": [
        "sweep", "--mu", "0.8", "--mu", "1.3", "--omega", "0.9", "--omega", "1.6",
        "--theta", "0.7", "--theta", "1.4", "--truncation", "12", "--format", "csv",
    ],
    "symmetry_n12.json": ["symmetry", "--mu", "1.3", "--omega", "0.8", "--theta", "0.7", "--truncation", "12"],
    "algebra_n12.json": ["algebra", "--theta", "0.7", "--truncation", "12"],
    "algebra_n32.json": ["algebra", "--theta", "1.3", "--truncation", "32"],
    "sweep_n9.csv": [
        "sweep", "--mu", "0.6", "--mu", "1.7", "--omega", "1.1",
        "--theta", "0.45", "--theta", "2.2", "--truncation", "9", "--format", "csv",
    ],
    "symmetry_n33.json": ["symmetry", "--mu", "0.9", "--omega", "1.7", "--theta", "2.2", "--truncation", "33"],
    "algebra_n128.json": ["algebra", "--theta", "0.7", "--truncation", "128"],
    "symmetry_n96.json": ["symmetry", "--mu", "1.1", "--omega", "0.7", "--theta", "1.9", "--truncation", "96"],
    "ground_h3_n24.json": [
        "ground", "--model", "h3", "--mu", "1", "--omega", "1", "--theta", "1", "--truncation", "24",
    ],
    "ground_h2_n40.json": [
        "ground", "--model", "h2", "--mu", "2", "--omega", "2", "--theta", "1", "--truncation", "40",
    ],
    "spectrum_h3_n256.json": ["spectrum", "--model", "h3", "--truncation", "256"],
    "spectrum_h2_n64.csv": [
        "spectrum", "--model", "h2", "--mu", "2", "--omega", "0.7", "--theta", "1.3",
        "--truncation", "64", "--format", "csv",
    ],
    "converge_h3.csv": ["converge", "--model", "h3", "--mu", "1.2", "--omega", "0.8", "--theta", "0.9"],
    "converge_h2.csv": [
        "converge", "--model", "h2", "--mu", "2", "--omega", "0.7", "--theta", "1.3",
        "--truncation", "12", "--truncation", "24", "--truncation", "48",
    ],
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*REQUESTS[name], "--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
