"""Reports that must stay byte-identical across performance changes.

``tests/golden/`` holds ``--no-timestamp`` reports of eight requests at
N = 9, 12, 32, 33, 96 and 128 (two at odd N), with two thetas in each
sweep.  Their numbers come from numpy products on the operators' stored
diagonals and from numpy sums and norms on aligned safe-block values (no
LAPACK call), so on one machine and numpy and scipy version every byte is
reproducible; a change of those kernels may require regenerating them, by
running the requests below with ``--out``.  Two ``ground`` reports (h3 at N = 24, h2 at N = 40) add
the sector eigensolver and the ground-state flow.
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
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*REQUESTS[name], "--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
