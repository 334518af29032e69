"""Reports that must stay byte-identical across performance changes.

``tests/golden/`` holds ``--no-timestamp`` reports of four N = 12 and
N = 32 requests.  Their numbers come from sparse products, sums and
norms alone (no LAPACK call), so on one machine and scipy version every
byte is reproducible; a change of scipy's sparse kernels may require
regenerating them, by running the requests below with ``--out``.
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
}


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main([*REQUESTS[name], "--no-timestamp", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
