import json
import math
import tracemalloc

import pytest

from moyal_lab.cli import algebra_residuals, fmt, main, parse_config_file
from moyal_lab.moyal_rep import HSSpace, ModelConfig


class TestConfigFile:
    def test_basic_keys_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# oscillator run\n"
            "model = h2\n"
            "mu = 1.5   # bare mass\n"
            "\n"
            "theta = 0.5\n"
        )
        vals = parse_config_file(str(cfg))
        assert vals == {"model": ["h2"], "mu": ["1.5"], "theta": ["0.5"]}

    def test_repeated_keys_accumulate(self, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("mu = 0.5\nmu = 1.0\nmu = 2.0\n")
        assert parse_config_file(str(cfg))["mu"] == ["0.5", "1.0", "2.0"]

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just a line without equals\n")
        with pytest.raises(ValueError):
            parse_config_file(str(cfg))

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model = h3\ntheta = 2.0\ntruncation = 10\n")
        out = tmp_path / "report.json"
        rc = main(
            [
                "symmetry",
                "--config",
                str(cfg),
                "--theta",
                "1.0",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["params"]["theta"] == 1.0  # flag wins
        assert payload["params"]["N"] == 10  # file value kept


class TestExitCodes:
    def test_algebra_default_passes(self, capsys):
        assert main(["algebra", "--truncation", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 13
        assert all(line.startswith("PASS") for line in lines)

    def test_algebra_minimal_truncation(self, capsys):
        assert main(["algebra", "--truncation", "4"]) == 0

    def test_theta_zero_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        rc = main(["algebra", "--theta", "0", "--out", str(out)])
        assert rc == 2
        assert "theta must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_below_minimum(self, capsys):
        assert main(["spectrum", "--truncation", "6"]) == 2

    def test_unknown_model_rejected_by_parser(self, capsys):
        assert main(["spectrum", "--model", "h9"]) == 2

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mu = \n")
        assert main(["spectrum", "--config", str(cfg)]) == 2

    def test_spectrum_threshold_failure(self, capsys):
        # Deep in the strong-coupling regime the N=12 truncation is far
        # from converged, so the residual gate must trip.
        rc = main(
            [
                "spectrum",
                "--model",
                "h3",
                "--mu",
                "0.5",
                "--omega",
                "3",
                "--theta",
                "0.2",
                "--truncation",
                "12",
                "--no-timestamp",
            ]
        )
        assert rc == 1


class TestSpectrumCommand:
    def test_h3_lowest_level_in_report(self, tmp_path, capsys):
        out = tmp_path / "h3.json"
        rc = main(
            ["spectrum", "--model", "h3", "--truncation", "24", "--no-timestamp", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["numeric"][0] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-8)

    def test_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "h1.csv"
        rc = main(
            [
                "spectrum",
                "--model",
                "h1",
                "--truncation",
                "12",
                "--format",
                "csv",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,mu,omega,theta,N,level_index,numeric,analytic,residual"
        first = lines[1].split(",")
        assert first[0] == "h1"
        assert int(first[5]) == 0
        assert float(first[8]) <= 1e-12

    def test_commutative_ladder(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        rc = main(
            [
                "spectrum",
                "--model",
                "commutative",
                "--truncation",
                "12",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["numeric"][:6] == pytest.approx([1, 2, 2, 3, 3, 3], abs=1e-10)

    def test_h3_at_large_truncation(self, tmp_path, capsys):
        out = tmp_path / "h3.json"
        rc = main(
            ["spectrum", "--model", "h3", "--truncation", "256", "--no-timestamp", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["compared_levels"] > 1000
        # Variational: no level below its exact value beyond rounding.
        for num, ana in zip(payload["numeric"], payload["analytic"]):
            assert num >= ana - 1e-12 * max(1.0, abs(ana))


class TestSweepCommand:
    def test_critical_point_row(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--mu",
                "1",
                "--omega",
                "2",
                "--theta",
                "1",
                "--truncation",
                "10",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["phi"]) == pytest.approx(0.0, abs=1e-14)
        assert float(row["h2_su2_residual_max"]) <= 1e-10
        assert float(row["lambda_identity"]) == pytest.approx(1.0, abs=1e-12)

    def test_grid_rows_deterministic(self, tmp_path, capsys):
        args = [
            "sweep",
            "--mu",
            "0.5",
            "--mu",
            "1.0",
            "--theta",
            "1",
            "--truncation",
            "8",
            "--no-timestamp",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1), "--jobs", "1"]) == 0
        assert main(args + ["--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text().strip().splitlines()
        assert len(body) == 3  # header + 2 grid points
        assert [r.split(",")[0] for r in body[1:]] == ["0.5", "1"]

    def test_identity_column_every_row(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        rc = main(
            [
                "sweep",
                "--mu",
                "0.5",
                "--mu",
                "2",
                "--omega",
                "1",
                "--omega",
                "3",
                "--truncation",
                "8",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        col = header.index("lambda_identity")
        for row in lines[1:]:
            assert float(row.split(",")[col]) == pytest.approx(1.0, abs=1e-12)


class TestSymmetryGroundConverge:
    def test_symmetry_report(self, tmp_path, capsys):
        out = tmp_path / "sym.json"
        rc = main(
            ["symmetry", "--truncation", "12", "--no-timestamp", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["zeeman_difference_residual"] <= 1e-10
        r1, r2, r3 = payload["su2_residuals"]
        assert r1 > 0.01 and r2 > 0.01
        assert r3 <= 1e-10

    def test_ground_critical_point(self, tmp_path, capsys):
        out = tmp_path / "ground.json"
        rc = main(
            [
                "ground",
                "--model",
                "h2",
                "--mu",
                "1",
                "--omega",
                "2",
                "--theta",
                "1",
                "--truncation",
                "12",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["phi"] == pytest.approx(0.0, abs=1e-14)
        assert payload["ground_overlap"] >= 1.0 - 1e-10

    def test_converge_critical_h2(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(
            [
                "converge",
                "--model",
                "h2",
                "--mu",
                "1",
                "--omega",
                "2",
                "--theta",
                "1",
                "--truncation",
                "8",
                "--truncation",
                "12",
                "--truncation",
                "16",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "model,mu,omega,theta,N,max_abs_residual"
        assert [int(r.split(",")[4]) for r in lines[1:]] == [8, 12, 16]
        assert all(float(r.split(",")[5]) <= 1e-12 for r in lines[1:])

    def test_converge_to_large_truncation(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        rc = main(
            [
                "converge",
                "--truncation",
                "32",
                "--truncation",
                "64",
                "--truncation",
                "128",
                "--no-timestamp",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
        assert [int(r[4]) for r in rows] == [32, 64, 128]
        assert all(float(r[5]) <= 1e-8 for r in rows)


class TestInfeasibleInputs:
    def test_strong_coupling_ground_rejected(self, tmp_path, capsys):
        # mu omega theta / 2 = 5e9: the h3 cheap-mode spacing is 1e-5 on
        # levels near 1e15, below double precision, so the ground level is
        # numerically degenerate.
        out = tmp_path / "ground.json"
        args = ["--mu", "1e5", "--omega", "1e5", "--theta", "1", "--no-timestamp", "--out", str(out)]
        assert main(["ground", "--model", "h3", *args]) == 2
        assert "degenerate" in capsys.readouterr().err

    def test_strong_coupling_sweep_runs(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        args = ["--mu", "1e5", "--omega", "1e5", "--theta", "1", "--truncation", "12"]
        assert main(["sweep", *args, "--no-timestamp", "--out", str(out)]) == 0
        header, row = out.read_text().strip().splitlines()
        assert dict(zip(header.split(","), row.split(",")))["mu"] == "100000"

    def test_oversized_ground_exits_before_allocating(self, tmp_path, capsys):
        # required_levels is 403 here: one dense operator would take 393 GiB.
        out = tmp_path / "ground.json"
        tracemalloc.start()
        try:
            rc = main(["ground", "--model", "h2", "--mu", "10", "--omega", "10", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "N=403" in capsys.readouterr().err
        assert peak < 64 * 2**20
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_without_timestamp(self, tmp_path, capsys):
        args = ["symmetry", "--truncation", "10", "--no-timestamp"]
        out1 = tmp_path / "one.json"
        out2 = tmp_path / "two.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_timestamp_field_toggle(self, tmp_path, capsys):
        out = tmp_path / "stamped.json"
        assert main(["symmetry", "--truncation", "10", "--out", str(out)]) == 0
        assert "timestamp" in json.loads(out.read_text())
        assert main(["symmetry", "--truncation", "10", "--no-timestamp", "--out", str(out)]) == 0
        assert "timestamp" not in json.loads(out.read_text())

    def test_fmt_seventeen_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"
        assert float(fmt(math.pi)) == math.pi


class TestAlgebraResiduals:
    @pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
    def test_all_relations_tiny(self, theta):
        hs = HSSpace(ModelConfig(theta=theta, truncation=12))
        rows = algebra_residuals(hs)
        assert len(rows) == 13
        assert all(resid <= 1e-12 for _, resid in rows)
