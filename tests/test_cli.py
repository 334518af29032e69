import dataclasses
import json
import math
import os
import sys
import tracemalloc
import warnings

import pytest

from moyal_lab import cli, moyal_rep
from moyal_lab.cli import _sweep_row, algebra_residuals, fmt, main, parse_config_file
from moyal_lab.moyal_rep import HSSpace, ModelConfig
from moyal_lab.operator_core import Operator
from moyal_lab.schwinger_su2 import schwinger_noncommutative


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

    def test_flag_replaces_file_grid(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("mu = 0.5\nmu = 1.0\ntheta = 1\ntruncation = 8\n")
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--config", str(cfg), "--mu", "2", "--no-timestamp", "--out", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["2"]

    @pytest.mark.parametrize("line", ["truncaton = 64", "jobs = 2"])
    def test_unknown_key_rejected(self, tmp_path, capsys, line):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(f"model = h1\n{line}\n")
        out = tmp_path / "never.json"
        assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
        assert repr(line.split()[0]) in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("command", ["algebra", "spectrum"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        out = tmp_path / "missing_dir" / "report.json"
        assert main([command, "--truncation", "8", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(out) in err
        assert "Traceback" not in err

    def test_jobs_flag_rejected(self, capsys):
        assert main(["sweep", "--jobs", "2", "--truncation", "8"]) == 2

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


class TestParserReuse:
    """main builds its parser once per process; no call may leak into the next."""

    def test_appended_grid_does_not_leak(self, tmp_path, capsys):
        grid = tmp_path / "grid.csv"
        single = tmp_path / "single.csv"
        tail = ["--truncation", "8", "--no-timestamp"]
        assert main(["sweep", "--mu", "1", "--mu", "2", *tail, "--out", str(grid)]) == 0
        assert main(["sweep", *tail, "--out", str(single)]) == 0
        assert len(grid.read_text().strip().splitlines()) == 3
        assert len(single.read_text().strip().splitlines()) == 2  # header + one row

    def test_valid_call_after_parser_error(self, tmp_path, capsys):
        assert main(["sweep", "--truncation", "8", "--no-such-flag"]) == 2
        assert main(["algebra", "--truncation", "4", "--out", str(tmp_path / "a.json")]) == 0

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        builds = []
        real_build = cli._build_parser

        def counting_build():
            builds.append(1)
            return real_build()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "_build_parser", counting_build)
        for _ in range(3):
            assert main(["algebra", "--truncation", "4", "--out", str(tmp_path / "a.json")]) == 0
        assert builds == [1]


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

    def test_sector_commands_build_no_dense_operator(self, tmp_path, capsys, monkeypatch):
        # spectrum and converge solve J3 sectors, so neither builds an
        # Operator nor the representation.
        built = []
        operator_init, real_build_rep = Operator.__init__, moyal_rep.build_rep

        def counting_init(self, mat):
            built.append("Operator")
            operator_init(self, mat)

        def counting_build_rep(hs):
            built.append("build_rep")
            return real_build_rep(hs)

        monkeypatch.setattr(Operator, "__init__", counting_init)
        for name, module in list(sys.modules.items()):
            if name.startswith("moyal_lab") and hasattr(module, "build_rep"):
                monkeypatch.setattr(module, "build_rep", counting_build_rep)
        spectrum = ["spectrum", "--model", "h3", "--truncation", "256"]
        assert main([*spectrum, "--out", str(tmp_path / "h3.json")]) == 0
        assert main(["converge", "--model", "h2", "--out", str(tmp_path / "h2.csv")]) == 0
        assert built == []


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
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
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

    def test_large_ground_runs_in_its_sector(self, tmp_path, capsys):
        # required_levels is 403 here.  The flow runs in the m = n sector
        # (padded past N and cut back) and the spectrum in J3 sectors, so no
        # N^2 x N^2 operator is built, and every gate passes.
        out = tmp_path / "ground.json"
        tracemalloc.start()
        try:
            rc = main(["ground", "--model", "h2", "--mu", "10", "--omega", "10", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert json.loads(out.read_text())["params"]["N"] == 403
        assert peak < 64 * 2**20

    def test_oversized_ground_exits_before_allocating(self, tmp_path, capsys, monkeypatch):
        # required_levels is 40,296 here: the closed-form state alone would
        # take 24 GiB.  On a machine that reports 8 GiB the ground guard names
        # N and exits before allocating.
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "ground.json"
        tracemalloc.start()
        try:
            rc = main(["ground", "--model", "h2", "--mu", "100", "--omega", "100", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "N=40296" in capsys.readouterr().err
        assert peak < 64 * 2**20
        assert not out.exists()

    def test_oversized_symmetry_exits_before_allocating(self, tmp_path, capsys, monkeypatch):
        # The symmetry suite needs the representation: at N = 4000 its ten
        # sparse operators are estimated at 14.3 GiB.  On a machine that
        # reports 8 GiB the guard names N and exits before allocating.
        pages = {"SC_PHYS_PAGES": 2**21, "SC_PAGE_SIZE": 2**12}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        out = tmp_path / "symmetry.json"
        tracemalloc.start()
        try:
            rc = main(["symmetry", "--truncation", "4000", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert "N=4000" in capsys.readouterr().err
        assert peak < 64 * 2**20
        assert not out.exists()

    def test_saturated_angle_ground_rejected(self, tmp_path, capsys):
        # phi = -46.4: tanh(phi) rounds to -1, so no truncation meets the
        # ground-state tail bound.
        out = tmp_path / "ground.json"
        args = ["--mu", "1e-20", "--omega", "1e-20", "--theta", "1", "--out", str(out)]
        assert main(["ground", "--model", "h2", *args]) == 2
        assert "tail bound" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["symmetry", "--theta", "1e300"],
            ["spectrum", "--model", "h2", "--omega", "1e200"],
            ["sweep", "--omega", "1e200"],
            ["converge", "--model", "h3", "--theta", "1e300"],
            ["algebra", "--theta", "1e-300"],
            ["algebra", "--theta", "1e200"],
        ],
    )
    def test_overflowing_parameters_exit_2(self, tmp_path, capsys, argv):
        # These overflow in the parameter identities or in numpy (a norm of
        # the algebra gate), or underflow both product norms of that gate to
        # 0: one error line each, and no numpy warning first.
        out = tmp_path / "report"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--out", str(out)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: parameters outside the floating-point range")
        assert len(err.splitlines()) == 1
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
        assert all(resid <= 1e-12 for _, resid, _ in rows)

    @pytest.mark.parametrize("levels", [12, 128])
    def test_gate_is_relative(self, levels, capsys, tmp_path):
        # Rounding leaves absolute residuals that grow with the block (up to
        # 2.4e-12 at N = 128) but relative ones near 2e-16 at every N.
        out = tmp_path / "algebra.json"
        assert main(["algebra", "--truncation", str(levels), "--out", str(out)]) == 0
        relations = json.loads(out.read_text())["relations"]
        assert all(r["pass"] and r["relative_residual"] <= 1e-15 for r in relations)
        lines = capsys.readouterr().out.splitlines()
        assert [float(line.split()[1]) for line in lines] == [r["residual"] for r in relations]

    @pytest.mark.parametrize("levels", [12, 128])
    def test_perturbed_representation_fails(self, levels, capsys, monkeypatch):
        from moyal_lab import cli

        real_build_rep = cli.build_rep
        def flipped(hs):
            rep = real_build_rep(hs)
            return dataclasses.replace(rep, P2=-rep.P2)

        monkeypatch.setattr(cli, "build_rep", flipped)
        assert main(["algebra", "--truncation", str(levels)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[2] for line in lines if line.startswith("FAIL")] == ["[X2, P2] - i", "[X2c, P2] - i"]


class TestSparseCost:
    def _count_build_rep(self, monkeypatch):
        calls = []
        real_build_rep = moyal_rep.build_rep

        def counting_build_rep(hs):
            calls.append(hs.levels)
            return real_build_rep(hs)

        for name, module in list(sys.modules.items()):
            if name.startswith("moyal_lab") and hasattr(module, "build_rep"):
                monkeypatch.setattr(module, "build_rep", counting_build_rep)
        return calls

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--mu", "1.3", "--omega", "0.8", "--theta", "0.7", "--truncation", "10"],
            ["symmetry", "--mu", "1.3", "--omega", "0.8", "--theta", "0.7", "--truncation", "10"],
            [
                "sweep", "--mu", "1.3", "--mu", "0.6", "--omega", "0.8", "--omega", "1.7",
                "--theta", "0.7", "--theta", "1.9", "--truncation", "10",
            ],
        ],
    )
    def test_one_representation_per_request(self, argv, monkeypatch, tmp_path, capsys):
        # One representation per theta: a sweep shares it between the
        # (mu, omega) points at that theta.
        calls = self._count_build_rep(monkeypatch)
        out = tmp_path / "report"
        assert main([*argv, "--no-timestamp", "--out", str(out)]) == 0
        assert calls == [10] * argv.count("--theta")
        if argv[0] == "sweep":
            grid = {f: [float(v) for k, v in zip(argv, argv[1:]) if k == f] for f in ("--mu", "--omega", "--theta")}
            expected = []
            for mu in grid["--mu"]:
                for omega in grid["--omega"]:
                    for theta in grid["--theta"]:
                        hs = HSSpace(ModelConfig(theta=theta, truncation=10))
                        rep = moyal_rep.build_rep(hs)
                        expected.append(_sweep_row(mu, omega, hs, rep, schwinger_noncommutative(hs, rep)))
            assert out.read_text().splitlines()[1:] == expected

    def test_large_truncations_stay_small(self, tmp_path, capsys):
        # One dense N^2 x N^2 operator would take 4 GiB at N = 128 and
        # 256 MiB at N = 64.  The algebra request runs first: a build that
        # refuses N = 128 stops here before attempting the symmetry one.
        for argv in (["algebra", "--truncation", "128"], ["symmetry", "--truncation", "64"]):
            tracemalloc.start()
            try:
                rc = main([*argv, "--out", str(tmp_path / "report.json")])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0, argv
            assert peak < 64 * 2**20, argv
