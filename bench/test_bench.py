"""Tests of the benchmark itself: oracle, request generator and tracing."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _spectrum_request(**overrides) -> dict:
    # h2 at its critical point mu = omega / 2 = 1 / sqrt(theta) is diagonal,
    # so every compared level is exact at any truncation.
    p = {"model": "h2", "mu": 1.0, "omega": 2.0, "theta": 1.0, "N": 8, **overrides}
    argv = ["spectrum", "--model", p["model"], "--mu", repr(p["mu"]), "--omega", repr(p["omega"]),
            "--theta", repr(p["theta"]), "--truncation", str(p["N"]), "--no-timestamp"]
    return {"id": 0, "kind": "spectrum", "argv": argv, "params": p}


def _tamper(outcome: run.Outcome, edit) -> run.Outcome:
    """Outcome whose spectrum report has been edited, residual kept consistent."""
    body, summary = oracle._split_report(outcome.stdout)
    data = json.loads(body)
    edit(data)
    data["max_abs_residual"] = max(abs(x - a) for x, a in zip(data["numeric"], data["analytic"]))
    rc = 1 if data["max_abs_residual"] > oracle.SPECTRUM_GATE else 0
    return run.Outcome(rc=rc, stdout=json.dumps(data) + "\n" + summary + "\n")


@pytest.fixture(scope="module")
def spectrum():
    req = _spectrum_request()
    outcome = run.execute(req)
    assert oracle.check(req, outcome) == []
    return req, outcome


def test_oracle_rejects_shifted_level(spectrum):
    req, outcome = spectrum

    def shift(data):
        data["numeric"][3] += 0.25

    assert oracle.check(req, _tamper(outcome, shift))


def test_oracle_rejects_inconsistent_residual(spectrum):
    req, outcome = spectrum
    body, summary = oracle._split_report(outcome.stdout)
    data = json.loads(body)
    data["numeric"][3] += 1e-3
    bad = run.Outcome(rc=outcome.rc, stdout=json.dumps(data) + "\n" + summary + "\n")
    assert any("max_abs_residual" in p for p in oracle.check(req, bad))


def test_oracle_rejects_wrong_analytic_list(spectrum):
    req, outcome = spectrum

    def wrong(data):
        data["analytic"][1] *= 1.01
        data["numeric"][1] = data["analytic"][1]

    assert any("closed form" in p for p in oracle.check(req, _tamper(outcome, wrong)))


def test_oracle_rejects_non_variational_level(spectrum):
    req, outcome = spectrum

    def lower(data):
        data["numeric"][2] = data["analytic"][2] - 1e-6

    assert any("not variational" in p for p in oracle.check(req, _tamper(outcome, lower)))


def test_oracle_checks_exit_codes():
    invalid = {"id": 0, "kind": "invalid", "argv": ["sweep", "--theta", "0"], "params": {}}
    assert oracle.check(invalid, run.execute(invalid)) == []
    assert oracle.check(invalid, run.Outcome(rc=0)) != []
    assert oracle.check(_spectrum_request(), run.Outcome(rc=2, stderr="error")) != []
    assert oracle.check(_spectrum_request(), run.Outcome(error="ValueError: boom")) != []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    first = workloads.build(workload, 7)
    assert first == workloads.build(workload, 7)
    assert first != workloads.build(workload, 8)
    assert json.loads(json.dumps(first)) == first


def test_draws_respect_cut():
    for req in workloads.build("flow-rotation", 3):
        p = req["params"]
        if req["kind"] == "ground":
            need = oracle.required_levels(oracle.phi_angle(p["model"], p["mu"], p["omega"], p["theta"]))
            assert need <= workloads.MAX_LEVELS


def _tiny_requests() -> list[dict]:
    def cli(*argv):
        return list(argv) + ["--theta", "1.0", "--truncation", "8", "--no-timestamp"]

    reqs = [
        {"kind": "spectrum", "argv": _spectrum_request()["argv"], "params": _spectrum_request()["params"]},
        {"kind": "sweep", "argv": cli("sweep", "--mu", "1.0", "--omega", "1.5"),
         "params": {"mus": [1.0], "omegas": [1.5], "thetas": [1.0], "N": 8}},
        {"kind": "ground", "argv": cli("ground", "--model", "h2", "--mu", "1.0", "--omega", "2.2"),
         "params": {"model": "h2", "mu": 1.0, "omega": 2.2, "theta": 1.0, "N": 8}},
        {"kind": "covariance", "params": {"N": 8, "theta": 1.0, "lam": [0.3, -0.2, 0.9]}},
        {"kind": "dilatation", "params": {"N": 8, "theta": 1.0, "phi": -0.3, "vector_seed": 5}},
    ]
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def test_traced_self_times_fit_in_wall_time():
    from moyal_lab import cli

    original_main = cli.main
    tracer = tracing.Tracer()
    acct = run.Accounting()
    tracer.install()
    try:
        latencies = run.run_pass(_tiny_requests(), acct, tracer)
    finally:
        tracer.uninstall()
    assert cli.main is original_main
    assert acct.failed == 0, acct.failures
    metrics = tracer.layer_metrics()
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= sum(latencies)
    for name in ("operator_core.eig.calls", "operator_core.expm.calls", "moyal_rep.build_rep.calls",
                 "schwinger_su2.rotation.calls", "symmetry_lab.theta_conjugate.calls"):
        assert metrics[name] > 0, name
    assert metrics["operator_core.operator.bytes"] >= 16 * metrics["operator_core.operator.count"] > 0
    assert {s[4] for s in tracer.spans} == set(range(5))


def test_benchmark_json_matches_metrics():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    passes = [(i % 2 == 1, [0.5, 1.0, 2.0], tracing.Tracer().layer_metrics() if i % 2 else None)
              for i in range(run.MIN_PASSES)]
    assert {m["name"] for m in spec["per_layer"]} <= set(run.per_layer(passes)[0])
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.end_to_end(passes, [0.4])[0])


def test_tail_quantile_leaves_ten_beyond():
    q = run.tail_quantile(13)
    values = list(range(13 * run.MIN_PASSES))
    assert sum(v > run.nearest_rank(values, q) for v in values) == run.TAIL_BEYOND
    assert math.isclose(q, 1 - 10 / (13 * run.MIN_PASSES))


def test_refuses_to_run_without_sources(tmp_path):
    # A directory holding only BENCHMARK.json and the benchmark itself.
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "spectroscopy",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
