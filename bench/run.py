"""moyal-lab benchmark: one workload, one seed, one closed-loop client.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload spectroscopy --seed 1 --seconds 30 --trace 0

The run imports ``moyal_lab`` from ``src/`` of this checkout, builds the
workload's request list from the seed (``workloads.py``), and sends the
requests one after another, in process, to ``moyal_lab.cli.main(argv)``
and to public library functions.  The list is replayed in passes until
the next pass would end after ``--seconds`` (at least ``MIN_PASSES``).
Every outcome is checked against the physics oracle (``oracle.py``)
outside the timed interval.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics
(``tracing.py``) with the tracing overhead.  A JSON report (request list,
environment, failures, gate failures) precedes the result, which is the
last line of standard output.  Exit code 2 means the benchmark could not
run, for example because ``src/moyal_lab`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Metric names and units, in print order.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

MIN_PASSES = 3
# Tail latency: the highest percentile with at least this many requests
# beyond it in MIN_PASSES passes.  Fixed per workload, so that a run
# with more passes reports the same percentile.
TAIL_BEYOND = 10
SETUP_STARTS = 5
WARMUP_ARGV = ["spectrum", "--model", "h1", "--truncation", "8", "--no-timestamp"]

# A fresh interpreter: import the CLI, answer one tiny request, then
# print the clock (perf_counter is system-wide on Linux).
SETUP_SNIPPET = f"""
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import moyal_lab.cli
with contextlib.redirect_stdout(io.StringIO()):
    moyal_lab.cli.main({WARMUP_ARGV!r})
print(repr(time.perf_counter()))
"""


@dataclass
class Outcome:
    rc: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str | None = None


def execute(req: dict) -> Outcome:
    """Send one request to the program; exceptions become failed outcomes."""
    from moyal_lab import bogoliubov_flow, cli, moyal_rep, schwinger_su2

    try:
        if "argv" in req:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(req["argv"]))
            return Outcome(rc=rc, stdout=out.getvalue(), stderr=err.getvalue())
        p = req["params"]
        hs = moyal_rep.HSSpace(moyal_rep.ModelConfig(theta=p["theta"], truncation=p["N"]))
        if req["kind"] == "dilatation":
            return Outcome(value=bogoliubov_flow.dilatation_unitary(hs, p["phi"]))
        rep = moyal_rep.build_rep(hs)
        gens = schwinger_su2.schwinger_noncommutative(hs)
        basis = moyal_rep.dimensionless(rep, hs.theta).four_tuple()
        cov = schwinger_su2.covariance_residual(gens, basis, p["lam"], hs)
        noncov = schwinger_su2.position_noncovariance(gens, rep.X1, rep.X2, p["lam"], hs)
        return Outcome(value={
            "rotation_residual": cov.rotation_residual,
            "span_residual": cov.span_residual,
            "position_noncovariance": noncov,
        })
    except Exception as exc:  # a raising request is a failed request
        return Outcome(error=f"{type(exc).__name__}: {exc} at {traceback.extract_tb(exc.__traceback__)[-1]}")


class Accounting:
    """Failures and gate failures over every attempt of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.valid = 0
        self.failures: dict[int, list[str]] = {}
        self.failed = 0
        self.gate_failed = 0
        self.gate_causes: dict[int, str] = {}

    def record(self, req: dict, outcome: Outcome) -> None:
        self.attempted += 1
        self.valid += req["kind"] != "invalid"
        problems = oracle.check(req, outcome)
        if problems:
            self.failed += 1
            self.failures.setdefault(req["id"], problems)
            return
        cause = oracle.gate_cause(req, outcome)
        if cause is not None:
            self.gate_failed += 1
            self.gate_causes.setdefault(req["id"], cause)

    def report(self) -> dict:
        return {
            "error_rate": {"failed": self.failed, "attempted": self.attempted,
                           "value": self.failed / self.attempted},
            "gate_fail_rate": {"gate_failed": self.gate_failed, "valid": self.valid,
                               "value": self.gate_failed / self.valid if self.valid else 0.0},
            "failures": {str(k): v for k, v in sorted(self.failures.items())},
            "gate_failures": {str(k): v for k, v in sorted(self.gate_causes.items())},
        }


def run_pass(requests: list[dict], acct: Accounting, tracer: tracing.Tracer | None = None) -> list[float]:
    """Latency of each request; oracle checks run between the timed calls."""
    latencies = []
    for req in requests:
        if tracer is not None:
            tracer.request_id = req["id"]
        start = perf_counter()
        outcome = execute(req)
        latencies.append(perf_counter() - start)
        acct.record(req, outcome)
    return latencies


def run_passes(requests, seconds, acct, tracer=None):
    """Passes until the next one would end after ``seconds``.

    With a tracer, passes alternate untraced / traced and the tracer is
    installed only for the traced ones.  Returns a list of
    ``(traced, latencies, layer metrics or None)``.
    """
    passes = []
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        layers = None
        if traced:
            tracer.reset()
            tracer.install()
            try:
                latencies = run_pass(requests, acct, tracer)
            finally:
                tracer.uninstall()
            layers = tracer.layer_metrics()
        else:
            latencies = run_pass(requests, acct)
        passes.append((traced, latencies, layers))
        elapsed = perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(requests_per_pass: int) -> float:
    return 1.0 - TAIL_BEYOND / (MIN_PASSES * requests_per_pass)


def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter to the end of its warm-up request."""
    times = []
    for _ in range(SETUP_STARTS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def _blas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_int
                return getattr(lib, symbol)()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _last_level_cache() -> str:
    best = (0, "unknown")
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            with open(f"{index}/level", encoding="utf-8") as fh:
                level = int(fh.read())
            with open(f"{index}/size", encoding="utf-8") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, f"L{level} {size}"))
    return best[1]


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
    }


def end_to_end(passes, setup_times) -> tuple[dict, dict]:
    """End-to-end metrics and the details printed with them.

    Each request's latency is its median over the passes, which drops
    one-time costs of the first (cold) pass and a request slowed once by
    a noisy neighbour.  ``wall_s`` sums these medians: the time of one
    pass over the list.  The tail percentile is taken over every attempt.
    """
    runs = [lat for _, lat, _ in passes]
    per_request = [statistics.median(samples) for samples in zip(*runs)]
    latencies = [x for lat in runs for x in lat]
    q = tail_quantile(len(per_request))
    metrics = {
        "wall_s": sum(per_request),
        "op_p50_s": statistics.median(per_request),
        "op_tail_s": nearest_rank(latencies, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }
    details = {
        "pass_wall_s": [sum(lat) for lat in runs],
        "request_median_s": per_request,
        "op_tail": {"percentile": round(100 * q, 2), "samples": len(latencies)},
        "setup_starts_s": setup_times,
    }
    return metrics, details


def per_layer(passes) -> tuple[dict, dict]:
    """Per-layer metrics and the tracing overhead.

    Layer values are the lower median over the traced passes, so counts
    stay whole numbers.
    """
    # The first pass, always untraced, also warms the process; leave it out.
    untraced = [sum(lat) for traced, lat, _ in passes[1:] if not traced]
    traced = [sum(lat) for traced, lat, _ in passes if traced]
    layer_runs = [layers for is_traced, _, layers in passes if is_traced]
    metrics = {name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    details = {"untraced_wall_s": untraced, "traced_wall_s": traced, "layers": metrics}
    return metrics, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "moyal_lab" / "cli.py").is_file():
        sys.stderr.write(f"error: no moyal_lab sources under {SRC}; run from a source checkout\n")
        return 2
    setup_times = measure_setup() if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    import moyal_lab.cli

    if Path(moyal_lab.cli.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"error: imported moyal_lab from {moyal_lab.cli.__file__}, not {SRC}\n")
        return 2

    requests = workloads.build(args.workload, args.seed)
    execute({"kind": "warmup", "argv": WARMUP_ARGV})
    acct = Accounting()
    tracer = tracing.Tracer() if args.trace else None
    passes = run_passes(requests, args.seconds, acct, tracer)
    if args.trace:
        values, details = per_layer(passes)
    else:
        values, details = end_to_end(passes, setup_times)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(),
        **details,
        **acct.report(),
        "requests": requests,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": acct.failed == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer" if args.trace else "end_to_end"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
