"""Physics oracle for benchmark requests.

Every check here is computed from the benchmark's own closed forms and
never from the package under test, so a speed-up that changes the
physics is counted as a failed request.  ``check`` returns a list of
problems (empty means the output is correct); ``gate_cause`` explains a
valid request on which the CLI's own threshold check exited 1, which is
reported but is not an error.

Tolerances, each stated once:

* ``CLOSED_FORM_RTOL``: reported closed-form numbers (analytic levels,
  renormalized parameters, Bogoliubov angles) against the oracle's own
  formulas, relative to ``max(1, |value|)``.
* ``VARIATIONAL_RTOL``: a numeric level may sit below its exact level by
  at most this share of ``max(1, |level|)``.  The package compresses the
  infinite Hamiltonian exactly, so truncated levels approach the exact
  ones from above; a negative gap beyond eigensolver rounding means the
  representation is wrong.
* ``CONVERGED_RTOL``: for the drawn parameters (see ``workloads``) and
  N >= 24, every compared level lies within this share of its exact
  value (relative to ``max(1, |level|)``).  The worst seen on the seed
  code over 40 seeds is 1e-4; a level shifted by a visible fraction of
  a level spacing fails.
* ``CANARY_RTOL``: the fixed canary must reproduce the seed residual.
* ``ZEEMAN_TOL``: the Zeeman identity residual, same as the CLI gate.
* ``COVARIANCE_TOL``: the finite-rotation covariance residual (the
  tolerance of acceptance criterion 3).
* ``UNITARY_RTOL``: norm preservation of the dilatation unitary.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

CLOSED_FORM_RTOL = 1e-12
VARIATIONAL_RTOL = 1e-9
CONVERGED_RTOL = 1e-2
CANARY_RTOL = 1e-9
ZEEMAN_TOL = 1e-10
COVARIANCE_TOL = 1e-8
UNITARY_RTOL = 1e-10

# The CLI's own exit-1 thresholds; used only to check that the exit code
# agrees with the residuals the command reports, never to pass a request.
SPECTRUM_GATE = 1e-6
CONVERGE_GATE = 1e-8
GROUND_DIFF_GATE = 1e-10
GROUND_OVERLAP_GATE = 1e-8
INTERTWINER_GATE = 1e-10
ALGEBRA_GATE = 1e-12

CANARY_ARGV = [
    "spectrum", "--model", "h2", "--mu", "0.5", "--omega", "3",
    "--theta", "0.2", "--truncation", "32", "--no-timestamp",
]
# max_abs_residual of the canary on the seed code.  Only an exact
# compression of the Hamiltonian reproduces it.
CANARY_RESIDUAL = 2.964555941249408

TAIL_BOUND = 1e-14


# --- closed forms ---------------------------------------------------------


def lambdas(mu: float, omega: float, theta: float) -> tuple[float, float]:
    """Spectral coefficients of the physical oscillator, lambda_+ lambda_- = (mu omega)^2."""
    mw = mu * omega
    u = mw * theta
    plus = 0.5 * mw * (math.sqrt(4.0 + u * u) + u)
    return plus, mw * mw / plus


def renormalized(mu: float, omega: float, theta: float) -> tuple[float, float]:
    """(mu', omega') with mu omega^2 = mu' omega'^2."""
    u2 = (0.5 * mu * omega * theta) ** 2
    return mu / (1.0 + u2), omega * math.sqrt(1.0 + u2)


def phi_angle(model: str, mu: float, omega: float, theta: float) -> float:
    """Bogoliubov angle of h2 or h3."""
    v = 0.5 * mu * omega * theta
    if model == "h2":
        return 0.5 * math.log(v)
    return 0.5 * math.log(v / math.sqrt(1.0 + v * v))


def required_levels(phi: float) -> int:
    """Smallest N with tanh(phi)^(2N) <= TAIL_BOUND."""
    t = abs(math.tanh(phi))
    if t == 0.0:
        return 2
    return max(2, math.ceil(math.log(TAIL_BOUND) / (2.0 * math.log(t))))


def energy(model: str, mu: float, omega: float, theta: float, m: int, n: int) -> float:
    if model == "h3":
        plus, minus = lambdas(mu, omega, theta)
        return (plus * (2 * m + 1) + minus * (2 * n + 1)) / (2.0 * mu)
    if model == "h1":
        return float(m + n + 1)
    return omega * (m + n + 1)


def lowest_levels(model: str, mu: float, omega: float, theta: float, levels: int, k: int) -> list[float]:
    return sorted(
        energy(model, mu, omega, theta, m, n) for m in range(levels) for n in range(levels)
    )[:k]


# --- helpers --------------------------------------------------------------


def _close(got: float, want: float, rtol: float = CLOSED_FORM_RTOL) -> bool:
    return abs(got - want) <= rtol * max(1.0, abs(want))


def _split_report(stdout: str) -> tuple[str, str]:
    """Body and trailing summary line of a CLI report."""
    body, _, summary = stdout.rstrip("\n").rpartition("\n")
    return body, summary


def _csv_rows(body: str) -> list[dict]:
    return list(csv.DictReader(body.splitlines()))


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _exit_agrees(rc: int, failed_gate: bool) -> list[str]:
    want = 1 if failed_gate else 0
    return [] if rc == want else [f"exit code {rc}, reported values imply {want}"]


# --- per-command checks ---------------------------------------------------


def check_spectrum(req: dict, rc: int, stdout: str) -> list[str]:
    p = req["params"]
    data = json.loads(_split_report(stdout)[0])
    numeric, analytic = data["numeric"], data["analytic"]
    k = data["compared_levels"]
    problems = []
    if data["N"] != p["N"] or data["model"] != p["model"]:
        problems.append("report is for another model or truncation")
    if not (1 <= k <= p["N"] ** 2 and len(numeric) == k == len(analytic)):
        return problems + [f"compared_levels {k} does not match the level lists"]
    if not _finite(numeric):
        return problems + ["non-finite numeric level"]
    want = lowest_levels(p["model"], p["mu"], p["omega"], p["theta"], p["N"], k)
    bad = [i for i, (a, w) in enumerate(zip(analytic, want)) if not _close(a, w)]
    if bad:
        problems.append(f"analytic level {bad[0]} is {analytic[bad[0]]!r}, closed form gives {want[bad[0]]!r}")
    below = [i for i, (x, w) in enumerate(zip(numeric, want)) if x < w - VARIATIONAL_RTOL * max(1.0, abs(w))]
    if below:
        i = below[0]
        problems.append(f"numeric level {i} = {numeric[i]!r} lies below exact {want[i]!r} (not variational)")
    residual = max(abs(x - w) for x, w in zip(numeric, analytic))
    if not _close(data["max_abs_residual"], residual):
        problems.append(f"max_abs_residual {data['max_abs_residual']!r} disagrees with the levels ({residual!r})")
    if p.get("canary"):
        if abs(data["max_abs_residual"] - CANARY_RESIDUAL) > CANARY_RTOL * CANARY_RESIDUAL:
            problems.append(f"canary residual {data['max_abs_residual']!r}, seed value {CANARY_RESIDUAL!r}")
    else:
        off = [i for i, (x, w) in enumerate(zip(numeric, want)) if x - w > CONVERGED_RTOL * max(1.0, abs(w))]
        if off:
            i = off[0]
            problems.append(f"numeric level {i} = {numeric[i]!r} is far from exact {want[i]!r}")
    return problems + _exit_agrees(rc, data["max_abs_residual"] > SPECTRUM_GATE)


def check_converge(req: dict, rc: int, stdout: str) -> list[str]:
    p = req["params"]
    rows = _csv_rows(_split_report(stdout)[0])
    ns = [int(r["N"]) for r in rows]
    res = [float(r["max_abs_residual"]) for r in rows]
    if ns != sorted(set(p["Ns"])):
        return [f"rows for N={ns}, requested {sorted(set(p['Ns']))}"]
    if not _finite(res) or min(res) < 0.0:
        return ["non-finite or negative residual"]
    problems = []
    # Nested exact compressions: each level can only move down towards the
    # exact value as N grows, so the residual never increases.
    scale = max(1.0, energy(p["model"], p["mu"], p["omega"], p["theta"], p["Ns"][-1], p["Ns"][-1]))
    for (n0, r0), (n1, r1) in zip(zip(ns, res), zip(ns[1:], res[1:])):
        if r1 > r0 + VARIATIONAL_RTOL * scale:
            problems.append(f"residual grows from {r0!r} at N={n0} to {r1!r} at N={n1}")
    return problems + _exit_agrees(rc, res[-1] > CONVERGE_GATE)


def check_ground(req: dict, rc: int, stdout: str) -> list[str]:
    p = req["params"]
    data = json.loads(_split_report(stdout)[0])
    problems = []
    numbers = [v for k, v in data.items() if k not in ("params", "model")] + list(data["params"].values())
    if not _finite(numbers):
        return ["non-finite field"]
    phi = phi_angle(p["model"], p["mu"], p["omega"], p["theta"])
    if not _close(data["phi"], phi):
        problems.append(f"phi {data['phi']!r}, closed form gives {phi!r}")
    levels = max(p["N"], required_levels(phi))
    if data["params"]["N"] != levels:
        problems.append(f"ran at N={data['params']['N']}, expected {levels}")
    if data["ground_overlap"] < 1.0 - GROUND_OVERLAP_GATE:
        problems.append(f"ground_overlap {data['ground_overlap']!r} < 1 - {GROUND_OVERLAP_GATE}")
    gate = data.get("intertwiner_residual", data["intertwiner_tanh_residual"])
    failed = (
        data["closed_vs_unitary"] > GROUND_DIFF_GATE
        or data["ground_overlap"] < 1.0 - GROUND_OVERLAP_GATE
        or gate > INTERTWINER_GATE
    )
    return problems + _exit_agrees(rc, failed)


def _check_sweep_row(row: dict, mu: float, omega: float, theta: float) -> list[str]:
    plus, minus = lambdas(mu, omega, theta)
    mu_p, om_p = renormalized(mu, omega, theta)
    expected = {
        "mu": mu, "omega": omega, "theta": theta,
        "lambda_plus": plus, "lambda_minus": minus,
        "mu_prime": mu_p, "omega_prime": om_p,
        "phi": phi_angle("h2", mu, omega, theta),
        "lambda_identity": 1.0,
        "ground_energy": (plus + minus) / (2.0 * mu),
    }
    problems = [
        f"{key} {row[key]} at ({mu}, {omega}, {theta}), closed form gives {want!r}"
        for key, want in expected.items()
        if not _close(float(row[key]), want)
    ]
    residuals = [row[k] for k in row if "residual" in k]
    if not _finite(residuals):
        problems.append("non-finite residual")
    elif float(row["zeeman_difference_residual"]) > ZEEMAN_TOL:
        problems.append(f"zeeman residual {row['zeeman_difference_residual']} > {ZEEMAN_TOL}")
    return problems


def check_sweep(req: dict, rc: int, stdout: str) -> list[str]:
    p = req["params"]
    rows = _csv_rows(_split_report(stdout)[0])
    points = [(m, o, t) for m in p["mus"] for o in p["omegas"] for t in p["thetas"]]
    if len(rows) != len(points):
        return [f"{len(rows)} rows for {len(points)} grid points"]
    problems = []
    for row, point in zip(rows, points):
        if int(row["N"]) != p["N"]:
            problems.append(f"row at N={row['N']}, requested {p['N']}")
        problems += _check_sweep_row(row, *point)
    return problems + _exit_agrees(rc, False)


def check_symmetry(req: dict, rc: int, stdout: str) -> list[str]:
    data = json.loads(_split_report(stdout)[0])
    values = list(data["su2_residuals"]) + list(data["time_reversal"].values())
    zeeman = data["zeeman_difference_residual"]
    if not _finite(values + [zeeman]):
        return ["non-finite residual"]
    if zeeman > ZEEMAN_TOL:
        return [f"zeeman residual {zeeman!r} > {ZEEMAN_TOL}"]
    return _exit_agrees(rc, False)


def check_algebra(req: dict, rc: int, stdout: str) -> list[str]:
    residuals = [float(line.split()[1]) for line in stdout.splitlines()]
    if len(residuals) != 13:
        return [f"{len(residuals)} relations reported, expected 13"]
    if not _finite(residuals):
        return ["non-finite residual"]
    return _exit_agrees(rc, max(residuals) > ALGEBRA_GATE)


def check_covariance(req: dict, value: dict) -> list[str]:
    if not _finite(value.values()):
        return ["non-finite residual"]
    if value["rotation_residual"] > COVARIANCE_TOL:
        return [f"rotation_residual {value['rotation_residual']!r} > {COVARIANCE_TOL}"]
    return []


def check_dilatation(req: dict, value) -> list[str]:
    """Norm preservation of U on a few seeded random vectors."""
    u = value.mat
    rng = np.random.default_rng(req["params"]["vector_seed"])
    for _ in range(3):
        v = rng.normal(size=u.shape[0]) + 1j * rng.normal(size=u.shape[0])
        ratio = np.linalg.norm(u @ v) / np.linalg.norm(v)
        if not abs(ratio - 1.0) <= UNITARY_RTOL:
            return [f"|U v| / |v| = {ratio!r}"]
    return []


_CLI_CHECKS = {
    "spectrum": check_spectrum,
    "converge": check_converge,
    "ground": check_ground,
    "sweep": check_sweep,
    "symmetry": check_symmetry,
    "algebra": check_algebra,
}
_LIBRARY_CHECKS = {"covariance": check_covariance, "dilatation": check_dilatation}


def check(req: dict, outcome) -> list[str]:
    """Problems with one request's outcome; empty when it is correct."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    kind = req["kind"]
    if kind in _LIBRARY_CHECKS:
        return _LIBRARY_CHECKS[kind](req, outcome.value)
    if kind == "invalid":
        return [] if outcome.rc == 2 else [f"invalid input exited {outcome.rc}, expected 2"]
    if outcome.rc == 2:
        return [f"valid input exited 2: {outcome.stderr.strip()}"]
    try:
        return _CLI_CHECKS[kind](req, outcome.rc, outcome.stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def gate_cause(req: dict, outcome) -> str | None:
    """Why a correct valid CLI request exited 1, or None if it did not."""
    if req["kind"] in _LIBRARY_CHECKS or req["kind"] == "invalid" or outcome.rc != 1:
        return None
    p = req["params"]
    if req["kind"] == "spectrum":
        data = json.loads(_split_report(outcome.stdout)[0])
        if p.get("canary"):
            return "canary: strong-coupling point, truncation error by design"
        return (
            f"truncation error {data['max_abs_residual']:.3g} > {SPECTRUM_GATE} at "
            f"N={p['N']} for {p['model']}"
        )
    if req["kind"] == "ground":
        data = json.loads(_split_report(outcome.stdout)[0])
        need = required_levels(phi_angle(p["model"], p["mu"], p["omega"], p["theta"]))
        over = [
            f"{key} {data[key]:.3g}"
            for key, bad in (
                ("closed_vs_unitary", data["closed_vs_unitary"] > GROUND_DIFF_GATE),
                ("ground_overlap", data["ground_overlap"] < 1.0 - GROUND_OVERLAP_GATE),
                ("intertwiner_residual", data.get("intertwiner_residual", 0.0) > INTERTWINER_GATE),
                ("intertwiner_tanh_residual", p["model"] == "h2" and data["intertwiner_tanh_residual"] > INTERTWINER_GATE),
            )
            if bad
        ]
        return (
            f"{', '.join(over)} past the gate with required_levels {need} against "
            f"--truncation {p['N']} (ground tail-bound defect)"
        )
    return f"{req['kind']} threshold check: {_split_report(outcome.stdout)[1]}"
