"""Seeded request lists for the three benchmark workloads.

A request list is a function of the workload name and ``--seed`` alone
(pure-Python ``random.Random``, no state from the program under test).
The shape of each list -- which commands, models and truncations, in
which order -- is fixed; the seed draws the physical parameters.  A run's
cost therefore does not depend on the seed, so runs with different seeds
measure the same work.

Draw ranges:

* ``mu``, ``omega`` and ``theta`` are log-uniform in [0.5, 2].  The
  range spans both sides of the critical point mu0 = omega0 / 2 =
  1 / sqrt(theta), where h2 is already diagonal, so the Bogoliubov angle
  takes both signs, without reaching the strong-coupling corner that the
  fixed canary covers.
* Every draw keeps ``required_levels(phi) <= 24`` for both the h2 and the
  h3 angle.  ``ground`` raises its truncation to ``required_levels``, and
  a dense operator at truncation N takes 16 N^4 bytes with several alive
  at once; N <= 24 keeps every allocation far below 1 GB on a shared
  machine.  It also keeps spectra at N >= 24 converged to the oracle's
  ``CONVERGED_RTOL``.  Memory blow-ups at large ``required_levels`` are a
  robustness case for tests run under a memory limit, not a timing run.
* ``ground`` requests are stratified by the truncation they actually run
  at, ``max(--truncation, required_levels)``: a slot (T, L) with L == T
  draws until ``required_levels <= T``, and one with L > T draws until
  ``required_levels == L``.  The seed then cannot move the cost, and the
  L > T slots exercise the known gate defect on purpose.
"""

from __future__ import annotations

import math
import random

from oracle import CANARY_ARGV, phi_angle, required_levels

WORKLOADS = ("spectroscopy", "sweep-grid", "flow-rotation")

DRAW_RANGE = (0.5, 2.0)
MAX_LEVELS = 24

SPECTRUM_SIZES = {
    "h3": (24, 32, 40),
    "h2": (24, 32, 40),
    # The commutative model is the plain two-mode control; its N = 40 cost
    # repeats h2's, so it stops at 32 to keep a pass near 10 s.
    "commutative": (24, 32),
    # h1 is built through the dense representation at N + 2 and peaks at
    # about 0.9 GB at N = 40, so it stops at 32.
    "h1": (32,),
}
CONVERGE_NS = (12, 16, 24, 32)
SWEEP_N = 12
SWEEP_GROUPS = 20
# (--truncation, truncation actually used) for each ground request.
GROUND_SLOTS = ((16, 16), (16, 20), (20, 20), (20, 24), (24, 24))
LIBRARY_NS = (16, 20, 24)
LIBRARY_ROUNDS = 3


def _log_uniform(rng: random.Random) -> float:
    lo, hi = DRAW_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draw(rng: random.Random, theta: float | None = None, accept=lambda mu, omega, theta: True):
    """(mu, omega, theta) inside the stated cut and the caller's condition."""
    for _ in range(100_000):
        t = theta if theta is not None else _log_uniform(rng)
        mu, omega = _log_uniform(rng), _log_uniform(rng)
        levels = max(required_levels(phi_angle(m, mu, omega, t)) for m in ("h2", "h3"))
        if levels <= MAX_LEVELS and accept(mu, omega, t):
            return mu, omega, t
    raise RuntimeError("no parameter draw satisfies the cut")


def _cli(kind: str, argv: list[str], **params) -> dict:
    return {"kind": kind, "argv": argv + ["--no-timestamp"], "params": params}


def _physics_args(model: str, mu: float, omega: float, theta: float) -> list[str]:
    return ["--model", model, "--mu", repr(mu), "--omega", repr(omega), "--theta", repr(theta)]


def spectroscopy(rng: random.Random) -> list[dict]:
    reqs = []
    for model, sizes in SPECTRUM_SIZES.items():
        for n in sizes:
            mu, omega, theta = draw(rng)
            reqs.append(_cli(
                "spectrum",
                ["spectrum", *_physics_args(model, mu, omega, theta), "--truncation", str(n)],
                model=model, mu=mu, omega=omega, theta=theta, N=n,
            ))
    reqs.append({
        "kind": "spectrum", "argv": CANARY_ARGV,
        "params": {"model": "h2", "mu": 0.5, "omega": 3.0, "theta": 0.2, "N": 32, "canary": True},
    })
    for model in ("h3", "h2"):
        mu, omega, theta = draw(rng)
        trunc = [a for n in CONVERGE_NS for a in ("--truncation", str(n))]
        reqs.append(_cli(
            "converge", ["converge", *_physics_args(model, mu, omega, theta), *trunc],
            model=model, mu=mu, omega=omega, theta=theta, Ns=list(CONVERGE_NS),
        ))
    return reqs


# Deliberately invalid inputs; each must end with exit code 2.
INVALID = (
    ("theta <= 0", ["sweep", "--theta", "0", "--truncation", "12"]),
    ("negative theta", ["symmetry", "--theta", "-0.5", "--truncation", "12"]),
    ("truncation below the minimum", ["sweep", "--truncation", "6"]),
    ("truncation below the minimum", ["algebra", "--truncation", "3"]),
    ("negative mu", ["symmetry", "--mu", "-1", "--truncation", "12"]),
    ("unknown model", ["sweep", "--model", "h4", "--truncation", "12"]),
)


def sweep_grid(rng: random.Random) -> list[dict]:
    reqs = []
    for g in range(SWEEP_GROUPS):
        mu, omega, theta = draw(rng)
        mu2, omega2, _ = draw(rng, theta=theta)
        # Alternate the swept axis; both points share theta with the group.
        mus, omegas = ([mu, mu2], [omega]) if g % 2 == 0 else ([mu], [omega, omega2])
        grid = [a for m in mus for a in ("--mu", repr(m))]
        grid += [a for o in omegas for a in ("--omega", repr(o))]
        tail = ["--theta", repr(theta), "--truncation", str(SWEEP_N)]
        reqs.append(_cli("sweep", ["sweep", *grid, *tail], mus=mus, omegas=omegas, thetas=[theta], N=SWEEP_N))
        reqs.append(_cli(
            "symmetry", ["symmetry", "--mu", repr(mu), "--omega", repr(omega), *tail],
            mu=mu, omega=omega, theta=theta, N=SWEEP_N,
        ))
        reqs.append(_cli("algebra", ["algebra", *tail], theta=theta, N=SWEEP_N))
        if g < len(INVALID):
            why, argv = INVALID[g]
            reqs.append({"kind": "invalid", "argv": argv, "params": {"why": why}})
    return reqs


def flow_rotation(rng: random.Random) -> list[dict]:
    reqs = []
    for model in ("h2", "h3"):
        for trunc, used in GROUND_SLOTS:
            def accept(mu, omega, theta, model=model, trunc=trunc, used=used):
                need = required_levels(phi_angle(model, mu, omega, theta))
                return need <= trunc if used == trunc else need == used

            mu, omega, theta = draw(rng, accept=accept)
            reqs.append(_cli(
                "ground",
                ["ground", *_physics_args(model, mu, omega, theta), "--truncation", str(trunc)],
                model=model, mu=mu, omega=omega, theta=theta, N=trunc,
            ))
    for _ in range(LIBRARY_ROUNDS):
        for n in LIBRARY_NS:
            mu, omega, theta = draw(rng)
            direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
            scale = rng.uniform(0.1, math.pi) / math.sqrt(sum(x * x for x in direction))
            reqs.append({
                "kind": "covariance",
                "params": {"N": n, "theta": theta, "lam": [x * scale for x in direction]},
            })
            reqs.append({
                "kind": "dilatation",
                "params": {
                    "N": n, "theta": theta,
                    "phi": phi_angle("h3", mu, omega, theta),
                    "vector_seed": rng.randrange(2**32),
                },
            })
    return reqs


_BUILDERS = {"spectroscopy": spectroscopy, "sweep-grid": sweep_grid, "flow-rotation": flow_rotation}


def build(workload: str, seed: int) -> list[dict]:
    """The workload's request list for this seed, each with an ``id``."""
    reqs = _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs
