"""Command-line front end.

Subcommands: algebra | spectrum | sweep | symmetry | ground | converge.
Configuration comes from a flat ``key = value`` file (unknown keys are
rejected), and a command-line flag replaces every file value of its key.
A numeric key (mu, omega, theta, truncation) may repeat only where the
subcommand sweeps it: ``sweep`` over mu, omega and theta, ``converge`` over
truncation.  Exit codes: 0 success, 1 threshold failure, 2 invalid or
infeasible input (such as a repeated key that is not swept, a value that is
not finite and positive, a truncation whose representation would not fit
in memory, or an unwritable ``--out``).  All floats are printed with 17
significant digits so reports serve as reproducible oracles.
"""

from __future__ import annotations

import argparse
import datetime
import math
import sys
from dataclasses import dataclass

import numpy as np

from .operator_core import identity
from .moyal_rep import HSSpace, ModelConfig, RepOperators, block_values, build_rep, row_norm
from .oscillator_models import MODELS, OscParams, h2, renormalized_params
from .bogoliubov_flow import (
    bogoliubov_pair,
    ground_state_closed,
    ground_state_unitary,
    intertwiner_check,
    phi_for,
    required_levels,
)
from .schwinger_su2 import SU2Generators, schwinger_from_ladders, schwinger_noncommutative
from .spectra_harness import (
    SpectrumReport,
    build_model,
    convergence_study,
    diagonalize_compare,
    ground_overlap,
)
from .symmetry_lab import su2_commutant, time_reversal_suite

__all__ = ["RunConfig", "algebra_residuals", "main", "entry_point"]

def fmt(x: float) -> str:
    """Canonical float rendering, 17 significant digits."""
    return "%.17g" % float(x)


# The numeric keys, each held as the tuple of values given.
_NUMERIC = ("theta", "mu", "omega", "truncation")
_NUMERIC_FLAGS = tuple(f"--{key}" for key in _NUMERIC)
# Every long flag of a subcommand (``_build_parser``), for reading a prefix
# as argparse does.
_FLAGS = ("--help", "--config", "--model", *_NUMERIC_FLAGS, "--format", "--out", "--no-timestamp")


def _is_numeric_flag(arg: str) -> bool:
    """Whether argparse reads ``arg`` as a numeric flag: its full name or a
    prefix of no other flag."""
    if arg in _FLAGS:
        return arg in _NUMERIC_FLAGS
    named = [flag for flag in _FLAGS if flag.startswith(arg)]
    return len(named) == 1 and named[0] in _NUMERIC_FLAGS


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every subcommand.  Each numeric
    key holds the tuple of its values; only a key the subcommand sweeps may
    hold more than one."""

    model: str = "h3"
    mu: tuple[float, ...] = (1.0,)
    omega: tuple[float, ...] = (1.0,)
    theta: tuple[float, ...] = (1.0,)
    truncation: tuple[int, ...] = (16,)
    format: str = "json"
    out: str | None = None
    timestamp: bool = True

    def validate(
        self,
        min_truncation: int = 8,
        formats: tuple[str, ...] = ("json", "csv"),
        sweeps: tuple[str, ...] = (),
    ) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for key in _NUMERIC:
            values = getattr(self, key)
            if len(values) != 1 and key not in sweeps:
                raise ValueError(f"{key} takes one value for this subcommand, not {len(values)}")
            if key == "truncation":
                if any(n < min_truncation for n in values):
                    raise ValueError(f"truncation must be at least {min_truncation}")
            elif not all(math.isfinite(v) and v > 0.0 for v in values):
                raise ValueError(f"{key} must be positive and finite")
        if self.format not in formats:
            raise ValueError(f"format must be {' or '.join(formats)}, not {self.format!r}")


def parse_config_file(path: str) -> dict[str, list[str]]:
    """Flat key = value file; repeated keys accumulate into lists."""
    values: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values.setdefault(key.strip(), []).append(val.strip())
    return values


# Config file keys and flags that share one name, with the conversion of
# their values.
_KEYS = {
    "model": str,
    "mu": float,
    "omega": float,
    "theta": float,
    "truncation": int,
    "format": str,
    "out": str,
}


def _build_config(args: argparse.Namespace, default_format: str, truncations: tuple[int, ...]) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    for key in values:
        if key not in _KEYS:
            raise ValueError(f"{args.config}: unknown key {key!r}")
    for key in _KEYS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag if isinstance(flag, list) else [flag]
    fields = {"format": default_format, "truncation": truncations}
    for key, vals in values.items():
        converted = tuple(_KEYS[key](v) for v in vals)
        fields[key] = converted if key in _NUMERIC else converted[-1]
    return RunConfig(timestamp=not args.no_timestamp, **fields)


def _json_text(obj, indent: int = 0) -> str:
    """Minimal JSON writer with %.17g floats and sorted keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}"{k}": {_json_text(obj[k], indent + 1)}' for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt(float(obj))
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _stamp(cfg: RunConfig) -> dict:
    """The report's UTC timestamp, or nothing under --no-timestamp."""
    if not cfg.timestamp:
        return {}
    return {"timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}


def _csv_text(cfg: RunConfig, header: str, rows: list[str]) -> str:
    stamp = [f"# timestamp: {t}" for t in _stamp(cfg).values()]
    return "\n".join([*stamp, header, *rows])


def algebra_residuals(hs: HSSpace) -> list[tuple[str, float, float]]:
    """Safe-block residuals of the defining commutation relations, as
    (name, ||[A, B] - c||, that norm over ||AB|| + ||BA||), all norms taken
    on the safe block.  Only the relative residual is free of the block's
    size: rounding alone gives an absolute 2.4e-12 at N = 128.  A theta
    whose norms overflow raises FloatingPointError."""
    rep = build_rep(hs)
    theta = hs.theta
    ix = hs.safe_indices
    relations = [
        ("[X1, X2] - i theta", rep.X1, rep.X2, 1j * theta),
        ("[X1, P1] - i", rep.X1, rep.P1, 1j),
        ("[X2, P2] - i", rep.X2, rep.P2, 1j),
        ("[X1, P2]", rep.X1, rep.P2, 0.0),
        ("[X2, P1]", rep.X2, rep.P1, 0.0),
        ("[P1, P2]", rep.P1, rep.P2, 0.0),
        ("[B_L, B_Ldag] - 1", rep.B_L, rep.B_Ldag, 1.0),
        ("[B_R, B_Rdag] + 1", rep.B_R, rep.B_Rdag, -1.0),
        ("[B_L, B_R]", rep.B_L, rep.B_R, 0.0),
        ("[B_L, B_Rdag]", rep.B_L, rep.B_Rdag, 0.0),
        ("[X1c, X2c]", rep.X1c, rep.X2c, 0.0),
        ("[X1c, P1] - i", rep.X1c, rep.P1, 1j),
        ("[X2c, P2] - i", rep.X2c, rep.P2, 1j),
    ]
    eye = identity(hs.dim)
    rows = []
    with np.errstate(over="raise"):
        for name, a, b, c in relations:
            ab, ba, one = block_values([a @ b, b @ a, eye], ix)
            resid = row_norm(ab - ba - complex(c) * one)
            rows.append((name, resid, resid / (row_norm(ab) + row_norm(ba))))
    return rows


# Rounding gives relative residuals near 2e-16 at every N: a margin of 100.
_ALGEBRA_RTOL = 1e-14


def cmd_algebra(cfg: RunConfig) -> int:
    (theta,), (levels,) = cfg.theta, cfg.truncation
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rows = [(*row, row[2] <= _ALGEBRA_RTOL) for row in algebra_residuals(hs)]
    lines = [f"{'PASS' if ok else 'FAIL'}  {fmt(resid)}  {name}" for name, resid, _, ok in rows]
    payload = {
        "relations": [
            {"name": name, "residual": resid, "relative_residual": rel, "pass": ok}
            for name, resid, rel, ok in rows
        ],
        "params": {"theta": theta, "N": levels},
        **_stamp(cfg),
    }
    if cfg.out:
        _emit(_json_text(payload), cfg.out)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if all(ok for *_, ok in rows) else 1


def _spectrum_csv(report: SpectrumReport, cfg: RunConfig) -> str:
    rows = [
        ",".join(
            [
                report.model,
                *(fmt(report.params[key]) for key in ("mu", "omega", "theta")),
                str(report.N),
                str(k),
                fmt(num),
                fmt(ana),
                fmt(abs(num - ana)),
            ]
        )
        for k, (num, ana) in enumerate(zip(report.numeric, report.analytic))
    ]
    return _csv_text(cfg, "model,mu,omega,theta,N,level_index,numeric,analytic,residual", rows)


def cmd_spectrum(cfg: RunConfig) -> int:
    (mu,), (omega,), (theta,), (levels,) = cfg.mu, cfg.omega, cfg.theta, cfg.truncation
    h, formula = build_model(cfg.model, OscParams(mu, omega), theta, levels)
    report = diagonalize_compare(h, formula, levels, params={"mu": mu, "omega": omega, "theta": theta})
    if cfg.format == "csv":
        _emit(_spectrum_csv(report, cfg), cfg.out)
    else:
        _emit(_json_text({**report.to_json_dict(), **_stamp(cfg)}), cfg.out)
    sys.stdout.write(f"max residual: {fmt(report.max_abs_residual)}\n")
    return 0 if report.max_abs_residual <= 1e-6 else 1


_SWEEP_COLUMNS = (
    "mu,omega,theta,N,lambda_plus,lambda_minus,mu_prime,omega_prime,phi,"
    "lambda_identity,ground_energy,h2_su2_residual_max,su2_j3_residual,"
    "su2_j12_residual_max,zeeman_difference_residual"
)


def _sweep_row(mu: float, omega: float, hs: HSSpace, rep: RepOperators, gens: SU2Generators) -> str:
    """One CSV row; ``rep`` and ``gens`` of ``hs`` serve every point at its theta."""
    theta, levels = hs.theta, hs.levels
    p = OscParams(mu, omega)
    rp = renormalized_params(p, theta)
    suite = time_reversal_suite(rep, gens, p, hs)
    j1r, j2r, j3r = suite.su2_residuals
    # h2 is SU(2) symmetric in its own Bogoliubov frame, so its commutant
    # residual is measured against the primed-ladder generators.
    phi_h2 = phi_for(p, theta, "h2")
    primed = schwinger_from_ladders(*bogoliubov_pair(hs, phi_h2, rep), context="primed")
    h2_res = max(su2_commutant(h2(hs, p), primed, hs))
    identity_val = (1.0 + theta * rp.lambda_plus) * (1.0 - theta * rp.lambda_minus)
    ground = (rp.lambda_plus + rp.lambda_minus) / (2.0 * mu)
    values = (
        rp.lambda_plus, rp.lambda_minus, rp.mu_prime, rp.omega_prime,
        # The angle that diagonalizes the swept (mu, omega) oscillator;
        # it vanishes exactly at the critical point.
        phi_h2, identity_val, ground, h2_res, j3r, max(j1r, j2r), suite.zeeman_difference_residual,
    )
    return ",".join([fmt(mu), fmt(omega), fmt(theta), str(levels), *map(fmt, values)])


def _theta_rows(mus: tuple[float, ...], omegas: tuple[float, ...], theta: float, levels: int) -> list[str]:
    """Rows of every (mu, omega) at one theta, mu-major, from one
    representation that is released on return."""
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rep = build_rep(hs)
    gens = schwinger_noncommutative(hs, rep)
    return [_sweep_row(m, o, hs, rep, gens) for m in mus for o in omegas]


def cmd_sweep(cfg: RunConfig) -> int:
    (levels,) = cfg.truncation
    per_theta = [_theta_rows(cfg.mu, cfg.omega, t, levels) for t in cfg.theta]
    # Grid order is mu-major and theta-minor.
    rows = [row for point in zip(*per_theta) for row in point]
    _emit(_csv_text(cfg, _SWEEP_COLUMNS, rows), cfg.out)
    sys.stdout.write(f"swept {len(rows)} points\n")
    return 0


def cmd_symmetry(cfg: RunConfig) -> int:
    (mu,), (omega,), (theta,), (levels,) = cfg.mu, cfg.omega, cfg.theta, cfg.truncation
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    rep = build_rep(hs)
    suite = time_reversal_suite(rep, schwinger_noncommutative(hs, rep), OscParams(mu, omega), hs)
    _emit(_json_text({**suite.to_json_dict(), **_stamp(cfg)}), cfg.out)
    sys.stdout.write(
        f"zeeman difference residual: {fmt(suite.zeeman_difference_residual)}\n"
    )
    return 0 if suite.zeeman_difference_residual <= 1e-10 else 1


def cmd_ground(cfg: RunConfig) -> int:
    if cfg.model not in ("h2", "h3"):
        raise ValueError("ground command supports models h2 and h3 only")
    (mu,), (omega,), (theta,), (truncation,) = cfg.mu, cfg.omega, cfg.theta, cfg.truncation
    p = OscParams(mu, omega)
    phi = phi_for(p, theta, cfg.model)
    levels = max(truncation, required_levels(phi))
    hs = HSSpace(ModelConfig(theta=theta, truncation=levels))
    closed = ground_state_closed(hs, phi)
    unitary = ground_state_unitary(hs, phi)
    diff = float(np.linalg.norm(closed.coeffs - unitary.coeffs))
    overlap = ground_overlap(*build_model(cfg.model, p, theta, levels), closed)
    rp = renormalized_params(p, theta)
    inter = intertwiner_check(closed, rp.lambda_plus, theta)
    # The (1 + theta lambda_plus) form of the intertwiner belongs to the
    # physical model; the tanh form holds for any Bogoliubov angle.
    gate = inter.residual if cfg.model == "h3" else inter.tanh_residual
    payload = {
        "params": {"mu": mu, "omega": omega, "theta": theta, "N": levels},
        "model": cfg.model,
        "phi": phi,
        "norm": closed.norm,
        "closed_vs_unitary": diff,
        "ground_overlap": overlap,
        "intertwiner_tanh_residual": inter.tanh_residual,
        **({"intertwiner_residual": inter.residual} if cfg.model == "h3" else {}),
        **_stamp(cfg),
    }
    _emit(_json_text(payload), cfg.out)
    sys.stdout.write(f"ground overlap: {fmt(overlap)}\n")
    ok = diff <= 1e-10 and overlap >= 1.0 - 1e-8 and gate <= 1e-10
    return 0 if ok else 1


def cmd_converge(cfg: RunConfig) -> int:
    (mu,), (omega,), (theta,) = cfg.mu, cfg.omega, cfg.theta
    rows = convergence_study(cfg.model, OscParams(mu, omega), theta, sorted(set(cfg.truncation)))
    lines = [",".join([cfg.model, fmt(mu), fmt(omega), fmt(theta), str(n), fmt(resid)]) for n, resid in rows]
    _emit(_csv_text(cfg, "model,mu,omega,theta,N,max_abs_residual", lines), cfg.out)
    final = rows[-1][1]
    sys.stdout.write(f"final residual at N={rows[-1][0]}: {fmt(final)}\n")
    return 0 if final <= 1e-8 else 1


# Each subcommand with its minimum truncation, the report formats it
# writes (the first being its default), the keys it sweeps and its default
# truncations.
_COMMANDS = {
    "algebra": (cmd_algebra, 4, ("json",), (), (16,)),
    "spectrum": (cmd_spectrum, 8, ("json", "csv"), (), (16,)),
    "sweep": (cmd_sweep, 8, ("csv",), ("mu", "omega", "theta"), (16,)),
    "symmetry": (cmd_symmetry, 8, ("json",), (), (16,)),
    "ground": (cmd_ground, 8, ("json",), (), (16,)),
    "converge": (cmd_converge, 8, ("csv",), ("truncation",), (12, 16, 24, 32)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moyal-lab",
        description="Numerical laboratory for oscillators on the noncommutative plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, formats, _, _) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None)
        sp.add_argument("--model", choices=MODELS, default=None)
        sp.add_argument("--mu", type=float, action="append", default=None)
        sp.add_argument("--omega", type=float, action="append", default=None)
        sp.add_argument("--theta", type=float, action="append", default=None)
        sp.add_argument("--truncation", type=int, action="append", default=None)
        sp.add_argument("--format", choices=formats, default=None)
        sp.add_argument("--out", default=None)
        sp.add_argument("--no-timestamp", action="store_true")
    return parser


# Built by the first call to main and reused: parse_args keeps no state
# between calls (the append actions copy their lists).
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    # argparse takes a separate value such as -inf or -1e-3 for an option: join it to its flag.
    joined: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        if joined and _is_numeric_flag(joined[-1]) and not arg.startswith("--"):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    try:
        args = _parser.parse_args(joined)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    func, min_n, formats, sweeps, truncations = _COMMANDS[args.command]
    try:
        cfg = _build_config(args, formats[0], truncations)
        cfg.validate(min_truncation=min_n, formats=formats, sweeps=sweeps)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    try:
        with np.errstate(over="raise", invalid="raise"):
            return func(cfg)
    except (ValueError, MemoryError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:
        sys.stderr.write(f"error: parameters outside the floating-point range ({type(exc).__name__}: {exc})\n")
        return 2


def entry_point() -> None:
    raise SystemExit(main())
