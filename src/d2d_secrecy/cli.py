"""Command-line driver for analysis, optimization, and simulation.

Subcommands:

* ``analytic``      evaluate the closed forms at one design point
* ``optimize``      density threshold and both optimal designs
* ``select``        technique selection verdict at a given link distance
* ``mc-validate``   closed forms against Monte-Carlo estimates
* ``sweep-d``       selection function across link distances
* ``sweep-lambda``  critical distance across eavesdropper densities

Every option is declared once, in ``_OPTIONS``: its INI section, its key,
type and default, and the subcommands that take it. An option whose default
depends on the subcommand, such as the sweep grid, has one row per default.
The flag is ``--`` plus the key with ``_`` as ``-``. A value comes from the
flag, else from the INI config file (``--config``), else from the default;
a subcommand rejects the flags of options it does not take and ignores
their keys in a config file. The values are resolved onto the parsed
namespace, so a subcommand reads each option as ``cfg.<key>`` (None where
it does not take the option), next to the ``params`` and ``grid`` built
from them.

Output is JSON (full precision) or CSV (fixed headers, probabilities at
6 significant digits) to stdout or ``--out``. Exit codes: 0 success,
2 usage or validation error (an unreadable config file or an ``--out``
path that cannot be written included), 3 numerical failure.

A report that holds a non-finite number, which strict JSON cannot
carry, is a numerical failure in either format. A sweep grid may hold
at most ``MAX_GRID_ROWS`` rows. Below the enhancement threshold the
optimizer gives no verdict and no d*; reports carry them as nulls and
the token ``no-enhancement-needed``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import math
import sys
from collections.abc import Callable
from dataclasses import asdict, replace

from .errors import DomainError, NumericalError
from .model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    p_active,
    p_cov_an,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
)
from .montecarlo import (
    McEstimate,
    TrialConfig,
    run_an_trials,
    run_gz_trials,
    run_trials,
)
from .optimizer import (
    OptimalDesign,
    SelectionVerdict,
    Technique,
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)

__all__ = ["main"]

NO_ENHANCEMENT = "no-enhancement-needed"

# most rows a sweep grid may hold; a longer grid is a usage error
MAX_GRID_ROWS = 100_000

# distance used internally when the caller did not supply one; commands
# that run without --d must never emit anything derived from it
_PLACEHOLDER_D = 1.0

_EVERY = ("analytic", "optimize", "select", "mc-validate", "sweep-d", "sweep-lambda")
_DESIGN_COMMANDS = ("analytic", "mc-validate")
_MC_COMMANDS = ("mc-validate", "sweep-d")

# Every option, declared once: (config section, key, type, default, the
# subcommands that take it), one row per default. The flag is "--" + key
# with "_" as "-"; a subcommand sees None for an option it does not take.
_OPTIONS = (
    ("params", "alpha", float, 4.0, _EVERY),
    ("params", "pt", float, 1.0, _EVERY),
    ("params", "beta_t", float, 2.0, _EVERY),
    ("params", "beta_e", float, 1.0, _EVERY),
    ("params", "epsilon", float, 0.9, _EVERY),
    ("params", "sigma2_p", float, 1.0, _EVERY),
    ("params", "sigma2_s", float, 1.0, _EVERY),
    ("params", "lambda_e", float, 0.1, _EVERY),
    ("params", "d", float, None, _EVERY),
    ("design", "r_g", float, None, _DESIGN_COMMANDS),
    ("design", "gamma", float, None, _DESIGN_COMMANDS),
    ("mc", "trials", int, 1_000_000, ("mc-validate",)),
    ("mc", "seed", int, 0, _MC_COMMANDS),
    ("mc", "window_radius", float, None, _MC_COMMANDS),
    ("mc", "tail_prob", float, TrialConfig.tail_prob, _MC_COMMANDS),
    ("sweep", "grid_start", float, 0.1, ("sweep-d",)),
    ("sweep", "grid_stop", float, 1.5, ("sweep-d",)),
    ("sweep", "grid_step", float, 0.05, ("sweep-d",)),
    ("sweep", "grid_start", float, 0.05, ("sweep-lambda",)),
    ("sweep", "grid_stop", float, 0.25, ("sweep-lambda",)),
    ("sweep", "grid_step", float, 0.025, ("sweep-lambda",)),
    ("sweep", "mc", int, None, ("sweep-d",)),
    ("output", "format", str, "json", _EVERY),
    ("output", "out", str, "-", _EVERY),
)


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


def _num(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _prob(x: float | None) -> str:
    return "" if x is None else format(float(x), ".6g")


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _text(x: object) -> str:
    return "" if x is None else str(x)


# one CSV column: header, value read from one JSON row, formatter
Column = tuple[str, Callable[[dict], object], Callable[[object], str]]


def _column(header: str, fmt: Callable[[object], str], *path: str) -> Column:
    """Column whose value sits at path in a JSON row (default: at the
    header); a null anywhere along the path gives a null value."""
    keys = path or (header,)

    def value(row: dict) -> object:
        for key in keys:
            if row is None:
                return None
            row = row[key]
        return row

    return header, value, fmt


def _header(columns: tuple[Column, ...]) -> list[str]:
    return [header for header, _, _ in columns]


def _params_json(cfg: argparse.Namespace) -> dict:
    return {**asdict(cfg.params), "d": cfg.d}


def _trial_config(cfg: argparse.Namespace, n_trials: int) -> TrialConfig:
    """Monte-Carlo settings for a run of n_trials."""
    return TrialConfig(n_trials, cfg.seed, cfg.window_radius, cfg.tail_prob)


def _csv_text(columns: tuple[Column, ...], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_header(columns))
    writer.writerows([fmt(value(row)) for _, value, fmt in columns] for row in rows)
    return buffer.getvalue()


def _load_config(path: str) -> dict[str, object]:
    # [DEFAULT] would merge into every section; no header line can spell a
    # name holding a newline, so [DEFAULT] stays an ordinary, unknown section
    parser = configparser.ConfigParser(default_section="\n")
    # opened here, as ConfigParser.read skips a file it cannot open
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        reason = exc.strerror or exc
        raise UsageError(f"cannot read config file {path}: {reason}") from exc
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    kinds = {(section, key): kind for section, key, kind, _, _ in _OPTIONS}
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in {known for known, _ in kinds}:
            raise UsageError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in kinds:
                raise UsageError(f"unknown config key '{key}' in [{section}]")
            try:
                values[key] = kinds[section, key](raw)
            except ValueError as exc:
                raise UsageError(
                    f"bad value for '{key}' in [{section}]: {raw!r}"
                ) from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2d-secrecy",
        description="Secrecy-enhancement analysis for a noise-limited D2D link "
        "under a Poisson field of eavesdroppers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, summary) in _COMMANDS.items():
        options = sub.add_parser(command, help=summary)
        options.add_argument("--config", help="INI config file; flags override it")
        for _, key, kind, _, commands in _OPTIONS:
            if command in commands:
                flag = "--" + key.replace("_", "-")
                options.add_argument(flag, type=kind, dest=key)
    return parser


def _build_grid(start: float, stop: float, step: float, variable: str) -> tuple[float, ...]:
    for name, value in (("grid-start", start), ("grid-stop", stop), ("grid-step", step)):
        if not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")
    if step <= 0.0:
        raise UsageError(f"--grid-step must be positive, got {step}")
    if stop < start:
        raise UsageError("--grid-stop must not be below --grid-start")
    if variable == "d" and start <= 0.0:
        raise UsageError(f"link distances must be positive, got grid start {start}")
    if variable == "lambda_e" and start < 0.0:
        raise UsageError(f"densities must be nonnegative, got grid start {start}")
    steps = (stop - start) / step + 1e-9  # inf where the quotient overflows
    if not steps < MAX_GRID_ROWS:
        raise UsageError(
            f"the grid would hold more than {MAX_GRID_ROWS} rows; widen --grid-step"
        )
    return tuple(start + i * step for i in range(int(steps) + 1))


def _make_config(cfg: argparse.Namespace) -> None:
    """Resolve every option onto the parsed namespace in place, then add
    the system parameters and the sweep grid built from them."""
    file_values = _load_config(cfg.config) if cfg.config else {}
    command = cfg.command
    # flag, else config file, else default; None where the command lacks it
    for _, key, _, default, commands in _OPTIONS:
        if command not in commands:
            vars(cfg).setdefault(key, None)
        elif getattr(cfg, key) is None:
            setattr(cfg, key, file_values.get(key, default))

    cfg.params = SystemParams(
        alpha=cfg.alpha,
        p_t=cfg.pt,
        beta_t=cfg.beta_t,
        beta_e=cfg.beta_e,
        epsilon=cfg.epsilon,
        sigma2_p=cfg.sigma2_p,
        sigma2_s=cfg.sigma2_s,
        lambda_e=cfg.lambda_e,
        d=_PLACEHOLDER_D if cfg.d is None else cfg.d,
    )
    if command in ("analytic", "select", "mc-validate") and cfg.d is None:
        raise UsageError(f"--d is required for {command}")
    if command in _DESIGN_COMMANDS and (cfg.r_g is None) == (cfg.gamma is None):
        raise UsageError(f"{command} needs exactly one design: pass --r-g or --gamma")

    cfg.grid = ()
    if cfg.grid_start is not None:
        variable = "d" if command == "sweep-d" else "lambda_e"
        cfg.grid = _build_grid(cfg.grid_start, cfg.grid_stop, cfg.grid_step, variable)

    for key in ("mc", "trials"):
        count = getattr(cfg, key)
        if count is not None and count < 1:
            raise UsageError(f"--{key} must be at least 1, got {count}")
    if cfg.format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {cfg.format!r}")


# Each report declares its CSV columns once; every CSV cell is read from
# the JSON report, so the two formats cannot disagree.

ANALYTIC_COLUMNS = (
    _column("technique", _text),
    _column("p_active", _prob),
    _column("p_cov", _prob),
    _column("p_sec", _prob),
)


def _design_forms(
    cfg: argparse.Namespace,
) -> tuple[GuardZoneDesign | NoiseSplitDesign, str, dict]:
    """The one design cfg names, its technique and its closed forms."""
    params = cfg.params
    if cfg.r_g is not None:
        design = GuardZoneDesign(r_g=cfg.r_g)
        forms = {
            "p_active": p_active(params, design),
            "p_cov": p_cov_gz(params, design),
            "p_sec": p_sec_gz(params, design),
        }
        return design, Technique.GUARD_ZONE.value, forms
    design = NoiseSplitDesign(gamma=cfg.gamma)
    forms = {
        "p_cov": p_cov_an(params, design),
        "p_sec": p_sec_an(params, design),
    }
    return design, Technique.ARTIFICIAL_NOISE.value, forms


def cmd_analytic(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    _, technique, forms = _design_forms(cfg)
    report = {
        "command": "analytic",
        "technique": technique,
        "params": _params_json(cfg),
        "design": {"r_g": cfg.r_g, "gamma": cfg.gamma},
        "p_active": forms.get("p_active"),
        "p_cov": forms["p_cov"],
        "p_sec": forms["p_sec"],
    }
    return report, [report]


OPTIMIZE_COLUMNS = (
    _column("lambda_threshold", _num),
    _column("enhancement_needed", _flag),
    _column("r_g_star", _num, "guard_zone", "r_g_star"),
    _column("gz_constraint_active", _flag, "guard_zone", "constraint_active"),
    _column("gz_p_cov", _prob, "guard_zone", "p_cov"),
    _column("gz_p_sec", _prob, "guard_zone", "p_sec"),
    _column("gamma_star", _num, "artificial_noise", "gamma_star"),
    _column("an_constraint_active", _flag, "artificial_noise", "constraint_active"),
    _column("an_p_cov", _prob, "artificial_noise", "p_cov"),
    _column("an_p_sec", _prob, "artificial_noise", "p_sec"),
)


def _optimum(cfg: argparse.Namespace, key: str, design: OptimalDesign) -> dict:
    """One optimum block of the optimize report, its parameter under key;
    p_cov is null where no --d was given."""
    return {
        key: design.parameter,
        "constraint_active": design.constraint_active,
        "p_cov": design.metrics.p_cov if cfg.d is not None else None,
        "p_sec": design.metrics.p_sec,
    }


def cmd_optimize(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    params = cfg.params
    gz = optimal_guard_radius(params)
    report = {
        "command": "optimize",
        "params": _params_json(cfg),
        "lambda_threshold": lambda_threshold(params),
        "enhancement_needed": gz.constraint_active,
        "guard_zone": _optimum(cfg, "r_g_star", gz),
        "artificial_noise": _optimum(cfg, "gamma_star", optimal_power_split(params)),
    }
    return report, [report]


def _verdict(selection: SelectionVerdict) -> str:
    """The better technique, or the token saying that none is needed."""
    return NO_ENHANCEMENT if selection.better is None else selection.better.value


SELECT_COLUMNS = (
    _column("verdict", _text),
    _column("f_value", _num),
    _column("h_value", _num),
    _column("g_value", _num),
    _column("r_g_star", _num),
    _column("gamma_star", _num),
    _column("lambda_threshold", _num),
)


def cmd_select(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    params = cfg.params
    selection = selection_function(params)
    report = {
        "command": "select",
        "params": _params_json(cfg),
        "verdict": _verdict(selection),
        "f_value": selection.f_value,
        "h_value": selection.h_value,
        "g_value": selection.g_value,
        "r_g_star": selection.gz_design.parameter,
        "gamma_star": selection.an_design.parameter,
        "lambda_threshold": lambda_threshold(params),
    }
    return report, [report]


MC_VALIDATE_COLUMNS = (
    _column("check", _text),
    _column("analytic", _prob),
    _column("mc", _prob),
    _column("half_width", _prob),
    _column("n_effective", _text),
    _column("pass", _flag),
)


def _check_entry(analytic: float, estimate: McEstimate) -> dict:
    return {
        "analytic": analytic,
        "mc": estimate.mean,
        "half_width": estimate.half_width,
        "n_effective": estimate.n_effective,
        "pass": abs(analytic - estimate.mean) <= 3.0 * estimate.half_width,
    }


def cmd_mc_validate(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    params = cfg.params
    design, technique, analytic = _design_forms(cfg)
    run = run_gz_trials if isinstance(design, GuardZoneDesign) else run_an_trials
    estimates = vars(run(params, design, _trial_config(cfg, cfg.trials)))
    checks = {
        name: _check_entry(value, estimates[name])
        for name, value in analytic.items()
    }
    report = {
        "command": "mc-validate",
        "technique": technique,
        "params": _params_json(cfg),
        "design": {"r_g": cfg.r_g, "gamma": cfg.gamma},
        "trials": cfg.trials,
        "seed": cfg.seed,
        "checks": checks,
        "all_pass": all(entry["pass"] for entry in checks.values()),
    }
    rows = [{"check": name, **entry} for name, entry in checks.items()]
    return report, rows


SWEEP_D_COLUMNS = (
    _column("d", _num),
    _column("f_value", _num),
    _column("r_g_star", _num),
    _column("gamma_star", _num),
    _column("p_cov_gz", _prob),
    _column("p_sec_gz", _prob),
    _column("p_cov_an", _prob),
    _column("p_sec_an", _prob),
    _column("mc_p_cov_gz", _prob, "mc_p_cov_gz", "mean"),
    _column("mc_p_cov_gz_half_width", _prob, "mc_p_cov_gz", "half_width"),
    _column("mc_p_cov_an", _prob, "mc_p_cov_an", "mean"),
    _column("mc_p_cov_an_half_width", _prob, "mc_p_cov_an", "half_width"),
    _column("verdict", _text),
    # the report's d_star, repeated on every row
    _column("d_star", _num),
)


def _sweep_d_row(d_value: float, selection: SelectionVerdict) -> dict:
    gz, an = selection.gz_design, selection.an_design
    return {
        "d": d_value,
        "f_value": selection.f_value,
        "r_g_star": gz.parameter,
        "gamma_star": an.parameter,
        "p_cov_gz": gz.metrics.p_cov,
        "p_sec_gz": gz.metrics.p_sec,
        "p_cov_an": an.metrics.p_cov,
        "p_sec_an": an.metrics.p_sec,
        "mc_p_cov_gz": None,
        "mc_p_cov_an": None,
        "verdict": _verdict(selection),
    }


def cmd_sweep_d(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    params = cfg.params
    d_star = critical_distance(params).d_star
    rows = [_sweep_d_row(d, selection_function(replace(params, d=d))) for d in cfg.grid]
    if cfg.mc is not None:
        # both optima of every row, simulated in one call on shared scenes
        designs = [
            (row["d"], design)
            for row in rows
            for design in (
                GuardZoneDesign(r_g=row["r_g_star"]),
                NoiseSplitDesign(gamma=row["gamma_star"]),
            )
        ]
        runs = run_trials(params, designs, _trial_config(cfg, cfg.mc))
        for row, gz_run, an_run in zip(rows, runs[0::2], runs[1::2]):
            row["mc_p_cov_gz"] = asdict(gz_run.p_cov)
            row["mc_p_cov_an"] = asdict(an_run.p_cov)
    report = {
        "command": "sweep-d",
        "params": _params_json(cfg),
        "lambda_threshold": lambda_threshold(params),
        "d_star": d_star,
        "mc_trials": cfg.mc,
        "seed": cfg.seed if cfg.mc is not None else None,
        "rows": rows,
    }
    return report, [{**row, "d_star": d_star} for row in rows]


SWEEP_LAMBDA_COLUMNS = (
    _column("lambda_e", _num),
    _column("d_star", _num),
    _column("f_at_d_star", _num),
    _column("r_g_star", _num),
    _column("gamma_star", _num),
    _column("p_cov_gz", _prob),
    _column("p_cov_an", _prob),
    _column("p_sec", _prob),
    _column("verdict", _text),
)


def _sweep_lambda_row(params: SystemParams, lam: float) -> dict:
    point = replace(params, lambda_e=lam)
    d_star = critical_distance(point).d_star
    solved = d_star is not None
    if solved:
        # r_g*, gamma* and p_sec do not depend on d, so the optima at d* serve
        point = replace(point, d=d_star)
    selection = selection_function(point)
    gz, an = selection.gz_design, selection.an_design
    return {
        "lambda_e": lam,
        "d_star": d_star,
        "f_at_d_star": selection.f_value,
        "r_g_star": gz.parameter,
        "gamma_star": an.parameter,
        "p_cov_gz": gz.metrics.p_cov if solved else None,
        "p_cov_an": an.metrics.p_cov if solved else None,
        "p_sec": gz.metrics.p_sec,
        "verdict": "ok" if solved else NO_ENHANCEMENT,
    }


def cmd_sweep_lambda(cfg: argparse.Namespace) -> tuple[dict, list[dict]]:
    params = cfg.params
    rows = [_sweep_lambda_row(params, lam) for lam in cfg.grid]
    solved = [row["d_star"] for row in rows if row["d_star"] is not None]
    monotone = all(a <= b for a, b in zip(solved, solved[1:]))
    report = {
        "command": "sweep-lambda",
        "params": _params_json(cfg),
        "lambda_threshold": lambda_threshold(params),
        "monotone_nondecreasing": monotone,
        "rows": rows,
    }
    if not monotone:
        # a property of the model at these parameters, not a failure
        print("warning: critical-distance curve is not nondecreasing", file=sys.stderr)
    return report, rows


# subcommand: (command function, CSV columns, --help summary)
_COMMANDS = {
    "analytic": (
        cmd_analytic, ANALYTIC_COLUMNS, "evaluate closed forms for one design"
    ),
    "optimize": (
        cmd_optimize, OPTIMIZE_COLUMNS, "density threshold and optimal designs"
    ),
    "select": (
        cmd_select, SELECT_COLUMNS, "pick the better technique at a link distance"
    ),
    "mc-validate": (
        cmd_mc_validate, MC_VALIDATE_COLUMNS, "compare closed forms against simulation"
    ),
    "sweep-d": (
        cmd_sweep_d, SWEEP_D_COLUMNS, "selection function across link distances"
    ),
    "sweep-lambda": (
        cmd_sweep_lambda,
        SWEEP_LAMBDA_COLUMNS,
        "critical distance across eavesdropper densities",
    ),
}


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _serialise(
    report: dict, columns: tuple[Column, ...], rows: list[dict], fmt: str
) -> str:
    """The report as text in fmt; NumericalError where it holds a number
    strict JSON (RFC 8259) cannot carry, inf or nan. The CSV rows are read
    from the same report, so the check holds for both formats."""
    try:
        text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError("the report holds a non-finite number") from exc
    return _csv_text(columns, rows) if fmt == "csv" else text


def main(argv: list[str] | None = None) -> int:
    cfg = _build_parser().parse_args(argv)
    try:
        _make_config(cfg)
        command, columns, _ = _COMMANDS[cfg.command]
        report, csv_rows = command(cfg)
        _emit(_serialise(report, columns, csv_rows, cfg.format), cfg.out)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.command == "select":
        # the verdict token, only for a report that was written
        print(report["verdict"], file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
