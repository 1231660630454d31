"""Command-line driver for analysis, optimization, and simulation.

Subcommands:

* ``analytic``      evaluate the closed forms at one design point
* ``optimize``      density threshold and both optimal designs
* ``select``        technique selection verdict at a given link distance
* ``mc-validate``   closed forms against Monte-Carlo estimates
* ``sweep-d``       selection function across link distances
* ``sweep-lambda``  critical distance across eavesdropper densities

Output is JSON (full precision) or CSV (fixed headers, probabilities at
6 significant digits) to stdout or ``--out``. Parameters come from
flags, optionally seeded by an INI config file (``--config``); explicit
flags win. Exit codes: 0 success, 2 usage or validation error,
3 numerical failure, 4 insufficient Monte-Carlo data.
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
from dataclasses import asdict, dataclass, replace

from .errors import (
    DomainError,
    InsufficientDataError,
    NumericalError,
    RegimeError,
)
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
from .montecarlo import McEstimate, TrialConfig, run_an_trials, run_gz_trials
from .optimizer import (
    Technique,
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)

__all__ = ["RunConfig", "main"]

NO_ENHANCEMENT = "no-enhancement-needed"

# distance used internally when the caller did not supply one; commands
# that run without --d must never emit anything derived from it
_PLACEHOLDER_D = 1.0

_DEFAULTS = {
    "alpha": 4.0,
    "pt": 1.0,
    "beta_t": 2.0,
    "beta_e": 1.0,
    "epsilon": 0.9,
    "sigma2_p": 1.0,
    "sigma2_s": 1.0,
    "lambda_e": 0.1,
    "trials": 1_000_000,
    "seed": 0,
    "tail_prob": 1e-4,
    "format": "json",
    "out": "-",
}

_GRID_DEFAULTS = {
    "sweep-d": (0.1, 1.5, 0.05),
    "sweep-lambda": (0.05, 0.25, 0.025),
}

# config file layout: one section per module, keys match the flag names
_CONFIG_SECTIONS = {
    "params": {
        "alpha": float,
        "pt": float,
        "beta_t": float,
        "beta_e": float,
        "epsilon": float,
        "sigma2_p": float,
        "sigma2_s": float,
        "lambda_e": float,
        "d": float,
    },
    "design": {"r_g": float, "gamma": float},
    "mc": {
        "trials": int,
        "seed": int,
        "window_radius": float,
        "tail_prob": float,
    },
    "sweep": {
        "grid_start": float,
        "grid_stop": float,
        "grid_step": float,
        "mc": int,
    },
    "output": {"format": str, "out": str},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved inputs for one CLI invocation."""

    params: SystemParams
    d_supplied: bool
    r_g: float | None = None
    gamma: float | None = None
    trials: int = 1_000_000
    seed: int = 0
    window_radius: float | None = None
    tail_prob: float = 1e-4
    grid: tuple[float, ...] = ()
    mc_trials: int | None = None
    output_format: str = "json"
    output_path: str = "-"


class UsageError(Exception):
    """Bad flags or config values; maps to exit code 2."""


def _num(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def _prob(x: float | None) -> str:
    return "" if x is None else format(float(x), ".6g")


def _flag(b: bool | None) -> str:
    return "" if b is None else ("true" if b else "false")


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


def _estimate_json(est: McEstimate | None) -> dict | None:
    return None if est is None else asdict(est)


def _params_json(params: SystemParams, d_supplied: bool) -> dict:
    return {**asdict(params), "d": params.d if d_supplied else None}


def _csv_text(columns: tuple[Column, ...], rows: list[dict]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_header(columns))
    writer.writerows([fmt(value(row)) for _, value, fmt in columns] for row in rows)
    return buffer.getvalue()


def _load_config(path: str) -> dict[str, object]:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _CONFIG_SECTIONS:
            raise UsageError(f"unknown config section [{section}]")
        known = _CONFIG_SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise UsageError(f"unknown config key '{key}' in [{section}]")
            try:
                values[key] = known[key](raw)
            except ValueError as exc:
                raise UsageError(
                    f"bad value for '{key}' in [{section}]: {raw!r}"
                ) from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--config", help="INI config file; flags override it")
    params.add_argument("--alpha", type=float)
    params.add_argument("--pt", type=float, dest="pt")
    params.add_argument("--beta-t", type=float, dest="beta_t")
    params.add_argument("--beta-e", type=float, dest="beta_e")
    params.add_argument("--epsilon", type=float)
    params.add_argument("--sigma2-p", type=float, dest="sigma2_p")
    params.add_argument("--sigma2-s", type=float, dest="sigma2_s")
    params.add_argument("--lambda-e", type=float, dest="lambda_e")
    params.add_argument("--d", type=float)
    params.add_argument("--format", choices=("csv", "json"))
    params.add_argument("--out")

    design = argparse.ArgumentParser(add_help=False)
    design.add_argument("--r-g", type=float, dest="r_g")
    design.add_argument("--gamma", type=float)

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--trials", type=int)
    mc.add_argument("--seed", type=int)
    mc.add_argument("--window-radius", type=float, dest="window_radius")
    mc.add_argument("--tail-prob", type=float, dest="tail_prob")

    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid-start", type=float, dest="grid_start")
    grid.add_argument("--grid-stop", type=float, dest="grid_stop")
    grid.add_argument("--grid-step", type=float, dest="grid_step")

    parser = argparse.ArgumentParser(
        prog="d2d-secrecy",
        description="Secrecy-enhancement analysis for a noise-limited D2D link "
        "under a Poisson field of eavesdroppers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "analytic",
        parents=[params, design],
        help="evaluate closed forms for one design",
    )
    sub.add_parser(
        "optimize",
        parents=[params],
        help="density threshold and optimal designs",
    )
    sub.add_parser(
        "select",
        parents=[params],
        help="pick the better technique at a link distance",
    )
    sub.add_parser(
        "mc-validate",
        parents=[params, design, mc],
        help="compare closed forms against simulation",
    )
    sweep_d = sub.add_parser(
        "sweep-d",
        parents=[params, mc, grid],
        help="selection function across link distances",
    )
    sweep_d.add_argument(
        "--mc",
        type=int,
        dest="mc",
        help="add Monte-Carlo coverage columns with this many trials",
    )
    sub.add_parser(
        "sweep-lambda",
        parents=[params, grid],
        help="critical distance across eavesdropper densities",
    )
    return parser


def _resolve(args: argparse.Namespace, file_values: dict, key: str):
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return flag_value
    if key in file_values:
        return file_values[key]
    return _DEFAULTS.get(key)


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
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(count))


def _make_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config(args.config) if args.config else {}

    def get(key):
        return _resolve(args, file_values, key)

    d_value = get("d")
    d_supplied = d_value is not None
    try:
        params = SystemParams(
            alpha=get("alpha"),
            p_t=get("pt"),
            beta_t=get("beta_t"),
            beta_e=get("beta_e"),
            epsilon=get("epsilon"),
            sigma2_p=get("sigma2_p"),
            sigma2_s=get("sigma2_s"),
            lambda_e=get("lambda_e"),
            d=d_value if d_supplied else _PLACEHOLDER_D,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc

    command = args.command
    if command in ("analytic", "select", "mc-validate") and not d_supplied:
        raise UsageError(f"--d is required for {command}")

    r_g = get("r_g") if command in ("analytic", "mc-validate") else None
    gamma = get("gamma") if command in ("analytic", "mc-validate") else None
    if command in ("analytic", "mc-validate"):
        if (r_g is None) == (gamma is None):
            raise UsageError(
                f"{command} needs exactly one design: pass --r-g or --gamma"
            )

    grid: tuple[float, ...] = ()
    if command in _GRID_DEFAULTS:
        start_default, stop_default, step_default = _GRID_DEFAULTS[command]
        start = get("grid_start")
        stop = get("grid_stop")
        step = get("grid_step")
        grid = _build_grid(
            start if start is not None else start_default,
            stop if stop is not None else stop_default,
            step if step is not None else step_default,
            "d" if command == "sweep-d" else "lambda_e",
        )

    mc_trials = get("mc") if command == "sweep-d" else None
    if mc_trials is not None and mc_trials < 1:
        raise UsageError(f"--mc must be at least 1, got {mc_trials}")
    trials = get("trials")
    if trials is not None and trials < 1:
        raise UsageError(f"--trials must be at least 1, got {trials}")
    output_format = get("format")
    if output_format not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {output_format!r}")

    return RunConfig(
        params=params,
        d_supplied=d_supplied,
        r_g=r_g,
        gamma=gamma,
        trials=trials,
        seed=get("seed"),
        window_radius=get("window_radius"),
        tail_prob=get("tail_prob"),
        grid=grid,
        mc_trials=mc_trials,
        output_format=output_format,
        output_path=get("out"),
    )


# Each report declares its CSV columns once; every CSV cell is read from
# the JSON report, so the two formats cannot disagree.

ANALYTIC_COLUMNS = (
    _column("technique", _text),
    _column("p_active", _prob),
    _column("p_cov", _prob),
    _column("p_sec", _prob),
)
ANALYTIC_HEADER = _header(ANALYTIC_COLUMNS)


def cmd_analytic(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    if cfg.r_g is not None:
        design = GuardZoneDesign(r_g=cfg.r_g)
        technique = Technique.GUARD_ZONE.value
        active = p_active(params, design)
        cov = p_cov_gz(params, design)
        sec = p_sec_gz(params, design)
    else:
        design = NoiseSplitDesign(gamma=cfg.gamma)
        technique = Technique.ARTIFICIAL_NOISE.value
        active = None
        cov = p_cov_an(params, design)
        sec = p_sec_an(params, design)
    report = {
        "command": "analytic",
        "technique": technique,
        "params": _params_json(params, cfg.d_supplied),
        "design": {"r_g": cfg.r_g, "gamma": cfg.gamma},
        "p_active": active,
        "p_cov": cov,
        "p_sec": sec,
    }
    return report, [report], 0


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
OPTIMIZE_HEADER = _header(OPTIMIZE_COLUMNS)


def cmd_optimize(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    threshold = lambda_threshold(params)
    gz = optimal_guard_radius(params)
    an = optimal_power_split(params)
    report = {
        "command": "optimize",
        "params": _params_json(params, cfg.d_supplied),
        "lambda_threshold": threshold,
        "enhancement_needed": params.lambda_e >= threshold,
        "guard_zone": {
            "r_g_star": gz.parameter,
            "constraint_active": gz.constraint_active,
            "p_cov": gz.metrics.p_cov if cfg.d_supplied else None,
            "p_sec": gz.metrics.p_sec,
        },
        "artificial_noise": {
            "gamma_star": an.parameter,
            "constraint_active": an.constraint_active,
            "p_cov": an.metrics.p_cov if cfg.d_supplied else None,
            "p_sec": an.metrics.p_sec,
        },
    }
    return report, [report], 0


SELECT_COLUMNS = (
    _column("verdict", _text),
    _column("f_value", _num),
    _column("h_value", _num),
    _column("g_value", _num),
    _column("r_g_star", _num),
    _column("gamma_star", _num),
    _column("lambda_threshold", _num),
)
SELECT_HEADER = _header(SELECT_COLUMNS)


def cmd_select(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    threshold = lambda_threshold(params)
    try:
        verdict = selection_function(params)
        fields = {
            "verdict": verdict.better.value,
            "f_value": verdict.f_value,
            "h_value": verdict.h_value,
            "g_value": verdict.g_value,
            "r_g_star": verdict.gz_design.parameter,
            "gamma_star": verdict.an_design.parameter,
        }
    except RegimeError:
        fields = {
            "verdict": NO_ENHANCEMENT,
            "f_value": None,
            "h_value": None,
            "g_value": None,
            "r_g_star": 0.0,
            "gamma_star": 1.0,
        }
    report = {
        "command": "select",
        "params": _params_json(params, cfg.d_supplied),
        **fields,
        "lambda_threshold": threshold,
    }
    print(report["verdict"], file=sys.stderr)
    return report, [report], 0


MC_VALIDATE_COLUMNS = (
    _column("check", _text),
    _column("analytic", _prob),
    _column("mc", _prob),
    _column("half_width", _prob),
    # a check without an estimate has n_effective 0 in JSON, blank in CSV
    (
        "n_effective",
        lambda entry: None if entry["mc"] is None else entry["n_effective"],
        _text,
    ),
    _column("pass", _flag),
    _column("note", _text),
)
MC_VALIDATE_HEADER = _header(MC_VALIDATE_COLUMNS)


def _check_entry(analytic: float, estimate: McEstimate | None) -> dict:
    if estimate is None:
        # only the conditional secrecy estimate can be missing
        return {
            "analytic": analytic,
            "mc": None,
            "half_width": None,
            "n_effective": 0,
            "pass": None,
            "note": "no-active-trials",
        }
    return {
        "analytic": analytic,
        "mc": estimate.mean,
        "half_width": estimate.half_width,
        "n_effective": estimate.n_effective,
        "pass": abs(analytic - estimate.mean) <= 3.0 * estimate.half_width,
        "note": None,
    }


def cmd_mc_validate(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    trial_cfg = TrialConfig(
        n_trials=cfg.trials,
        seed=cfg.seed,
        window_radius=cfg.window_radius,
        tail_prob=cfg.tail_prob,
    )
    exit_code = 0
    if cfg.r_g is not None:
        design = GuardZoneDesign(r_g=cfg.r_g)
        technique = Technique.GUARD_ZONE.value
        analytic = {
            "p_active": p_active(params, design),
            "p_cov": p_cov_gz(params, design),
            "p_sec": p_sec_gz(params, design),
        }
        try:
            estimates = vars(run_gz_trials(params, design, trial_cfg))
        except InsufficientDataError as exc:
            estimates = exc.partial
            exit_code = 4
    else:
        design = NoiseSplitDesign(gamma=cfg.gamma)
        technique = Technique.ARTIFICIAL_NOISE.value
        analytic = {
            "p_cov": p_cov_an(params, design),
            "p_sec": p_sec_an(params, design),
        }
        estimates = vars(run_an_trials(params, design, trial_cfg))
    checks = {
        name: _check_entry(value, estimates.get(name))
        for name, value in analytic.items()
    }
    passes = [entry["pass"] for entry in checks.values()]
    report = {
        "command": "mc-validate",
        "technique": technique,
        "params": _params_json(params, cfg.d_supplied),
        "design": {"r_g": cfg.r_g, "gamma": cfg.gamma},
        "trials": cfg.trials,
        "seed": cfg.seed,
        "checks": checks,
        "all_pass": all(p is True for p in passes) if passes else False,
    }
    rows = [{"check": name, **entry} for name, entry in checks.items()]
    return report, rows, exit_code


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
SWEEP_D_HEADER = _header(SWEEP_D_COLUMNS)


def _sweep_d_row(
    params: SystemParams, d_value: float, threshold: float, cfg: RunConfig
) -> dict:
    point = replace(params, d=d_value)
    if point.lambda_e < threshold:
        gz = optimal_guard_radius(point)
        an = optimal_power_split(point)
        f_value = None
        verdict = NO_ENHANCEMENT
    else:
        selection = selection_function(point)
        gz, an = selection.gz_design, selection.an_design
        f_value = selection.f_value
        verdict = selection.better.value
    mc_gz = mc_an = None
    if cfg.mc_trials is not None:
        trial_cfg = TrialConfig(
            n_trials=cfg.mc_trials,
            seed=cfg.seed,
            window_radius=cfg.window_radius,
            tail_prob=cfg.tail_prob,
        )
        try:
            mc_gz = run_gz_trials(
                point, GuardZoneDesign(r_g=gz.parameter), trial_cfg
            ).p_cov
        except InsufficientDataError as exc:
            # coverage is unconditional, so it is estimated without active trials
            mc_gz = exc.partial["p_cov"]
        mc_an = run_an_trials(
            point, NoiseSplitDesign(gamma=an.parameter), trial_cfg
        ).p_cov
    return {
        "d": d_value,
        "f_value": f_value,
        "r_g_star": gz.parameter,
        "gamma_star": an.parameter,
        "p_cov_gz": gz.metrics.p_cov,
        "p_sec_gz": gz.metrics.p_sec,
        "p_cov_an": an.metrics.p_cov,
        "p_sec_an": an.metrics.p_sec,
        "mc_p_cov_gz": _estimate_json(mc_gz),
        "mc_p_cov_an": _estimate_json(mc_an),
        "verdict": verdict,
    }


def cmd_sweep_d(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    threshold = lambda_threshold(params)
    d_star = (
        critical_distance(params).d_star if params.lambda_e >= threshold else None
    )
    report = {
        "command": "sweep-d",
        "params": _params_json(params, cfg.d_supplied),
        "lambda_threshold": threshold,
        "d_star": d_star,
        "mc_trials": cfg.mc_trials,
        "seed": cfg.seed if cfg.mc_trials is not None else None,
        "rows": [
            _sweep_d_row(params, d_value, threshold, cfg) for d_value in cfg.grid
        ],
    }
    return report, [{**row, "d_star": d_star} for row in report["rows"]], 0


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
SWEEP_LAMBDA_HEADER = _header(SWEEP_LAMBDA_COLUMNS)


def _sweep_lambda_row(params: SystemParams, lam: float, threshold: float) -> dict:
    point = replace(params, lambda_e=lam)
    if lam < threshold:
        gz = optimal_guard_radius(point)
        an = optimal_power_split(point)
        d_star = f_value = p_cov_gz = p_cov_an = None
        verdict = NO_ENHANCEMENT
    else:
        # r_g*, gamma* and p_sec do not depend on d, so the optima at d* serve
        d_star = critical_distance(point).d_star
        selection = selection_function(replace(point, d=d_star))
        gz, an = selection.gz_design, selection.an_design
        f_value = selection.f_value
        p_cov_gz, p_cov_an = gz.metrics.p_cov, an.metrics.p_cov
        verdict = "ok"
    return {
        "lambda_e": lam,
        "d_star": d_star,
        "f_at_d_star": f_value,
        "r_g_star": gz.parameter,
        "gamma_star": an.parameter,
        "p_cov_gz": p_cov_gz,
        "p_cov_an": p_cov_an,
        "p_sec": gz.metrics.p_sec,
        "verdict": verdict,
    }


def cmd_sweep_lambda(cfg: RunConfig) -> tuple[dict, list[dict], int]:
    params = cfg.params
    threshold = lambda_threshold(params)
    rows = [_sweep_lambda_row(params, lam, threshold) for lam in cfg.grid]
    solved = [row["d_star"] for row in rows if row["d_star"] is not None]
    monotone = all(a <= b for a, b in zip(solved, solved[1:]))
    report = {
        "command": "sweep-lambda",
        "params": _params_json(params, cfg.d_supplied),
        "lambda_threshold": threshold,
        "monotone_nondecreasing": monotone,
        "rows": rows,
    }
    exit_code = 0
    if not monotone:
        print(
            "error: critical-distance curve is not nondecreasing", file=sys.stderr
        )
        exit_code = 3
    return report, rows, exit_code


_COMMANDS = {
    "analytic": (cmd_analytic, ANALYTIC_COLUMNS),
    "optimize": (cmd_optimize, OPTIMIZE_COLUMNS),
    "select": (cmd_select, SELECT_COLUMNS),
    "mc-validate": (cmd_mc_validate, MC_VALIDATE_COLUMNS),
    "sweep-d": (cmd_sweep_d, SWEEP_D_COLUMNS),
    "sweep-lambda": (cmd_sweep_lambda, SWEEP_LAMBDA_COLUMNS),
}


def _emit(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


# glibc mallopt parameters, and the size below which freed memory is kept
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_KEEP_FREED_BYTES = 32 << 20


def _keep_freed_memory() -> None:
    """Let glibc reuse the Monte-Carlo batch arrays instead of unmapping them.

    Every batch of trials frees a few MB of arrays and allocates them again.
    By default glibc returns that memory to the kernel after each batch and
    faults it back in, zeroed, for the next: `sweep-d --mc 150000` took
    125 000 page faults and 0.3-0.45 s of system time that way, a cost that
    swings with the host's memory load. Allocations below 32 MB now come
    from the heap, and the heap shrinks only past 32 MB free at its top.
    The setting is process-wide, so only the CLI makes it; where mallopt
    is missing it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _KEEP_FREED_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _KEEP_FREED_BYTES)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _make_config(args)
        command, columns = _COMMANDS[args.command]
        report, csv_rows, exit_code = command(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if cfg.output_format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        text = _csv_text(columns, csv_rows)
    _emit(text, cfg.output_path)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
