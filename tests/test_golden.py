"""Byte-for-byte checks of the CLI's stdout against recorded reports.

Each case runs one subcommand in both output formats and compares
stdout with tests/golden/<case>.<format>; a JSON report must also
validate against docs/output_schema.json. The cases cover every
subcommand plus the edge rows each report can emit (no distance given,
no enhancement needed, no active Monte-Carlo trial, densities below and
at the threshold). Monte-Carlo cases use few trials, so their figures
pin the random stream; every closed-form number of the other cases is
also checked against tests/oracle.py.
"""

import json
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import pytest

from d2d_secrecy import cli
from d2d_secrecy.model import SystemParams
import oracle

GOLDEN = Path(__file__).resolve().parent / "golden"

LAMBDA_STAR = "0.03784278358522515"

# (case name, argv, exit code)
CASES = [
    ("analytic-gz", ["analytic", "--d", "1", "--r-g", "0.5"], 0),
    ("analytic-an", ["analytic", "--d", "1", "--gamma", "0.6"], 0),
    ("optimize", ["optimize", "--d", "0.6"], 0),
    ("optimize-no-d", ["optimize", "--lambda-e", "0.02"], 0),
    ("select", ["select", "--d", "0.8"], 0),
    ("select-below", ["select", "--d", "1", "--lambda-e", "0.01"], 0),
    ("mc-validate-gz",
     ["mc-validate", "--d", "0.6", "--r-g", "0.79", "--trials", "20000", "--seed", "3"], 0),
    ("mc-validate-an",
     ["mc-validate", "--d", "0.6", "--gamma", "0.57", "--trials", "20000", "--seed", "3"], 0),
    ("mc-validate-inactive",
     ["mc-validate", "--d", "0.6", "--r-g", "3", "--lambda-e", "1", "--trials", "20",
      "--seed", "3"], 0),
    ("sweep-d",
     ["sweep-d", "--grid-start", "0.2", "--grid-stop", "1.0", "--grid-step", "0.2",
      "--mc", "2000", "--seed", "1"], 0),
    ("sweep-d-default", ["sweep-d"], 0),
    ("sweep-d-inactive",
     ["sweep-d", "--lambda-e", "3", "--grid-start", "0.4", "--grid-stop", "0.8",
      "--grid-step", "0.2", "--mc", "2000", "--seed", "1"], 0),
    ("sweep-d-empty", ["sweep-d", "--lambda-e", "0", "--grid-stop", "0.3"], 0),
    ("sweep-lambda", ["sweep-lambda"], 0),
    ("sweep-lambda-below",
     ["sweep-lambda", "--grid-start", "0.01", "--grid-stop", "0.05", "--grid-step", "0.02"], 0),
    ("sweep-lambda-threshold",
     ["sweep-lambda", "--grid-start", LAMBDA_STAR, "--grid-stop", LAMBDA_STAR,
      "--grid-step", "1"], 0),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name, argv, exit_code", CASES, ids=[c[0] for c in CASES])
def test_stdout_matches_golden(capsys, name, argv, exit_code, fmt):
    assert cli.main([*argv, "--format", fmt]) == exit_code
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    out = capsys.readouterr().out
    assert out == expected
    if fmt == "json":
        oracle.VALIDATOR.validate(json.loads(out))


# the cases that simulate nothing, so every number they print is a closed
# form; and the sweep-lambda row keys under the names of the oracle's routes
CLOSED_FORM_CASES = [name for name, argv, _ in CASES if not {"--mc", "--trials"} & set(argv)]
RENAMED = {"f_at_d_star": "f_value", "p_sec": "p_sec_gz"}


def _points(report):
    """(params, r_g, gamma, fields) for each point of a report: where it was
    computed, and its closed forms under the names of the oracle's routes."""
    given = report["params"]
    params = SystemParams(**{**given, "d": given["d"] or 1.0})
    r_g, gamma, fields = report.get("r_g_star"), report.get("gamma_star"), report
    if report["command"] == "analytic":
        r_g, gamma = report["design"]["r_g"], report["design"]["gamma"]
        tech = "gz" if gamma is None else "an"
        fields = {"p_active": report["p_active"], f"p_cov_{tech}": report["p_cov"],
                  f"p_sec_{tech}": report["p_sec"]}
    elif report["command"] == "optimize":
        gz, an = report["guard_zone"], report["artificial_noise"]
        r_g, gamma = gz["r_g_star"], an["gamma_star"]
        fields = {"lambda_threshold": report["lambda_threshold"], "r_g_star": r_g,
                  "gamma_star": gamma, "p_cov_gz": gz["p_cov"], "p_sec_gz": gz["p_sec"],
                  "p_cov_an": an["p_cov"], "p_sec_an": an["p_sec"]}
    return [(params, r_g, gamma, fields)] + [
        (replace(params, d=row.get("d") or row.get("d_star") or 1.0,
                 lambda_e=row.get("lambda_e", params.lambda_e)),
         row["r_g_star"], row["gamma_star"], {RENAMED.get(k, k): v for k, v in row.items()})
        for row in report.get("rows", [])]


def _misses(params, r_g, gamma, fields):
    """The fields that miss the oracle by more than the docstring tolerance
    of the function that printed them; a coverage without a distance is None.
    r_g* and d* have optimal_guard_radius's conditioning bound: from 1 up,
    lambda_e is lambda* within rounding, and either regime may be printed."""
    alpha = mp.mpf(params.alpha)
    margin = params.lambda_e / oracle.lambda_threshold(params) - 1
    design_tol = max(1e-9, 1e-15 / abs(margin))
    misses = []
    for name, got in fields.items():
        regime = name in ("f_value", "h_value", "g_value", "d_star") and design_tol < 1
        if regime and (got is None) != (margin < 0):
            misses.append(f"{name}: {got!r} at a margin of {mp.nstr(margin, 3)}")
        if got is None or (regime and margin < 0):
            continue
        rel, floor = 0, 0
        if name == "lambda_threshold":
            want, rel = oracle.lambda_threshold(params), 1e-13
        elif name == "r_g_star":
            want, rel = oracle.guard_radius_star(params), design_tol
        elif name in ("gamma_star", "g_value"):
            want, rel = oracle.gamma_star(params), 1e-14 * alpha
        elif name == "d_star":
            want, rel = oracle.critical_distance(params), design_tol
            if want is None:  # within rounding of lambda*, the limit there
                want, rel = oracle.threshold_limit(params), 1e-9
        elif name in ("h_value", "f_value"):
            # F at the printed h; where none is printed, at the oracle's,
            # widened by the error a printed h would carry
            f_value, h = oracle.selection(params, gamma, fields.get("h_value"))
            h_rel = 1e-14 * alpha / (1 - gamma) if h else 0
            if name == "h_value":
                want, rel = h, h_rel
            else:
                spread = 0 if "h_value" in fields else h_rel * h ** (2 / alpha) * mp.exp(-h)
                want, floor = f_value, 1e-13 * mp.gamma(2 / alpha) + spread
        elif name.startswith("p_"):
            design = r_g if name.endswith(("_gz", "active")) else gamma
            want, rel, floor = getattr(oracle, name)(params, design), 1e-10, 1e-12
        else:
            continue
        if abs(got - want) > max(rel * abs(want), floor):
            misses.append(f"{name}: {got!r} against {mp.nstr(want, 17)}")
    return misses


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_closed_forms_match_oracle(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    with mp.workdps(30):
        assert [miss for point in _points(report) for miss in _misses(*point)] == []
