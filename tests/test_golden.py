"""Byte-for-byte checks of the CLI's stdout against recorded reports.

Each case runs one subcommand in both output formats and compares
stdout with tests/golden/<case>.<format>; a JSON report must also
validate against docs/output_schema.json. The cases cover every
subcommand plus the edge rows each report can emit (no distance given,
no enhancement needed, no active Monte-Carlo trial, densities below and
at the threshold). Monte-Carlo cases use few trials, so their figures
pin the random stream; every closed-form number of the other cases is
also checked against tests/oracle.py. The schema must reject each golden
report with one key deleted from any object, or an unknown key added to
any, and sweep-d counts below their bounds.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

from d2d_secrecy import cli
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


# the cases that simulate nothing, so every number they print is a closed form
CLOSED_FORM_CASES = [name for name, argv, _ in CASES if not {"--mc", "--trials"} & set(argv)]


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
        points = oracle.report_points(report)
        assert [miss for point in points for miss in _misses(*point)] == []


def _objects(node, path=()):
    """(path, object) for every JSON object within node, node included."""
    if isinstance(node, dict):
        yield path, node
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _objects(child, (*path, key))


def _at(report, path):
    for key in path:
        report = report[key]
    return report


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_schema_requires_exactly_the_keys_written(name):
    report = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    # one row of each shape (the type of each value) is mutated, within a
    # report of that one row: the schema treats rows of a shape alike
    rows = report.get("rows", [])
    shapes = {tuple((key, type(value)) for key, value in row.items()): row for row in rows}
    accepted = []
    for view in [{**report, "rows": [row]} for row in shapes.values()] or [report]:
        text = json.dumps(view)
        for path, node in _objects(view):
            # only the guard zone reports a p_active check
            optional = {"p_active"} if path == ("checks",) else set()
            for key in [*node.keys() - optional, "unknown"]:
                mutant = json.loads(text)
                target = _at(mutant, path)
                if key in target:
                    del target[key]
                else:
                    target[key] = 0.5
                if oracle.VALIDATOR.is_valid(mutant):
                    accepted.append((*path, key))
    assert accepted == []


@pytest.mark.parametrize("key, value", [("mc_trials", 0), ("mc_trials", -1), ("seed", -1)])
def test_schema_bounds_sweep_d_counts(key, value):
    report = json.loads((GOLDEN / "sweep-d.json").read_text(encoding="utf-8"))
    assert oracle.VALIDATOR.is_valid(report)
    report[key] = value
    assert not oracle.VALIDATOR.is_valid(report)
