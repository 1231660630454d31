"""Byte-for-byte checks of the CLI's stdout against recorded reports.

Each case runs one subcommand in both output formats and compares
stdout with tests/golden/<case>.<format>; a JSON report must also
validate against docs/output_schema.json. The cases cover every
subcommand plus the edge rows each report can emit (no distance given,
no enhancement needed, no active Monte-Carlo trial, densities below and
at the threshold). Monte-Carlo cases use few trials, so their figures
pin the random stream rather than the closed forms.
"""

import json
from pathlib import Path

import jsonschema
import pytest

from d2d_secrecy import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
VALIDATOR = jsonschema.Draft202012Validator(
    json.loads((ROOT / "docs" / "output_schema.json").read_text())
)

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
        VALIDATOR.validate(json.loads(out))
