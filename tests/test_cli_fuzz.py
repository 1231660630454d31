"""Fuzz test of the command-line driver over the whole declared domain.

Every subcommand runs in process through cli.main with options drawn
log-uniformly across their domains, edges included: the threshold
density exactly, an empty field, gamma near 0 and 1, alpha near 2 and up
to 1e6, distances up to 1e300. Whatever the inputs, a run exits 0, 2 or
3; a successful run prints strict JSON that validates against the
schema, or CSV with the declared header; a failed run prints nothing on
stdout. Every activity and coverage probability a JSON report prints is
within the model's stated tolerance of tests/oracle.py at the parameters
and design the report gives. The secrecy forms, r_g*, d* and F are not
yet checked here, as large alpha still moves them past their tolerance.

A Monte-Carlo run's memory grows with the density only where a single
trial expects more than 2^13 points, but its time grows with the points
it draws, so a run keeps at most 5 expected points per trial inside its
window (the guard below) and at most a few hundred trials.
"""

import contextlib
import csv
import io
import json
import math
from unittest import mock

import mpmath as mp
from hypothesis import HealthCheck, example, given, reject, settings, strategies as st

from d2d_secrecy import cli, montecarlo
from d2d_secrecy.model import SystemParams
from d2d_secrecy.optimizer import lambda_threshold
import oracle

# most expected eavesdroppers per trial a fuzzed simulation may draw
MAX_POINTS_PER_TRIAL = 5.0
MAX_TRIALS = 300
# the options' defaults, for the threshold density of a draw
DEFAULTS = {key: default for _, key, _, default, _ in cli._OPTIONS}
# the closed forms checked against the oracle, each by its own route
CHECKED_FORMS = ("p_active", "p_cov_gz", "p_cov_an")


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda u: 10.0**u)


def _near_0_or_1():
    # (0, 1), log-uniform towards both ends: 10^-u and 1 - 10^-u
    tiny = _log_uniform(-16.0, -0.3)
    return st.one_of(tiny, tiny.map(lambda t: 1.0 - t))


POSITIVE = _log_uniform(-12.0, 12.0)
DISTANCE = _log_uniform(-12.0, 300.0)
ALPHA = st.one_of(_log_uniform(-12.0, 6.0).map(lambda t: 2.0 + t), st.just(1e6))


def _threshold(options):
    # lambda* at the drawn parameters (None where they are invalid or
    # overflow, so the run fails before it needs a density)
    values = {**DEFAULTS, **options}
    try:
        return lambda_threshold(SystemParams(
            alpha=values["alpha"], p_t=values["pt"], beta_t=values["beta_t"],
            beta_e=values["beta_e"], epsilon=values["epsilon"],
            sigma2_p=values["sigma2_p"], sigma2_s=values["sigma2_s"],
            lambda_e=0.0, d=1.0,
        ))
    except (ValueError, ArithmeticError, RuntimeError):
        return None


def _density(draw, options, hi_exp):
    threshold = _threshold(options)
    edges = [0.0] + ([threshold] if threshold is not None else [])
    return draw(st.one_of(st.sampled_from(edges), _log_uniform(-12.0, hi_exp)))


def _grid(draw, start):
    # a short grid from start; sometimes a grid the CLI must reject
    if draw(st.integers(0, 9)) == 0:
        return [draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
                draw(st.floats(-1.0, 1.0))]
    step = draw(POSITIVE)
    return [start, start + draw(st.integers(0, 30)) * step, step]


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    simulates = command == "mc-validate" or (
        command == "sweep-d" and draw(st.booleans())
    )
    options = {}
    for key, strategy in (
        ("alpha", ALPHA),
        ("pt", POSITIVE),
        ("beta_t", POSITIVE),
        ("beta_e", POSITIVE),
        ("epsilon", _near_0_or_1()),
        ("sigma2_p", POSITIVE),
        ("sigma2_s", POSITIVE),
    ):
        if draw(st.booleans()):
            options[key] = draw(strategy)
    # simulations stay at densities whose windows can stay small
    options["lambda_e"] = _density(draw, options, 0.5 if simulates else 12.0)
    if command in ("analytic", "select", "mc-validate") or draw(st.booleans()):
        options["d"] = draw(DISTANCE)
    if command in cli._DESIGN_COMMANDS:
        if draw(st.booleans()):
            options["r_g"] = draw(st.one_of(st.just(0.0), DISTANCE))
        else:
            options["gamma"] = draw(st.one_of(st.sampled_from([0.0, 1.0]), _near_0_or_1()))
    if simulates:
        options["seed"] = draw(st.integers(0, 2**64 - 1))
        if draw(st.booleans()):
            options["window_radius"] = draw(DISTANCE)
        if draw(st.booleans()):
            options["tail_prob"] = draw(_near_0_or_1())
        trials = draw(st.integers(1, MAX_TRIALS))
        options["trials" if command == "mc-validate" else "mc"] = trials
    if command == "sweep-d":
        start = draw(DISTANCE)
    elif command == "sweep-lambda":
        start = _density(draw, options, 12.0)
    if command.startswith("sweep-") and draw(st.booleans()):
        grid = _grid(draw, start)
        options.update(zip(("grid_start", "grid_stop", "grid_step"), grid))
    argv = [command, "--format", draw(st.sampled_from(["json", "csv"]))]
    for key, value in options.items():
        # "--key=value", as argparse would take "--key -1e-05" for two flags
        argv.append(f"--{key.replace('_', '-')}={value!r}")
    return argv


class _TooManyPoints(Exception):
    """A fuzzed simulation would hold too many points per batch."""


_draw_points = montecarlo._batch_points


def _bounded_batch_points(params, radius, seed, batch, *trials):
    if params.lambda_e * math.pi * radius * radius > MAX_POINTS_PER_TRIAL:
        raise _TooManyPoints
    return _draw_points(params, radius, seed, batch, *trials)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with mock.patch.object(montecarlo, "_batch_points", _bounded_batch_points):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except _TooManyPoints:
                reject()
    return code, out.getvalue()


def _strict(constant):
    raise ValueError(f"{constant} is not strict JSON")


def _misses(report):
    """The activity and coverage probabilities of a report that miss the
    oracle by more than the model's tolerance, 1e-10 relative or 1e-12
    absolute, at the point where each was computed."""
    misses = []
    with mp.workdps(30):
        for params, r_g, gamma, fields in oracle.report_points(report):
            for name in CHECKED_FORMS:
                got = fields.get(name)
                if got is None:
                    continue
                want = getattr(oracle, name)(params, gamma if name == "p_cov_an" else r_g)
                if abs(got - want) > max(1e-10 * want, 1e-12):
                    misses.append(f"{name}: {got!r} against {mp.nstr(want, 17)}")
    return misses


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=invocations())
# h = inf: a report value strict JSON cannot carry
@example(argv=["select", "--d", "1e300"])
# the guard-zone root underflows at alpha = 1000 just above the threshold
@example(argv=["sweep-d", "--alpha", "1000", "--lambda-e", "0.03391168147577722"])
@example(argv=["sweep-d", "--alpha", "1e6"])
# d^-alpha and near eavesdroppers' path gains overflow
@example(argv=["mc-validate", "--d", "0.6", "--gamma", "0.9", "--trials", "100",
               "--alpha", "1e6"])
@example(argv=["mc-validate", "--d", "0.6", "--gamma", "0.4", "--trials", "200",
               "--alpha", "500", "--seed", "1"])
# each checked form at a value far from 0 and 1, so that a relative error
# of 1e-9 exceeds the tolerance whatever the drawn examples
@example(argv=["analytic", "--d", "1", "--r-g", "0.5"])
@example(argv=["analytic", "--d", "0.6", "--gamma", "0.6"])
def test_every_invocation_exits_cleanly(argv):
    code, out = _run(argv)
    assert code in (0, 2, 3)
    if code != 0:
        assert out == ""
        return
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    if fmt == "json":
        report = json.loads(out, parse_constant=_strict)
        oracle.VALIDATOR.validate(report)
        assert _misses(report) == []
    else:
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == cli._header(cli._COMMANDS[argv[0]][1])
        assert all(len(row) == len(rows[0]) for row in rows[1:])
