"""Checks against an independent high-precision oracle (mpmath).

These pin the tolerances the docstrings of specfun, model and optimizer
state. The forward incomplete gamma and Gamma(a) are compared with
mpmath at orders from 1e-12 to 1, on a grid and at seeded random points;
the inverse's residual is checked at the same orders. tests/oracle.py's
routes are compared with the density threshold, the optimal power split
and the selection function at drawn parameters, with the optimal guard
radius and the critical distance from 1e-15 to 10 above the threshold,
and with the oracle's frozen values. Budget tests count the forward
evaluations each inverse solve makes over three bands of orders and on
the benchmark's design-grid rows.
"""

import math
import random
import statistics
from dataclasses import replace
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, strategies as st

from d2d_secrecy import model, specfun
from d2d_secrecy.errors import NumericalError
from d2d_secrecy.model import SystemParams
from d2d_secrecy.optimizer import (
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)
from d2d_secrecy.specfun import (
    complete_gamma,
    inverse_upper_incomplete_gamma,
    upper_incomplete_gamma,
)
import oracle

BENCH = Path(__file__).resolve().parent.parent / "bench"

ORDERS = [1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 1.0 / 3.0, 0.5,
          2.0 / 3.0, 0.8, 0.99, 1.0]
ARGUMENTS = sorted(
    {0.0, 5.0, 10.0, 30.0, 100.0, 300.0, 500.0, 700.0}
    | {10.0**k for k in range(-30, 1)}
    | {0.1 * k for k in range(1, 40)}
)

MARGINS = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0]


# each order's grid, with the series-fraction seam at x = a + 1, and
# uniform random points over orders [0.01, 1] and arguments [0, 60]
_RNG = random.Random(1701)
FORWARD_POINTS = {
    **{
        str(a): [(a, x) for x in [*ARGUMENTS, a + 1.0 - 1e-9, a + 1.0, a + 1.0 + 1e-9]]
        for a in ORDERS
    },
    "drawn": [(_RNG.uniform(0.01, 1.0), _RNG.uniform(0.0, 60.0)) for _ in range(200)],
}


@pytest.mark.parametrize("points", FORWARD_POINTS.values(), ids=FORWARD_POINTS.keys())
def test_forward_matches_mpmath(points):
    failures = []
    with mp.workdps(40):
        for a in {a for a, _ in points}:
            want = mp.gamma(a)
            if abs(complete_gamma(a) - want) > 1e-14 * want:
                failures.append(f"Gamma({a}): {complete_gamma(a)!r}")
        for a, x in points:
            want = mp.gammainc(a, x)
            got = upper_incomplete_gamma(a, x)
            if abs(got - want) > 1e-12 * want:
                failures.append(f"a = {a}, x = {x}: {got!r} against {mp.nstr(want, 17)}")
    assert not failures, "; ".join(failures)


# fractions of Gamma(a) to invert, from the far upper tail to near Gamma(a)
TARGET_FRACTIONS = [1e-300, 1e-100, 1e-30, 1e-10, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7,
                    0.9, 0.99, 0.999999]


# each order's targets; points where the bracket's rounded lower end lay
# above the root (the second had residual 8.5e-8); and seeded points with
# log-uniform orders in [1e-12, 1] and target fractions in [1e-14, 1]
_INVERSE_RNG = random.Random(1188)
INVERSE_POINTS = {
    **{str(a): [(a, f * complete_gamma(a)) for f in TARGET_FRACTIONS] for a in ORDERS},
    "small-order-bracket": [(1.1e-12, 17.77), (4.464760747710358e-12, 17.173604735517333)],
    "drawn": [
        (a, 10.0 ** _INVERSE_RNG.uniform(-14.0, 0.0) * complete_gamma(a))
        for a in (10.0 ** _INVERSE_RNG.uniform(-12.0, 0.0) for _ in range(300))
    ],
}


@pytest.mark.parametrize("points", INVERSE_POINTS.values(), ids=INVERSE_POINTS.keys())
def test_inverse_residual_matches_mpmath(points):
    # Gamma(a, x) at the returned root, in mpmath, against the target. A
    # root below 1e-300 (small order, target near Gamma(a)) is skipped:
    # subnormal or zero, it has no relative accuracy to offer.
    failures = []
    with mp.workdps(30):
        for a, target in points:
            x = inverse_upper_incomplete_gamma(a, target)
            if x >= 1e-300 and abs(mp.gammainc(a, x) - target) > 1e-12 * target:
                failures.append(f"a = {a}, target = {target!r}: x = {x!r}")
    assert not failures, "; ".join(failures)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def system_params(draw, max_alpha):
    # alpha log-uniform above 2; lambda_e a relative margin above the
    # threshold, itself drawn log-uniform
    params = SystemParams(
        alpha=2.0 + 10.0 ** draw(_floats(-3.0, math.log10(max_alpha - 2.0))),
        p_t=draw(_floats(0.05, 20.0)),
        beta_t=draw(_floats(0.05, 20.0)),
        beta_e=draw(_floats(0.05, 20.0)),
        epsilon=draw(_floats(0.001, 0.999)),
        sigma2_p=draw(_floats(0.05, 20.0)),
        sigma2_s=draw(_floats(0.05, 20.0)),
        lambda_e=0.0,
        d=draw(_floats(0.05, 3.0)),
    )
    margin = 10.0 ** draw(_floats(-9.0, 3.0))
    return replace(params, lambda_e=lambda_threshold(params) * (1.0 + margin))


@given(params=system_params(max_alpha=1e6))
# r_g*'s root underflows here and optimal_guard_radius raises, while
# gamma* is an ordinary number: the two optima must fail separately
@example(params=SystemParams(alpha=102.0, p_t=1.0, beta_t=1.0, beta_e=1.0, epsilon=0.5,
                             sigma2_p=1.0, sigma2_s=1.0, lambda_e=0.2230770653092853, d=1.0))
def test_threshold_and_power_split_match_mpmath(params):
    with mp.workdps(30):
        threshold = oracle.lambda_threshold(params)
        assert abs(lambda_threshold(params) - threshold) <= 1e-13 * threshold
        gamma_star = oracle.gamma_star(params)
        got = optimal_power_split(params).parameter
        assert abs(got - gamma_star) <= 1e-14 * params.alpha * gamma_star


@given(params=system_params(max_alpha=10.0))
def test_selection_function_matches_mpmath(params):
    # the paper's h at the reported gamma*, to 1e-14 alpha / (1 - gamma*)
    # relative as 1/gamma* - 1 cancels near gamma* = 1; F at the reported
    # h, to 1e-13 Gamma(a) absolute
    verdict = selection_function(params)
    with mp.workdps(30):
        g = verdict.g_value
        f_value, h = oracle.selection(params, g, verdict.h_value)
        if g == 1:
            assert verdict.h_value == 0.0
        else:
            assert abs(verdict.h_value - h) <= 1e-14 * params.alpha / (1 - g) * h
        assert abs(verdict.f_value - f_value) <= 1e-13 * mp.gamma(2 / mp.mpf(params.alpha))


@pytest.mark.parametrize("margin", MARGINS)
@pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
def test_optimum_near_threshold_matches_mpmath(alpha, margin):
    # lambda_e sits a relative margin above the exact threshold. Below
    # 1e-6 the rounding of lambda_e - lambda* itself, a few ulps of
    # lambda*, bounds the accuracy of any double-precision r_g* and d*.
    tol = max(1e-9, 1e-15 / margin)
    with mp.workdps(40):
        threshold = oracle.lambda_threshold(replace(oracle.REFERENCE, alpha=alpha))
        params = replace(oracle.REFERENCE, alpha=alpha, lambda_e=float(threshold * (1 + margin)))
        assert params.lambda_e >= lambda_threshold(params)
        r_want = oracle.guard_radius_star(params)
        d_want = oracle.critical_distance(params)
        r_got = optimal_guard_radius(params).parameter
        d_got = critical_distance(params).d_star
        assert abs(r_got - r_want) <= tol * r_want
        assert abs(d_got - d_want) <= tol * d_want


def test_guard_radius_where_its_power_underflows():
    # at alpha = 1000 and 1.01 lambda*, r_g* = 0.0994 (mpmath), but
    # r_g*^alpha = 1e-1002 underflows; r_g = 0 would miss epsilon
    params = replace(oracle.REFERENCE, alpha=1000.0)
    threshold = lambda_threshold(params)
    near = replace(params, lambda_e=1.01 * threshold)
    assert model.p_sec_gz(near, model.GuardZoneDesign(0.0)) < params.epsilon
    with pytest.raises(NumericalError):
        optimal_guard_radius(near)
    # at 2 lambda* the power is representable and r_g* is accurate
    at_two = replace(params, lambda_e=2.0 * threshold)
    with mp.workdps(40):
        r_want = oracle.guard_radius_star(at_two)
    r_got = optimal_guard_radius(at_two).parameter
    assert r_got == 0.7066999071918797
    assert abs(r_got - r_want) <= 1e-9 * r_want


_HIGH_POWER = replace(oracle.REFERENCE, p_t=100.0)
_TINY_BETA_T = replace(oracle.REFERENCE, beta_t=1e-300, sigma2_p=1e-10)


@pytest.mark.parametrize(
    "params, route",
    [
        (replace(_HIGH_POWER, lambda_e=1e305), oracle.critical_distance),
        (replace(_HIGH_POWER, lambda_e=1e307), oracle.critical_distance),
        # at the threshold density d* is the limit of its closed form
        (replace(_TINY_BETA_T, lambda_e=lambda_threshold(_TINY_BETA_T)),
         oracle.threshold_limit),
    ],
    ids=["1e305", "1e307", "threshold"],
)
def test_critical_distance_where_its_power_overflows(params, route):
    # d* is 2.54e77, 8.04e77 and 1.80e77 (mpmath), but d*^alpha overflows
    with mp.workdps(40):
        d_want = route(params)
    d_got = critical_distance(params).d_star
    assert abs(d_got - d_want) <= 1e-9 * d_want


def test_frozen_values_match_their_routes():
    # each frozen value of the oracle is its mpmath route, to 1e-12 relative
    short = replace(oracle.REFERENCE, d=0.6)
    with mp.workdps(30):
        pairs = [(oracle.LAMBDA_STAR, oracle.lambda_threshold(oracle.REFERENCE)),
                 (oracle.R_G_STAR, oracle.guard_radius_star(oracle.REFERENCE)),
                 (oracle.GAMMA_STAR, oracle.gamma_star(oracle.REFERENCE)),
                 (oracle.D_STAR, oracle.critical_distance(oracle.REFERENCE)),
                 (oracle.P_SEC_R0, oracle.p_sec_gz(oracle.REFERENCE, 0.0)),
                 (oracle.P_SEC_R1, oracle.p_sec_gz(oracle.REFERENCE, 1.0)),
                 (oracle.P_ACTIVE_R1, oracle.p_active(oracle.REFERENCE, 1.0)),
                 (oracle.P_COV_GZ_STAR, oracle.p_cov_gz(short, oracle.guard_radius_star(short))),
                 (oracle.P_COV_AN_STAR, oracle.p_cov_an(short, oracle.gamma_star(short))),
                 *[(limit, oracle.threshold_limit(replace(oracle.REFERENCE, alpha=alpha)))
                   for alpha, limit in oracle.THRESHOLD_LIMITS.items()]]
        assert [(frozen, mp.nstr(want, 20)) for frozen, want in pairs
                if abs(frozen - want) > 1e-12 * want] == []


def _count_forward_evaluations(monkeypatch) -> list[int]:
    # every series or continued-fraction evaluation from here on, counted
    # at the private kernels into the returned one-element list
    evaluations = [0]
    for name in ("_lower_series", "_upper_series", "_upper_continued_fraction"):
        kernel = getattr(specfun, name)

        def counted_kernel(*args, _kernel=kernel):
            evaluations[0] += 1
            return _kernel(*args)

        monkeypatch.setattr(specfun, name, counted_kernel)
    return evaluations


@pytest.mark.parametrize(
    "low, high",
    [
        pytest.param(-6.0, -3.0, id="orders-1e-6-1e-3"),
        pytest.param(-3.0, -1.0, id="orders-1e-3-1e-1"),
        pytest.param(-1.0, 0.0, id="orders-1e-1-1"),
    ],
)
def test_inverse_forward_evaluations_over_order_bands(monkeypatch, low, high):
    # 2 000 seeded solves at orders a = 10^U(low, high) and targets
    # Gamma(a) 10^U(-14, 0), both tails and every start
    evaluations = _count_forward_evaluations(monkeypatch)
    rng = random.Random(1702)
    for _ in range(2000):
        a = 10.0 ** rng.uniform(low, high)
        inverse_upper_incomplete_gamma(a, math.gamma(a) * 10.0 ** rng.uniform(-14.0, 0.0))
    assert evaluations[0] / 2000 <= 3.0


def test_inverse_forward_evaluations_on_design_grid(monkeypatch):
    # the evaluations each inverse makes over the rows of four design-grid
    # seeds
    monkeypatch.syspath_prepend(str(BENCH))
    # the benchmark's reference module sets mpmath's global precision
    monkeypatch.setattr(mp.mp, "dps", mp.mp.dps)
    from reference import DEFAULT_PARAMS
    from workloads import DESIGN_GRID_D, grid_rows

    evaluations = _count_forward_evaluations(monkeypatch)
    per_solve = []
    inverse = model.inverse_upper_incomplete_gamma

    def counted_inverse(*args):
        before = evaluations[0]
        x = inverse(*args)
        per_solve.append(evaluations[0] - before)
        return x

    monkeypatch.setattr(model, "inverse_upper_incomplete_gamma", counted_inverse)
    for seed in range(4):
        for row in grid_rows(seed):
            params = SystemParams(**{**DEFAULT_PARAMS, **row}, d=DESIGN_GRID_D[0])
            critical_distance(params)
            for d in DESIGN_GRID_D:
                point = replace(params, d=d)
                optimal_guard_radius(point)
                optimal_power_split(point)
                selection_function(point)
    # r_g* is solved once per row: critical_distance solves it and the
    # sixteen distances read it back
    assert len(per_solve) == 4 * 64
    assert statistics.fmean(per_solve) <= 3.0
