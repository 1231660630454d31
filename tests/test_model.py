"""Checks for the closed-form probabilities.

Frozen reference values and the property tests' implementation-independent
route are tests/oracle.py's, which evaluates every probability in mpmath.
"""

import math
from dataclasses import replace

import mpmath as mp
import pytest
from hypothesis import example, given, strategies as st

from d2d_secrecy.errors import DegenerateDesignError, DomainError
from d2d_secrecy.model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    TechniqueMetrics,
    guard_argument,
    order,
    p_active,
    p_cov_an,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
    secrecy_scale,
)
from d2d_secrecy.specfun import upper_incomplete_gamma
import oracle


@st.composite
def system_params(draw, min_lambda=0.0, dense=False):
    params = SystemParams(
        alpha=draw(st.floats(2.1, 6.0)),
        p_t=draw(st.floats(0.05, 20.0)),
        beta_t=draw(st.floats(0.05, 20.0)),
        beta_e=draw(st.floats(0.05, 20.0)),
        epsilon=draw(st.floats(0.01, 0.99)),
        sigma2_p=draw(st.floats(0.05, 20.0)),
        sigma2_s=draw(st.floats(0.05, 20.0)),
        lambda_e=draw(st.floats(min_lambda, 2.0)),
        d=draw(st.floats(0.05, 3.0)),
    )
    if dense and draw(st.booleans()):
        # a dense field, lambda* times 1e3 to 10^(40/alpha), where the
        # secrecy exponent magnifies any relative error in its factors
        log_margin = draw(st.floats(3.0, 40.0 / params.alpha))
        lambda_star = float(oracle.lambda_threshold(params))
        params = replace(params, lambda_e=lambda_star * 10.0**log_margin)
    return params


def test_frozen_reference_values():
    short = replace(oracle.REFERENCE, d=0.6)
    for got, want in (
        (p_active(oracle.REFERENCE, GuardZoneDesign(1.0)), oracle.P_ACTIVE_R1),
        (p_cov_gz(oracle.REFERENCE, GuardZoneDesign(0.0)), math.exp(-2.0)),
        (p_sec_gz(oracle.REFERENCE, GuardZoneDesign(0.0)), oracle.P_SEC_R0),
        (p_sec_gz(oracle.REFERENCE, GuardZoneDesign(1.0)), oracle.P_SEC_R1),
        (p_cov_gz(short, GuardZoneDesign(oracle.R_G_STAR)), oracle.P_COV_GZ_STAR),
        (p_cov_an(short, NoiseSplitDesign(oracle.GAMMA_STAR)), oracle.P_COV_AN_STAR),
        (p_sec_an(short, NoiseSplitDesign(oracle.GAMMA_STAR)), 0.9),
    ):
        assert got == pytest.approx(want, rel=1e-12)


# The probabilities' stated tolerance: 1e-10 relative, or 1e-12 absolute
# where that is larger (pytest.approx's default absolute tolerance)
@given(params=system_params(dense=True), r_g=st.floats(0.0, 4.0))
def test_p_sec_gz_matches_mpmath_route(params, r_g):
    design = GuardZoneDesign(r_g)
    with mp.workdps(20):
        for form, route in ((p_sec_gz, oracle.p_sec_gz), (p_active, oracle.p_active),
                            (p_cov_gz, oracle.p_cov_gz)):
            assert form(params, design) == pytest.approx(float(route(params, r_g)), rel=1e-10)


@given(params=system_params(dense=True), gamma=st.floats(0.01, 1.0))
# a dense field one float above the cap beta_e/(1 + beta_e), where
# gamma - (1 - gamma) beta_e cancels to its last digits: p_sec is 0.906
@example(params=replace(oracle.REFERENCE, alpha=3.0, beta_e=0.1809275167692512,
                        lambda_e=1582747777.2922149, d=0.6),
         gamma=0.15320797779717057)
def test_p_sec_an_matches_mpmath_route(params, gamma):
    design = NoiseSplitDesign(gamma)
    with mp.workdps(20):
        for form, route in ((p_sec_an, oracle.p_sec_an), (p_cov_an, oracle.p_cov_an)):
            assert form(params, design) == pytest.approx(float(route(params, gamma)), rel=1e-10)


@given(params=system_params(), r_g=st.floats(0.0, 4.0))
# a secrecy exponent of 745.9, past where exp underflows to exactly 0.0
@example(params=replace(oracle.REFERENCE, alpha=2.1015625, p_t=10.0, beta_e=0.0625,
                        sigma2_s=0.5, lambda_e=1.0), r_g=0.0)
def test_probabilities_lie_in_unit_interval(params, r_g):
    gz = GuardZoneDesign(r_g)
    assert 0.0 <= p_active(params, gz) <= 1.0
    assert 0.0 <= p_cov_gz(params, gz) <= 1.0
    p_sec = p_sec_gz(params, gz)
    assert p_sec <= 1.0
    exponent = secrecy_scale(params) * upper_incomplete_gamma(
        order(params), guard_argument(params, r_g)
    )
    if math.exp(-exponent) > 0.0:
        assert p_sec > 0.0
    else:
        assert p_sec == 0.0


@given(params=system_params(min_lambda=0.01), lo=st.floats(0.0, 2.0), step=st.floats(0.05, 2.0))
def test_guard_radius_monotonicity(params, lo, step):
    # probabilities can underflow to 0 or saturate at 1 for extreme draws,
    # so the random sweep asserts the weak ordering; strictness is pinned
    # at a well-conditioned point below
    hi = lo + step
    assert p_active(params, GuardZoneDesign(lo)) > p_active(params, GuardZoneDesign(hi))
    assert p_cov_gz(params, GuardZoneDesign(lo)) >= p_cov_gz(params, GuardZoneDesign(hi))
    assert p_sec_gz(params, GuardZoneDesign(lo)) <= p_sec_gz(params, GuardZoneDesign(hi))


def test_guard_radius_strict_monotonicity_baseline():
    radii = [0.0, 0.4, 0.8, 1.2, 1.6]
    active = [p_active(oracle.REFERENCE, GuardZoneDesign(r)) for r in radii]
    cov = [p_cov_gz(oracle.REFERENCE, GuardZoneDesign(r)) for r in radii]
    sec = [p_sec_gz(oracle.REFERENCE, GuardZoneDesign(r)) for r in radii]
    assert all(a > b for a, b in zip(active, active[1:]))
    assert all(a > b for a, b in zip(cov, cov[1:]))
    assert all(a < b for a, b in zip(sec, sec[1:]))


@given(params=system_params())
def test_coverage_factorizes_over_silence_and_fading(params):
    gz = GuardZoneDesign(0.9)
    fade_only = p_cov_gz(params, GuardZoneDesign(0.0))
    assert p_cov_gz(params, gz) == pytest.approx(
        p_active(params, gz) * fade_only, rel=1e-12
    )


@given(
    params=system_params(),
    lo=st.floats(0.05, 0.9),
    step=st.floats(0.01, 0.95),
)
def test_noise_split_monotonicity(params, lo, step):
    hi = min(1.0, lo + step)
    assert p_cov_an(params, NoiseSplitDesign(lo)) <= p_cov_an(params, NoiseSplitDesign(hi))
    assert p_sec_an(params, NoiseSplitDesign(lo)) >= p_sec_an(params, NoiseSplitDesign(hi))


@given(params=system_params())
def test_null_designs_reduce_to_plain_transmission(params):
    # a zero-radius guard zone and an all-signal power split describe the
    # same untouched link, bit for bit
    gz0 = GuardZoneDesign(0.0)
    an1 = NoiseSplitDesign(1.0)
    assert p_cov_gz(params, gz0) == p_cov_an(params, an1)
    assert p_sec_gz(params, gz0) == p_sec_an(params, an1)
    assert p_active(params, gz0) == 1.0


@given(params=system_params())
def test_certain_secrecy_below_power_ratio(params):
    ratio = params.beta_e / (1.0 + params.beta_e)
    assert p_sec_an(params, NoiseSplitDesign(ratio)) == 1.0
    assert p_sec_an(params, NoiseSplitDesign(ratio * 0.5)) == 1.0


def test_no_eavesdroppers_means_certain_secrecy():
    params = replace(oracle.REFERENCE, lambda_e=0.0)
    assert p_sec_gz(params, GuardZoneDesign(0.0)) == 1.0
    assert p_sec_an(params, NoiseSplitDesign(1.0)) == 1.0
    assert p_active(params, GuardZoneDesign(5.0)) == 1.0
    # whatever the power ratio, here p_t / sigma2_s = inf
    overflowing = replace(params, p_t=1e300, sigma2_s=1e-300)
    assert secrecy_scale(overflowing) == 0.0
    assert p_sec_gz(overflowing, GuardZoneDesign(0.0)) == 1.0
    assert p_sec_an(overflowing, NoiseSplitDesign(0.9)) == 1.0


def test_extreme_designs_stay_finite():
    assert p_sec_gz(oracle.REFERENCE, GuardZoneDesign(1e6)) == 1.0
    assert p_active(oracle.REFERENCE, GuardZoneDesign(1e200)) == 0.0
    assert p_cov_gz(replace(oracle.REFERENCE, d=1e3), GuardZoneDesign(0.0)) == 0.0


def test_degenerate_noise_split_rejected():
    with pytest.raises(DegenerateDesignError):
        p_cov_an(oracle.REFERENCE, NoiseSplitDesign(0.0))
    # certain secrecy is still well defined with no signal power
    assert p_sec_an(oracle.REFERENCE, NoiseSplitDesign(0.0)) == 1.0


def test_parameter_validation():
    for bad in [
        dict(alpha=2.0),
        dict(alpha=1.5),
        dict(p_t=0.0),
        dict(beta_t=-1.0),
        dict(beta_e=0.0),
        dict(epsilon=0.0),
        dict(epsilon=1.0),
        dict(sigma2_p=0.0),
        dict(sigma2_s=-2.0),
        dict(lambda_e=-0.1),
        dict(d=0.0),
        dict(alpha=math.inf),
    ]:
        with pytest.raises(DomainError):
            replace(oracle.REFERENCE, **bad)
    with pytest.raises(DomainError):
        GuardZoneDesign(-0.5)
    with pytest.raises(DomainError):
        NoiseSplitDesign(1.2)
    with pytest.raises(DomainError):
        NoiseSplitDesign(-0.1)


def test_metrics_record_is_frozen():
    metrics = TechniqueMetrics(p_cov=0.5, p_sec=0.9)
    with pytest.raises(AttributeError):
        metrics.p_cov = 0.1
