"""Checks for the optimal designs, the selection function, and d_star.

Frozen values are tests/oracle.py's, which test_mpmath_oracle checks
against their mpmath routes. The grid-search optimality oracle lives in
the acceptance suite; here the focus is contracts and analytic
identities. The closed-form critical distance is checked against a
bisection on the sign of the selection function.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from d2d_secrecy import optimizer
from d2d_secrecy.model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    p_cov_an,
    p_cov_gz,
)
from d2d_secrecy.optimizer import (
    CriticalDistance,
    Technique,
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)
import oracle
from oracle import REFERENCE


@st.composite
def binding_params(draw):
    base = SystemParams(
        alpha=draw(st.floats(2.2, 6.0)),
        p_t=draw(st.floats(0.1, 10.0)),
        beta_t=draw(st.floats(0.1, 10.0)),
        beta_e=draw(st.floats(0.1, 10.0)),
        epsilon=draw(st.floats(0.05, 0.98)),
        sigma2_p=draw(st.floats(0.1, 10.0)),
        sigma2_s=draw(st.floats(0.1, 10.0)),
        lambda_e=1.0,
        d=draw(st.floats(0.1, 2.0)),
    )
    mult = draw(st.floats(1.001, 10.0))
    return replace(base, lambda_e=lambda_threshold(base) * mult)


def test_lambda_threshold_reference_values():
    assert lambda_threshold(REFERENCE) == pytest.approx(0.0378, abs=1e-4)
    assert lambda_threshold(REFERENCE) == pytest.approx(oracle.LAMBDA_STAR, rel=1e-12)
    # quadrupling the transmit power halves the threshold when 2/alpha = 1/2
    assert lambda_threshold(replace(REFERENCE, p_t=4.0)) == pytest.approx(
        0.018921391792612586, rel=1e-12
    )
    # a near-certain secrecy target tolerates almost no eavesdroppers
    assert lambda_threshold(replace(REFERENCE, epsilon=1.0 - 1e-12)) < 1e-10


def test_optimal_guard_radius_binding():
    design = optimal_guard_radius(REFERENCE)
    assert design.technique is Technique.GUARD_ZONE
    assert design.constraint_active
    assert design.parameter == pytest.approx(oracle.R_G_STAR, rel=1e-9)
    assert design.metrics.p_sec == pytest.approx(0.9, abs=1e-9)


def test_optimal_guard_radius_slack():
    design = optimal_guard_radius(replace(REFERENCE, lambda_e=0.02))
    assert design.parameter == 0.0
    assert not design.constraint_active
    assert design.metrics.p_sec > 0.9


def test_optimal_power_split_binding():
    design = optimal_power_split(REFERENCE)
    assert design.technique is Technique.ARTIFICIAL_NOISE
    assert design.constraint_active
    assert design.parameter == pytest.approx(oracle.GAMMA_STAR, rel=1e-9)
    assert design.metrics.p_sec == pytest.approx(0.9, abs=1e-9)


def test_optimal_power_split_slack():
    design = optimal_power_split(replace(REFERENCE, lambda_e=0.02))
    assert design.parameter == 1.0
    assert not design.constraint_active
    # an enormous eavesdropper threshold makes secrecy free
    assert optimal_power_split(replace(REFERENCE, beta_e=1e9)).parameter == 1.0
    assert optimal_power_split(replace(REFERENCE, lambda_e=0.0)).parameter == 1.0


def test_threshold_density_is_the_boundary_case():
    at_threshold = replace(REFERENCE, lambda_e=lambda_threshold(REFERENCE))
    gz = optimal_guard_radius(at_threshold)
    an = optimal_power_split(at_threshold)
    assert gz.parameter == pytest.approx(0.0, abs=1e-6)
    assert an.parameter == pytest.approx(1.0, abs=1e-6)
    assert gz.metrics.p_sec == pytest.approx(0.9, abs=1e-9)


@st.composite
def threshold_neighbours(draw):
    # lambda_e within 20 ulps of the threshold, on either side
    base = replace(draw(binding_params()), lambda_e=0.0)
    lam = lambda_threshold(base)
    steps = draw(st.integers(-20, 20))
    toward = math.inf if steps > 0 else 0.0
    for _ in range(abs(steps)):
        lam = math.nextafter(lam, toward)
    return replace(base, lambda_e=lam)


# a few ulps below the threshold, where the explicit power split rounds
# to 0.9999999999999999 instead of clamping to 1
_ULPS_BELOW = replace(
    REFERENCE, alpha=5.637045896521574, p_t=5.096399872592164, beta_e=1.4810054375585489,
    epsilon=0.8703440600370398, sigma2_s=3.130008083709125, lambda_e=0.047987119119018706,
)


@settings(max_examples=300)
@given(params=threshold_neighbours())
@example(params=_ULPS_BELOW)
def test_one_regime_decision_near_threshold(params):
    needed = params.lambda_e >= lambda_threshold(params)
    gz = optimal_guard_radius(params)
    an = optimal_power_split(params)
    assert gz.constraint_active == an.constraint_active == needed
    # the selection rule and d* answer from the same decision
    assert (selection_function(params).better is None) == (not needed)
    assert (critical_distance(params).d_star is None) == (not needed)
    if not needed:
        assert gz.parameter == 0.0
        assert an.parameter == 1.0


PUBLIC_FUNCTIONS = (
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
    critical_distance,
)
# the parameters r_g* depends on, the key of its memo
SECRECY_FIELDS = ("alpha", "p_t", "beta_e", "sigma2_s", "epsilon", "lambda_e")


@st.composite
def parameter_pairs(draw):
    # a binding set, and either a second one or the first with one secrecy
    # parameter moved, so that a memo key missing any field shows
    first = draw(binding_params())
    if draw(st.booleans()):
        return first, draw(binding_params())
    field = draw(st.sampled_from(SECRECY_FIELDS))
    factor = draw(st.floats(1.01, 2.0))
    value = getattr(first, field)
    if field == "alpha":
        value = 2.0 + (value - 2.0) * factor
    elif field == "epsilon":
        value = 1.0 - (1.0 - value) / factor
    else:
        value *= factor
    return first, replace(first, **{field: value})


def _results(sets, distances, before=lambda: None):
    # every public function at every distance, over the parameter sets in
    # turn, calling before() ahead of each call
    results = [[] for _ in sets]
    for d in distances:
        for function in PUBLIC_FUNCTIONS:
            for params, found in zip(sets, results):
                before()
                found.append(function(replace(params, d=d)))
    return results


@settings(max_examples=80)
@given(pair=parameter_pairs(), distances=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4))
def test_memo_never_changes_a_result(pair, distances):
    # results with the d-free memo cold before every call, with the two
    # sets alternating call by call, and with one set at a time (warm) are
    # equal
    memo = optimizer._secrecy_solution
    cold = _results(pair, distances, memo.cache_clear)
    alternating = _results(pair, distances)
    warm = [_results([params], distances)[0] for params in pair]
    assert memo.cache_info().hits > 0
    assert cold == alternating == warm


def test_below_threshold_metrics_coincide():
    low = replace(REFERENCE, lambda_e=0.02)
    gz = optimal_guard_radius(low)
    an = optimal_power_split(low)
    assert gz.metrics == an.metrics


@settings(max_examples=150)
@given(params=binding_params())
def test_constraint_binds_exactly(params):
    gz = optimal_guard_radius(params)
    an = optimal_power_split(params)
    assert gz.constraint_active and an.constraint_active
    assert abs(gz.metrics.p_sec - params.epsilon) < 1e-9
    assert abs(an.metrics.p_sec - params.epsilon) < 1e-9
    assert 0.0 < an.parameter < 1.0
    assert gz.parameter > 0.0


def test_selection_short_link_prefers_noise():
    verdict = selection_function(replace(REFERENCE, d=0.3))
    assert verdict.f_value < 0.0
    assert verdict.better is Technique.ARTIFICIAL_NOISE


def test_selection_long_link_prefers_guard_zone():
    verdict = selection_function(replace(REFERENCE, d=1.0))
    assert verdict.f_value > 0.0
    assert verdict.better is Technique.GUARD_ZONE


def test_selection_vanishes_at_critical_distance():
    verdict = selection_function(replace(REFERENCE, d=oracle.D_STAR))
    assert abs(verdict.f_value) < 1e-8


def test_selection_consistency_fields():
    verdict = selection_function(replace(REFERENCE, d=0.7))
    assert verdict.g_value == verdict.an_design.parameter
    assert verdict.h_value >= 0.0
    assert (verdict.f_value > 0.0) == (verdict.better is Technique.GUARD_ZONE)


def test_selection_below_threshold_has_no_verdict():
    low = replace(REFERENCE, lambda_e=0.01)
    verdict = selection_function(low)
    assert (verdict.f_value, verdict.h_value, verdict.g_value, verdict.better) == (
        None, None, None, None,
    )
    assert verdict.gz_design == optimal_guard_radius(low)
    assert verdict.an_design == optimal_power_split(low)
    assert verdict.gz_design.parameter == 0.0
    assert verdict.an_design.parameter == 1.0


@settings(max_examples=150)
@given(params=binding_params())
def test_selection_sign_matches_model_comparison(params):
    verdict = selection_function(params)
    if abs(verdict.f_value) < 1e-6:
        return  # too close to the tie to resolve through exponentials
    gz_cov = p_cov_gz(params, GuardZoneDesign(verdict.gz_design.parameter))
    an_cov = p_cov_an(params, NoiseSplitDesign(verdict.an_design.parameter))
    if min(gz_cov, an_cov) <= 1e-300:
        return  # coverage underflowed; the ordering is invisible in doubles
    assert (verdict.f_value > 0.0) == (gz_cov > an_cov)


def test_selection_increases_with_distance():
    # strictly increasing until the incomplete gamma underflows (past
    # d ~ 1.1 at these parameters F sits at its ceiling), then flat
    grid = [0.1 + 0.1 * k for k in range(15)]
    values = [selection_function(replace(REFERENCE, d=d)).f_value for d in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))
    strict = [v for v in values if v < values[-1]]
    assert len(strict) >= 9
    assert all(a < b for a, b in zip(strict, strict[1:]))


def _bisect_critical_distance(params: SystemParams) -> float:
    """Oracle for d*: bisection on the sign of the selection function."""

    def f(d: float) -> float:
        return selection_function(replace(params, d=d)).f_value

    lo, hi = 1e-3, 10.0
    while f(lo) > 0.0:
        lo, hi = lo / 10.0, lo
    while f(hi) < 0.0:
        lo, hi = hi, hi * 2.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_critical_distance_reference_root():
    result = critical_distance(REFERENCE)
    assert isinstance(result, CriticalDistance)
    assert result.d_star == pytest.approx(oracle.D_STAR, abs=1e-8)
    assert selection_function(replace(REFERENCE, d=0.9 * result.d_star)).f_value < 0.0
    assert selection_function(replace(REFERENCE, d=1.1 * result.d_star)).f_value > 0.0


@settings(max_examples=100, deadline=None)
@given(params=binding_params())
def test_critical_distance_matches_bisection_and_equalizes_coverage(params):
    d_star = critical_distance(params).d_star
    assert d_star == pytest.approx(_bisect_critical_distance(params), rel=1e-9)
    at_star = replace(params, d=d_star)
    gz_cov = optimal_guard_radius(at_star).metrics.p_cov
    an_cov = optimal_power_split(at_star).metrics.p_cov
    if min(gz_cov, an_cov) <= 1e-300:
        return  # coverage underflowed; the equality is invisible in doubles
    assert gz_cov == pytest.approx(an_cov, rel=1e-12)


def test_critical_distance_grows_with_density():
    d1 = critical_distance(REFERENCE).d_star
    d2 = critical_distance(replace(REFERENCE, lambda_e=0.2)).d_star
    assert d2 == pytest.approx(0.7481607317415484, abs=1e-8)
    assert d2 > d1


# d*^alpha = 2 (1 + beta_e) p_t (-ln epsilon) / (alpha beta_t sigma2_p) at the
# threshold. Rounding leaves r_g* = 0 but gamma* = 1 - 2e-16 at alpha = 3,
# and gamma* = 1 but r_g* = 8.5e-7 at alpha = 6.
@pytest.mark.parametrize("alpha, limit", oracle.THRESHOLD_LIMITS.items(),
                         ids=["alpha3", "alpha4", "alpha6"])
def test_critical_distance_at_threshold_is_the_limit(alpha, limit):
    params = replace(REFERENCE, alpha=alpha)
    lam_star = lambda_threshold(params)
    expected = (2.0 * 2.0 * -math.log(0.9) / (alpha * 2.0)) ** (1.0 / alpha)
    assert limit == pytest.approx(expected, rel=1e-15)
    at_threshold = critical_distance(replace(params, lambda_e=lam_star)).d_star
    assert at_threshold == pytest.approx(limit, rel=1e-12)
    just_above = critical_distance(replace(params, lambda_e=lam_star * (1.0 + 1e-4)))
    assert just_above.d_star == pytest.approx(limit, rel=1e-4)


def test_critical_distance_below_threshold_has_no_root():
    assert critical_distance(replace(REFERENCE, lambda_e=0.01)) == CriticalDistance(d_star=None)
    assert critical_distance(replace(REFERENCE, lambda_e=0.0)).d_star is None
