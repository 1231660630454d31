"""Checks for the incomplete-gamma routines.

Oracles are independent of the implementation under test: closed forms
for order 1 and order 1/2, and tanh-sinh quadrature of the defining
integral in mpmath. The comparison with mpmath's own incomplete gamma
over the whole order range is in test_mpmath_oracle.py.
"""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from d2d_secrecy import specfun
from d2d_secrecy.errors import DomainError, NumericalError
from d2d_secrecy.specfun import (
    complete_gamma,
    inverse_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

orders = st.floats(min_value=0.01, max_value=1.0)
arguments = st.floats(min_value=0.0, max_value=60.0)


def quad_oracle(a, x):
    # the defining integral after t = u^(1/a), which removes the t^(a-1)
    # singularity at 0: Gamma(a, x) = (1/a) int exp(-u^(1/a)) du over u >= x^a
    with mp.workdps(20):
        lo = mp.mpf(x) ** a
        integral = mp.quad(lambda u: mp.exp(-(u ** (1 / a))), [lo, lo + 1, mp.inf])
        return float(integral / a)


def test_order_one_is_plain_exponential():
    for x in [0.0, 0.3, 1.0, 2.0, 10.0, 40.0]:
        assert upper_incomplete_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)


def test_order_half_matches_erfc():
    for x in [0.01, 0.5, 1.0, 3.0, 12.0]:
        expected = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        assert upper_incomplete_gamma(0.5, x) == pytest.approx(expected, rel=1e-12)


def test_complete_gamma_values():
    assert complete_gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert complete_gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    # value frozen from the quadrature oracle
    assert complete_gamma(2.0 / 3.0) == pytest.approx(1.3541179394264005, rel=1e-12)
    assert upper_incomplete_gamma(2.0 / 3.0, 0.0) == complete_gamma(2.0 / 3.0)


def test_complete_gamma_quadrature_oracle():
    for a in [0.25, 0.5, 2.0 / 3.0, 0.9, 1.0]:
        assert complete_gamma(a) == pytest.approx(quad_oracle(a, 0.0), rel=1e-12)


def test_quadrature_oracle_grid():
    for a in [0.2, 0.5, 0.8, 1.0]:
        for x in [0.05, 0.5, a + 1.0, 3.0, 15.0]:
            assert upper_incomplete_gamma(a, x) == pytest.approx(
                quad_oracle(a, x), rel=1e-12
            )


def test_frozen_reference_value():
    # Gamma(1/2, 1), frozen from the erfc identity
    assert upper_incomplete_gamma(0.5, 1.0) == pytest.approx(
        0.27880558528065474, rel=1e-12
    )


@given(a=orders, x=arguments, step=st.floats(min_value=1e-3, max_value=10.0))
def test_strictly_decreasing_in_argument(a, x, step):
    assert upper_incomplete_gamma(a, x) > upper_incomplete_gamma(a, x + step)


@given(a=orders, x=arguments)
def test_bounded_by_complete_gamma(a, x):
    value = upper_incomplete_gamma(a, x)
    assert 0.0 <= value <= complete_gamma(a)
    if x > 1e-12:
        # below that the difference drowns in double rounding
        assert value < complete_gamma(a)


@given(a=orders)
def test_series_and_fraction_agree_at_the_seam(a):
    seam = a + 1.0
    below = upper_incomplete_gamma(a, seam - 1e-9)
    above = upper_incomplete_gamma(a, seam + 1e-9)
    assert below == pytest.approx(above, abs=1e-8)


def test_underflow_returns_zero():
    assert upper_incomplete_gamma(0.5, 800.0) == 0.0
    assert upper_incomplete_gamma(0.5, math.inf) == 0.0


def test_rejects_out_of_domain_order():
    for a in [0.0, -0.5, 1.5, math.nan]:
        with pytest.raises(DomainError):
            upper_incomplete_gamma(a, 1.0)
        with pytest.raises(DomainError):
            complete_gamma(a)


def test_rejects_negative_or_nan_argument():
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.5, -1.0)
    with pytest.raises(DomainError):
        upper_incomplete_gamma(0.5, math.nan)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_ITER", 1)
    # series branch (x < a + 1), then continued-fraction branch
    with pytest.raises(NumericalError):
        upper_incomplete_gamma(0.5, 1.0)
    with pytest.raises(NumericalError):
        upper_incomplete_gamma(0.5, 30.0)


def test_inverse_examples():
    # order 1: the inverse is an exact logarithm
    assert inverse_upper_incomplete_gamma(1.0, math.exp(-2.0)) == pytest.approx(
        2.0, abs=1e-10
    )
    # frozen from a root solve against mpmath's forward function
    assert inverse_upper_incomplete_gamma(0.5, 0.67074) == pytest.approx(
        0.3879068557558288, rel=1e-9
    )
    assert inverse_upper_incomplete_gamma(0.5, complete_gamma(0.5)) == 0.0


def test_inverse_domain_errors():
    with pytest.raises(DomainError):
        inverse_upper_incomplete_gamma(0.5, complete_gamma(0.5) * 1.0000001)
    with pytest.raises(DomainError):
        inverse_upper_incomplete_gamma(0.5, 0.0)
    with pytest.raises(DomainError):
        inverse_upper_incomplete_gamma(0.5, -0.1)


@settings(max_examples=60)
@given(a=orders, x=st.floats(min_value=1e-6, max_value=50.0))
def test_inverse_round_trip(a, x):
    value = upper_incomplete_gamma(a, x)
    recovered = inverse_upper_incomplete_gamma(a, value)
    assert abs(recovered - x) <= 10.0 * 1e-12 * max(1.0, x)


@pytest.mark.parametrize("a", [1e-4, 0.0019226835743779268, 0.05])
def test_inverse_handles_roots_near_underflow(a):
    # at small order a target O(1) below Gamma(a) has a root of about
    # exp(-O(1/a)): subnormal or 0.0 in double precision. The middle order
    # with q = 0.7597579059529755 has the subnormal root 4e-323.
    for q in (0.3, 0.5, 0.7597579059529755, 0.9, 0.999):
        x = inverse_upper_incomplete_gamma(a, q * complete_gamma(a))
        assert 0.0 <= x < 1.0


@given(
    a=orders,
    t1=st.floats(min_value=1e-10, max_value=0.999),
    t2=st.floats(min_value=1e-10, max_value=0.999),
)
def test_inverse_is_antitone_in_target(a, t1, t2):
    lo, hi = sorted([t1, t2])
    cap = complete_gamma(a)
    x_lo = inverse_upper_incomplete_gamma(a, lo * cap)
    x_hi = inverse_upper_incomplete_gamma(a, hi * cap)
    assert x_lo >= x_hi
