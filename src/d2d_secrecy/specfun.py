"""Upper incomplete gamma function on the narrow domain the model needs.

Every closed-form expression in this package evaluates Gamma(a, x) with
order a = 2/alpha for a path-loss exponent alpha > 2, so the order never
leaves (0, 1]. Restricting the domain keeps the implementation compact
and easy to audit. Below x = a + 1 the small-order series of Gautschi
(ACM TOMS 1979) and DiDonato & Morris (ACM TOMS 1986),

    Gamma(a, x) = (Gamma(a) - 1/a) - expm1(a ln x)/a
                  - x^a sum_{n>=1} (-x)^n / (n! (a + n)),

gives the upper tail for every order. Computing it as Gamma(a) -
gamma(a, x) subtracts two numbers of size 1/a at small order; here that
leading part, Gamma(a) - x^a/a, comes from Gamma(a) only while x^a <= 1/2,
where at least half of Gamma(a) survives, and otherwise from a polynomial
for Gamma(a) - 1/a. From a + 1 on a continued fraction takes over.

The inverse (solving Gamma(a, x) = target for x) is a safeguarded Halley
iteration in log space on the smaller tail: ln gamma(a, x) = ln(Gamma(a)
- target) from the lower series when target > Gamma(a)/2, else
ln Gamma(a, x) = ln target. Either way the residual is relative to a tail
that does not cancel. The derivative is the exact x^(a-1) e^-x over the
tail, and every step stays inside a bracket that holds the root. The
start is the large-x asymptote of Gamma(a, x) where -ln target > 1 and
the small-x root of gamma(a, x) otherwise, so a solve takes a few
forward evaluations.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .errors import DomainError, NumericalError

__all__ = [
    "complete_gamma",
    "upper_incomplete_gamma",
    "inverse_upper_incomplete_gamma",
]


# Convergence controls for the iterative routines in this module: the
# series stop at machine precision, the continued fraction a few ulps
# above it (its last factor jitters by rounding), and the inverse at the
# forward function's own accuracy in log space
_EPS = 2.0**-52
_FRACTION_TOL = 1e-15
_STEP_TOL = 1e-14
_MAX_ITER = 500

# Values of Gamma(a, x) below roughly exp(a*log(x) - x) ~ 1e-290 underflow
# through the prefactor; callers treat an exact 0.0 as "negligibly small".
_TINY = 1e-300


def _check_order(a: float) -> None:
    if not 0.0 < a <= 1.0:  # also rejects nan
        raise DomainError(f"order must lie in (0, 1], got {a}")


def complete_gamma(a: float) -> float:
    """Gamma(a) for a in (0, 1], within 1e-14 relative of mpmath."""
    _check_order(a)
    return math.gamma(a)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) = integral of t^(a-1) exp(-t) from x to infinity.

    Requires a in (0, 1] and x >= 0. Results too small for double
    precision underflow to 0.0 rather than raising. Within 1e-12 relative
    of mpmath for a in [1e-12, 1] and x in [0, 700].
    """
    _check_order(a)
    if not x >= 0.0:  # also rejects nan
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x < a + 1.0:
        return _upper_series(a, x) if x > 0.0 else math.gamma(a)
    if x == math.inf:
        return 0.0
    return math.exp(a * math.log(x) - x) * _upper_continued_fraction(a, x)


def _upper_series(a: float, x: float) -> float:
    # Gamma(a, x) for x < a + 1 from the small-order series above
    power_m1 = math.expm1(a * math.log(x))  # x^a - 1
    power = 1.0 + power_m1
    if power == 0.0:
        return math.gamma(a)
    # below a + 1, Gamma(a, x) > Gamma(1, 2) = e^-2, so stopping once x^a
    # times a term is below half an ulp of 1 keeps the error at a few ulps.
    # The test compares squares and the counter is a float: neither abs()
    # nor int-float arithmetic runs in the loop.
    tol2 = (0.5 * _EPS / power) ** 2
    neg_x = -x
    term = neg_x  # (-x)^n / n!
    total = term / (a + 1.0)
    n = 1.0
    while term * term > tol2:
        if n >= _MAX_ITER:
            raise NumericalError(
                "power series for the upper incomplete gamma did not converge", a=a, x=x
            )
        n += 1.0
        term *= neg_x / n
        total += term / (a + n)
    if power <= 0.5:
        # Gamma(a) - x^a/a keeps at least half of Gamma(a): no cancellation
        return math.gamma(a) - power * (1.0 / a + total)
    # h = (1/Gamma(1 + a) - 1)/a on [0, 1] in Horner form: a degree-14
    # Chebyshev fit (mpmath) to its Taylor series (Abramowitz & Stegun
    # 6.1.34), within 2e-18
    h = 0.5772156649015329 + a * (-0.6558780715202535 + a * (
        -0.042002635034127836 + a * (0.16653861138323703 + a * (
            -0.042197734569778066 + a * (-0.009621971400288845 + a * (
                0.007218942511576732 + a * (-0.0011651647525430678 + a * (
                    -0.00021524914822683067 + a * (0.000128063513304448 + a * (
                        -2.0149457390763776e-05 + a * (-1.2436534652553382e-06 + a * (
                            1.1389962411508655e-06 + a * (-2.1896988906648608e-07
                            + a * 1.7200070946431934e-08)))))))))))))
    # Gamma(a) - 1/a = (1/g - 1)/a = -h/g with g = 1/Gamma(1 + a) = 1 + a*h
    return -h / (1.0 + a * h) - power_m1 / a - power * total


def _lower_series(a: float, x: float) -> float:
    # gamma_lower(a, x) = x^a e^-x * sum_n x^n / (a (a+1) ... (a+n));
    # returns the sum, whose reciprocal is d ln gamma_lower / d ln x
    term = 1.0 / a
    total = term
    n = 0.0
    while n < _MAX_ITER:
        n += 1.0
        term *= x / (a + n)
        total += term
        if term <= _EPS * total:
            return total
    raise NumericalError(
        "power series for the lower incomplete gamma did not converge", a=a, x=x
    )


def _upper_continued_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction
    #   Gamma(a, x) = x^a e^-x / (x + 1 - a - 1(1-a)/(x + 3 - a - ...));
    # returns the fraction without the x^a e^-x prefactor
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    i = 0.0
    while i < _MAX_ITER:
        i += 1.0
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _FRACTION_TOL:
            return h
    raise NumericalError(
        "continued fraction for the upper incomplete gamma did not converge", a=a, x=x
    )


def inverse_upper_incomplete_gamma(a: float, target: float) -> float:
    """Solve Gamma(a, x) = target for x >= 0.

    The target must satisfy 0 < target <= Gamma(a); the boundary value
    Gamma(a) maps to x = 0. For a in [1e-12, 1], Gamma(a, x) at the
    returned x is within 1e-12 relative of target (mpmath), wherever x is
    at least 1e-300.
    """
    _check_order(a)
    gamma_a = math.gamma(a)
    if math.isnan(target) or target <= 0.0:
        raise DomainError(f"target must be positive, got {target}")
    if target > gamma_a:
        raise DomainError(
            f"target {target} exceeds Gamma({a}) = {gamma_a}; no solution exists"
        )
    if target == gamma_a:
        return 0.0

    # gamma_lower(a, x) <= x^a / a, so this never exceeds the root; near
    # x = 0 it is the root to within a factor 1 + O(x)
    lo = math.exp(math.log(a * (gamma_a - target)) / a)
    near_zero = lo / (1.0 - lo / (a + 1.0))
    # dividing by a scales the logarithm's rounding to a few eps/a in
    # ln lo, which at small order can lift lo above the root; lower it by
    # a bound on that error so that the bracket still holds the root
    lo *= math.exp(-8.0 * _EPS / a)
    if lo == 0.0:
        return 0.0

    y = -math.log(target)
    if target > 0.5 * gamma_a:
        # the root lies below the median, which is at most ln 2
        log_lower = math.log(gamma_a - target)

        def residual(x: float) -> tuple[float, float, float]:
            total = _lower_series(a, x)
            slope = 1.0 / total
            return a * math.log(x) - x + math.log(total) - log_lower, slope, a - x - slope

    else:

        def residual(x: float) -> tuple[float, float, float]:
            log_x = math.log(x)
            if x < a + 1.0:
                log_tail = math.log(_upper_series(a, x))
            else:
                log_tail = a * log_x - x + math.log(_upper_continued_fraction(a, x))
            slope = math.exp(a * log_x - x - log_tail)
            return -y - log_tail, slope, a - x + slope

    if y > 1.0:
        # Gamma(a, x) ~ x^(a-1) e^-x (1 - (1 - a)/x) for large x
        v = y - (1.0 - a) * math.log(y)
        start = y - (1.0 - a) * math.log(v) - math.log1p((1.0 - a) / (1.0 + v))
    else:
        start = near_zero
    # the root is below ln 2 < 1 or, as Gamma(a, x) <= e^-x for x >= 1, at most y
    return _halley(residual, start, lo, max(1.0, y))


def _halley(
    residual: Callable[[float], tuple[float, float, float]], x: float, lo: float, hi: float
) -> float:
    """Root in [lo, hi] of residual, increasing in u = ln x.

    residual(x) returns (f, f', f''/f') with derivatives in u. Halley
    steps are taken in u; a step that would leave the bracket is replaced
    by the geometric midpoint of the bracket, which every residual sign
    narrows.
    """
    if not lo <= x <= hi:
        x = math.sqrt(lo) * math.sqrt(hi)
    for _ in range(_MAX_ITER):
        f, slope, curvature = residual(x)
        if f < 0.0:
            lo = x
        elif f > 0.0:
            hi = x
        else:
            return x
        newton = -f / slope
        # Halley's correction to the Newton step, capped so that a large
        # curvature can at most double the step and never reverse it
        step = newton / max(0.5, 1.0 + 0.5 * newton * curvature)
        x_next = x * math.exp(step)
        if abs(step) <= _STEP_TOL or abs(f) <= _STEP_TOL:
            return x_next
        if not lo < x_next < hi:
            x_next = math.sqrt(lo) * math.sqrt(hi)
        if x_next == x:
            # float resolution is exhausted, as for a subnormal root
            return x
        x = x_next
    raise NumericalError("Halley iteration for the inverse did not converge", x=x)
