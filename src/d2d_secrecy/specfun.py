"""Upper incomplete gamma function on the narrow domain the model needs.

Every closed-form expression in this package evaluates Gamma(a, x) with
order a = 2/alpha for a path-loss exponent alpha > 2, so the order never
leaves (0, 1]. Restricting the domain keeps the implementation compact
and easy to audit: a power series around x = 0 and a continued fraction
for large x, stitched at x = a + 1 where both converge quickly.

The inverse (solving Gamma(a, x) = target for x) is a bracketed
bisection. The function is strictly decreasing in x, so doubling the
upper edge until the value falls below the target always brackets the
root.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError

__all__ = [
    "complete_gamma",
    "upper_incomplete_gamma",
    "inverse_upper_incomplete_gamma",
]


# Convergence controls for the iterative routines in this module
_REL_TOL = 1e-12
_ABS_TOL = 1e-14
_MAX_ITER = 500

# Values of Gamma(a, x) below roughly exp(a*log(x) - x) ~ 1e-290 underflow
# through the prefactor; callers treat an exact 0.0 as "negligibly small".
_TINY = 1e-300


def _check_order(a: float) -> None:
    if not (0.0 < a <= 1.0) or not math.isfinite(a):
        raise DomainError(f"order must lie in (0, 1], got {a}")


def complete_gamma(a: float) -> float:
    """Gamma(a) for a in (0, 1]."""
    _check_order(a)
    return math.gamma(a)


def upper_incomplete_gamma(a: float, x: float) -> float:
    """Gamma(a, x) = integral of t^(a-1) exp(-t) from x to infinity.

    Requires a in (0, 1] and x >= 0. Results too small for double
    precision underflow to 0.0 rather than raising.
    """
    _check_order(a)
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return math.gamma(a)
    if math.isinf(x):
        return 0.0
    if x < a + 1.0:
        return math.gamma(a) - _lower_series(a, x)
    return _upper_continued_fraction(a, x)


def _lower_series(a: float, x: float) -> float:
    # gamma_lower(a, x) = x^a e^-x * sum_n x^n / (a (a+1) ... (a+n))
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER + 1):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _REL_TOL + _ABS_TOL:
            return math.exp(a * math.log(x) - x) * total
    raise NumericalError(
        "power series for the lower incomplete gamma did not converge", a=a, x=x
    )


def _upper_continued_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction
    #   Gamma(a, x) = x^a e^-x / (x + 1 - a - 1(1-a)/(x + 3 - a - ...))
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
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
        if abs(delta - 1.0) < _REL_TOL:
            return math.exp(a * math.log(x) - x) * h
    raise NumericalError(
        "continued fraction for the upper incomplete gamma did not converge", a=a, x=x
    )


def inverse_upper_incomplete_gamma(a: float, target: float) -> float:
    """Solve Gamma(a, x) = target for x >= 0.

    The target must satisfy 0 < target <= Gamma(a); the boundary value
    Gamma(a) maps to x = 0.
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

    hi = 1.0
    for _ in range(_MAX_ITER):
        if upper_incomplete_gamma(a, hi) <= target:
            break
        hi *= 2.0
    else:
        raise NumericalError("failed to bracket the inverse", a=a, target=target)

    # converge on the residual, not the interval width: near x = 0 the
    # derivative x^(a-1) blows up and a fixed x-width would leave the
    # function value far from the target. The test is purely relative;
    # an absolute term would let deep-tail targets (tiny Gamma values)
    # stop far from the root. The midpoint collision check above ends
    # the search once float resolution is exhausted.
    lo = 0.0
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        value = upper_incomplete_gamma(a, mid)
        if abs(value - target) <= _REL_TOL * target:
            return mid
        if value > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
