"""Secrecy-constrained optimal designs and technique selection.

Both techniques trade coverage against secrecy through a single scalar
(guard radius r_g, power split gamma). Under the constraint
p_sec >= epsilon the best choice of that scalar has a closed form: the
guard radius is model.guard_radius, the inverse of the guard-zone
secrecy exponent, and the power split is explicit. Which optimized
technique covers better at a given link distance reduces to the sign of
a selection function F(d); F increases with d and crosses zero once, at
the critical distance d_star, where the two optimal coverage exponents
are equal. That equality gives d_star in closed form. Short links favor
artificial noise, long links favor the guard zone.

Below the density threshold lambda_threshold() plain transmission
already meets the secrecy target and both optima degenerate to the null
design (r_g = 0, gamma = 1). One comparison of lambda_e with the threshold
decides that regime for both optima and their constraint_active flags;
the selection function and d* read it off the guard-zone optimum and
answer None below it. Rounding can still null one optimum just above.

Only the coverage terms and F(d) depend on the link distance d. The
regime decision, r_g* (the one iterative solve here), gamma*, the
secrecy probability each reaches and the selection target -ln epsilon /
secrecy_scale depend on (alpha, p_t, beta_e, sigma2_s, epsilon,
lambda_e) only. A one-entry memo keyed on those six values holds them,
so a d-sweep, or one density of a lambda-sweep, computes them once; a
call then computes only p_cov_gz, p_cov_an, h and Gamma(a, h). Each
technique's part is computed on first use, so where r_g* raises gamma*
still answers.

One point entry holds what has been answered for the last SystemParams
object asked about: that object, its entry of the six-value memo, looked
up once, and each optimum returned for it so far. Its key is the
object's identity: a frozen object always gets the same answer, an
identity test is one pointer comparison where equality would compare
nine fields, and the entry keeps the object alive, so its id cannot pass
to another. So the selection function, which asks both optima for the
params it is given, reuses the two its caller has just asked for at that
point, and a point costs one lookup of the six-value memo. A call that
raises stores nothing, and a call works on the entry of its own object
throughout, so it never reads an optimum of another.

The result records are NamedTuples: immutable, hashable and cheap to
build, which matters at a few microseconds a point.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

from .model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    TechniqueMetrics,
    _power,
    _require_finite_positive,
    _snr_ratio,
    guard_radius,
    order,
    p_cov_an,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
    secrecy_scale,
)
from .errors import NumericalError
from .specfun import (
    complete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "Technique",
    "OptimalDesign",
    "SelectionVerdict",
    "CriticalDistance",
    "lambda_threshold",
    "optimal_guard_radius",
    "optimal_power_split",
    "selection_function",
    "critical_distance",
]


class Technique(Enum):
    GUARD_ZONE = "guard-zone"
    ARTIFICIAL_NOISE = "artificial-noise"


class OptimalDesign(NamedTuple):
    """One technique tuned to its secrecy-constrained optimum."""

    technique: Technique
    parameter: float
    metrics: TechniqueMetrics
    constraint_active: bool


class SelectionVerdict(NamedTuple):
    """Outcome of comparing both optimized techniques at one distance;
    below the threshold every field but the two null optima is None."""

    f_value: float | None
    h_value: float | None
    g_value: float | None
    better: Technique | None
    gz_design: OptimalDesign
    an_design: OptimalDesign


class CriticalDistance(NamedTuple):
    """Root of the selection function; None below the density threshold,
    where no technique is needed and the function has no root."""

    d_star: float | None


def lambda_threshold(params: SystemParams) -> float:
    """Eavesdropper density above which plain transmission misses the
    secrecy target and an enhancement technique becomes necessary.

    The threshold is the same for both techniques; params.lambda_e is
    ignored. Within 1e-13 relative of mpmath.
    """
    a = order(params)
    return _require_finite_positive(
        "lambda_threshold",
        params.alpha
        / (2.0 * math.pi * complete_gamma(a))
        * -math.log(params.epsilon)
        * _snr_ratio(params, params.p_t) ** -a,
    )


class _SecrecySolution:
    """Everything the optimizer computes that does not read d, for one
    secrecy parameter set. Each part is computed on first use and kept,
    so one technique's failure never stops the other; a part that raises
    is not kept and raises again on the next use."""

    def __init__(self, params: SystemParams):
        self.params = params

    @functools.cached_property
    def needed(self) -> bool:
        # the one regime decision: below the threshold both optima are null
        return self.params.lambda_e >= lambda_threshold(self.params)

    @functools.cached_property
    def guard_zone(self) -> tuple[GuardZoneDesign, float]:
        # r_g* and p_sec_gz there
        params = self.params
        r_star = guard_radius(params, -math.log(params.epsilon)) if self.needed else 0.0
        design = GuardZoneDesign(r_star)
        return design, p_sec_gz(params, design)

    @functools.cached_property
    def power_split(self) -> tuple[NoiseSplitDesign, float]:
        # gamma* and p_sec_an there
        params = self.params
        gamma_star = 1.0
        if self.needed:
            a = order(params)
            lift = (params.sigma2_s / params.p_t) * _power(
                params.alpha
                * -math.log(params.epsilon)
                / (2.0 * math.pi * params.lambda_e * complete_gamma(a)),
                params.alpha / 2.0,
            )
            gamma_star = min(1.0, params.beta_e / (1.0 + params.beta_e) * (1.0 + lift))
        design = NoiseSplitDesign(gamma_star)
        return design, p_sec_an(params, design)

    @functools.cached_property
    def target(self) -> float:
        # the selection function's F is target - Gamma(a, h)
        return -math.log(self.params.epsilon) / secrecy_scale(self.params)


@functools.lru_cache(maxsize=1)
def _secrecy_solution(
    alpha: float,
    p_t: float,
    beta_e: float,
    sigma2_s: float,
    epsilon: float,
    lambda_e: float,
) -> _SecrecySolution:
    # nothing in _SecrecySolution reads another parameter, so the rest
    # are placeholders; one entry serves a sweep
    return _SecrecySolution(
        SystemParams(
            alpha=alpha,
            p_t=p_t,
            beta_t=1.0,
            beta_e=beta_e,
            epsilon=epsilon,
            sigma2_p=1.0,
            sigma2_s=sigma2_s,
            lambda_e=lambda_e,
            d=1.0,
        )
    )


class _Point:
    """What the optimizer has answered for one SystemParams object: the
    object, its d-free solution, and each optimum once computed (None
    until then)."""

    __slots__ = ("params", "solution", "guard_zone", "power_split")

    def __init__(self, params: SystemParams):
        self.params = params
        self.solution = _secrecy_solution(
            params.alpha,
            params.p_t,
            params.beta_e,
            params.sigma2_s,
            params.epsilon,
            params.lambda_e,
        )
        self.guard_zone: OptimalDesign | None = None
        self.power_split: OptimalDesign | None = None


# the entry of the last SystemParams object asked about
_last_point: _Point | None = None


def _point(params: SystemParams) -> _Point:
    global _last_point
    point = _last_point
    if point is None or point.params is not params:
        point = _last_point = _Point(params)
    return point


def optimal_guard_radius(params: SystemParams) -> OptimalDesign:
    """Largest guard radius is never wanted; this returns the smallest
    radius that still meets the secrecy target, which maximizes coverage.

    r_g* is within 1e-9 relative of mpmath where lambda_e exceeds the
    threshold by a relative margin of 1e-6 or more. Closer to it, the
    rounding of lambda_e - lambda*, a few ulps of lambda*, limits any
    double-precision r_g* to about 1e-15 / margin. r_g* and p_sec_gz are
    memoised for the last secrecy parameter set, so a call computes only
    p_cov_gz. The optimum is kept in the point entry of the last params
    object, so a repeat call on that very object returns the same optimum
    (see the module docstring).
    """
    point = _point(params)
    optimum = point.guard_zone
    if optimum is None:
        solution = point.solution
        design, p_sec = solution.guard_zone
        metrics = TechniqueMetrics(p_cov_gz(params, design), p_sec)
        optimum = OptimalDesign(Technique.GUARD_ZONE, design.r_g, metrics, solution.needed)
        point.guard_zone = optimum
    return optimum


def optimal_power_split(params: SystemParams) -> OptimalDesign:
    """Largest signal fraction that still meets the secrecy target.

    gamma* is within 1e-14 * alpha relative of mpmath: the power alpha/2
    in the closed form scales the rounding of its base. gamma* and
    p_sec_an are memoised like r_g*, and the optimum sits in the same
    point entry as the guard-zone one (see optimal_guard_radius).
    """
    point = _point(params)
    optimum = point.power_split
    if optimum is None:
        solution = point.solution
        design, p_sec = solution.power_split
        metrics = TechniqueMetrics(p_cov_an(params, design), p_sec)
        optimum = OptimalDesign(
            Technique.ARTIFICIAL_NOISE, design.gamma, metrics, solution.needed
        )
        point.power_split = optimum
    return optimum


def _selection_f(params: SystemParams, g: float, target: float) -> tuple[float, float]:
    # returns (F, H) at params.d for a fixed optimal power split g
    a = order(params)
    if g >= 1.0:
        h = 0.0
    else:
        inner = (
            params.beta_t
            * params.sigma2_p
            * _power(params.d, params.alpha)
            / (params.lambda_e * math.pi * params.p_t)
            * (1.0 / g - 1.0)
        )
        h = (
            params.beta_e
            * params.sigma2_s
            / params.p_t
            * _power(inner, params.alpha / 2.0)
        )
        # inner is inf / inf at a huge density
        if not h >= 0.0:
            raise NumericalError(f"selection argument h = {h} is not a nonnegative float")
    return target - upper_incomplete_gamma(a, h), h


def selection_function(params: SystemParams) -> SelectionVerdict:
    """Which optimized technique covers better at params.d.

    Positive F means the guard zone wins; at a tie (F = 0, including the
    threshold density where both optima are null) artificial noise is
    reported; below the threshold F, H, G and the verdict are None.
    Against mpmath, h_value is within 1e-14 * alpha / (1 - g_value)
    relative at the reported g_value (1/g - 1 cancels near g = 1), and
    f_value within 1e-13 * Gamma(2/alpha) absolute at the reported h_value.

    Both optima come from optimal_guard_radius and optimal_power_split,
    called on params itself: where the caller has just asked for them on
    this object, the verdict's gz_design and an_design are the very
    optima it got, read from its point entry, not recomputed; the target
    comes from the same entry (see the module docstring).
    """
    gz = optimal_guard_radius(params)
    an = optimal_power_split(params)
    if not gz.constraint_active:
        return SelectionVerdict(None, None, None, None, gz, an)
    f_value, h_value = _selection_f(params, an.parameter, _point(params).solution.target)
    better = Technique.GUARD_ZONE if f_value > 0.0 else Technique.ARTIFICIAL_NOISE
    return SelectionVerdict(f_value, h_value, an.parameter, better, gz, an)


def critical_distance(params: SystemParams) -> CriticalDistance:
    """Distance at which the preferred technique flips.

    F(d) = 0 exactly where the two optimal coverage exponents are equal,
    lambda_e*pi*r_g*^2 = (beta_t*sigma2_p*d^alpha/p_t) * (1/gamma* - 1),
    which gives

        d*^alpha = lambda_e*pi*r_g*^2 * p_t*gamma* / (beta_t*sigma2_p*(1 - gamma*)).

    At the threshold density both optima are null and the ratio is 0/0;
    d* is then its limit as lambda_e approaches the threshold from above,

        d*^alpha = 2*(1 + beta_e)*p_t*(-ln epsilon) / (alpha*beta_t*sigma2_p).

    Rounding can leave only one of the two optima null there, so either
    one being null selects the limit; below the threshold d_star is None.
    d* has the tolerance of r_g* (optimal_guard_radius) against mpmath.
    """
    solution = _point(params).solution
    r_star = solution.guard_zone[0].r_g
    if not solution.needed:
        return CriticalDistance(None)
    g = solution.power_split[0].gamma
    if r_star == 0.0 or g == 1.0:
        # at the threshold gamma* -> 1 and
        # lambda_e*pi*r_g*^2 / (1 - gamma*) -> 2*(1 + beta_e)*(-ln eps)/alpha
        g = 1.0
        exponent_ratio = (
            2.0 * (1.0 + params.beta_e) * -math.log(params.epsilon) / params.alpha
        )
    else:
        exponent_ratio = params.lambda_e * math.pi * (r_star * r_star) / (1.0 - g)
    d_alpha = exponent_ratio * params.p_t * g / (params.beta_t * params.sigma2_p)
    if 0.0 < d_alpha < math.inf:
        return CriticalDistance(d_alpha ** (1.0 / params.alpha))
    # d*^alpha leaves the float range where d* need not: ln d* is the sum
    # of the factors' logs, less the divisors', over alpha
    if g == 1.0:
        up, down = (2.0, 1.0 + params.beta_e, -math.log(params.epsilon)), (params.alpha,)
    else:
        up, down = (params.lambda_e, math.pi, r_star, r_star), (1.0 - g,)
    logs = [math.log(x) for x in (*up, params.p_t, g)]
    logs += [-math.log(x) for x in (*down, params.beta_t, params.sigma2_p)]
    return CriticalDistance(math.exp(math.fsum(logs) / params.alpha))
