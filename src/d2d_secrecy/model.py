"""Closed-form coverage and secrecy probabilities.

Scene: a transmitter at the origin sends to its receiver at distance d
over a Rayleigh-faded, noise-limited link with power-law path loss
(exponent alpha > 2). Eavesdroppers form a homogeneous planar Poisson
field of density lambda_e; each applies maximal-ratio reception of the
single transmission, so only the strongest eavesdropper matters.

Two enhancement techniques are modeled.

Guard zone: the transmitter stays silent whenever an eavesdropper is
detected within radius r_g. Coverage requires both an active link and
receiver SNR above the legitimate threshold; secrecy is assessed given
the link is active.

Artificial noise: a fraction gamma of the transmit power carries the
information signal and the remainder is broadcast as isotropic jamming.
The legitimate receiver is assumed to cancel the jamming component; an
eavesdropper cannot, so its effective ratio saturates at gamma/(1-gamma).

All probabilities come out as single exponentials, so each function
assembles the exponent and calls exp once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateDesignError, DomainError, NumericalError
from .specfun import (
    complete_gamma,
    inverse_upper_incomplete_gamma,
    upper_incomplete_gamma,
)

__all__ = [
    "SystemParams",
    "GuardZoneDesign",
    "NoiseSplitDesign",
    "TechniqueMetrics",
    "p_active",
    "p_cov_gz",
    "p_sec_gz",
    "p_cov_an",
    "p_sec_an",
]


def _require_positive(name: str, value: float) -> None:
    if not (value > 0.0) or not math.isfinite(value):
        raise DomainError(f"{name} must be positive and finite, got {value}")


def _power(base: float, exponent: float) -> float:
    # float ** raises OverflowError where IEEE arithmetic would give inf;
    # the exponentials downstream handle inf correctly, so prefer it
    try:
        return base**exponent
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SystemParams:
    """Link, noise, and threat parameters shared by every computation.

    alpha     path-loss exponent, must exceed 2 for the field integrals
              to converge
    p_t       transmit power budget
    beta_t    SNR threshold the legitimate receiver must clear
    beta_e    SNR level an eavesdropper must stay below
    epsilon   secrecy target: designs must keep the secrecy probability
              at or above this value
    sigma2_p  noise power at the legitimate receiver
    sigma2_s  noise power at the eavesdroppers
    lambda_e  eavesdropper density per unit area
    d         transmitter-receiver distance
    """

    alpha: float
    p_t: float
    beta_t: float
    beta_e: float
    epsilon: float
    sigma2_p: float
    sigma2_s: float
    lambda_e: float
    d: float

    def __post_init__(self) -> None:
        if not (self.alpha > 2.0) or not math.isfinite(self.alpha):
            raise DomainError(
                f"alpha must exceed 2 for a planar field, got {self.alpha}"
            )
        _require_positive("p_t", self.p_t)
        _require_positive("beta_t", self.beta_t)
        _require_positive("beta_e", self.beta_e)
        if not (0.0 < self.epsilon < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        _require_positive("sigma2_p", self.sigma2_p)
        _require_positive("sigma2_s", self.sigma2_s)
        if self.lambda_e < 0.0 or not math.isfinite(self.lambda_e):
            raise DomainError(
                f"lambda_e must be nonnegative and finite, got {self.lambda_e}"
            )
        _require_positive("d", self.d)


@dataclass(frozen=True)
class GuardZoneDesign:
    """Guard-zone technique: keep silent if an eavesdropper is within r_g."""

    r_g: float

    def __post_init__(self) -> None:
        if self.r_g < 0.0 or not math.isfinite(self.r_g):
            raise DomainError(f"r_g must be nonnegative and finite, got {self.r_g}")


@dataclass(frozen=True)
class NoiseSplitDesign:
    """Artificial-noise technique: fraction gamma of power on the signal."""

    gamma: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise DomainError(f"gamma must lie in [0, 1], got {self.gamma}")


class TechniqueMetrics(NamedTuple):
    """Joint performance of one configured technique."""

    p_cov: float
    p_sec: float


def order(params: SystemParams) -> float:
    """Order 2/alpha of the incomplete gamma the field integrals produce."""
    return 2.0 / params.alpha


def density_factor(params: SystemParams) -> float:
    """Common 2*pi*lambda_e/alpha prefactor of the secrecy exponents."""
    return 2.0 * math.pi * params.lambda_e / params.alpha


def _require_finite_positive(name: str, value: float) -> float:
    # a float overflow or underflow here would turn into a wrong threshold
    # or a wrong target downstream, so it fails as a numerical error
    if not 0.0 < value < math.inf:
        raise NumericalError(f"{name} = {value} is not a positive finite float")
    return value


def _snr_ratio(params: SystemParams, power: float) -> float:
    """power / (sigma2_s * beta_e), which both secrecy exponents scale with."""
    return _require_finite_positive(
        "signal power / (sigma2_s * beta_e)", power / (params.sigma2_s * params.beta_e)
    )


def secrecy_scale(params: SystemParams, power: float | None = None) -> float:
    """Factor multiplying the gamma function in a secrecy exponent, for the
    power on the information signal: p_t (the default) under a guard zone,
    p_t times the unjammed part of gamma under artificial noise.

    An empty field (lambda_e = 0) gives 0, certain secrecy, without
    forming the power ratio, which may overflow."""
    if params.lambda_e == 0.0:
        return 0.0
    ratio = _snr_ratio(params, params.p_t if power is None else power)
    scale = density_factor(params) * ratio ** order(params)
    # 0 (an underflow) means certain secrecy, as for an empty field; inf does not
    if scale == math.inf:
        raise NumericalError(f"secrecy scale = {scale} is not a finite float")
    return scale


def guard_argument(params: SystemParams, r_g: float) -> float:
    """Map a guard radius to the incomplete-gamma argument it induces."""
    return _power(r_g, params.alpha) * params.beta_e * params.sigma2_s / params.p_t


def _silence_exponent(params: SystemParams, r_g: float) -> float:
    if params.lambda_e == 0.0:
        return 0.0
    return params.lambda_e * math.pi * (r_g * r_g)


def p_active(params: SystemParams, design: GuardZoneDesign) -> float:
    """Probability the guard zone is clear and the link transmits at all.

    Within 1e-10 relative or 1e-12 absolute of mpmath."""
    return math.exp(-_silence_exponent(params, design.r_g))


def p_cov_gz(params: SystemParams, design: GuardZoneDesign) -> float:
    """Coverage under a guard zone: link active and receiver SNR >= beta_t.

    Within 1e-10 relative or 1e-12 absolute of mpmath."""
    silence = _silence_exponent(params, design.r_g)
    fade = params.beta_t * params.sigma2_p * _power(params.d, params.alpha) / params.p_t
    return math.exp(-(silence + fade))


def p_sec_gz(params: SystemParams, design: GuardZoneDesign) -> float:
    """Secrecy under a guard zone, conditioned on the link being active.

    The nearest possible eavesdropper is pushed out to r_g, which turns
    the field integral into an upper incomplete gamma evaluated at the
    radius-dependent argument. An empty field gives 1 through a zero
    secrecy_scale. Within 1e-10 relative or 1e-12 absolute of mpmath.
    """
    a = order(params)
    scale = secrecy_scale(params)
    return math.exp(-scale * upper_incomplete_gamma(a, guard_argument(params, design.r_g)))


def guard_radius(params: SystemParams, exponent: float) -> float:
    """Smallest r_g with -ln p_sec_gz <= exponent (inverts p_sec_gz); 0 when
    exponent / secrecy_scale >= Gamma(a), or the scale is 0 (certain
    secrecy, as p_sec_gz reads it), since then no guard zone is needed.

    Raises NumericalError where the root x = r_g^alpha * beta_e * sigma2_s
    / p_t underflows to 0 (at large alpha), since r_g = 0 would then miss
    the secrecy target."""
    a = order(params)
    scale = secrecy_scale(params)
    if scale == 0.0:
        return 0.0
    target = exponent / scale
    if target >= complete_gamma(a):
        return 0.0
    x = inverse_upper_incomplete_gamma(a, target)
    if x == 0.0:
        raise NumericalError(
            "the guard-zone root r_g^alpha underflows", alpha=params.alpha, target=target
        )
    return (x * params.p_t / (params.beta_e * params.sigma2_s)) ** (1.0 / params.alpha)


def p_cov_an(params: SystemParams, design: NoiseSplitDesign) -> float:
    """Coverage under artificial noise with signal fraction gamma.

    Within 1e-10 relative or 1e-12 absolute of mpmath."""
    if design.gamma == 0.0:
        raise DegenerateDesignError(
            "gamma = 0 leaves no power on the information signal"
        )
    fade = params.beta_t * params.sigma2_p * _power(params.d, params.alpha) / (
        design.gamma * params.p_t
    )
    return math.exp(-fade)


def p_sec_an(params: SystemParams, design: NoiseSplitDesign) -> float:
    """Secrecy under artificial noise.

    An eavesdropper's ratio is capped at gamma/(1-gamma) regardless of
    position, so whenever gamma <= beta_e/(1+beta_e) secrecy holds with
    certainty. Above that the unjammed part of the field matters and the
    exponent picks up a complete gamma. Within 1e-10 relative or 1e-12
    absolute of mpmath: the unjammed part gamma - (1 - gamma) beta_e is
    the correctly rounded value of the floats' exact ratios, since near
    the cap it cancels while a dense field's exponent reads its last digits.
    An empty field gives 1 through a zero secrecy_scale.
    """
    if design.gamma <= params.beta_e / (1.0 + params.beta_e):
        return 1.0
    g_num, g_den = design.gamma.as_integer_ratio()
    b_num, b_den = params.beta_e.as_integer_ratio()
    effective = (g_num * b_den - (g_den - g_num) * b_num) / (g_den * b_den)
    if effective <= 0.0:
        # at or below the exact cap, which rounds down to the float one
        return 1.0
    scale = secrecy_scale(params, params.p_t * effective)
    return math.exp(-scale * complete_gamma(order(params)))
