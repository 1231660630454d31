"""Independent reference values for the closed-form fields the program reports.

Computed with mpmath at 30 significant digits, from the paper's formulas
rather than from the package:

* lambda_threshold = alpha / (2 pi Gamma(a)) * -ln(eps) * (p_t / (sigma2_s beta_e))^-a
* r_g* solves Gamma(a, x) = -ln(eps) / S with S = (2 pi lambda_e / alpha)
  (p_t / (sigma2_s beta_e))^a, then r_g* = (x p_t / (beta_e sigma2_s))^(1/alpha);
  r_g* = 0 when the target is at least Gamma(a)
* gamma* = min(1, beta_e / (1 + beta_e) * (1 + lift)) with
  lift = (sigma2_s / p_t) (alpha (-ln eps) / (2 pi lambda_e Gamma(a)))^(alpha/2)
* d* is where the two optimal coverage exponents are equal:
  d*^alpha = lambda_e pi r_g*^2 p_t gamma* / (beta_t sigma2_p (1 - gamma*))

with a = 2 / alpha. d* is None below the threshold density, where the
program reports no crossing.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30

# the CLI's reference configuration; every workload varies only alpha,
# lambda_e and d around it
DEFAULT_PARAMS = {
    "alpha": 4.0,
    "p_t": 1.0,
    "beta_t": 2.0,
    "beta_e": 1.0,
    "epsilon": 0.9,
    "sigma2_p": 1.0,
    "sigma2_s": 1.0,
}

FIELDS = ("lambda_threshold", "r_g_star", "gamma_star", "d_star")


def _inverse_upper_gamma(a, target):
    lo, hi = mp.mpf(0), mp.mpf(1)
    while mp.gammainc(a, hi) > target:
        lo, hi = hi, 2 * hi
    # a few bisection steps shrink the bracket enough for the secant-type
    # solver to converge without leaving it
    for _ in range(20):
        mid = (lo + hi) / 2
        if mp.gammainc(a, mid) > target:
            lo = mid
        else:
            hi = mid
    return mp.findroot(lambda x: mp.gammainc(a, x) - target, (lo, hi), solver="anderson")


def closed_form(alpha: float, lambda_e: float, **overrides: float) -> dict:
    """Reference lambda_threshold, r_g_star, gamma_star and d_star as floats."""
    p = {**DEFAULT_PARAMS, **overrides}
    alpha_m = mp.mpf(alpha)
    lam = mp.mpf(lambda_e)
    a = 2 / alpha_m
    gamma_a = mp.gamma(a)
    log_eps = -mp.log(mp.mpf(p["epsilon"]))
    ratio = mp.mpf(p["p_t"]) / (mp.mpf(p["sigma2_s"]) * mp.mpf(p["beta_e"]))
    threshold = alpha_m / (2 * mp.pi * gamma_a) * log_eps * ratio ** -a
    if lam == 0:
        return {"lambda_threshold": float(threshold), "r_g_star": 0.0,
                "gamma_star": 1.0, "d_star": None}

    target = log_eps / (2 * mp.pi * lam / alpha_m * ratio**a)
    if target >= gamma_a:
        r_star = mp.mpf(0)
    else:
        x_star = _inverse_upper_gamma(a, target)
        r_star = (x_star * p["p_t"] / (p["beta_e"] * p["sigma2_s"])) ** (1 / alpha_m)

    lift = (mp.mpf(p["sigma2_s"]) / p["p_t"]) * (
        alpha_m * log_eps / (2 * mp.pi * lam * gamma_a)
    ) ** (alpha_m / 2)
    gamma_star = min(mp.mpf(1), mp.mpf(p["beta_e"]) / (1 + p["beta_e"]) * (1 + lift))

    d_star = None
    if lam >= threshold and gamma_star < 1:
        d_star = float(
            (lam * mp.pi * r_star**2 * p["p_t"] * gamma_star
             / (p["beta_t"] * p["sigma2_p"] * (1 - gamma_star))) ** (1 / alpha_m)
        )
    return {
        "lambda_threshold": float(threshold),
        "r_g_star": float(r_star),
        "gamma_star": float(gamma_star),
        "d_star": d_star,
    }


def mismatches(reported: dict, reference: dict, rel_tol: float = 1e-9) -> list[str]:
    """Names of the closed-form fields in reported that miss the reference."""
    bad = []
    for key in FIELDS:
        if key not in reported:
            continue
        got, want = reported[key], reference[key]
        if want is None or got is None:
            if got is not want:
                bad.append(f"{key}: {got!r} != {want!r}")
        elif abs(got - want) > rel_tol * abs(want):
            bad.append(f"{key}: {got!r} != {want!r}")
    return bad
