"""The test suite's reference configuration and its one mpmath oracle.

Tests recompute the paper's closed forms only here, from the paper's
formulas rather than the package's code (a = 2 / alpha), each at the
caller's precision (`with mp.workdps(n):`), never setting a global one.
REFERENCE is the CLI's defaults at d = 1; the frozen values are the
routes there, which test_mpmath_oracle checks. VALIDATOR checks a report
against the schema, and report_points reads the closed forms a report
printed, with the parameters and design of each.

Kept apart on purpose: each module's hypothesis strategies draw its own
domain, and one builder would branch on its caller; test_specfun's
quadrature is an independent route to Gamma(a, x) that checks mpmath's;
test_montecarlo's Clopper-Pearson bounds are another quantity;
test_acceptance's seeded random.Random draws are fixed streams;
bench/reference.py is the benchmark's own checker. A name reference.py
would shadow that module for the tests that put bench/ on sys.path.
"""

import json
from dataclasses import replace
from pathlib import Path

import jsonschema
import mpmath as mp

from d2d_secrecy.model import SystemParams

REFERENCE = SystemParams(alpha=4.0, p_t=1.0, beta_t=2.0, beta_e=1.0, epsilon=0.9,
                         sigma2_p=1.0, sigma2_s=1.0, lambda_e=0.1, d=1.0)

# the routes at REFERENCE, the coverages at the optima at d = 0.6, and the
# limits of d* at lambda* at REFERENCE with the alphas they are keyed by
LAMBDA_STAR = 0.03784278358522517
R_G_STAR = 0.7891877844114611
GAMMA_STAR = 0.5716038134739094
D_STAR = 0.6010803446505605
P_SEC_R0 = 0.7569815488821163
P_SEC_R1 = 0.9571504604608518
P_ACTIVE_R1 = 0.7304026910486456
P_COV_GZ_STAR = 0.6345343577418047
P_COV_AN_STAR = 0.6354251760855749
THRESHOLD_LIMITS = {3.0: 0.41259966986709196, 4.0: 0.47908433757868807,
                    6.0: 0.5722591851550981}

VALIDATOR = jsonschema.Draft202012Validator(json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output_schema.json").read_text()))


def _order(params):
    return 2 / mp.mpf(params.alpha)


def _ratio(params, power):
    return mp.mpf(power) / (mp.mpf(params.sigma2_s) * params.beta_e)


def _log_eps(params):
    return -mp.log(mp.mpf(params.epsilon))


def secrecy_scale(params, power=None):
    """S = (2 pi lambda_e / alpha) (power / (sigma2_s beta_e))^a, power p_t by default."""
    ratio = _ratio(params, params.p_t if power is None else power)
    return 2 * mp.pi * params.lambda_e / mp.mpf(params.alpha) * ratio ** _order(params)


def lambda_threshold(params):
    """alpha / (2 pi Gamma(a)) (-ln eps) (p_t / (sigma2_s beta_e))^-a"""
    a = _order(params)
    return (mp.mpf(params.alpha) / (2 * mp.pi * mp.gamma(a)) * _log_eps(params)
            * _ratio(params, params.p_t) ** -a)


def _exp_neg(x):
    """e^-x for x >= 0, and 0 from x = 2^64 on: e^-x lies below 10^-(8e18)
    there, and mpmath would work out its exponent to every digit, which
    took over a minute at x = 1e9000 (a distance of 1e300 at alpha = 1e6
    gives x near 1e300000000)."""
    return mp.exp(-x) if x < 2**64 else mp.mpf(0)


def p_active(params, r_g):
    return _exp_neg(mp.mpf(params.lambda_e) * mp.pi * mp.mpf(r_g) ** 2)


def p_cov_an(params, gamma):
    fade = params.beta_t * mp.mpf(params.sigma2_p) * mp.mpf(params.d) ** params.alpha / params.p_t
    return _exp_neg(fade / gamma)


def p_cov_gz(params, r_g):
    # the link is active, and its faded SNR clears beta_t at full power
    return p_active(params, r_g) * p_cov_an(params, 1)


def p_sec_gz(params, r_g):
    # mp.gammainc(a, x) is the upper incomplete gamma Gamma(a, x)
    x = mp.mpf(r_g) ** params.alpha / _ratio(params, params.p_t)
    return mp.exp(-secrecy_scale(params) * mp.gammainc(_order(params), x))


def p_sec_an(params, gamma):
    if gamma <= params.beta_e / (1.0 + params.beta_e):
        return mp.mpf(1)
    effective = gamma - (1 - mp.mpf(gamma)) * params.beta_e
    return mp.exp(-secrecy_scale(params, params.p_t * effective) * mp.gamma(_order(params)))


def inverse_upper_gamma(a, target):
    """x with Gamma(a, x) = target, solved in ln x on the smaller tail
    between the bounds (a (Gamma(a) - target))^(1/a) <= x <= max(1, -ln target)."""
    lower = mp.gamma(a) - target
    lo = mp.log(a * lower) / a
    if lower <= mp.gamma(a) / 2:
        return mp.exp(mp.findroot(
            lambda u: mp.log(mp.gammainc(a, 0, mp.exp(u)) / lower), (lo, 0), solver="anderson"))
    hi = mp.log(max(1, -mp.log(target)))
    return mp.exp(mp.findroot(
        lambda u: mp.log(mp.gammainc(a, mp.exp(u)) / target), (lo, hi), solver="anderson"))


def guard_radius_star(params):
    """r_g* = (x p_t / (beta_e sigma2_s))^(1/alpha) with Gamma(a, x) = -ln(eps) / S;
    0 where plain transmission already meets the secrecy target."""
    a, scale = _order(params), secrecy_scale(params)
    if scale * mp.gamma(a) <= _log_eps(params):
        return mp.mpf(0)
    x = inverse_upper_gamma(a, _log_eps(params) / scale)
    return (x * _ratio(params, params.p_t)) ** (1 / mp.mpf(params.alpha))


def gamma_star(params):
    """min(1, beta_e / (1 + beta_e) (1 + lift)), lift = (sigma2_s / p_t)
    (alpha (-ln eps) / (2 pi lambda_e Gamma(a)))^(alpha/2); 1 for an empty field."""
    if params.lambda_e == 0:
        return mp.mpf(1)
    alpha = mp.mpf(params.alpha)
    lift = mp.mpf(params.sigma2_s) / params.p_t * (
        alpha * _log_eps(params) / (2 * mp.pi * params.lambda_e * mp.gamma(2 / alpha))
    ) ** (alpha / 2)
    return min(mp.mpf(1), mp.mpf(params.beta_e) / (1 + params.beta_e) * (1 + lift))


def critical_distance(params):
    """d*, where the optimal coverage exponents are equal: d*^alpha = lambda_e
    pi r_g*^2 p_t gamma* / (beta_t sigma2_p (1 - gamma*)); None where gamma* is 1."""
    g = gamma_star(params)
    if g == 1:
        return None
    return (params.lambda_e * mp.pi * guard_radius_star(params) ** 2 * params.p_t * g
            / (params.beta_t * mp.mpf(params.sigma2_p) * (1 - g))) ** (1 / mp.mpf(params.alpha))


def threshold_limit(params):
    """The limit of d* as lambda_e falls to lambda*:
    d*^alpha = 2 (1 + beta_e) p_t (-ln eps) / (alpha beta_t sigma2_p)."""
    alpha = mp.mpf(params.alpha)
    return (2 * (1 + mp.mpf(params.beta_e)) * params.p_t * _log_eps(params)
            / (alpha * params.beta_t * params.sigma2_p)) ** (1 / alpha)


def selection(params, g, h=None):
    """(F, H) of the selection function at the power split g, with
    H = (beta_e sigma2_s / p_t) (beta_t sigma2_p d^alpha (1/g - 1) /
    (lambda_e pi p_t))^(alpha/2), 0 at g = 1, and F = -ln(eps) / S -
    Gamma(a, H); F is taken at h instead where h is given."""
    g, alpha = mp.mpf(g), mp.mpf(params.alpha)
    inner = (params.beta_t * mp.mpf(params.sigma2_p) * mp.mpf(params.d) ** alpha
             / (params.lambda_e * mp.pi * params.p_t) * (1 / g - 1))
    h_of_g = params.beta_e * mp.mpf(params.sigma2_s) / params.p_t * inner ** (alpha / 2)
    at = h_of_g if h is None else h
    return _log_eps(params) / secrecy_scale(params) - mp.gammainc(_order(params), at), h_of_g


# the sweep-lambda row keys under the names of the routes above
_RENAMED = {"f_at_d_star": "f_value", "p_sec": "p_sec_gz"}


def report_points(report):
    """(params, r_g, gamma, fields) for each point of a CLI JSON report: where
    it was computed, and its closed forms under the names of the routes
    above; a form the report leaves null is None, and other keys pass as
    they are."""
    given = report["params"]
    params = SystemParams(**{**given, "d": given["d"] or 1.0})
    r_g, gamma, fields = report.get("r_g_star"), report.get("gamma_star"), report
    if report["command"] in ("analytic", "mc-validate"):
        r_g, gamma = report["design"]["r_g"], report["design"]["gamma"]
        tech = "gz" if gamma is None else "an"
        forms = report
        if "checks" in report:  # mc-validate: the analytic side of each check
            forms = {name: check["analytic"] for name, check in report["checks"].items()}
        fields = {"p_active": forms.get("p_active"), f"p_cov_{tech}": forms["p_cov"],
                  f"p_sec_{tech}": forms["p_sec"]}
    elif report["command"] == "optimize":
        gz, an = report["guard_zone"], report["artificial_noise"]
        r_g, gamma = gz["r_g_star"], an["gamma_star"]
        fields = {"lambda_threshold": report["lambda_threshold"], "r_g_star": r_g,
                  "gamma_star": gamma, "p_cov_gz": gz["p_cov"], "p_sec_gz": gz["p_sec"],
                  "p_cov_an": an["p_cov"], "p_sec_an": an["p_sec"]}
    return [(params, r_g, gamma, fields)] + [
        (replace(params, d=row.get("d") or row.get("d_star") or 1.0,
                 lambda_e=row.get("lambda_e", params.lambda_e)),
         row["r_g_star"], row["gamma_star"], {_RENAMED.get(k, k): v for k, v in row.items()})
        for row in report.get("rows", [])]
