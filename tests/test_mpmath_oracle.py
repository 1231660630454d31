"""Checks against an independent high-precision oracle (mpmath).

The forward incomplete gamma is compared with mpmath over the model's
whole order range. The optimal guard radius and the critical distance
are compared with values solved from the paper's formulas in mpmath, at
densities from 1e-15 to 10 above the threshold. A budget test counts the
forward evaluations each inverse solve makes on the benchmark's
design-grid rows.
"""

import statistics
from dataclasses import replace
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

from d2d_secrecy import model, specfun  # noqa: E402
from d2d_secrecy.model import SystemParams  # noqa: E402
from d2d_secrecy.optimizer import (  # noqa: E402
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)
from d2d_secrecy.specfun import upper_incomplete_gamma  # noqa: E402

BENCH = Path(__file__).resolve().parent.parent / "bench"

ORDERS = [1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.8, 0.99, 1.0]
ARGUMENTS = sorted(
    {0.0, 5.0, 10.0, 30.0, 100.0, 300.0, 500.0, 700.0}
    | {10.0**k for k in range(-30, 1)}
    | {0.1 * k for k in range(1, 40)}
)

BASE = SystemParams(
    alpha=4.0,
    p_t=1.0,
    beta_t=2.0,
    beta_e=1.0,
    epsilon=0.9,
    sigma2_p=1.0,
    sigma2_s=1.0,
    lambda_e=0.1,
    d=1.0,
)
MARGINS = [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0]


@pytest.mark.parametrize("a", ORDERS)
def test_forward_matches_mpmath(a):
    failures = []
    with mp.workdps(40):
        for x in [*ARGUMENTS, a + 1.0 - 1e-9, a + 1.0, a + 1.0 + 1e-9]:
            want = mp.gammainc(a, x)
            got = upper_incomplete_gamma(a, x)
            if abs(got - want) > 1e-12 * want:
                failures.append(f"x = {x}: {got!r} against {mp.nstr(want, 17)}")
    assert not failures, "; ".join(failures)


def _exact_root(a, target):
    # Gamma(a, x) = target, solved in ln x on the smaller tail between the
    # bounds (a (Gamma(a) - target))^(1/a) <= x <= max(1, -ln target)
    lower = mp.gamma(a) - target
    lo = mp.log(a * lower) / a
    if lower <= mp.gamma(a) / 2:
        return mp.exp(mp.findroot(
            lambda u: mp.log(mp.gammainc(a, 0, mp.exp(u)) / lower), (lo, 0),
            solver="anderson"))
    hi = mp.log(max(1, -mp.log(target)))
    return mp.exp(mp.findroot(
        lambda u: mp.log(mp.gammainc(a, mp.exp(u)) / target), (lo, hi),
        solver="anderson"))


def _exact_threshold(params):
    alpha = mp.mpf(params.alpha)
    a = 2 / alpha
    ratio = mp.mpf(params.p_t) / (mp.mpf(params.sigma2_s) * mp.mpf(params.beta_e))
    return alpha / (2 * mp.pi * mp.gamma(a)) * -mp.log(mp.mpf(params.epsilon)) * ratio**-a


def _exact_design(params):
    """(r_g*, d*) from the paper's formulas, at the float inputs as given."""
    alpha = mp.mpf(params.alpha)
    a = 2 / alpha
    lam = mp.mpf(params.lambda_e)
    log_eps = -mp.log(mp.mpf(params.epsilon))
    ratio = mp.mpf(params.p_t) / (mp.mpf(params.sigma2_s) * mp.mpf(params.beta_e))
    target = log_eps / (2 * mp.pi * lam / alpha * ratio**a)
    assert target < mp.gamma(a)
    r_star = (_exact_root(a, target) * ratio) ** (1 / alpha)
    lift = (mp.mpf(params.sigma2_s) / params.p_t) * (
        alpha * log_eps / (2 * mp.pi * lam * mp.gamma(a))
    ) ** (alpha / 2)
    g = mp.mpf(params.beta_e) / (1 + params.beta_e) * (1 + lift)
    d_star = (lam * mp.pi * r_star**2 * params.p_t * g
              / (params.beta_t * params.sigma2_p * (1 - g))) ** (1 / alpha)
    return r_star, d_star


@pytest.mark.parametrize("margin", MARGINS)
@pytest.mark.parametrize("alpha", [2.5, 4.0, 8.0])
def test_optimum_near_threshold_matches_mpmath(alpha, margin):
    # lambda_e sits a relative margin above the exact threshold. Below
    # 1e-6 the rounding of lambda_e - lambda* itself, a few ulps of
    # lambda*, bounds the accuracy of any double-precision r_g* and d*.
    tol = max(1e-9, 1e-15 / margin)
    with mp.workdps(40):
        threshold = _exact_threshold(replace(BASE, alpha=alpha))
        params = replace(BASE, alpha=alpha, lambda_e=float(threshold * (1 + margin)))
        assert params.lambda_e >= lambda_threshold(params)
        r_want, d_want = _exact_design(params)
        r_got = optimal_guard_radius(params).parameter
        d_got = critical_distance(params).d_star
        assert abs(r_got - r_want) <= tol * r_want
        assert abs(d_got - d_want) <= tol * d_want


def test_inverse_forward_evaluations_on_design_grid(monkeypatch):
    # every series or continued-fraction evaluation an inverse makes, over
    # the rows of four design-grid seeds, counted at the private kernels
    monkeypatch.syspath_prepend(str(BENCH))
    # the benchmark's reference module sets mpmath's global precision
    monkeypatch.setattr(mp.mp, "dps", mp.mp.dps)
    from reference import DEFAULT_PARAMS
    from workloads import DESIGN_GRID_D, grid_rows

    evaluations = [0]
    for name in ("_lower_series", "_upper_series", "_upper_continued_fraction"):
        kernel = getattr(specfun, name)

        def counted_kernel(*args, _kernel=kernel):
            evaluations[0] += 1
            return _kernel(*args)

        monkeypatch.setattr(specfun, name, counted_kernel)

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
    assert len(per_solve) == 4 * 64 * 33
    assert statistics.fmean(per_solve) <= 8.0
