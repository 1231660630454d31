"""Acceptance suite: the eight headline checks for this package.

Each test evaluates one criterion end to end and records a single
PASS/FAIL line that the terminal summary prints after the run. The
checks favor independent routes: grid searches instead of the solver
under test, Monte-Carlo against closed forms, and a negative control
that must sit OUTSIDE its interval.
"""

import math
import random
from dataclasses import replace

import numpy as np

from d2d_secrecy import cli
from d2d_secrecy.model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    p_active,
    p_cov_an,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
)
from d2d_secrecy.montecarlo import TrialConfig, run_an_trials, run_gz_trials, run_trials
from d2d_secrecy.optimizer import (
    critical_distance,
    lambda_threshold,
    optimal_guard_radius,
    optimal_power_split,
    selection_function,
)
from d2d_secrecy.specfun import (
    complete_gamma,
    inverse_upper_incomplete_gamma,
    upper_incomplete_gamma,
)
from oracle import GAMMA_STAR, REFERENCE

BASE = replace(REFERENCE, d=0.6)


def random_binding_params(rng: random.Random) -> SystemParams:
    """A parameter set whose density sits above the enhancement threshold."""
    draft = SystemParams(
        alpha=rng.uniform(2.1, 6.0),
        p_t=rng.uniform(0.1, 10.0),
        beta_t=rng.uniform(0.5, 8.0),
        beta_e=rng.uniform(0.2, 5.0),
        epsilon=rng.uniform(0.5, 0.99),
        sigma2_p=rng.uniform(0.2, 4.0),
        sigma2_s=rng.uniform(0.2, 4.0),
        lambda_e=1.0,
        d=rng.uniform(0.1, 2.0),
    )
    threshold = lambda_threshold(draft)
    return replace(draft, lambda_e=threshold * rng.uniform(1.0000001, 10.0))


def test_criterion_1_density_threshold(acceptance_record):
    ok = False
    try:
        value = lambda_threshold(BASE)
        ok = abs(value - 0.0378) <= 1e-4
        assert ok, f"density threshold {value} misses 0.0378 by more than 1e-4"
    finally:
        acceptance_record(1, "density threshold 0.0378", ok)


def test_criterion_2_constraint_binds_at_optima(acceptance_record):
    ok = False
    try:
        rng = random.Random(20240501)
        failures = []
        for _ in range(100):
            params = random_binding_params(rng)
            gz = optimal_guard_radius(params)
            an = optimal_power_split(params)
            gz_gap = abs(gz.metrics.p_sec - params.epsilon)
            an_gap = abs(an.metrics.p_sec - params.epsilon)
            if gz_gap > 1e-9 or an_gap > 1e-9:
                failures.append((params, gz_gap, an_gap))
        ok = not failures
        assert ok, f"secrecy constraint missed epsilon on {len(failures)} sets: {failures[:3]}"
    finally:
        acceptance_record(2, "secrecy constraint binds within 1e-9", ok)


def _grid_best(params, lo, hi, design, secrecy, coverage) -> tuple[float, float]:
    """Best feasible design parameter on a 10^4-point grid and the cell width."""
    grid = np.linspace(lo, hi, 10_000)
    best, best_cov = None, -1.0
    for value in grid:
        candidate = design(float(value))
        if secrecy(params, candidate) >= params.epsilon:
            cov = coverage(params, candidate)
            if cov > best_cov:
                best, best_cov = float(value), cov
    return best, float(grid[1] - grid[0])


def test_criterion_3_grid_search_confirms_optima(acceptance_record):
    ok = False
    try:
        rng = random.Random(77001)
        failures = []
        for _ in range(20):
            params = random_binding_params(rng)
            gz = optimal_guard_radius(params)
            an = optimal_power_split(params)
            upper = 3.0 * gz.parameter if gz.parameter > 0 else 1.0
            lower = params.beta_e / (1.0 + params.beta_e)
            best_r, cell_r = _grid_best(params, 0.0, upper, GuardZoneDesign, p_sec_gz, p_cov_gz)
            best_g, cell_g = _grid_best(params, lower, 1.0, NoiseSplitDesign, p_sec_an, p_cov_an)
            if best_r is None or abs(best_r - gz.parameter) > cell_r * (1 + 1e-9):
                failures.append(("guard", params, best_r, gz.parameter, cell_r))
            if best_g is None or abs(best_g - an.parameter) > cell_g * (1 + 1e-9):
                failures.append(("split", params, best_g, an.parameter, cell_g))
        ok = not failures
        assert ok, f"grid search disagreed with solver: {failures[:3]}"
    finally:
        acceptance_record(3, "grid search confirms optima within one cell", ok)


def test_criterion_4_selection_curve_with_mc(acceptance_record):
    ok = False
    try:
        failures = []
        grid = [0.1 + 0.05 * i for i in range(29)]
        f_values = {
            d: selection_function(replace(BASE, d=d)).f_value for d in grid
        }
        signs = [f_values[d] > 0 for d in grid]
        if not (signs == sorted(signs) and signs[0] is False and signs[-1] is True):
            failures.append(f"selection function sign pattern broken: {signs}")

        d_star = critical_distance(BASE).d_star
        residual = selection_function(replace(BASE, d=d_star)).f_value
        if abs(residual) >= 1e-8:
            failures.append(f"|F(d*)| = {abs(residual)} at d* = {d_star}")

        gz_design = GuardZoneDesign(r_g=optimal_guard_radius(BASE).parameter)
        an_design = NoiseSplitDesign(gamma=optimal_power_split(BASE).parameter)
        cfg = TrialConfig(n_trials=1_000_000, seed=404)
        # both techniques at every distance away from d*, on one scene stream
        away = [d for d in grid if abs(d - d_star) > 0.05]
        estimates = run_trials(
            BASE, [(d, design) for d in away for design in (gz_design, an_design)], cfg
        )
        for d, gz, an in zip(away, estimates[::2], estimates[1::2]):
            mc_gz, mc_an = gz.p_cov, an.p_cov
            diff = mc_gz.mean - mc_an.mean
            ci = math.sqrt(mc_gz.half_width**2 + mc_an.half_width**2)
            if abs(diff) <= ci:
                continue  # difference not resolved at this sample size
            if (diff > 0) != (f_values[d] > 0):
                failures.append(
                    f"simulation contradicts selection sign at d = {d}: "
                    f"diff = {diff}, F = {f_values[d]}"
                )
        ok = not failures
        assert ok, "; ".join(str(f) for f in failures)
    finally:
        acceptance_record(4, "selection curve sign and simulation agree", ok)


def test_criterion_5_critical_distance_grows_with_density(acceptance_record):
    ok = False
    try:
        grid = [0.05 + 0.025 * i for i in range(9)]
        stars = [
            critical_distance(replace(BASE, lambda_e=lam)).d_star for lam in grid
        ]
        ok = all(a < b for a, b in zip(stars, stars[1:]))
        assert ok, f"critical distance not strictly increasing: {stars}"
    finally:
        acceptance_record(5, "critical distance strictly increasing in density", ok)


GZ_POINTS = [
    (BASE, 1.0),
    (replace(BASE, alpha=3.0, p_t=2.0, beta_t=1.5, beta_e=0.8, lambda_e=0.15, d=0.5), 0.8),
    (replace(BASE, alpha=5.0, beta_t=1.0, beta_e=2.0, lambda_e=0.05, d=0.8), 1.2),
    (replace(BASE, p_t=0.5, beta_t=3.0, beta_e=0.5, lambda_e=0.2, d=0.4), 0.5),
    (replace(BASE, alpha=2.5, p_t=1.5, beta_t=1.0, beta_e=1.2, lambda_e=0.08, d=1.0), 0.9),
]

AN_POINTS = [
    (BASE, GAMMA_STAR),
    (replace(BASE, d=0.8), 0.75),
    (replace(BASE, alpha=3.0, beta_t=1.5, beta_e=0.8, lambda_e=0.2, d=0.5), 0.8),
    (replace(BASE, alpha=5.0, beta_t=1.0, beta_e=1.5, lambda_e=0.05, d=0.7), 0.9),
    (replace(BASE, lambda_e=0.15), 1.0),
]


def test_criterion_6_simulation_agreement_suite(acceptance_record):
    ok = False
    try:
        failures = []
        # tail_prob well below the smallest half-width so the window
        # truncation allowance cannot eat into the agreement interval of
        # near-certain probabilities
        for index, (params, r_g) in enumerate(GZ_POINTS):
            design = GuardZoneDesign(r_g=r_g)
            cfg = TrialConfig(n_trials=1_000_000, seed=600 + index, tail_prob=1e-7)
            result = run_gz_trials(params, design, cfg)
            for name, analytic, estimate in (
                ("activity", p_active(params, design), result.p_active),
                ("coverage", p_cov_gz(params, design), result.p_cov),
                ("secrecy", p_sec_gz(params, design), result.p_sec),
            ):
                if abs(analytic - estimate.mean) > 3.0 * estimate.half_width:
                    failures.append(
                        f"guard-zone {name} point {index}: analytic {analytic}, "
                        f"mc {estimate.mean} +/- {estimate.half_width}"
                    )
        for index, (params, gamma) in enumerate(AN_POINTS):
            design = NoiseSplitDesign(gamma=gamma)
            cfg = TrialConfig(n_trials=1_000_000, seed=700 + index, tail_prob=1e-7)
            result = run_an_trials(params, design, cfg)
            for name, analytic, estimate in (
                ("coverage", p_cov_an(params, design), result.p_cov),
                ("secrecy", p_sec_an(params, design), result.p_sec),
            ):
                if abs(analytic - estimate.mean) > 3.0 * estimate.half_width:
                    failures.append(
                        f"noise-split {name} point {index}: analytic {analytic}, "
                        f"mc {estimate.mean} +/- {estimate.half_width}"
                    )

        # negative control: the unconditioned secrecy tally must NOT match
        # the conditioned closed form when the guard zone is real
        design = GuardZoneDesign(r_g=1.0)
        control = run_gz_trials(
            BASE, design, TrialConfig(n_trials=1_000_000, seed=606)
        ).p_sec_unconditioned
        conditioned = p_sec_gz(BASE, design)
        if abs(control.mean - conditioned) <= 3.0 * control.half_width:
            failures.append(
                "negative control failed: unconditioned estimate "
                f"{control.mean} sits inside the interval of {conditioned}"
            )
        ok = not failures
        assert ok, "; ".join(failures)
    finally:
        acceptance_record(6, "simulation matches all five closed forms", ok)


def test_criterion_7_gamma_function_properties(acceptance_record):
    ok = False
    try:
        failures = []
        xs = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0]
        for x in xs:
            expected = math.exp(-x)
            got = upper_incomplete_gamma(1.0, x)
            if abs(got - expected) > 1e-10 * expected:
                failures.append(f"order-1 identity broke at x = {x}")
            expected = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
            got = upper_incomplete_gamma(0.5, x)
            if abs(got - expected) > 1e-10 * expected:
                failures.append(f"order-1/2 identity broke at x = {x}")
        for a in (0.3, 0.5, 0.8, 1.0):
            values = [upper_incomplete_gamma(a, x) for x in xs]
            if not all(u > v for u, v in zip(values, values[1:])):
                failures.append(f"monotonicity broke at a = {a}")
            if not all(0.0 < v < complete_gamma(a) for v in values):
                failures.append(f"bounds broke at a = {a}")
            for x in xs:
                value = upper_incomplete_gamma(a, x)
                recovered = inverse_upper_incomplete_gamma(a, value)
                if abs(recovered - x) > 100.0 * 1e-12 * max(1.0, x):
                    failures.append(
                        f"round trip broke at a = {a}, x = {x}: got {recovered}"
                    )
        ok = not failures
        assert ok, "; ".join(failures)
    finally:
        acceptance_record(7, "incomplete gamma property suite", ok)


def test_criterion_8_sweep_reruns_byte_identical(acceptance_record, tmp_path, capsys):
    ok = False
    try:
        args = [
            "sweep-d",
            "--mc", "50000",
            "--seed", "31415",
            "--format", "csv",
        ]
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        code_a = cli.main([*args, "--out", str(first)])
        code_b = cli.main([*args, "--out", str(second)])
        capsys.readouterr()
        payload = first.read_bytes()
        ok = code_a == 0 and code_b == 0 and payload == second.read_bytes() and payload
        assert ok, "sweep rerun was not byte-identical"
    finally:
        acceptance_record(8, "sweep rerun is byte-identical", ok)
