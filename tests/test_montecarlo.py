"""Tests for the Monte-Carlo trial engine.

Closed-form reference values are tests/oracle.py's; simulation agreement
checks use fixed seeds, so every assertion is deterministic.
"""

import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from d2d_secrecy.errors import DegenerateDesignError, DomainError, NumericalError
from d2d_secrecy.model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    guard_argument,
    order,
    p_cov_gz,
    p_sec_an,
    p_sec_gz,
    secrecy_scale,
)
from d2d_secrecy import cli
from d2d_secrecy import montecarlo as mc
from d2d_secrecy.montecarlo import (
    McEstimate,
    TrialConfig,
    auto_window_radius,
    run_an_trials,
    run_gz_trials,
    trial_outcomes,
)
from d2d_secrecy.specfun import upper_incomplete_gamma
from oracle import (
    GAMMA_STAR,
    P_ACTIVE_R1,
    P_COV_AN_STAR,
    P_SEC_R0,
    P_SEC_R1,
    R_G_STAR,
    REFERENCE,
)

BASE = replace(REFERENCE, d=0.6)


def agrees(estimate, reference):
    return abs(estimate.mean - reference) <= 3.0 * estimate.half_width


class TestTrialConfig:
    def test_accepts_reasonable_values(self):
        cfg = TrialConfig(n_trials=1000, seed=7)
        assert cfg.window_radius is None
        assert cfg.tail_prob == 1e-4

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_trials": 0, "seed": 1}, "n_trials"),
            # a seed no generator can take
            ({"n_trials": 100, "seed": -1}, "unsigned 64-bit"),
            ({"n_trials": 100, "seed": 2**64}, "unsigned 64-bit"),
            ({"n_trials": 100, "seed": 1, "window_radius": 0.0}, "window_radius"),
            ({"n_trials": 100, "seed": 1, "window_radius": math.inf}, "window_radius"),
            ({"n_trials": 100, "seed": 1, "tail_prob": 0.0}, "tail_prob"),
            ({"n_trials": 100, "seed": 1, "tail_prob": 1.0}, "tail_prob"),
        ],
        ids=[f"kwargs{i}" for i in range(7)],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(DomainError, match=match):
            TrialConfig(**kwargs)


class TestAutoWindowRadius:
    def test_frozen_default_tail(self):
        assert auto_window_radius(BASE, 1e-4) == pytest.approx(
            1.5884698793818837, rel=1e-6
        )

    def test_frozen_tighter_tail(self):
        assert auto_window_radius(BASE, 1e-6) == pytest.approx(
            1.810117691090279, rel=1e-6
        )

    def test_forward_bound_holds_strictly(self):
        for tail in (1e-3, 1e-4, 1e-6):
            radius = auto_window_radius(BASE, tail)
            neglected = secrecy_scale(BASE) * upper_incomplete_gamma(
                order(BASE), guard_argument(BASE, radius)
            )
            assert neglected < tail

    def test_tighter_tail_needs_larger_window(self):
        assert auto_window_radius(BASE, 1e-6) > auto_window_radius(BASE, 1e-4)

    def test_sparse_field_clamps_to_zero(self):
        # in the last two the secrecy scale is 0, an empty field's and an
        # underflow's: certain secrecy
        for field in (
            {"lambda_e": 1e-12},
            {"lambda_e": 0.0},
            {"lambda_e": 1e-300, "p_t": 1e-300},
        ):
            params = replace(BASE, **field)
            assert auto_window_radius(params, 1e-4) == 0.0, field

    @pytest.mark.parametrize("tail", [0.0, 1.0, -0.5])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(DomainError):
            auto_window_radius(BASE, tail)


class TestGuardZoneTrials:
    def test_deterministic(self):
        cfg = TrialConfig(n_trials=20_000, seed=77)
        design = GuardZoneDesign(r_g=1.0)
        assert run_gz_trials(BASE, design, cfg) == run_gz_trials(BASE, design, cfg)

    def test_seed_matters(self):
        design = GuardZoneDesign(r_g=1.0)
        a = run_gz_trials(BASE, design, TrialConfig(n_trials=20_000, seed=1))
        b = run_gz_trials(BASE, design, TrialConfig(n_trials=20_000, seed=2))
        assert a != b

    def test_matches_closed_forms(self):
        cfg = TrialConfig(n_trials=1_000_000, seed=2024)
        result = run_gz_trials(BASE, GuardZoneDesign(r_g=1.0), cfg)
        assert agrees(result.p_active, P_ACTIVE_R1)
        assert agrees(result.p_sec, P_SEC_R1)
        assert agrees(
            result.p_cov, p_cov_gz(BASE, GuardZoneDesign(r_g=1.0))
        )

    def test_matches_closed_forms_without_guard(self):
        params = replace(BASE, d=1.0)
        cfg = TrialConfig(n_trials=1_000_000, seed=55)
        result = run_gz_trials(params, GuardZoneDesign(r_g=0.0), cfg)
        assert agrees(result.p_cov, math.exp(-2.0))
        assert agrees(result.p_sec, P_SEC_R0)
        assert result.p_active.mean == 1.0

    def test_negative_control_distinguishes_conditioning(self):
        # the r_g = 0 design of the same run judges every eavesdropper: it
        # must reproduce the r_g = 0 closed form and sit far from the
        # conditioned one, proving the conditioning in p_sec is real
        cfg = TrialConfig(n_trials=400_000, seed=31)
        designs = [(BASE.d, GuardZoneDesign(r_g=r_g)) for r_g in (1.0, 0.0)]
        guarded, unguarded = mc.run_trials(BASE, designs, cfg)
        unconditioned = unguarded.p_sec
        assert agrees(unconditioned, P_SEC_R0)
        assert abs(unconditioned.mean - P_SEC_R1) > 10.0 * unconditioned.half_width
        assert agrees(guarded.p_sec, P_SEC_R1)

    def test_conditional_estimate_uses_every_trial(self):
        # secrecy given an active link is judged on each trial's annulus at
        # distance >= r_g, so inactive trials count too
        cfg = TrialConfig(n_trials=50_000, seed=4)
        result = run_gz_trials(BASE, GuardZoneDesign(r_g=1.0), cfg)
        assert result.p_active.mean < 0.8
        for estimate in vars(result).values():
            assert estimate.n_effective == cfg.n_trials

    def test_window_must_exceed_guard_radius(self):
        cfg = TrialConfig(n_trials=100, seed=1, window_radius=0.5)
        with pytest.raises(DomainError):
            run_gz_trials(BASE, GuardZoneDesign(r_g=1.0), cfg)

    def test_no_active_trials_still_estimate_p_sec(self):
        # without a single active trial the annulus still gives every trial
        # a secrecy sample, and the estimate agrees with the closed form
        params = replace(BASE, lambda_e=1.0)
        design = GuardZoneDesign(r_g=3.0)
        cfg = TrialConfig(n_trials=10, seed=3)
        result = run_gz_trials(params, design, cfg)
        assert result.p_active.mean == 0.0
        for estimate in vars(result).values():
            assert isinstance(estimate, McEstimate)
            assert estimate.n_effective == cfg.n_trials
        assert agrees(result.p_sec, p_sec_gz(params, design))

    def test_window_insensitivity(self):
        # doubling the window may only move estimates by the documented
        # truncation allowance plus combined statistical noise
        design = GuardZoneDesign(r_g=1.0)
        tail = 1e-4
        radius = max(auto_window_radius(BASE, tail), design.r_g)
        small = run_gz_trials(
            BASE, design, TrialConfig(n_trials=200_000, seed=8, window_radius=radius)
        )
        large = run_gz_trials(
            BASE,
            design,
            TrialConfig(n_trials=200_000, seed=8, window_radius=2.0 * radius),
        )
        for name in ("p_active", "p_cov", "p_sec"):
            a = getattr(small, name)
            b = getattr(large, name)
            assert abs(a.mean - b.mean) <= tail + 3.0 * (a.half_width + b.half_width)

    def test_oversized_window_rejected(self):
        cfg = TrialConfig(n_trials=100, seed=1, window_radius=1e4)
        with pytest.raises(NumericalError):
            run_gz_trials(BASE, GuardZoneDesign(r_g=1.0), cfg)


class TestArtificialNoiseTrials:
    def test_deterministic(self):
        cfg = TrialConfig(n_trials=20_000, seed=77)
        design = NoiseSplitDesign(gamma=0.7)
        assert run_an_trials(BASE, design, cfg) == run_an_trials(BASE, design, cfg)

    def test_certain_secrecy_below_power_ratio(self):
        # gamma at or below beta_e / (1 + beta_e) caps every
        # eavesdropper's ratio below beta_e, so every trial is secure
        cfg = TrialConfig(n_trials=50_000, seed=6)
        result = run_an_trials(BASE, NoiseSplitDesign(gamma=0.5), cfg)
        assert result.p_sec.mean == 1.0

    def test_matches_closed_forms_at_optimal_split(self):
        cfg = TrialConfig(n_trials=1_000_000, seed=99)
        result = run_an_trials(BASE, NoiseSplitDesign(gamma=GAMMA_STAR), cfg)
        assert agrees(result.p_sec, 0.9)
        assert agrees(result.p_cov, P_COV_AN_STAR)

    def test_overflowed_eavesdropper_power_sits_at_the_cap(self):
        # at alpha = 500 the nearest eavesdroppers' path gains overflow to
        # inf; gamma = 0.4 <= beta_e / (1 + beta_e) caps every ratio at 2/3,
        # so every trial is secure (inf / inf made some of them nan)
        params = replace(BASE, alpha=500.0)
        design = NoiseSplitDesign(gamma=0.4)
        result = run_an_trials(params, design, TrialConfig(n_trials=20_000, seed=1))
        assert p_sec_an(params, design) == 1.0
        assert result.p_sec.mean == 1.0

    def test_full_power_coverage(self):
        params = replace(BASE, d=1.0)
        cfg = TrialConfig(n_trials=400_000, seed=13)
        result = run_an_trials(params, NoiseSplitDesign(gamma=1.0), cfg)
        assert agrees(result.p_cov, math.exp(-2.0))

    def test_link_is_always_active(self):
        # p_active is the kernel's all-active tally, and the whole record
        # is the guard zone's without a guard radius on the same scenes
        cfg = TrialConfig(n_trials=20_000, seed=3)
        an = run_an_trials(BASE, NoiseSplitDesign(gamma=1.0), cfg)
        assert (an.p_active.mean, an.p_active.n_effective) == (1.0, 20_000)
        assert an == run_gz_trials(BASE, GuardZoneDesign(r_g=0.0), cfg)

    def test_rejects_zero_split(self):
        cfg = TrialConfig(n_trials=100, seed=1)
        with pytest.raises(DegenerateDesignError):
            run_an_trials(BASE, NoiseSplitDesign(gamma=0.0), cfg)

    def test_secrecy_monotone_in_split_on_shared_fields(self):
        # same seed means same fields, so raising gamma can only push
        # each trial's eavesdropper ratio up and the secure count down
        cfg = TrialConfig(n_trials=100_000, seed=21)
        means = [
            run_an_trials(BASE, NoiseSplitDesign(gamma=g), cfg).p_sec.mean
            for g in (0.6, 0.7, 0.8, 0.9, 1.0)
        ]
        assert all(a >= b for a, b in zip(means, means[1:]))


class TestNullDesignEquivalence:
    def test_gz_without_guard_equals_an_at_full_power(self):
        # r_g = 0 and gamma = 1 describe the same untreated link; with a
        # shared seed the two engines must produce identical estimates
        cfg = TrialConfig(n_trials=100_000, seed=12)
        gz = run_gz_trials(BASE, GuardZoneDesign(r_g=0.0), cfg)
        an = run_an_trials(BASE, NoiseSplitDesign(gamma=1.0), cfg)
        assert gz.p_cov == an.p_cov
        assert gz.p_sec == an.p_sec

    def test_null_designs_give_identical_trial_outcomes(self):
        cfg = TrialConfig(n_trials=64, seed=12)
        gz = trial_outcomes(BASE, GuardZoneDesign(r_g=0.0), cfg, range(64))
        an = trial_outcomes(BASE, NoiseSplitDesign(gamma=1.0), cfg, range(64))
        assert gz == an


class TestSharedScene:
    def test_every_design_equals_its_own_run(self, batch_draws):
        # designs at several distances and guard radii, out of order;
        # r_g = 1.7 exceeds the auto window (1.59), so the run's one window
        # widens to 1.7, each slice of two batches is drawn once and whole,
        # and each estimate is that design's own run on that window
        cfg = TrialConfig(n_trials=70_000, seed=21)
        designs = [
            (0.6, GuardZoneDesign(r_g=1.0)),
            (0.9, NoiseSplitDesign(gamma=GAMMA_STAR)),
            (0.4, GuardZoneDesign(r_g=0.5)),
            (0.6, GuardZoneDesign(r_g=1.7)),
            (0.6, GuardZoneDesign(r_g=0.0)),
            (1.2, GuardZoneDesign(r_g=1.0)),
            (0.6, NoiseSplitDesign(gamma=1.0)),
        ]
        shared = mc.run_trials(BASE, designs, cfg)
        # batch 0 in 8 slices of 8 192 trials, batch 1 in one, of which
        # 4 464 trials are served
        assert sorted(batch_draws) == [(1.7, 0, 8192)] * 8 + [(1.7, 1, 8192)]
        on_window = replace(cfg, window_radius=1.7)
        for (d, design), estimates in zip(designs, shared):
            point = replace(BASE, d=d)
            if not isinstance(design, GuardZoneDesign):
                own = run_an_trials(point, design, on_window)
            elif design.r_g < 1.7:
                own = run_gz_trials(point, design, on_window)
            else:
                # a given window must exceed r_g; the auto one widens to it
                own = run_gz_trials(point, design, cfg)
            assert estimates == own

    def test_no_designs_draw_nothing(self, batch_draws):
        assert mc.run_trials(BASE, [], TrialConfig(n_trials=70_000, seed=21)) == []
        assert batch_draws == []


class TestPartialBatch:
    # a run's last batch and trial_outcomes draw each slice whole, as the
    # full batch does, and read only the trials they serve, so those
    # trials get the values the full batch gives them

    @pytest.mark.parametrize("lambda_e", [0.1, 3.0])
    def test_scene_of_m_trials_is_the_full_scene_prefix(self, lambda_e):
        params = replace(BASE, lambda_e=lambda_e)
        radius = auto_window_radius(params)
        r_gs = [0.0, 0.5, R_G_STAR]

        def scene(m):
            pieces = list(mc._scenes(params, radius, r_gs, 11, 2, m))
            assert [i for piece, _ in pieces for i in piece] == list(range(m))
            return [np.concatenate(c) for c in zip(*(columns for _, columns in pieces))]

        full = scene(1 << 16)
        for m in (1, 17, 18_928, (1 << 16) - 1):
            part = scene(m)
            assert len(part) == len(full)
            for column, whole in zip(part, full):
                assert column.tobytes() == whole[:m].tobytes()

    def test_guard_counts_only_the_trials_drawn(self, batch_draws):
        # 1e4 points per trial: a whole batch, 6.6e8 expected points, would
        # exceed the 2^22 (about 4.2e6) a call may draw, a scene of one
        # trial does not
        params = replace(BASE, lambda_e=1e4 / math.pi)
        with pytest.raises(NumericalError, match="too large"):
            mc._batch_points(params, 1.0, 3, 0, 1 << 16, mc._streams(3, 0))
        ((piece, (nearest, _, outer)),) = mc._scenes(params, 1.0, [0.0], 3, 0, trials=1)
        assert piece == range(1)
        assert batch_draws[-1] == (1.0, 0, 1)
        labels, _ = mc._batch_points(params, 1.0, 3, 0, 1, mc._streams(3, 0))
        assert len(labels) > 9_000
        assert 0.0 < nearest[0] < 0.1 and outer[0] > 0.0


class TestPointLaw:
    # a slice of T trials draws one Poisson(m T) total and a uniform trial
    # label per point, which by the colouring theorem gives each trial an
    # independent Poisson(m) count

    @pytest.mark.parametrize("m", [0.1, 0.8, 3.0])
    @pytest.mark.parametrize("trials", [1, 2, "whole"])
    def test_counts_per_trial_are_poisson(self, m, trials):
        # the empirical cdf of the per-trial counts, bincount(labels), must
        # lie in the Dvoretzky-Kiefer-Wolfowitz band of the Poisson(m) cdf
        # with Massart's constant: P(sup |F_n - F| > eps) <= 2 exp(-2 n
        # eps^2) for any law (Massart, Ann. Probab. 1990). Each case fails
        # a correct sampler with probability at most 1e-7, the 9 cases at
        # most 9e-7 per run. One whole slice of the kernel is T = 8 192
        # trials at m = 0.1 and 0.8, and 2 730 at m = 3; slices of 1 and 2
        # trials, as the last slice of a batch or a dense field's, are
        # pooled over 8 192 trials of continued draws
        params = replace(BASE, lambda_e=m / math.pi)
        if trials == "whole":
            (piece,) = mc._slices(params, 1.0, 1)
            trials, n = len(piece), len(piece)
        else:
            n = 8_192
        streams = mc._streams(8, 0)
        counts = np.concatenate([
            np.bincount(mc._batch_points(params, 1.0, 8, 0, trials, streams)[0],
                        minlength=trials)
            for _ in range(n // trials)
        ])
        ks = np.arange(counts.max() + 1)
        pmf = np.exp(-m + ks * math.log(m) - np.array([math.lgamma(k + 1) for k in ks]))
        gap = np.abs(np.cumsum(np.bincount(counts)) / n - np.cumsum(pmf)).max()
        assert gap <= math.sqrt(math.log(2 / 1e-7) / (2 * n)), gap

    def test_mean_count_matches_intensity(self):
        # one slice of a batch's 2^16 trials at lambda 0.1 on a radius-5
        # disk; the mean count must sit within 3 standard errors of
        # lambda*pi*25
        labels, _ = mc._batch_points(BASE, 5.0, 1234, 0, 1 << 16, mc._streams(1234, 0))
        counts = np.bincount(labels, minlength=1 << 16)
        expected = BASE.lambda_e * math.pi * 25.0
        stderr = math.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) <= 3.0 * stderr

    def test_empty_field_has_no_nearest_point_and_no_power(self):
        params = replace(BASE, lambda_e=0.0)
        pieces = list(mc._scenes(params, 2.0, [0.0, 1.0], 9, 0, 1 << 16))
        assert len(pieces) == 8
        for _, (nearest, _, *outers) in pieces:
            assert np.all(nearest == math.inf)
            for outer in outers:
                assert np.all(outer == 0.0)


class TestReductions:
    # each reduction the kernel makes with ufunc.at and its ascending-drop
    # trick, checked bit for bit against a per-trial reduction of the very
    # points and gains it decodes

    @staticmethod
    def direct(params, radius, r_gs, seed, batch, trials, streams):
        """The scene of the next slice, reduced one trial at a time."""
        labels, attrs = mc._batch_points(params, radius, seed, batch, trials, streams)
        radii, gains = mc._decode(radius, attrs.copy())
        assert np.all((0.0 <= radii) & (radii <= radius)) and np.all(gains >= 0.0)
        with np.errstate(over="ignore", divide="ignore"):
            path = gains * radii**-params.alpha
        nearest = np.full(trials, np.inf)
        outers = np.zeros((len(r_gs), trials))
        for trial in np.unique(labels):
            own = labels == trial
            nearest[trial] = radii[own].min()
            for j, r_g in enumerate(r_gs):
                outers[j, trial] = path[own & (radii >= r_g)].max(initial=0.0)
        h = -np.log1p(-streams[mc._S_LINK].random(trials))
        return (nearest, h, *outers)

    @pytest.mark.parametrize(
        "lambda_e, window_radius",
        [(0.0, None), (0.1, None), (0.3, None), (3.0, None), (2000.0, 0.05)],
    )
    def test_scene_is_the_per_trial_reduction(self, lambda_e, window_radius):
        # the first three slices of batch 1, each drawn from two fresh
        # copies of its streams; radii 0.5 and 1.2 lie outside the 0.05 window
        params = replace(BASE, lambda_e=lambda_e)
        r_gs = [0.0, 0.5, 1.2]
        radius = window_radius or max(auto_window_radius(params), r_gs[-1])
        seed, batch = 13, 1
        kernel, reference = mc._streams(seed, batch), mc._streams(seed, batch)
        pieces = list(mc._slices(params, radius, mc._TRIALS_PER_BATCH))[:3]
        assert len(pieces) == 3
        expected = []
        for piece in pieces:
            trials = len(piece)
            scene = mc._batch_reductions(params, radius, r_gs, seed, batch, trials, kernel)
            want = self.direct(params, radius, r_gs, seed, batch, trials, reference)
            assert [c.tobytes() for c in scene] == [c.tobytes() for c in want], piece
            expected.append(want)
        nearest, _, *outers = (np.concatenate(column) for column in zip(*expected))
        if lambda_e > 0.0:
            # points were drawn, and the annulus dropped some of them
            assert np.isfinite(nearest).any()
            assert (outers[0] > outers[-1]).any()
        # trial_outcomes reads these trials, on both sides of each slice seam
        # and 200 more: active off the nearest point, snr_s off every point
        # and secure off the points at distance >= r_g
        drawn = pieces[-1].stop
        read = sorted(
            {i for piece in pieces for i in (piece.start, piece.stop - 1)}
            | set(range(0, drawn, -(-drawn // 200)))
        )
        indices = [batch * mc._TRIALS_PER_BATCH + i for i in read]
        cfg = TrialConfig(n_trials=1, seed=seed, window_radius=radius)
        with np.errstate(over="ignore", divide="ignore"):
            ratios = [mc._eavesdropper_snr(params, 1.0, outer) for outer in outers]
        for r_g, ratio in zip(r_gs, ratios):
            if r_g >= radius:
                continue
            got = trial_outcomes(params, GuardZoneDesign(r_g=r_g), cfg, indices)
            for i, outcome in zip(read, got):
                assert outcome.active == (nearest[i] >= r_g), (r_g, i)
                assert outcome.snr_s == ratios[0][i], (r_g, i)
                assert outcome.secure == (ratio[i] <= params.beta_e), (r_g, i)


class TestScaleInvariance:
    # a change of length unit by c: d, r_g and the window times c, lambda_e
    # over c^2 and p_t times c^alpha leave every probability unchanged
    # (Haenggi 2012, ch. 2: a homogeneous PPP scaled by c has density
    # lambda/c^2). Where c is a power of 2 the kernel's map is exact: the
    # radii, the Poisson mean lambda_e pi R R and the thresholds, which are
    # solved from the kernel's own expressions, scale without rounding

    # two guard zones and two noise splits, as (d, r_g, gamma)
    DESIGNS = [(0.6, 0.5, 1.0), (0.9, 1.2, 1.0), (0.6, 0.0, 0.7), (0.3, 0.0, GAMMA_STAR)]

    @staticmethod
    def design(r_g, gamma):
        return GuardZoneDesign(r_g=r_g) if gamma == 1.0 else NoiseSplitDesign(gamma=gamma)

    @pytest.mark.parametrize("c", [2.0, 8.0, 0.25])
    @pytest.mark.parametrize("lambda_e", [0.1, 3.0])
    @pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 5.0])
    def test_a_change_of_length_unit_moves_no_trial(self, alpha, lambda_e, c):
        params = replace(BASE, alpha=alpha, lambda_e=lambda_e)
        scaled = replace(params, lambda_e=lambda_e / c**2, p_t=params.p_t * c**alpha)
        cfg = TrialConfig(n_trials=20_000, seed=7, window_radius=2.0)
        wide = replace(cfg, window_radius=2.0 * c)
        designs = [(c * d, c * r_g, gamma) for d, r_g, gamma in self.DESIGNS]
        assert mc._tallies(params, self.DESIGNS, 2.0, cfg) == mc._tallies(
            scaled, designs, 2.0 * c, wide
        )
        # the ratios are exact too where c^alpha is a power of 2, and within
        # the rounding of p_t c^alpha elsewhere
        exact = math.frexp(c**alpha)[0] == 0.5
        for d, r_g, gamma in self.DESIGNS:
            outcomes = trial_outcomes(
                replace(params, d=d), self.design(r_g, gamma), cfg, range(256)
            )
            moved = trial_outcomes(
                replace(scaled, d=c * d), self.design(c * r_g, gamma), wide, range(256)
            )
            if exact:
                assert moved == outcomes
                continue
            for a, b in zip(outcomes, moved):
                assert (a.active, a.covered, a.secure) == (b.active, b.covered, b.secure)
                assert (a.snr_p, a.snr_s) == pytest.approx((b.snr_p, b.snr_s), rel=1e-15)


class TestBatchFailure:
    # batches run in order on the calling thread; a failed batch ends the
    # run, and its error reaches the caller and the CLI unchanged

    def test_batch_failure_reaches_the_caller(self, monkeypatch, capsys):
        # batch 3 of 6 fails
        reductions = mc._batch_reductions

        def failing(params, radius, r_gs, seed, batch, trials, streams):
            if batch == 3:
                raise NumericalError("batch 3 failed")
            return reductions(params, radius, r_gs, seed, batch, trials, streams)

        monkeypatch.setattr(mc, "_batch_reductions", failing)
        design = [(0.6, GuardZoneDesign(r_g=1.0))]
        with pytest.raises(NumericalError, match="batch 3 failed"):
            mc.run_trials(BASE, design, TrialConfig(n_trials=6 << 16, seed=3))
        argv = ["mc-validate", "--d", "0.6", "--r-g", "0.79", "--trials", str(6 << 16)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: batch 3 failed\n"


class TestBatchMemory:
    # every array of a slice is drawn, reduced, tallied and freed before
    # the next slice is drawn, and a slice holds at most 2^13 trials and
    # about 2^13 expected points, so one run's peak does not grow with the
    # density: about 0.3-1 MiB from 0.8 to 25 000 points per trial

    # the default sweep-d grid 0.1 .. 1.5, with both optima per distance
    SWEEP_D = [
        (round(0.1 + 0.05 * i, 2), design)
        for i in range(29)
        for design in (GuardZoneDesign(r_g=R_G_STAR), NoiseSplitDesign(gamma=GAMMA_STAR))
    ]

    @pytest.mark.parametrize(
        "lambda_e, n_trials, designs",
        [
            (0.1, 1 << 16, [(BASE.d, GuardZoneDesign(r_g=R_G_STAR))]),
            (0.1, 1 << 16, [(BASE.d, NoiseSplitDesign(gamma=GAMMA_STAR))]),
            (0.1, 1 << 16, SWEEP_D),
            (3.0, 1 << 16, [(BASE.d, GuardZoneDesign(r_g=1.3281047314704306))]),
            (2000.0, 50, [(BASE.d, GuardZoneDesign(r_g=0.5))]),
        ],
        ids=["gz", "an", "sweep-d", "gz-lambda-3", "gz-lambda-2000"],
    )
    def test_one_run_peaks_below_2_mib(self, lambda_e, n_trials, designs):
        params = replace(BASE, lambda_e=lambda_e)
        cfg = TrialConfig(n_trials=n_trials, seed=1)
        # a first run imports the modules numpy's seeding needs, about
        # 0.7 MiB that the run does not allocate
        mc.run_trials(params, designs, replace(cfg, seed=2))
        tracemalloc.start()
        try:
            mc.run_trials(params, designs, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak / (1 << 20)


class TestTrialOutcomes:
    # BASE, then the edges of the thresholds a run tallies against (see
    # montecarlo._thresholds): a power at the float limit, a link path
    # gain that overflows to inf and one that underflows to 0, an empty
    # field, and a received power that overflows at a gain of 0
    EDGES = [
        BASE,
        replace(BASE, p_t=1.7e308),
        replace(BASE, d=1e-200),
        replace(BASE, d=1e200),
        replace(BASE, lambda_e=0.0),
        replace(BASE, p_t=1.7e308, d=1e200),
    ]
    # full power, and just above the cap beta_e/(1 + beta_e) = 0.5 of BASE,
    # where only an eavesdropper very close by breaks secrecy
    EDGE_GAMMAS = [0.8, 1.0, math.nextafter(0.5, 1.0)]

    @staticmethod
    def windows(params):
        # the auto window and an explicit one; a power at the float limit
        # has no finite auto window
        if math.isfinite(auto_window_radius(params)):
            return (None, 2.5)
        return (2.5,)

    def test_gz_outcomes_aggregate_to_run_estimates(self):
        # per-trial indicators summed by hand must hit the batched run's
        # tallies exactly; this pins the per-trial purity of the engine,
        # with the auto window and with an explicit one
        n = 150
        design = GuardZoneDesign(r_g=1.0)
        for params in self.EDGES:
            for window_radius in self.windows(params):
                cfg = TrialConfig(n_trials=n, seed=5, window_radius=window_radius)
                outcomes = trial_outcomes(params, design, cfg, range(n))
                result, unguarded = mc.run_trials(
                    params, [(params.d, design), (params.d, GuardZoneDesign(r_g=0.0))], cfg
                )
                if params.lambda_e > 0.0:
                    assert not all(o.active for o in outcomes)
                k_sec_all = sum(o.snr_s <= params.beta_e for o in outcomes)
                assert result.p_active.mean == sum(o.active for o in outcomes) / n
                assert result.p_cov.mean == sum(o.covered for o in outcomes) / n
                assert result.p_sec.mean == sum(o.secure for o in outcomes) / n
                assert unguarded.p_sec.mean == k_sec_all / n

    def test_an_outcomes_aggregate_to_run_estimates(self):
        n = 150
        for params in self.EDGES:
            for gamma in self.EDGE_GAMMAS:
                design = NoiseSplitDesign(gamma=gamma)
                for window_radius in self.windows(params):
                    cfg = TrialConfig(n_trials=n, seed=5, window_radius=window_radius)
                    outcomes = trial_outcomes(params, design, cfg, range(n))
                    result = run_an_trials(params, design, cfg)
                    assert result.p_cov.mean == sum(o.covered for o in outcomes) / n
                    assert result.p_sec.mean == sum(o.secure for o in outcomes) / n

    @pytest.mark.parametrize(
        "params",
        EDGES + [replace(BASE, alpha=102.0)],
        ids=["base", "pt-1.7e308", "d-1e-200", "d-1e200", "lambda-0", "pt-1.7e308-d-1e200",
             "alpha-102"],
    )
    def test_thresholds_are_the_last_values_each_indicator_holds_at(self, params):
        # secure holds at o* and not one ulp above it; covered holds at h*
        # and not one ulp below it; both read by the kernel's expressions
        gammas = self.EDGE_GAMMAS + [GAMMA_STAR]
        designs = [(d, 0.0, gamma) for d in (0.6, params.d) for gamma in gammas]
        o_stars, h_stars = mc._thresholds(params, designs, gammas)

        def secure(gamma, x):
            ratio = mc._eavesdropper_snr(params, gamma, np.array([x]))
            return bool(ratio[0] <= params.beta_e)

        def covered(d, gamma, x):
            received = mc._received(params, gamma, np.array([x]))
            ratio = mc._link_snr(params, mc._power(d, -params.alpha), received)
            return bool(ratio[0] >= params.beta_t)

        with np.errstate(all="ignore"):
            for gamma, o_star in zip(gammas, o_stars):
                assert secure(gamma, o_star), (gamma, o_star)
                if o_star < math.inf:
                    assert not secure(gamma, math.nextafter(o_star, math.inf)), gamma
            for (d, _, gamma), h_star in zip(designs, h_stars):
                if math.isnan(h_star):
                    # covered nowhere, as for a path gain that underflows
                    assert not covered(d, gamma, math.inf), (d, gamma)
                    continue
                assert covered(d, gamma, h_star), (d, gamma, h_star)
                if h_star > 0.0:
                    assert not covered(d, gamma, math.nextafter(h_star, 0.0)), (d, gamma)

    @pytest.mark.parametrize(
        "design",
        [GuardZoneDesign(r_g=0.0), GuardZoneDesign(r_g=0.5)]
        + [NoiseSplitDesign(gamma=0.4), NoiseSplitDesign(gamma=0.9)],
        ids=["gz-0", "gz-0.5", "an-0.4", "an-0.9"],
    )
    def test_point_at_the_transmitter_is_an_infinite_gain(self, design, monkeypatch):
        # a radius uniform of exactly 0 puts a point at distance 0; its gain
        # is inf, like an overflowed one, and the run raises no warning
        real = mc._batch_points
        n = 150
        cfg = TrialConfig(n_trials=n, seed=5)
        radius = auto_window_radius(BASE)
        (piece,) = mc._slices(BASE, radius, n)
        labels, _ = real(BASE, radius, cfg.seed, 0, len(piece), mc._streams(cfg.seed, 0))
        # the first point of the trials the run serves
        first = np.flatnonzero(labels < n)[0]

        def with_origin_point(params, radius, seed, batch, trials, streams):
            labels, attrs = real(params, radius, seed, batch, trials, streams)
            if batch == 0:
                attrs[0, first] = 0.0
            return labels, attrs

        monkeypatch.setattr(mc, "_batch_points", with_origin_point)
        r_g, gamma = mc._settings(design)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = trial_outcomes(BASE, design, cfg, range(n))
            (result,) = mc.run_trials(BASE, [(BASE.d, design)], cfg)
        hit = outcomes[labels[first]]
        assert hit.snr_s == (math.inf if gamma == 1.0 else gamma / (1.0 - gamma))
        assert hit.active == (r_g == 0.0)
        if isinstance(design, GuardZoneDesign):
            assert result.p_active.mean == sum(o.active for o in outcomes) / n
        assert result.p_cov.mean == sum(o.covered for o in outcomes) / n
        assert result.p_sec.mean == sum(o.secure for o in outcomes) / n

    def test_runs_agree_on_common_prefix_across_batches(self):
        # extending a run by one trial changes the tallies by exactly
        # that trial's indicators, even across the internal batch seam
        boundary = 65_536
        design = GuardZoneDesign(r_g=1.0)
        short = run_gz_trials(BASE, design, TrialConfig(n_trials=boundary, seed=17))
        longer = run_gz_trials(
            BASE, design, TrialConfig(n_trials=boundary + 1, seed=17)
        )
        [extra] = trial_outcomes(
            BASE, design, TrialConfig(n_trials=boundary + 1, seed=17), [boundary]
        )
        k_short = round(short.p_active.mean * boundary)
        k_long = round(longer.p_active.mean * (boundary + 1))
        assert k_long == k_short + int(extra.active)
        noise = NoiseSplitDesign(gamma=0.8)
        short = run_an_trials(BASE, noise, TrialConfig(n_trials=boundary, seed=17))
        longer = run_an_trials(BASE, noise, TrialConfig(n_trials=boundary + 1, seed=17))
        [extra] = trial_outcomes(
            BASE, noise, TrialConfig(n_trials=boundary + 1, seed=17), [boundary]
        )
        for name, flag in (("p_cov", extra.covered), ("p_sec", extra.secure)):
            k_short = round(getattr(short, name).mean * boundary)
            k_long = round(getattr(longer, name).mean * (boundary + 1))
            assert k_long == k_short + int(flag)

    def test_inactive_trial_still_judges_secrecy(self):
        params = replace(BASE, lambda_e=1.0)
        cfg = TrialConfig(n_trials=64, seed=3)
        design = GuardZoneDesign(r_g=3.0)
        outcomes = trial_outcomes(params, design, cfg, range(20))
        assert any(not o.active for o in outcomes)
        for o in outcomes:
            assert isinstance(o.secure, bool)
            if not o.active:
                assert not o.covered

    def test_rejects_negative_trial_index(self):
        with pytest.raises(DomainError, match="nonnegative"):
            trial_outcomes(BASE, GuardZoneDesign(r_g=1.0), TrialConfig(1, seed=1), [0, -1])

    def test_an_split_monotone_per_trial(self):
        cfg = TrialConfig(n_trials=64, seed=40)
        grid = (0.3, 0.5, 0.7, 0.9)
        per_split = [
            trial_outcomes(BASE, NoiseSplitDesign(gamma=g), cfg, range(16)) for g in grid
        ]
        for outcomes in zip(*per_split):
            ratios = [o.snr_s for o in outcomes]
            assert all(a <= b for a, b in zip(ratios, ratios[1:]))


class TestEstimateIntervals:
    def test_small_sample_uses_exact_interval(self):
        # with every trial secure the normal approximation would report
        # zero width; the exact interval must not
        cfg = TrialConfig(n_trials=50, seed=6)
        result = run_an_trials(BASE, NoiseSplitDesign(gamma=0.5), cfg)
        assert result.p_sec.mean == 1.0
        assert 0.0 < result.p_sec.half_width < 0.2

    def test_large_sample_width_shrinks(self):
        design = GuardZoneDesign(r_g=1.0)
        small = run_gz_trials(BASE, design, TrialConfig(n_trials=10_000, seed=9))
        large = run_gz_trials(BASE, design, TrialConfig(n_trials=640_000, seed=9))
        assert large.p_active.half_width < small.p_active.half_width / 4.0


# n below 20 makes both tails exact at once; the large n have one huge
# tally, and 2e6 and 2**31 on both tails would take millions of terms if
# a bound were ever summed over the large tally
CP_NS = [*range(1, 60), 100, 1000, 16330, 20000, 100_000, 150_000, 1_000_000,
         2_000_000, 2**31]


def _exact_counts(n):
    """Every k with min(k, n - k) < 10, without walking the whole range."""
    return sorted({*range(min(10, n + 1)), *range(max(0, n - 9), n + 1)})


def _cdf_root(m, n, target, start):
    """p with P[X <= m] = target, X ~ Binomial(n, p), m small: two Newton
    steps in mpmath from a double-precision start. Returns p and the
    relative size of the last step."""
    p = mp.mpf(start)
    for _ in range(2):
        q = 1 - p
        term = q**n
        cdf = term
        for j in range(m):
            term *= (n - j) * p / ((j + 1) * q)
            cdf += term
        # d/dp P[X <= m] = -(n - m) C(n, m) p^m q^(n - m - 1)
        step = (cdf - target) / (-(n - m) * term / q)
        p -= step
    return p, abs(step / p)


def _mpmath_bounds(k, n):
    """Clopper-Pearson bounds solved from the binomial tail in mpmath,
    summing the shorter side: P[X >= k] = 0.025 and P[X <= k] = 0.025."""
    if k > n - k:
        lower, upper = _mpmath_bounds(n - k, n)
        return 1 - upper, 1 - lower
    start_lower, start_upper = mc._clopper_pearson(k, n)
    lower, upper = mp.mpf(0), mp.mpf(1)
    with mp.workdps(30):
        if k > 0:
            lower, last = _cdf_root(k - 1, n, mp.mpf("0.975"), start_lower)
            assert last < 1e-18, (k, n)
        if k < n:
            upper, last = _cdf_root(k, n, mp.mpf("0.025"), start_upper)
            assert last < 1e-18, (k, n)
    return lower, upper


class TestClopperPearson:
    @pytest.mark.parametrize("n", CP_NS)
    def test_half_width_matches_beta_quantiles(self, n):
        # the beta quantiles of the exact interval, as roots of the tail
        for k in _exact_counts(n):
            lower, upper = _mpmath_bounds(k, n)
            expected = max(float(upper) - k / n, k / n - float(lower))
            got = mc._binomial_estimate(k, n).half_width
            assert got == pytest.approx(expected, rel=0, abs=1e-12), (k, n)

    @pytest.mark.parametrize("n", CP_NS)
    def test_all_or_nothing_bounds_are_closed_form(self, n):
        with mp.workdps(40):
            root = mp.mpf("0.025") ** (mp.mpf(1) / n)
            upper_at_0, lower_at_n = float(1 - root), float(root)
        exact = {"rel": 1e-14, "abs": 0.0}
        assert mc._clopper_pearson(0, n) == pytest.approx((0.0, upper_at_0), **exact)
        assert mc._clopper_pearson(n, n) == pytest.approx((lower_at_n, 1.0), **exact)
