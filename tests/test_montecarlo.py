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
    EavesdropperField,
    McEstimate,
    TrialConfig,
    auto_window_radius,
    run_an_trials,
    run_gz_trials,
    sample_field,
    strongest_received_power,
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
        "kwargs",
        [
            {"n_trials": 0, "seed": 1},
            {"n_trials": 100, "seed": -1},
            {"n_trials": 100, "seed": 2**64},
            {"n_trials": 100, "seed": 1, "window_radius": 0.0},
            {"n_trials": 100, "seed": 1, "window_radius": math.inf},
            {"n_trials": 100, "seed": 1, "tail_prob": 0.0},
            {"n_trials": 100, "seed": 1, "tail_prob": 1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
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


class TestSampleField:
    def test_deterministic(self):
        a = sample_field(BASE, 2.0, trial_index=5, seed=42)
        b = sample_field(BASE, 2.0, trial_index=5, seed=42)
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.fading, b.fading)
        # equality compares the arrays: a field of 41 points, not a tuple
        # of arrays whose truth value is ambiguous
        dense = replace(BASE, lambda_e=3.0)
        c = sample_field(dense, 2.0, trial_index=0, seed=1)
        assert c.distances.size >= 2
        assert c == sample_field(dense, 2.0, trial_index=0, seed=1)
        assert c != sample_field(dense, 2.0, trial_index=0, seed=2)

    def test_seed_changes_field(self):
        a = sample_field(BASE, 2.0, trial_index=5, seed=42)
        b = sample_field(BASE, 2.0, trial_index=5, seed=43)
        assert a.distances.shape != b.distances.shape or not np.array_equal(
            a.distances, b.distances
        )

    def test_points_inside_window(self):
        field = sample_field(BASE, 2.0, trial_index=0, seed=9)
        assert np.all(field.distances <= 2.0)
        assert np.all(field.fading >= 0.0)

    def test_empty_when_field_density_zero(self):
        params = replace(BASE, lambda_e=0.0)
        field = sample_field(params, 2.0, trial_index=0, seed=9)
        assert field.distances.shape == (0,)
        assert field.fading.shape == (0,)

    def test_mean_count_matches_intensity(self):
        # one slice of a batch's 2^16 trials at lambda 0.1 on a radius-5
        # disk; the mean count must sit within 3 standard errors of
        # lambda*pi*25
        labels, _ = mc._batch_points(BASE, 5.0, 1234, 0, 1 << 16, mc._streams(1234, 0))
        counts = np.bincount(labels, minlength=1 << 16)
        expected = BASE.lambda_e * math.pi * 25.0
        stderr = math.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) <= 3.0 * stderr

    def test_later_batch_indices_work(self):
        field = sample_field(BASE, 2.0, trial_index=70_000, seed=42)
        assert field.distances.ndim == 1

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(DomainError):
            sample_field(BASE, radius, trial_index=0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed_no_run_can_draw(self, seed):
        with pytest.raises(DomainError, match="unsigned 64-bit"):
            sample_field(BASE, 2.0, trial_index=0, seed=seed)

    def test_rejects_negative_trial_index(self):
        with pytest.raises(DomainError):
            sample_field(BASE, 2.0, trial_index=-1, seed=1)
        with pytest.raises(DomainError):
            trial_outcomes(BASE, GuardZoneDesign(r_g=1.0), TrialConfig(1, seed=1), [0, -1])


class TestStrongestReceivedPower:
    def test_single_point(self):
        field = EavesdropperField(distances=np.array([2.0]), fading=np.array([1.0]))
        assert strongest_received_power(field, BASE) == 0.0625

    def test_takes_maximum_over_points(self):
        field = EavesdropperField(
            distances=np.array([1.0, 2.0]), fading=np.array([0.5, 16.0])
        )
        assert strongest_received_power(field, BASE) == 1.0

    def test_empty_field(self):
        field = EavesdropperField(distances=np.empty(0), fading=np.empty(0))
        assert strongest_received_power(field, BASE) == 0.0

    def test_origin_point_rejected(self):
        # a point at the transmitter is an infinite gain, as in the kernel
        field = EavesdropperField(distances=np.array([0.0]), fading=np.array([1.0]))
        assert strongest_received_power(field, BASE) == math.inf


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
    # a run's last batch, trial_outcomes and sample_field draw each slice
    # whole, as the full batch does, and read only the trials they serve,
    # so those trials get the values the full batch gives them

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

    def test_guard_counts_only_the_trials_drawn(self):
        # 1e4 points per trial: a whole batch, 6.6e8 expected points, would
        # exceed the 2^22 (about 4.2e6) a call may draw, the one trial
        # sample_field reads does not
        params = replace(BASE, lambda_e=1e4 / math.pi)
        with pytest.raises(NumericalError, match="too large"):
            mc._batch_points(params, 1.0, 3, 0, 1 << 16, mc._streams(3, 0))
        field = sample_field(params, 1.0, trial_index=0, seed=3)
        labels, _ = mc._batch_points(params, 1.0, 3, 0, 1, mc._streams(3, 0))
        assert len(field.fading) == len(labels) > 9_000


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

    @pytest.mark.parametrize(
        "lambda_e, window_radius", [(0.1, None), (3.0, None), (2000.0, 0.05)]
    )
    def test_field_gives_the_outcome_ratio(self, lambda_e, window_radius):
        # the strongest power of sample_field's distances and gains is the
        # one the kernel reduced, so it gives trial_outcomes' snr_s, on
        # both sides of the batch seam and of the first slice seam of
        # batches 0 and 1
        params = replace(BASE, lambda_e=lambda_e)
        cfg = TrialConfig(n_trials=1, seed=13, window_radius=window_radius)
        radius = mc._window(params, [(params.d, 0.0, 1.0)], cfg)
        step = len(next(mc._slices(params, radius, 1)))
        batch = 1 << 16
        assert step < batch
        seams = [0, step - 1, step, batch - 1, batch, batch + step - 1, batch + step]
        outcomes = trial_outcomes(params, GuardZoneDesign(r_g=0.0), cfg, seams)
        for i, outcome in zip(seams, outcomes):
            field = sample_field(params, radius, i, cfg.seed)
            strongest = np.float64(strongest_received_power(field, params))
            with np.errstate(over="ignore", divide="ignore"):
                assert outcome.snr_s == mc._eavesdropper_snr(params, 1.0, strongest), i


class TestTwoBatchesInFlight:
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

    def test_outcome_matches_field_inspection(self):
        # the public field API and the trial outcome must describe the
        # same snapshot
        cfg = TrialConfig(n_trials=64, seed=23)
        design = GuardZoneDesign(r_g=1.0)
        radius = max(auto_window_radius(BASE, cfg.tail_prob), design.r_g)
        for i, outcome in enumerate(trial_outcomes(BASE, design, cfg, range(32))):
            field = sample_field(BASE, radius, i, cfg.seed)
            strongest = strongest_received_power(field, BASE)
            assert outcome.snr_s == pytest.approx(
                BASE.p_t * strongest / BASE.sigma2_s, rel=1e-9, abs=1e-300
            )
            nearest = field.distances.min(initial=math.inf)
            assert outcome.active == (nearest >= design.r_g - 1e-12)

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

    def test_annulus_secrecy_matches_field_inspection(self):
        # secure judges the eavesdroppers at distance >= r_g: on an active
        # trial that is the whole field, on an inactive one part of it, so
        # it is never less secure than the whole field there
        params = replace(BASE, lambda_e=0.3)
        design = GuardZoneDesign(r_g=1.2)
        cfg = TrialConfig(n_trials=48, seed=29, window_radius=1.6)
        outcomes = trial_outcomes(params, design, cfg, range(48))
        gained = 0
        for i, outcome in enumerate(outcomes):
            field = sample_field(params, 1.6, i, cfg.seed)
            outer = field.distances >= design.r_g
            annulus = EavesdropperField(field.distances[outer], field.fading[outer])
            secure, secure_all = (
                params.p_t * strongest_received_power(f, params) / params.sigma2_s
                <= params.beta_e
                for f in (annulus, field)
            )
            assert outcome.secure == secure
            if outcome.active:
                assert secure == secure_all == (outcome.snr_s <= params.beta_e)
            else:
                assert secure >= secure_all
                gained += secure > secure_all
        assert 0 < sum(o.active for o in outcomes) < len(outcomes)
        assert gained > 0

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
