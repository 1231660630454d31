"""Tests for the Monte-Carlo trial engine.

Closed-form reference values are tests/oracle.py's; simulation agreement
checks use fixed seeds, so every assertion is deterministic.
"""

import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from d2d_secrecy.errors import DomainError, NumericalError
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
        params = replace(BASE, lambda_e=1e-12)
        assert auto_window_radius(params, 1e-4) == 0.0

    def test_empty_field_uses_fixed_radius(self):
        params = replace(BASE, lambda_e=0.0)
        assert auto_window_radius(params, 1e-4) == 1.0

    @pytest.mark.parametrize("tail", [0.0, 1.0, -0.5])
    def test_rejects_bad_tail(self, tail):
        with pytest.raises(DomainError):
            auto_window_radius(BASE, tail)


class TestSampleField:
    def test_deterministic(self):
        a = sample_field(BASE, 2.0, trial_index=5, seed=42)
        b = sample_field(BASE, 2.0, trial_index=5, seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.fading, b.fading)

    def test_seed_changes_field(self):
        a = sample_field(BASE, 2.0, trial_index=5, seed=42)
        b = sample_field(BASE, 2.0, trial_index=5, seed=43)
        assert a.points.shape != b.points.shape or not np.array_equal(
            a.points, b.points
        )

    def test_points_inside_window(self):
        field = sample_field(BASE, 2.0, trial_index=0, seed=9)
        distances = np.hypot(field.points[:, 0], field.points[:, 1])
        assert np.all(distances <= 2.0)
        assert np.all(field.fading >= 0.0)

    def test_empty_when_field_density_zero(self):
        params = replace(BASE, lambda_e=0.0)
        field = sample_field(params, 2.0, trial_index=0, seed=9)
        assert field.points.shape == (0, 2)
        assert field.fading.shape == (0,)

    def test_mean_count_matches_intensity(self):
        # one internal batch of trials at lambda 0.1 on a radius-5 disk;
        # the mean count must sit within 3 standard errors of lambda*pi*25
        counts, _ = mc._batch_points(BASE, 5.0, seed=1234, batch=0)
        expected = BASE.lambda_e * math.pi * 25.0
        stderr = math.sqrt(expected / counts.size)
        assert abs(counts.mean() - expected) <= 3.0 * stderr

    def test_later_batch_indices_work(self):
        field = sample_field(BASE, 2.0, trial_index=70_000, seed=42)
        assert field.points.ndim == 2

    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(DomainError):
            sample_field(BASE, radius, trial_index=0, seed=1)

    def test_rejects_negative_trial_index(self):
        with pytest.raises(DomainError):
            sample_field(BASE, 2.0, trial_index=-1, seed=1)
        with pytest.raises(DomainError):
            trial_outcomes(BASE, GuardZoneDesign(r_g=1.0), TrialConfig(1, seed=1), [0, -1])


class TestStrongestReceivedPower:
    def test_single_point(self):
        field = EavesdropperField(
            points=np.array([[0.0, 2.0]]), fading=np.array([1.0])
        )
        assert strongest_received_power(field, BASE) == 0.0625

    def test_takes_maximum_over_points(self):
        field = EavesdropperField(
            points=np.array([[1.0, 0.0], [2.0, 0.0]]),
            fading=np.array([0.5, 16.0]),
        )
        assert strongest_received_power(field, BASE) == 1.0

    def test_empty_field(self):
        field = EavesdropperField(
            points=np.empty((0, 2)), fading=np.empty(0)
        )
        assert strongest_received_power(field, BASE) == 0.0

    def test_origin_point_rejected(self):
        # a point at the transmitter is an infinite gain, as in the kernel
        field = EavesdropperField(
            points=np.array([[0.0, 0.0]]), fading=np.array([1.0])
        )
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
        with pytest.raises(DomainError):
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
    def test_every_design_equals_its_own_run(self, monkeypatch):
        # designs at several distances and guard radii, out of order; all
        # but r_g = 1.7 fit the auto window (1.59), so two windows are
        # drawn, each slice of two batches once per window, and each
        # estimate is that design's own
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
        draws = []
        draw = mc._batch_points

        def counted(params, radius, seed, batch, trials, *streams):
            draws.append((radius, batch, trials))
            return draw(params, radius, seed, batch, trials, *streams)

        monkeypatch.setattr(mc, "_batch_points", counted)
        shared = mc.run_trials(BASE, designs, cfg)
        # batch 0 in 8 slices of 8 192 trials, batch 1 in one of 4 464
        per_window = sorted([(0, 8192)] * 8 + [(1, 4464)])
        windows = {radius for radius, _, _ in draws}
        assert len(windows) == 2
        for window in windows:
            drawn = [(batch, trials) for radius, batch, trials in draws if radius == window]
            assert sorted(drawn) == per_window
        monkeypatch.undo()
        for (d, design), estimates in zip(designs, shared):
            run = run_gz_trials if isinstance(design, GuardZoneDesign) else run_an_trials
            assert estimates == run(replace(BASE, d=d), design, cfg)


class TestPartialBatch:
    # a run's last batch, trial_outcomes and sample_field draw only the
    # trials they read, and every stream gives those trials the values
    # the full batch gives them

    @pytest.mark.parametrize("lambda_e", [0.1, 3.0])
    def test_scene_of_m_trials_is_the_full_scene_prefix(self, lambda_e):
        params = replace(BASE, lambda_e=lambda_e)
        radius = auto_window_radius(params)
        r_gs = [0.0, 0.5, R_G_STAR]
        full = mc._batch_reductions(params, radius, r_gs, 11, 2)
        for m in (1, 17, 18_928, (1 << 16) - 1):
            part = mc._batch_reductions(params, radius, r_gs, 11, 2, m)
            assert len(part) == len(full)
            for column, whole in zip(part, full):
                assert column.tobytes() == whole[:m].tobytes()

    def test_guard_counts_only_the_trials_drawn(self):
        # 1e4 points per trial: a whole batch would exceed the 5e8 points
        # a call may draw, the one trial sample_field reads does not
        params = replace(BASE, lambda_e=1e4 / math.pi)
        with pytest.raises(NumericalError, match="too large"):
            mc._batch_points(params, 1.0, 3, 0)
        field = sample_field(params, 1.0, trial_index=0, seed=3)
        counts, _ = mc._batch_points(params, 1.0, 3, 0, 1)
        assert len(field.fading) == counts[0] > 9_000


class TestTwoBatchesInFlight:
    # every batch draws from Philox streams keyed on its own index, and the
    # per-batch counts are integers summed in batch order, so the number of
    # threads that run the batches cannot move an estimate

    @staticmethod
    def _meet_in_the_first_two_threads(monkeypatch, raise_in_helper=False):
        # the first batch of the first two threads waits for the other
        # one, so a run on two workers really has both taking batches; a
        # later window's helper is a thread of its own and does not wait
        barrier = threading.Barrier(2, timeout=30)
        seen = set()
        reductions = mc._batch_reductions

        def met(params, radius, r_gs, seed, batch, *trials):
            thread = threading.current_thread()
            if len(seen) < 2 and thread not in seen:
                seen.add(thread)
                barrier.wait()
                if raise_in_helper and thread is not threading.main_thread():
                    raise NumericalError("the helper's batch failed", batch=batch)
            return reductions(params, radius, r_gs, seed, batch, *trials)

        monkeypatch.setattr(mc, "_batch_reductions", met)
        return seen

    @pytest.mark.parametrize(
        "designs, n_trials",
        [
            # two windows (r_g = 1.7 exceeds the auto radius 1.59), three
            # guard radii, two distances and both techniques
            (
                [
                    (0.6, GuardZoneDesign(r_g=1.0)),
                    (0.9, NoiseSplitDesign(gamma=GAMMA_STAR)),
                    (0.4, GuardZoneDesign(r_g=0.5)),
                    (0.6, GuardZoneDesign(r_g=1.7)),
                    (1.2, GuardZoneDesign(r_g=1.0)),
                    (0.6, NoiseSplitDesign(gamma=1.0)),
                ],
                3 << 16,
            ),
            # a partial last batch
            ([(0.6, GuardZoneDesign(r_g=1.0))], (2 << 16) + 1000),
            # one batch, which never starts a helper
            ([(0.6, NoiseSplitDesign(gamma=GAMMA_STAR))], 1 << 16),
        ],
        ids=["two-windows", "partial-last-batch", "one-batch"],
    )
    def test_tallies_do_not_depend_on_the_worker_count(
        self, monkeypatch, designs, n_trials
    ):
        cfg = TrialConfig(n_trials=n_trials, seed=17)
        monkeypatch.setattr(mc, "_WORKERS", 1)
        single = mc.run_trials(BASE, designs, cfg)
        monkeypatch.setattr(mc, "_WORKERS", 2)
        if n_trials > 1 << 16:
            threads = self._meet_in_the_first_two_threads(monkeypatch)
        # switch threads as often as the interpreter allows, so that they
        # interleave around the shared batch iterator and result list
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            two = mc.run_trials(BASE, designs, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert two == single
        if n_trials > 1 << 16:
            assert len(threads) == 2
            assert threading.main_thread() in threads

    def test_batch_failure_reaches_the_caller(self, monkeypatch, capsys):
        # batch 3 of 6 fails, in whichever thread takes it
        reductions = mc._batch_reductions

        def failing(params, radius, r_gs, seed, batch, *trials):
            if batch == 3:
                raise NumericalError("batch 3 failed")
            return reductions(params, radius, r_gs, seed, batch, *trials)

        monkeypatch.setattr(mc, "_batch_reductions", failing)
        monkeypatch.setattr(mc, "_WORKERS", 2)
        threads = threading.active_count()
        design = [(0.6, GuardZoneDesign(r_g=1.0))]
        with pytest.raises(NumericalError, match="batch 3 failed"):
            mc.run_trials(BASE, design, TrialConfig(n_trials=6 << 16, seed=3))
        assert threading.active_count() == threads
        argv = ["mc-validate", "--d", "0.6", "--r-g", "0.79", "--trials", str(6 << 16)]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: batch 3 failed\n"
        assert threading.active_count() == threads

    def test_helper_failure_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(mc, "_WORKERS", 2)
        self._meet_in_the_first_two_threads(monkeypatch, raise_in_helper=True)
        threads = threading.active_count()
        with pytest.raises(NumericalError, match="the helper's batch failed"):
            mc.run_trials(
                BASE, [(0.6, GuardZoneDesign(r_g=1.0))], TrialConfig(n_trials=6 << 16, seed=3)
            )
        assert threading.active_count() == threads


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
    def test_one_run_peaks_below_2_mib(self, monkeypatch, lambda_e, n_trials, designs):
        monkeypatch.setattr(mc, "_WORKERS", 1)
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
    def test_gz_outcomes_aggregate_to_run_estimates(self):
        # per-trial indicators summed by hand must hit the batched run's
        # tallies exactly; this pins the per-trial purity of the engine,
        # with the auto window and with an explicit one
        n = 150
        design = GuardZoneDesign(r_g=1.0)
        for window_radius in (None, 2.5):
            cfg = TrialConfig(n_trials=n, seed=5, window_radius=window_radius)
            outcomes = trial_outcomes(BASE, design, cfg, range(n))
            result, unguarded = mc.run_trials(
                BASE, [(BASE.d, design), (BASE.d, GuardZoneDesign(r_g=0.0))], cfg
            )
            assert not all(o.active for o in outcomes)
            k_sec_all = sum(o.snr_s <= BASE.beta_e for o in outcomes)
            assert result.p_active.mean == sum(o.active for o in outcomes) / n
            assert result.p_cov.mean == sum(o.covered for o in outcomes) / n
            assert result.p_sec.mean == sum(o.secure for o in outcomes) / n
            assert unguarded.p_sec.mean == k_sec_all / n

    def test_an_outcomes_aggregate_to_run_estimates(self):
        n = 150
        design = NoiseSplitDesign(gamma=0.8)
        for window_radius in (None, 2.5):
            cfg = TrialConfig(n_trials=n, seed=5, window_radius=window_radius)
            outcomes = trial_outcomes(BASE, design, cfg, range(n))
            result = run_an_trials(BASE, design, cfg)
            assert result.p_cov.mean == sum(o.covered for o in outcomes) / n
            assert result.p_sec.mean == sum(o.secure for o in outcomes) / n

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

        def with_origin_point(params, radius, seed, batch, *trials):
            counts, attrs = real(params, radius, seed, batch, *trials)
            if batch == 0:
                attrs[0, 0] = 0.0
            return counts, attrs

        monkeypatch.setattr(mc, "_batch_points", with_origin_point)
        n = 150
        cfg = TrialConfig(n_trials=n, seed=5)
        counts, _ = real(BASE, auto_window_radius(BASE), cfg.seed, 0)
        r_g, gamma = mc._settings(design)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = trial_outcomes(BASE, design, cfg, range(n))
            (result,) = mc.run_trials(BASE, [(BASE.d, design)], cfg)
        hit = outcomes[np.flatnonzero(counts)[0]]
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
            distances = np.hypot(field.points[:, 0], field.points[:, 1])
            nearest = distances.min() if len(distances) else math.inf
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
            outer = np.hypot(field.points[:, 0], field.points[:, 1]) >= design.r_g
            annulus = EavesdropperField(field.points[outer], field.fading[outer])
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
