"""Monte-Carlo validation engine for the closed-form probabilities.

Each trial realizes one snapshot of the scene: a Poisson number of
eavesdroppers dropped uniformly on a finite disk, independent unit-mean
exponential power gains per eavesdropper, and a fresh legitimate-channel
gain. Indicator outcomes (active, covered, secure) aggregate into
binomial estimates with 95% confidence half-widths.

Both techniques run through one kernel: each is one link with two
settings (silence radius, signal fraction), (r_g, 1) for the guard zone
and (0, gamma) for artificial noise. A batch is reduced to a scene (per
trial the strongest eavesdropper path gain over the whole disk, the
nearest eavesdropper distance, the link gain h, and the strongest path
gain over the annulus at distance >= r_g for each distinct r_g > 0), and
a design's indicators are read off it. None of that depends on the link
distance d, so run_trials evaluates every (d, design) pair that shares a
window radius on one scene per batch; run_gz_trials and run_an_trials
are its one-design case. Of the indicators only coverage depends on d:
activity and both secrecy indicators are computed once per distinct
(r_g, gamma) and shared by every d of that family, and coverage once
per design. trial_outcomes reads single trials off the same arrays and
expressions, so per-trial outcomes sum exactly to the batch tallies.

A batch is drawn, reduced, tallied over fixed slices of 2^14 trials and
freed within one call, so no array of it outlives the call; at the
reference density (about 0.8 points per trial) its arrays peak at about
2.5 MiB (tracemalloc). Where two cores are usable, two batches are in
flight: the calling thread and one helper thread each take the next
batch index, and the per-batch counts are summed in batch order, so the
number of threads cannot move a tally.

Guard-zone secrecy is defined given an active link, that is, given no
eavesdropper inside r_g. A Poisson process is independent on disjoint
sets, so given an empty guard disk the eavesdroppers are just the points
on the annulus [r_g, R], and every trial's annulus points are a fair
sample of them. The guard zone's p_sec is therefore the secrecy
indicator over each trial's annulus, averaged over all trials; on an
active trial it is the indicator over every point.

Randomness is counter-based so that results never depend on execution
order: every batch of trials owns Philox generators keyed on
(seed, stream, batch_index), with separate streams for point counts,
point attributes, the legitimate channel, and resampling. A trial's
draws are a pure function of (seed, trial_index) and the fixed internal
batch size, which is what makes sample_field reproduce exactly the field
any run_*_trials call used, and makes runs of different lengths agree on
their common prefix of trials.

The infinite plane is truncated to a disk: auto_window_radius picks the
smallest radius whose neglected outer region shifts any secrecy estimate
by less than tail_prob, via the guard-zone inverse model.guard_radius.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .errors import (
    DomainError,
    ExcludedRegionError,
    NumericalError,
)
from .model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    _power,
    guard_radius,
)

__all__ = [
    "TrialConfig",
    "EavesdropperField",
    "TrialOutcome",
    "McEstimate",
    "GzTrialEstimates",
    "AnTrialEstimates",
    "auto_window_radius",
    "sample_field",
    "strongest_received_power",
    "run_gz_trials",
    "run_an_trials",
    "run_trials",
    "trial_outcomes",
]

_TRIALS_PER_BATCH = 1 << 16
# trials per slice of a batch's scene that the indicators are taken over
_SLICE = 1 << 14
# stream ids for the counter-based generators
_S_COUNTS, _S_POINTS, _S_LINK, _S_RESAMPLE = range(4)
# points closer to the transmitter than this are resampled; the path-loss
# law diverges at the origin and the event has probability ~0
_MIN_POINT_DISTANCE = 1e-9
# window used when the field is empty anyway
_EMPTY_FIELD_RADIUS = 1.0
# below this count in either tally the normal approximation gives way to
# Clopper-Pearson; it also caps the binomial sums the exact bounds take
_EXACT_BELOW = 10
# each 95% Clopper-Pearson bound leaves this much probability outside it
_CP_TAIL = 0.025


@dataclass(frozen=True)
class TrialConfig:
    """How many trials to run and how to randomize/truncate them.

    window_radius = None asks for the auto rule (see auto_window_radius
    with this tail_prob).
    """

    n_trials: int
    seed: int
    window_radius: float | None = None
    tail_prob: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise DomainError(f"n_trials must be at least 1, got {self.n_trials}")
        if not (0 <= self.seed < 2**64):
            raise DomainError(f"seed must be an unsigned 64-bit value, got {self.seed}")
        if self.window_radius is not None and not (
            self.window_radius > 0.0 and math.isfinite(self.window_radius)
        ):
            raise DomainError(
                f"window_radius must be positive and finite, got {self.window_radius}"
            )
        if not (0.0 < self.tail_prob < 1.0):
            raise DomainError(f"tail_prob must lie in (0, 1), got {self.tail_prob}")


@dataclass(frozen=True)
class EavesdropperField:
    """One realized snapshot: planar positions and per-point power gains."""

    points: np.ndarray  # shape (n, 2)
    fading: np.ndarray  # shape (n,)


@dataclass(frozen=True)
class TrialOutcome:
    """Indicator-level view of a single trial.

    snr_s is the strongest eavesdropper's ratio over the whole disk.
    secure judges only the eavesdroppers at distance >= r_g, the field an
    active link faces, so on an active trial it is snr_s <= beta_e.
    """

    active: bool
    snr_p: float
    snr_s: float
    covered: bool
    secure: bool


@dataclass(frozen=True)
class McEstimate:
    """Binomial estimate with a 95% confidence half-width."""

    mean: float
    half_width: float
    n_effective: int


@dataclass(frozen=True)
class GzTrialEstimates:
    """Guard-zone run summary; every estimate takes all trials.

    p_sec is secrecy given an active link, estimated on each trial's
    annulus at distance >= r_g (see the module docstring).
    p_sec_unconditioned judges every eavesdropper of every trial and
    exists as the negative control - it matches the r_g = 0 closed form,
    not the guard-zone one.
    """

    p_active: McEstimate
    p_cov: McEstimate
    p_sec: McEstimate
    p_sec_unconditioned: McEstimate


@dataclass(frozen=True)
class AnTrialEstimates:
    """Artificial-noise run summary (the link is always active)."""

    p_cov: McEstimate
    p_sec: McEstimate


def auto_window_radius(params: SystemParams, tail_prob: float = 1e-4) -> float:
    """Smallest simulation-disk radius whose neglected outer region biases
    secrecy estimates by less than tail_prob.

    The contribution of eavesdroppers beyond R is the guard-zone secrecy
    exponent at r_g = R, so model.guard_radius inverts it. Returns 0 when
    even the full exponent stays below tail_prob, and a fixed small
    radius when the field is empty.
    """
    if not (0.0 < tail_prob < 1.0):
        raise DomainError(f"tail_prob must lie in (0, 1), got {tail_prob}")
    if params.lambda_e == 0.0:
        return _EMPTY_FIELD_RADIUS
    # shade the target slightly so the forward bound holds strictly: the
    # inverse returns the root only to the rounding of its smaller tail
    return guard_radius(params, tail_prob * (1.0 - 1e-9))


def _stream(seed: int, stream: int, batch: int) -> np.random.Generator:
    key = np.random.SeedSequence(entropy=seed, spawn_key=(stream, batch))
    return np.random.Generator(np.random.Philox(key))


def _batch_points(
    params: SystemParams, radius: float, seed: int, batch: int
) -> tuple[np.ndarray, np.ndarray]:
    """Counts and raw point attributes for one full batch of trials.

    Returns (counts, attrs): counts has _TRIALS_PER_BATCH entries; attrs
    has one row per point holding the three uniforms (radius, angle,
    fading). Points landing inside the excluded origin region are
    resampled row-by-row.
    """
    area_mean = params.lambda_e * math.pi * radius * radius
    if area_mean * _TRIALS_PER_BATCH > 5e8:
        raise NumericalError(
            "simulation window is too large for the point density",
            radius=radius,
            mean_points_per_trial=area_mean,
        )
    counts = _stream(seed, _S_COUNTS, batch).poisson(
        area_mean, size=_TRIALS_PER_BATCH
    )
    total = int(counts.sum())
    attrs = _stream(seed, _S_POINTS, batch).random((total, 3))
    if total and radius > 0.0:
        resampler = None
        for _ in range(100):
            bad = _too_close(radius, attrs[:, 0])
            if bad.size == 0:
                break
            if resampler is None:
                resampler = _stream(seed, _S_RESAMPLE, batch)
            attrs[bad] = resampler.random((bad.size, 3))
        else:
            raise NumericalError(
                "could not sample points outside the excluded origin region",
                radius=radius,
            )
    return counts, attrs


def _too_close(radius: float, u: np.ndarray) -> np.ndarray:
    """Ascending indices of the radius uniforms u whose points fall inside
    _MIN_POINT_DISTANCE, that is radius * sqrt(u) < _MIN_POINT_DISTANCE.

    u is compared with (_MIN_POINT_DISTANCE / radius)^2, widened well past
    the rounding of either side, and only those candidates take the exact
    test, so no distance array of u's size is formed. The added smallest
    normal keeps u = 0 a candidate where the square underflows.
    """
    scale = _MIN_POINT_DISTANCE / radius
    bound = scale * scale * (1.0 + 1e-6) + sys.float_info.min
    rows = np.flatnonzero(u < bound)
    return rows[radius * np.sqrt(u[rows]) < _MIN_POINT_DISTANCE]


def _exponential(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-mean exponential gains -ln(1 - u) of the uniforms u, written to
    out (u itself may be passed) or to a new array."""
    gains = np.negative(u, out=out)
    np.log1p(gains, out=gains)
    return np.negative(gains, out=gains)


def _link_gains(seed: int, batch: int) -> np.ndarray:
    u = _stream(seed, _S_LINK, batch).random(_TRIALS_PER_BATCH)
    return _exponential(u, out=u)


def _trial_rows(
    params: SystemParams, radius: float, seed: int, trial_index: int
) -> np.ndarray:
    """Point-attribute rows of one trial."""
    if trial_index < 0:
        raise DomainError(f"trial_index must be nonnegative, got {trial_index}")
    batch, pos = divmod(trial_index, _TRIALS_PER_BATCH)
    counts, attrs = _batch_points(params, radius, seed, batch)
    start = int(counts[:pos].sum())
    return attrs[start : start + int(counts[pos])]


def _decode(radius: float, attrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances to the transmitter and power gains of the points in attrs,
    each computed in one array of its own."""
    radii = np.sqrt(attrs[:, 0])
    radii *= radius
    return radii, _exponential(attrs[:, 2])


def sample_field(
    params: SystemParams, radius: float, trial_index: int, seed: int
) -> EavesdropperField:
    """The eavesdropper snapshot a given trial sees.

    Bit-identical to the field used by run_gz_trials / run_an_trials for
    the same (seed, trial_index) and radius.
    """
    if not (radius > 0.0) or not math.isfinite(radius):
        raise DomainError(f"radius must be positive and finite, got {radius}")
    rows = _trial_rows(params, radius, seed, trial_index)
    radii, fading = _decode(radius, rows)
    angles = 2.0 * math.pi * rows[:, 1]
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return EavesdropperField(points=points, fading=fading)


def strongest_received_power(field: EavesdropperField, params: SystemParams) -> float:
    """Largest fading-weighted path gain over the field, max g * r^-alpha.

    This is the quantity the strongest eavesdropper receives per unit
    transmit power; 0 for an empty field.
    """
    distances = np.hypot(field.points[:, 0], field.points[:, 1])
    if np.any(distances < _MIN_POINT_DISTANCE):
        raise ExcludedRegionError(
            "an eavesdropper coincides with the transmitter; the path-loss "
            "model is undefined there"
        )
    return float(np.max(field.fading * distances**-params.alpha, initial=0.0))


def _binomial_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p), 0 < p < 1, summed from j = 0.

    Takes k + 1 terms, so callers keep k below _EXACT_BELOW; each term is
    the previous one times (n - j)/(j + 1) * p/(1 - p).
    """
    term = math.exp(n * math.log1p(-p))
    ratio = p / (1.0 - p)
    total = term
    for j in range(k):
        term *= (n - j) / (j + 1) * ratio
        total += term
    return total


def _cdf_root(k: int, n: int, target: float) -> tuple[float, float]:
    """Adjacent floats lo < hi with _binomial_cdf(k, n, .) above target at
    lo and not above it at hi (the cdf falls as p rises), by bisection."""
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        if _binomial_cdf(k, n, mid) > target:
            lo = mid
        else:
            hi = mid


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact 95% interval for k successes in n trials, min(k, n - k) small.

    The lower bound solves P[X >= k] = 0.025 and the upper bound
    P[X <= k] = 0.025 (Clopper & Pearson, Biometrika 1934). Both are
    rounded outward. A large k is mirrored onto the failures, so no sum
    ever runs over the large tally.
    """
    if k >= _EXACT_BELOW:
        lower, upper = _clopper_pearson(n - k, n)
        return 1.0 - upper, 1.0 - lower
    lower = 0.0 if k == 0 else _cdf_root(k - 1, n, 1.0 - _CP_TAIL)[0]
    upper = 1.0 if k == n else _cdf_root(k, n, _CP_TAIL)[1]
    return lower, upper


def _binomial_estimate(successes: int, n: int) -> McEstimate:
    """Mean of successes/n, n >= 1, with a 95% confidence half-width.

    The half-width is the normal approximation 1.96 * sqrt(p(1-p)/n),
    except when either tally (successes or failures) is below 10, where
    the normal approximation breaks down: there it is the larger
    distance from the mean to an exact Clopper-Pearson bound.
    """
    mean = successes / n
    if min(successes, n - successes) < _EXACT_BELOW:
        lower, upper = _clopper_pearson(successes, n)
        half_width = max(upper - mean, mean - lower)
    else:
        half_width = 1.96 * math.sqrt(mean * (1.0 - mean) / n)
    return McEstimate(mean=mean, half_width=half_width, n_effective=n)


def _settings(design: GuardZoneDesign | NoiseSplitDesign) -> tuple[float, float]:
    """A design as (silence radius, signal fraction): the guard zone is
    (r_g, 1) and artificial noise is (0, gamma)."""
    if isinstance(design, GuardZoneDesign):
        return design.r_g, 1.0
    return 0.0, design.gamma


def _windows(
    params: SystemParams,
    designs: Sequence[GuardZoneDesign | NoiseSplitDesign],
    cfg: TrialConfig,
) -> list[float]:
    """Simulation-disk radius of each design; rejects one it cannot
    simulate. The auto radius is solved once, on first need."""
    auto = None
    radii = []
    for design in designs:
        r_g, gamma = _settings(design)
        if gamma == 0.0:
            raise DomainError("gamma = 0 leaves no power on the information signal")
        if cfg.window_radius is not None:
            if cfg.window_radius <= r_g:
                raise DomainError(
                    f"window_radius {cfg.window_radius} must exceed the guard "
                    f"radius {r_g}"
                )
            radii.append(cfg.window_radius)
            continue
        if auto is None:
            auto = auto_window_radius(params, cfg.tail_prob)
        # the guard zone must be fully visible for the active test; beyond
        # r_g the auto rule already bounds the neglected secrecy mass
        radii.append(max(auto, r_g))
    return radii


def _batch_reductions(
    params: SystemParams, radius: float, r_gs: Sequence[float], seed: int, batch: int
) -> tuple[np.ndarray, ...]:
    """The scene of one batch: per trial the strongest path gain over all
    points, the nearest point distance and h, then for each silence radius
    in r_gs (positive, ascending) the strongest path gain over the points
    at distance >= it. Trial i owns the next counts[i] points."""
    counts, attrs = _batch_points(params, radius, seed, batch)
    radii, path = _decode(radius, attrs)
    # the largest array of the batch; nothing reads it once decoded
    del attrs
    # a gain past the float range is inf, which the ratios below handle
    with np.errstate(over="ignore"):
        path *= radii**-params.alpha
    index = np.repeat(np.arange(_TRIALS_PER_BATCH), counts)
    del counts
    strongest = np.zeros(_TRIALS_PER_BATCH)
    np.maximum.at(strongest, index, path)
    outers = []
    # each radius drops the points inside it; ascending radii only add to
    # the points already dropped
    for r_g in r_gs:
        path[radii < r_g] = 0.0
        outer = np.zeros(_TRIALS_PER_BATCH)
        np.maximum.at(outer, index, path)
        outers.append(outer)
    # each point array goes as soon as nothing reads it, and all of them
    # before the link gains are drawn
    del path
    nearest = np.full(_TRIALS_PER_BATCH, np.inf)
    np.minimum.at(nearest, index, radii)
    del radii, index
    return (strongest, nearest, _link_gains(seed, batch), *outers)


def _design_scene(
    scene: Sequence[np.ndarray], r_gs: Sequence[float], r_g: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(strongest, outer, nearest, h) for silence radius r_g, read off a
    scene _batch_reductions built for the radii r_gs."""
    strongest, nearest, h, *outers = scene
    # without a guard disk the annulus is the whole disk
    outer = outers[r_gs.index(r_g)] if r_g > 0.0 else strongest
    return strongest, outer, nearest, h


def _eavesdropper_snr(
    params: SystemParams, gamma: float, strongest: np.ndarray
) -> np.ndarray:
    """The strongest eavesdropper's ratio at signal fraction gamma."""
    received = params.p_t * strongest
    # no jamming term at gamma = 1: 0 * inf would turn an overflowed
    # received power into nan
    jamming = (1.0 - gamma) * received if gamma < 1.0 else 0.0
    with np.errstate(invalid="ignore"):
        snr = gamma * received / (jamming + params.sigma2_s)
    if gamma < 1.0:
        # inf / inf is nan there; an overflowed power sits at the ratio's cap
        snr[np.isinf(received)] = gamma / (1.0 - gamma)
    return snr


def _secrecy_indicators(
    params: SystemParams,
    r_g: float,
    gamma: float,
    strongest: np.ndarray,
    outer: np.ndarray,
    nearest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(active, snr_s, secure) per trial for silence radius r_g and signal
    fraction gamma: snr_s over every point, secure over the points at
    distance >= r_g. None of them depends on the link distance."""
    active = nearest >= r_g
    secure = _eavesdropper_snr(params, gamma, outer) <= params.beta_e
    snr_s = _eavesdropper_snr(params, gamma, strongest)
    return active, snr_s, secure


def _coverage_indicators(
    params: SystemParams, d: float, gamma: float, h: np.ndarray, active: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(snr_p, covered) per trial at link distance d and signal fraction
    gamma, for the active trials given."""
    snr_p = gamma * params.p_t * h * _power(d, -params.alpha) / params.sigma2_p
    return snr_p, active & (snr_p >= params.beta_t)


def _family_counts(
    params: SystemParams,
    ds: Sequence[float],
    r_g: float,
    gamma: float,
    strongest: np.ndarray,
    outer: np.ndarray,
    nearest: np.ndarray,
    h: np.ndarray,
) -> tuple[list[int], list[int]]:
    """([active, annulus-secure, secure] counts, covered count at each
    link distance in ds) of the (r_g, gamma) designs on one slice."""
    active, snr_s, secure = _secrecy_indicators(params, r_g, gamma, strongest, outer, nearest)
    shared = [int(np.count_nonzero(x)) for x in (active, secure, snr_s <= params.beta_e)]
    del snr_s, secure
    covered = [
        int(np.count_nonzero(_coverage_indicators(params, d, gamma, h, active)[1]))
        for d in ds
    ]
    return shared, covered


def _batch_tallies(
    params: SystemParams,
    designs: Sequence[tuple[float, float, float]],
    radius: float,
    r_gs: Sequence[float],
    seed: int,
    batch: int,
    m: int,
) -> list[list[int]]:
    """Active, covered, annulus-secure and secure counts of each (d, r_g,
    gamma) design over the first m trials of one batch.

    The scene is built here, so no array of the batch outlives the call,
    and the indicators are taken over fixed slices of it, so that their
    temporaries stay small beside the scene. The indicators that do not
    depend on d are computed once per (r_g, gamma) family and slice; only
    coverage is computed per design.
    """
    families: dict[tuple[float, float], list[int]] = {}
    for i, (_, r_g, gamma) in enumerate(designs):
        families.setdefault((r_g, gamma), []).append(i)
    scene = _batch_reductions(params, radius, r_gs, seed, batch)
    tallies = [[0, 0, 0, 0] for _ in designs]
    for start in range(0, m, _SLICE):
        piece = [x[start : min(start + _SLICE, m)] for x in scene]
        for (r_g, gamma), members in families.items():
            (k_active, k_secure, k_secure_all), covered = _family_counts(
                params,
                [designs[i][0] for i in members],
                r_g,
                gamma,
                *_design_scene(piece, r_gs, r_g),
            )
            for i, k_covered in zip(members, covered):
                total = tallies[i]
                total[0] += k_active
                total[1] += k_covered
                total[2] += k_secure
                total[3] += k_secure_all
    return tallies


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# batches in flight at once: the calling thread plus, on a machine with a
# second usable core, one helper thread. Philox fills and the large ufuncs
# release the interpreter lock, so two batches overlap.
_WORKERS = min(2, _usable_cores())


def _in_batches(n_batches: int, run: Callable[[int], list[list[int]]]) -> list:
    """run(batch) for each batch index below n_batches, in batch order.

    The calling thread and, where _WORKERS allows and there are at least
    two batches, one helper thread each take the next batch index not yet
    taken. Once a batch raises, no further batch is taken; after the
    helper has stopped, the exception of the lowest failed batch is raised
    in the caller, the one a single thread would have raised.
    """
    results: list = [None] * n_batches
    failures: dict[int, BaseException] = {}
    pending = iter(range(n_batches))
    lock = threading.Lock()

    def work() -> None:
        while not failures:
            with lock:
                batch = next(pending, None)
            if batch is None:
                return
            try:
                results[batch] = run(batch)
            except BaseException as exc:  # raised again by the caller below
                failures[batch] = exc

    helper = None
    if min(_WORKERS, n_batches) > 1:
        helper = threading.Thread(target=work, name="montecarlo-batches", daemon=True)
        helper.start()
    work()
    if helper is not None:
        helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _tallies(
    params: SystemParams,
    designs: Sequence[tuple[float, float, float]],
    radius: float,
    cfg: TrialConfig,
) -> list[list[int]]:
    """Counts of active, covered, annulus-secure and secure trials for
    each (d, r_g, gamma) design, all on the scene stream of one window
    radius. Each batch's scene is built once and every design is read
    off it; batches run as _in_batches schedules them, and their counts
    are summed in batch order."""
    r_gs = sorted({r_g for _, r_g, _ in designs if r_g > 0.0})
    n = cfg.n_trials
    n_batches = (n + _TRIALS_PER_BATCH - 1) // _TRIALS_PER_BATCH

    def run(batch: int) -> list[list[int]]:
        m = min(n - batch * _TRIALS_PER_BATCH, _TRIALS_PER_BATCH)
        return _batch_tallies(params, designs, radius, r_gs, cfg.seed, batch, m)

    tallies = [[0, 0, 0, 0] for _ in designs]
    for counts in _in_batches(n_batches, run):
        for total, batch_counts in zip(tallies, counts):
            total[:] = [a + b for a, b in zip(total, batch_counts)]
    return tallies


def _estimates(
    design: GuardZoneDesign | NoiseSplitDesign, tallies: list[int], n: int
) -> GzTrialEstimates | AnTrialEstimates:
    if isinstance(design, GuardZoneDesign):
        return GzTrialEstimates(*(_binomial_estimate(k, n) for k in tallies))
    _, k_cov, k_sec, _ = tallies
    return AnTrialEstimates(*(_binomial_estimate(k, n) for k in (k_cov, k_sec)))


def run_trials(
    params: SystemParams,
    designs: Sequence[tuple[float, GuardZoneDesign | NoiseSplitDesign]],
    cfg: TrialConfig,
) -> list[GzTrialEstimates | AnTrialEstimates]:
    """Simulate each (d, design) pair at link distance d; params.d is
    not read.

    The designs are grouped by window radius, one group at a time, and
    each group shares one scene stream, so each batch is drawn once per
    window rather than once per design. Every estimate is the one
    run_gz_trials or run_an_trials gives for that design at that d.
    """
    radii = _windows(params, [design for _, design in designs], cfg)
    tallies: list[list[int]] = [[] for _ in designs]
    for radius in dict.fromkeys(radii):
        group = [i for i, r in enumerate(radii) if r == radius]
        settings = [(designs[i][0], *_settings(designs[i][1])) for i in group]
        for i, counts in zip(group, _tallies(params, settings, radius, cfg)):
            tallies[i] = counts
    return [
        _estimates(design, counts, cfg.n_trials)
        for (_, design), counts in zip(designs, tallies)
    ]


def run_gz_trials(
    params: SystemParams, design: GuardZoneDesign, cfg: TrialConfig
) -> GzTrialEstimates:
    """Simulate the guard-zone technique."""
    return run_trials(params, [(params.d, design)], cfg)[0]


def run_an_trials(
    params: SystemParams, design: NoiseSplitDesign, cfg: TrialConfig
) -> AnTrialEstimates:
    """Simulate the artificial-noise technique (always active)."""
    return run_trials(params, [(params.d, design)], cfg)[0]


def trial_outcomes(
    params: SystemParams,
    design: GuardZoneDesign | NoiseSplitDesign,
    cfg: TrialConfig,
    indices: Sequence[int],
) -> list[TrialOutcome]:
    """Indicator views of the trials at indices, in that order.

    Each batch the indices reach is built once, and each trial is read
    off the same scene and indicator arrays run_gz_trials /
    run_an_trials tally, so the outcomes sum exactly to their tallies.
    """
    if any(i < 0 for i in indices):
        raise DomainError(f"trial indices must be nonnegative, got {min(indices)}")
    (radius,) = _windows(params, [design], cfg)
    r_g, gamma = _settings(design)
    r_gs = [r_g] if r_g > 0.0 else []
    found = {}
    batches = groupby(sorted(set(indices)), key=lambda i: i // _TRIALS_PER_BATCH)
    for batch, group in batches:
        scene = _batch_reductions(params, radius, r_gs, cfg.seed, batch)
        strongest, outer, nearest, h = _design_scene(scene, r_gs, r_g)
        active, snr_s, secure = _secrecy_indicators(
            params, r_g, gamma, strongest, outer, nearest
        )
        snr_p, covered = _coverage_indicators(params, params.d, gamma, h, active)
        columns = (active, snr_p, snr_s, covered, secure)
        for i in group:
            pos = i % _TRIALS_PER_BATCH
            found[i] = TrialOutcome(*(column[pos].item() for column in columns))
    return [found[i] for i in indices]
