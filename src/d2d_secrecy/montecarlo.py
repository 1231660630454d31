"""Monte-Carlo validation engine for the closed-form probabilities.

Each trial realizes one snapshot of the scene: a Poisson number of
eavesdroppers dropped uniformly on a finite disk, independent unit-mean
exponential power gains per eavesdropper, and a fresh legitimate-channel
gain. Indicator outcomes (active, covered, secure) aggregate into
binomial estimates with 95% confidence half-widths, one TrialEstimates
record per design whichever the technique.

Both techniques run through one kernel: each is one link with two
settings (silence radius, signal fraction), (r_g, 1) for the guard zone
and (0, gamma) for artificial noise. A batch is reduced to a scene: per
trial the nearest eavesdropper distance, the link gain h, and for each
distinct silence radius of the designs the strongest path gain over the
points at distance >= it. Radius 0 is just another radius, whose
maximum is over the whole disk. A design's indicators are read off the
scene. None of that depends on the link distance d, so
run_trials evaluates every (d, design) pair that shares a window radius
on one scene per batch; run_gz_trials and run_an_trials are its
one-design case. Of the indicators only coverage depends on d: activity
and secrecy are computed once per distinct (r_g, gamma) and shared by
every d of that family, and coverage once per design. trial_outcomes
reads single trials off the same arrays and expressions, so per-trial
outcomes sum exactly to the batch tallies.

A batch is walked in slices of at most 2^13 trials, and fewer where a
trial's expected point count exceeds 1, so that a slice expects at most
2^13 points unless a single trial does; a trial that expects more than
2^22 raises NumericalError. Each slice is drawn, reduced and tallied
before the next is drawn, by continuing the batch's generators, so no
array outlives its slice: one run's arrays peak below 1 MiB
(tracemalloc) at up to 25 000 points per trial, where drawing each batch
whole took 2.5 MiB at the reference density (about 0.8 points per trial)
and 73 MiB at 29 points per trial. A batch draws only the trials it
serves: a run's last batch its remaining trials, trial_outcomes and
sample_field those up to the last one they read. Draws continued from
one generator give the values one large draw gives, so each stream gives
those trials the values a full batch gives them, however the batch is
sliced. Where two cores are usable, two batches are in flight: the
calling thread and one helper thread each take the next batch index, and
the per-batch counts are summed in batch order, so the number of threads
cannot move a tally.

Guard-zone secrecy is defined given an active link, that is, given no
eavesdropper inside r_g. A Poisson process is independent on disjoint
sets, so given an empty guard disk the eavesdroppers are just the points
on the annulus [r_g, R], and every trial's annulus points are a fair
sample of them. The guard zone's p_sec is therefore the secrecy
indicator over each trial's annulus, averaged over all trials; on an
active trial it is the indicator over every point.

The field has no hole around the transmitter: like the closed forms,
which integrate the field from distance 0, a point may land anywhere on
the disk. One at distance 0 (a radius uniform of exactly 0, probability
2^-53 per point) has an infinite path gain, the same as a gain past the
float range, and the ratios handle both.

Randomness is counter-based so that results never depend on execution
order: every batch of trials owns Philox generators keyed on
(seed, stream, batch_index), with three streams: point counts, point
attributes and the legitimate channel. A trial's draws are a pure
function of (seed, trial_index) and the fixed internal batch size, which
is what makes sample_field reproduce exactly the field any run_*_trials
call used, and makes runs of different lengths agree on their common
prefix of trials.

The infinite plane is truncated to a disk: auto_window_radius picks the
smallest radius whose neglected outer region shifts any secrecy estimate
by less than tail_prob, via the guard-zone inverse model.guard_radius.

Importing this module does not import numpy. The module global np is a
stand-in until something first reads an attribute of it, which imports
numpy and rebinds np to the module, so a process that imports the
simulation but never draws a field, such as a CLI planning command, never
loads numpy (about 70 ms and 11 MB resident).
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby
from types import ModuleType

from .errors import DomainError, NumericalError
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
    "TrialEstimates",
    "auto_window_radius",
    "sample_field",
    "strongest_received_power",
    "run_gz_trials",
    "run_an_trials",
    "run_trials",
    "trial_outcomes",
]


class _NumpyOnFirstUse:
    """Stands in for numpy as the module global np until the first
    attribute read, which imports numpy and rebinds np to it."""

    def __getattr__(self, name: str) -> object:
        return getattr(_load_numpy(), name)


np = _NumpyOnFirstUse()


def _load_numpy() -> ModuleType:
    """Import numpy, bind it as np and return it. Safe on two threads at
    once: the import system hands the second the module the first made."""
    global np
    import numpy as np

    return np


_TRIALS_PER_BATCH = 1 << 16
# most trials, and most expected points, of one slice of a batch
_SLICE = 1 << 13
# most expected points one call may draw, 96 MiB of uniforms; a slice
# exceeds it only where a single trial does
_MAX_SLICE_POINTS = 1 << 22
# stream ids for the counter-based generators
_S_COUNTS, _S_POINTS, _S_LINK = range(3)
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
class TrialEstimates:
    """Run summary of one design; every estimate takes all trials.

    p_sec is secrecy given an active link, estimated on each trial's
    annulus at distance >= r_g (see the module docstring). Secrecy over
    every eavesdropper, unconditioned, is the p_sec of the r_g = 0 design
    on the same scene. Artificial noise never silences the link, so its
    p_active is 1.
    """

    p_active: McEstimate
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


def _streams(seed: int, batch: int) -> tuple[np.random.Generator, ...]:
    """The batch's generators of point counts, point attributes and link
    gains, in stream-id order; each slice of the batch continues them."""
    return (
        _stream(seed, _S_COUNTS, batch),
        _stream(seed, _S_POINTS, batch),
        _stream(seed, _S_LINK, batch),
    )


def _mean_points(params: SystemParams, radius: float) -> float:
    """Expected number of points per trial on a disk of this radius."""
    return params.lambda_e * math.pi * radius * radius


def _slices(params: SystemParams, radius: float, trials: int) -> Iterator[range]:
    """The trial positions of each slice the first trials of a batch are
    walked in, in order: _SLICE trials, or where a trial's expected point
    count m exceeds 1, _SLICE // m of them, but at least one."""
    area_mean = _mean_points(params, radius)
    step = max(1, int(_SLICE // area_mean)) if area_mean > 1.0 else _SLICE
    for start in range(0, trials, step):
        yield range(start, min(start + step, trials))


def _batch_points(
    params: SystemParams,
    radius: float,
    seed: int,
    batch: int,
    trials: int = _TRIALS_PER_BATCH,
    streams: tuple[np.random.Generator, ...] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Counts and raw point attributes of the next trials of a batch.

    Returns (counts, attrs): counts has one entry per trial; attrs has
    one row per point holding the three uniforms (radius, angle, fading),
    trial after trial, each kept as drawn (see the module docstring for a
    point at distance 0). The draws continue the batch's streams; without
    them they start afresh, so they are the batch's first trials.
    """
    area_mean = _mean_points(params, radius)
    # a non-finite mean fails the comparison too
    if not area_mean * trials <= _MAX_SLICE_POINTS:
        raise NumericalError(
            "simulation window is too large for the point density",
            radius=radius,
            mean_points_per_trial=area_mean,
        )
    counts_rng, points_rng, _ = _streams(seed, batch) if streams is None else streams
    counts = counts_rng.poisson(area_mean, size=trials)
    attrs = points_rng.random((int(counts.sum()), 3))
    return counts, attrs


def _exponential(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-mean exponential gains -ln(1 - u) of the uniforms u, written to
    out (u itself may be passed) or to a new array."""
    gains = np.negative(u, out=out)
    np.log1p(gains, out=gains)
    return np.negative(gains, out=gains)


def _link_gains(
    seed: int,
    batch: int,
    trials: int = _TRIALS_PER_BATCH,
    streams: tuple[np.random.Generator, ...] | None = None,
) -> np.ndarray:
    """Link gains h of the next trials of a batch; without the batch's
    streams, of its first trials."""
    link_rng = _stream(seed, _S_LINK, batch) if streams is None else streams[_S_LINK]
    u = link_rng.random(trials)
    return _exponential(u, out=u)


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
    if trial_index < 0:
        raise DomainError(f"trial_index must be nonnegative, got {trial_index}")
    batch, pos = divmod(trial_index, _TRIALS_PER_BATCH)
    streams = _streams(seed, batch)
    for piece in _slices(params, radius, pos + 1):
        counts, attrs = _batch_points(params, radius, seed, batch, len(piece), streams)
    # the trial is the last one of the last slice
    rows = attrs[int(counts[:-1].sum()) :]
    radii, fading = _decode(radius, rows)
    angles = 2.0 * math.pi * rows[:, 1]
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return EavesdropperField(points=points, fading=fading)


def strongest_received_power(field: EavesdropperField, params: SystemParams) -> float:
    """Largest fading-weighted path gain over the field, max g * r^-alpha.

    This is the quantity the strongest eavesdropper receives per unit
    transmit power; 0 for an empty field, and inf for a point at the
    transmitter, the limit the simulation uses.
    """
    distances = np.hypot(field.points[:, 0], field.points[:, 1])
    with np.errstate(over="ignore", divide="ignore"):
        gains = field.fading * distances**-params.alpha
    return float(np.max(gains, initial=0.0))


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
    settings: Sequence[tuple[float, float, float]],
    cfg: TrialConfig,
) -> list[float]:
    """Simulation-disk radius of each (d, r_g, gamma) design; rejects one
    it cannot simulate. The auto radius is solved once, on first need."""
    auto = None
    radii = []
    for _, r_g, gamma in settings:
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
    params: SystemParams,
    radius: float,
    r_gs: Sequence[float],
    seed: int,
    batch: int,
    trials: int = _TRIALS_PER_BATCH,
    streams: tuple[np.random.Generator, ...] | None = None,
) -> tuple[np.ndarray, ...]:
    """The scene of the next trials of a batch, drawn by continuing its
    streams (without them, of its first trials): per trial the nearest
    point distance and h, then for each silence radius in r_gs (ascending,
    0 allowed) the strongest path gain over the points at distance >= it,
    which at 0 is every point. Trial i owns the next counts[i] points."""
    counts, attrs = _batch_points(params, radius, seed, batch, trials, streams)
    radii, path = _decode(radius, attrs)
    # the largest array of the slice; nothing reads it once decoded
    del attrs
    # a point at distance 0, like a gain past the float range, is an
    # infinite gain, which the ratios below handle
    with np.errstate(over="ignore", divide="ignore"):
        path *= radii**-params.alpha
    index = np.repeat(np.arange(trials), counts)
    del counts
    outers = []
    # each radius drops the points inside it; ascending radii only add to
    # the points already dropped
    for r_g in r_gs:
        path[radii < r_g] = 0.0
        outer = np.zeros(trials)
        np.maximum.at(outer, index, path)
        outers.append(outer)
    # each point array goes as soon as nothing reads it, and all of them
    # before the link gains are drawn
    del path
    nearest = np.full(trials, np.inf)
    np.minimum.at(nearest, index, radii)
    del radii, index
    return (nearest, _link_gains(seed, batch, trials, streams), *outers)


def _scenes(
    params: SystemParams,
    radius: float,
    r_gs: Sequence[float],
    seed: int,
    batch: int,
    trials: int,
) -> Iterator[tuple[range, tuple[np.ndarray, ...]]]:
    """(positions, scene) of each slice of the first trials of a batch, in
    order; each slice is drawn only once the one before it is read."""
    streams = _streams(seed, batch)
    for piece in _slices(params, radius, trials):
        yield piece, _batch_reductions(
            params, radius, r_gs, seed, batch, len(piece), streams
        )


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
    outer: np.ndarray,
    nearest: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(active, secure) per trial for silence radius r_g and signal
    fraction gamma, secure over the points at distance >= r_g. Neither
    depends on the link distance."""
    active = nearest >= r_g
    return active, _eavesdropper_snr(params, gamma, outer) <= params.beta_e


def _received(params: SystemParams, gamma: float, h: np.ndarray) -> np.ndarray:
    """Signal power per trial at signal fraction gamma, before path loss."""
    return gamma * params.p_t * h


def _link_snr(params: SystemParams, d: float, received: np.ndarray) -> np.ndarray:
    """The receiver's ratio snr_p at link distance d of the powers given."""
    return received * _power(d, -params.alpha) / params.sigma2_p


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
    """Counts of active, covered and secure trials for each (d, r_g,
    gamma) design, all on the scene stream of one window radius.

    Each slice of a batch is drawn, reduced and tallied before the next
    one is drawn, so no array outlives its slice. Activity and secrecy
    are computed once per (r_g, gamma) family and slice, and so is the
    received power of the active trials; each design then costs one
    ratio and one comparison per active trial. Batches run as _in_batches
    schedules them, and their counts are summed in batch order.
    """
    r_gs = sorted({r_g for _, r_g, _ in designs})
    families: dict[tuple[float, float], list[int]] = {}
    for i, (_, r_g, gamma) in enumerate(designs):
        families.setdefault((r_g, gamma), []).append(i)
    n = cfg.n_trials
    n_batches = (n + _TRIALS_PER_BATCH - 1) // _TRIALS_PER_BATCH

    def run(batch: int) -> list[list[int]]:
        m = min(n - batch * _TRIALS_PER_BATCH, _TRIALS_PER_BATCH)
        counts = [[0, 0, 0] for _ in designs]
        for _, (nearest, h, *outers) in _scenes(params, radius, r_gs, cfg.seed, batch, m):
            for (r_g, gamma), members in families.items():
                outer = outers[r_gs.index(r_g)]
                active, secure = _secrecy_indicators(params, r_g, gamma, outer, nearest)
                k_active, k_secure = (int(np.count_nonzero(x)) for x in (active, secure))
                received = _received(params, gamma, h[active])
                for i in members:
                    snr_p = _link_snr(params, designs[i][0], received)
                    total = counts[i]
                    total[0] += k_active
                    total[1] += int(np.count_nonzero(snr_p >= params.beta_t))
                    total[2] += k_secure
        return counts

    # each design's counts of every batch, summed in batch order
    per_design = zip(*_in_batches(n_batches, run))
    return [[sum(k) for k in zip(*counts)] for counts in per_design]


def run_trials(
    params: SystemParams,
    designs: Sequence[tuple[float, GuardZoneDesign | NoiseSplitDesign]],
    cfg: TrialConfig,
) -> list[TrialEstimates]:
    """Simulate each (d, design) pair at link distance d; params.d is
    not read.

    The designs are grouped by window radius, one group at a time, and
    each group shares one scene stream, so each batch is drawn once per
    window rather than once per design. Every estimate is the one
    run_gz_trials or run_an_trials gives for that design at that d.
    """
    settings = [(d, *_settings(design)) for d, design in designs]
    radii = _windows(params, settings, cfg)
    tallies: list[list[int]] = [[] for _ in designs]
    for radius in dict.fromkeys(radii):
        group = [i for i, r in enumerate(radii) if r == radius]
        group_settings = [settings[i] for i in group]
        for i, counts in zip(group, _tallies(params, group_settings, radius, cfg)):
            tallies[i] = counts
    return [
        TrialEstimates(*(_binomial_estimate(k, cfg.n_trials) for k in counts))
        for counts in tallies
    ]


def run_gz_trials(
    params: SystemParams, design: GuardZoneDesign, cfg: TrialConfig
) -> TrialEstimates:
    """Simulate the guard-zone technique."""
    return run_trials(params, [(params.d, design)], cfg)[0]


def run_an_trials(
    params: SystemParams, design: NoiseSplitDesign, cfg: TrialConfig
) -> TrialEstimates:
    """Simulate the artificial-noise technique (always active)."""
    return run_trials(params, [(params.d, design)], cfg)[0]


def trial_outcomes(
    params: SystemParams,
    design: GuardZoneDesign | NoiseSplitDesign,
    cfg: TrialConfig,
    indices: Sequence[int],
) -> list[TrialOutcome]:
    """Indicator views of the trials at indices, in that order.

    Each slice the indices reach is built once, and each trial is read
    off the same scene and indicator expressions run_gz_trials /
    run_an_trials tally, so the outcomes sum exactly to their tallies.
    """
    if any(i < 0 for i in indices):
        raise DomainError(f"trial indices must be nonnegative, got {min(indices)}")
    d, r_g, gamma = setting = (params.d, *_settings(design))
    (radius,) = _windows(params, [setting], cfg)
    r_gs = sorted({0.0, r_g})
    found = {}
    batches = groupby(sorted(set(indices)), key=lambda i: i // _TRIALS_PER_BATCH)
    for batch, group in batches:
        positions = [i - batch * _TRIALS_PER_BATCH for i in group]
        # the scenes reach only as far as the last trial read off them
        scenes = _scenes(params, radius, r_gs, cfg.seed, batch, positions[-1] + 1)
        for piece, (nearest, h, *outers) in scenes:
            first = bisect_left(positions, piece.start)
            read = positions[first : bisect_left(positions, piece.stop)]
            if not read:
                continue
            active, secure = _secrecy_indicators(params, r_g, gamma, outers[-1], nearest)
            # snr_s is over every point, the maximum at radius 0
            snr_s = _eavesdropper_snr(params, gamma, outers[0])
            snr_p = _link_snr(params, d, _received(params, gamma, h))
            covered = active & (snr_p >= params.beta_t)
            columns = (active, snr_p, snr_s, covered, secure)
            for pos in read:
                outcome = TrialOutcome(*(c[pos - piece.start].item() for c in columns))
                found[batch * _TRIALS_PER_BATCH + pos] = outcome
    return [found[i] for i in indices]
