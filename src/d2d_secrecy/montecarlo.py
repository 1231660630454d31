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
run_trials evaluates every (d, design) pair of a run on one scene per
batch, drawn on one window; run_gz_trials and run_an_trials are its
one-design case. Of the indicators only coverage depends on d: activity
and secrecy are computed once per distinct (r_g, gamma) and shared by
every d of that family, and coverage once per design. Each indicator is
monotone in its scene value, under round-to-nearest as well, so a run
tallies it as one comparison against a threshold solved once per run
from the indicator's own expression (see _thresholds). trial_outcomes
evaluates those expressions on the same arrays, so per-trial outcomes
sum exactly to the batch tallies.

A batch is walked in slices of at most 2^13 trials, and fewer where a
trial's expected point count exceeds 1, so that a slice expects at most
2^13 points unless a single trial does; a trial that expects more than
2^22 raises NumericalError. Each slice is drawn whole, reduced and
tallied before the next is drawn, by continuing the batch's generators,
so no array outlives its slice: one run's arrays peak below 1 MiB
(tracemalloc) at up to 25 000 points per trial. A call reads only the
trials it serves off a slice, so a trial's values do not depend on how
many trials the call serves. Batches run in order on the calling thread.

A slice of T trials draws one Poisson(m T) total, m a trial's expected
point count, then per point a uniform trial label in [0, T) and two
uniforms, radius and fading. Given the total, the labels split it into T
independent Poisson(m) counts, each point i.i.d. uniform on the disk (the
colouring theorem: Kingman, Poisson Processes, 1993, section 5.1;
Haenggi, Stochastic Geometry for Wireless Networks, 2012, ch. 2). The
field is isotropic, so a point is a distance and a gain; no bearing is
drawn.

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
2^-53 per point) has an infinite path gain, as has any gain, received
power or ratio past the float range. None is a special case: a slice's
indicators are computed with overflow and division by 0 ignored, and
each ratio reaches its limit by IEEE arithmetic alone.

Results never depend on execution order: every batch of trials owns
SFC64 generators seeded from (seed, stream, batch_index), with three
streams: point totals and labels, point attributes and the legitimate
channel; numpy documents that distinct SFC64 seeds do not meet for at
least 2^64 draws. On a given window a trial is a pure function of
(seed, trial_index), which is what makes trial_outcomes reproduce
exactly the trial any run_*_trials call tallied, and makes runs of
different lengths agree on their common prefix of trials.

The infinite plane is truncated to a disk: auto_window_radius picks the
smallest radius whose neglected outer region shifts any secrecy estimate
by less than tail_prob, via the guard-zone inverse model.guard_radius.

Importing this module does not import numpy. The module global np is a
stand-in until something first reads an attribute of it, which imports
numpy and rebinds np to the module, so a process that imports the
simulation but never draws a field, such as a CLI planning command, never
loads numpy (about 70 ms, and 13 MB resident over a bare interpreter's 14).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import groupby

from .errors import DegenerateDesignError, DomainError, NumericalError
from .model import (
    GuardZoneDesign,
    NoiseSplitDesign,
    SystemParams,
    _power,
    guard_radius,
)

__all__ = [
    "TrialConfig",
    "TrialOutcome",
    "McEstimate",
    "TrialEstimates",
    "auto_window_radius",
    "run_gz_trials",
    "run_an_trials",
    "run_trials",
    "trial_outcomes",
]


class _NumpyOnFirstUse:
    """Stands in for numpy as the module global np until the first
    attribute read, which imports numpy and rebinds np to it."""

    def __getattr__(self, name: str) -> object:
        # safe on two threads at once: the import system hands the second
        # the module the first made
        global np
        import numpy as np

        return getattr(np, name)


np = _NumpyOnFirstUse()


_TRIALS_PER_BATCH = 1 << 16
# most trials, and most expected points, of one slice of a batch
_SLICE = 1 << 13
# most expected points one call may draw, 96 MiB of labels and uniforms;
# a slice exceeds it only where a single trial does
_MAX_SLICE_POINTS = 1 << 22
# stream ids, part of each generator's seed key
_S_COUNTS, _S_POINTS, _S_LINK = range(3)
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


def auto_window_radius(
    params: SystemParams, tail_prob: float = TrialConfig.tail_prob
) -> float:
    """Smallest simulation-disk radius whose neglected outer region biases
    secrecy estimates by less than tail_prob.

    The contribution of eavesdroppers beyond R is the guard-zone secrecy
    exponent at r_g = R, so model.guard_radius inverts it. Returns 0 when
    even the full exponent stays below tail_prob, an empty field included.
    """
    if not (0.0 < tail_prob < 1.0):
        raise DomainError(f"tail_prob must lie in (0, 1), got {tail_prob}")
    # shade the target slightly so the forward bound holds strictly: the
    # inverse returns the root only to the rounding of its smaller tail
    return guard_radius(params, tail_prob * (1.0 - 1e-9))


def _streams(seed: int, batch: int) -> tuple[np.random.Generator, ...]:
    """The batch's generators of point totals and labels, point
    attributes and link gains, in stream-id order; each slice of the
    batch continues them."""
    return tuple(
        np.random.Generator(
            np.random.SFC64(np.random.SeedSequence(entropy=seed, spawn_key=(s, batch)))
        )
        for s in (_S_COUNTS, _S_POINTS, _S_LINK)
    )


def _mean_points(params: SystemParams, radius: float) -> float:
    """Expected number of points per trial on a disk of this radius."""
    return params.lambda_e * math.pi * radius * radius


def _slices(params: SystemParams, radius: float, trials: int) -> Iterator[range]:
    """The trial positions of each slice a batch is walked in, in order,
    up to the one holding its first trials: _SLICE trials, or where a
    trial's expected point count m exceeds 1, _SLICE // m of them, but at
    least one. Each is whole, so the last may reach past those trials."""
    area_mean = _mean_points(params, radius)
    step = max(1, int(_SLICE // area_mean)) if area_mean > 1.0 else _SLICE
    for start in range(0, trials, step):
        yield range(start, min(start + step, _TRIALS_PER_BATCH))


# seed and batch of _batch_points and _batch_reductions draw nothing, the
# streams do: bench/tracer.py's hook on _batch_points reads them as the
# name of the scene drawn, and they go once the package reports that itself
def _batch_points(
    params: SystemParams,
    radius: float,
    seed: int,
    batch: int,
    trials: int,
    streams: tuple[np.random.Generator, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Points of the next slice of a batch, of this many trials, drawn by
    continuing the batch's streams (see _streams).

    Returns (labels, attrs): labels holds each point's trial, its
    position in the slice; attrs has shape (2, n), the radius and fading
    uniforms of the n points, each kept as drawn (see the module
    docstring for a point at distance 0).
    """
    area_mean = _mean_points(params, radius)
    # a non-finite mean fails the comparison too
    if not area_mean * trials <= _MAX_SLICE_POINTS:
        raise NumericalError(
            "simulation window is too large for the point density",
            radius=radius,
            mean_points_per_trial=area_mean,
        )
    counts_rng, points_rng, _ = streams
    total = counts_rng.poisson(area_mean * trials)
    labels = counts_rng.integers(0, trials, total)
    return labels, points_rng.random((2, total))


def _exponential(u: np.ndarray) -> np.ndarray:
    """Unit-mean exponential gains -ln(1 - u) of the uniforms u, in place."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _link_gains(link_rng: np.random.Generator, trials: int) -> np.ndarray:
    """Link gains h of the next trials of a batch, drawn by continuing its
    link generator."""
    return _exponential(link_rng.random(trials))


def _decode(radius: float, attrs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distances to the transmitter and power gains of the points whose
    uniforms are attrs (see _batch_points), decoded in place."""
    radii, gains = attrs
    np.sqrt(radii, out=radii)
    radii *= radius
    return radii, _exponential(gains)


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


def _window(
    params: SystemParams,
    settings: Sequence[tuple[float, float, float]],
    cfg: TrialConfig,
) -> float:
    """The one simulation-disk radius of a run of (d, r_g, gamma) designs;
    rejects a design it cannot simulate.

    Every guard zone must be fully visible for the active test, so the
    auto radius grows to the largest r_g; a wider disk only shrinks the
    neglected secrecy mass beyond it.
    """
    if any(gamma == 0.0 for _, _, gamma in settings):
        raise DegenerateDesignError(
            "gamma = 0 leaves no power on the information signal"
        )
    r_g = max(r_g for _, r_g, _ in settings)
    if cfg.window_radius is None:
        return max(auto_window_radius(params, cfg.tail_prob), r_g)
    if cfg.window_radius <= r_g:
        raise DomainError(
            f"window_radius {cfg.window_radius} must exceed the guard radius {r_g}"
        )
    return cfg.window_radius


def _batch_reductions(
    params: SystemParams,
    radius: float,
    r_gs: Sequence[float],
    seed: int,
    batch: int,
    trials: int,
    streams: tuple[np.random.Generator, ...],
) -> tuple[np.ndarray, ...]:
    """The scene of the next slice of a batch, of this many trials, drawn
    by continuing its streams: per trial the nearest point distance and
    h, then for each silence radius in r_gs (ascending, 0 allowed) the
    strongest path gain over the points at distance >= it, which at 0 is
    every point. A point belongs to the trial its label names."""
    labels, attrs = _batch_points(params, radius, seed, batch, trials, streams)
    radii, path = _decode(radius, attrs)
    # a point at distance 0, like a gain past the float range, is an
    # infinite gain, which the ratios below handle
    with np.errstate(over="ignore", divide="ignore"):
        path *= radii**-params.alpha
    outers = []
    # each radius drops the points inside it; ascending radii only add to
    # the points already dropped
    for r_g in r_gs:
        path[radii < r_g] = 0.0
        outer = np.zeros(trials)
        np.maximum.at(outer, labels, path)
        outers.append(outer)
    nearest = np.full(trials, np.inf)
    np.minimum.at(nearest, labels, radii)
    # the point arrays go before the link gains are drawn
    del labels, attrs, radii, path
    return (nearest, _link_gains(streams[_S_LINK], trials), *outers)


def _scenes(
    params: SystemParams,
    radius: float,
    r_gs: Sequence[float],
    seed: int,
    batch: int,
    trials: int,
) -> Iterator[tuple[range, tuple[np.ndarray, ...]]]:
    """(positions, scene) of the first trials of a batch, slice by slice
    in order: each slice is drawn whole, only once the one before it is
    read, and cut to the positions below trials."""
    streams = _streams(seed, batch)
    for piece in _slices(params, radius, trials):
        scene = _batch_reductions(params, radius, r_gs, seed, batch, len(piece), streams)
        served = min(len(piece), trials - piece.start)
        yield piece[:served], tuple(column[:served] for column in scene)


def _eavesdropper_snr(
    params: SystemParams, gamma: float, strongest: np.ndarray
) -> np.ndarray:
    """The strongest eavesdropper's ratio gamma P/((1 - gamma) P + sigma2_s)
    at signal fraction gamma and received power P, in a form whose limits
    are arithmetic: 0 with no eavesdropper, and at P = inf the cap
    gamma/(1 - gamma), inf at gamma = 1."""
    return gamma / ((1.0 - gamma) + params.sigma2_s / (params.p_t * strongest))


def _received(params: SystemParams, gamma: float, h: np.ndarray) -> np.ndarray:
    """Signal power per trial at signal fraction gamma, before path loss."""
    return gamma * params.p_t * h


def _link_snr(params: SystemParams, gain: float, received: np.ndarray) -> np.ndarray:
    """The receiver's ratio snr_p of the powers given, at the path gain
    _power(d, -alpha) of link distance d."""
    return received * gain / params.sigma2_p


# bit pattern of +inf: the nonnegative doubles, in order, have the
# patterns 0 .. _INF_BITS
_INF_BITS = 0x7FF0000000000000


def _least(holds: Callable[[np.ndarray], np.ndarray], size: int) -> np.ndarray:
    """Per element, the bit pattern of the least double x in [0, inf] at
    which holds(x) is true, or _INF_BITS + 1 where it holds nowhere.

    holds maps an array of size doubles to as many booleans, and must be
    false then true, elementwise, as x rises. A bisection over the
    ordered bit patterns, so it is exact in at most 63 steps.
    """
    # holds is false at lo, or lo is -1; it is true at hi, or hi is past inf
    lo = np.full(size, -1, dtype=np.int64)
    hi = np.full(size, _INF_BITS + 1, dtype=np.int64)
    while (step := (hi - lo) >> 1).any():
        mid = lo + step
        # an element already found (step 0) reads a pattern it ignores
        with np.errstate(all="ignore"):
            ok = holds(mid.view(np.float64)) & (step > 0)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return hi


def _thresholds(
    params: SystemParams,
    designs: Sequence[tuple[float, float, float]],
    gammas: Sequence[float],
) -> tuple[list[float], list[float]]:
    """(o*, h*): for each signal fraction in gammas the largest strongest
    path gain o* that is secure, and for each (d, r_g, gamma) design the
    least link gain h* that is covered.

    Each indicator takes products, quotients and sums of its scene value
    with positive constants, and each such step is monotone under
    round-to-nearest, so secure is exactly outer <= o* and covered exactly
    h >= h*, a nan scene value included. Each threshold is found by
    evaluating the kernel's own expressions (see _least). Where no value
    is secure o* is nan, and where none is covered h* is nan, so that no
    comparison with it holds.
    """
    fractions = np.array(gammas)
    insecure = _least(
        lambda x: ~(_eavesdropper_snr(params, fractions, x) <= params.beta_e),
        len(fractions),
    )
    signal = np.array([gamma for _, _, gamma in designs])
    gains = np.array([_power(d, -params.alpha) for d, _, _ in designs])
    covered = _least(
        lambda x: _link_snr(params, gains, _received(params, signal, x)) >= params.beta_t,
        len(designs),
    )
    # the largest secure value is the pattern just below the least insecure
    return (insecure - 1).view(np.float64).tolist(), covered.view(np.float64).tolist()


def _tallies(
    params: SystemParams,
    designs: Sequence[tuple[float, float, float]],
    radius: float,
    cfg: TrialConfig,
) -> list[list[int]]:
    """Counts of active, covered and secure trials for each (d, r_g,
    gamma) design, all on one scene stream drawn on a disk of this radius.

    Each slice of a batch is drawn, reduced and tallied before the next
    one is drawn, so no array outlives its slice. The indicators are read
    as comparisons against thresholds solved once per run (see
    _thresholds). Per (r_g, gamma) family and slice, activity and secrecy
    are one comparison each, and the link gains of the active trials are
    taken once; each design then costs one comparison. Batches run in
    order on the calling thread.
    """
    r_gs = sorted({r_g for _, r_g, _ in designs})
    families: dict[tuple[float, float], list[int]] = {}
    for i, (_, r_g, gamma) in enumerate(designs):
        families.setdefault((r_g, gamma), []).append(i)
    o_stars, h_stars = _thresholds(params, designs, [gamma for _, gamma in families])
    n = cfg.n_trials
    counts = [[0, 0, 0] for _ in designs]
    for batch in range((n + _TRIALS_PER_BATCH - 1) // _TRIALS_PER_BATCH):
        m = min(n - batch * _TRIALS_PER_BATCH, _TRIALS_PER_BATCH)
        for _, (nearest, h, *outers) in _scenes(params, radius, r_gs, cfg.seed, batch, m):
            for ((r_g, _), members), o_star in zip(families.items(), o_stars):
                active = nearest >= r_g
                k_active = int(np.count_nonzero(active))
                k_secure = int(np.count_nonzero(outers[r_gs.index(r_g)] <= o_star))
                h_active = h[active]
                for i in members:
                    total = counts[i]
                    total[0] += k_active
                    total[1] += int(np.count_nonzero(h_active >= h_stars[i]))
                    total[2] += k_secure
    return counts


def run_trials(
    params: SystemParams,
    designs: Sequence[tuple[float, GuardZoneDesign | NoiseSplitDesign]],
    cfg: TrialConfig,
) -> list[TrialEstimates]:
    """Simulate each (d, design) pair at link distance d; params.d is
    not read.

    Every design runs on one window, the auto radius widened to the
    largest r_g (see _window), and on one scene stream, so each batch is
    drawn once rather than once per design. Each estimate is the one
    run_gz_trials or run_an_trials gives for that design at that d on
    that window. A run of no designs draws nothing.
    """
    if not designs:
        return []
    settings = [(d, *_settings(design)) for d, design in designs]
    tallies = _tallies(params, settings, _window(params, settings, cfg), cfg)
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
    off the same scene by the indicator expressions whose exact
    thresholds run_gz_trials / run_an_trials tally against (see
    _thresholds), so the outcomes sum exactly to their tallies.
    """
    if any(i < 0 for i in indices):
        raise DomainError(f"trial indices must be nonnegative, got {min(indices)}")
    d, r_g, gamma = setting = (params.d, *_settings(design))
    radius = _window(params, [setting], cfg)
    gain = _power(d, -params.alpha)
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
            active = nearest >= r_g
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                # secure is over the points at distance >= r_g, and snr_s
                # over every point, the maximum at radius 0; a received
                # power of inf at a path gain of 0 gives a nan snr_p, which
                # is not covered
                secure = _eavesdropper_snr(params, gamma, outers[-1]) <= params.beta_e
                snr_s = _eavesdropper_snr(params, gamma, outers[0])
                snr_p = _link_snr(params, gain, _received(params, gamma, h))
            covered = active & (snr_p >= params.beta_t)
            columns = (active, snr_p, snr_s, covered, secure)
            for pos in read:
                outcome = TrialOutcome(*(c[pos - piece.start].item() for c in columns))
                found[batch * _TRIALS_PER_BATCH + pos] = outcome
    return [found[i] for i in indices]
