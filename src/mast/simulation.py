"""Monte Carlo performance harness for the streaming detectors.

Two synthetic scenarios drive the experiments.  Both draw daily ratios as
independent Gaussians with standard deviation ``sigma``; they differ in how
the mean evolves:

* scenario 1: the mean is pinned at ``1 - alpha`` while controlled and at
  ``1 + alpha`` once critical.
* scenario 2: the mean itself is redrawn every day, uniform on
  ``(1 - alpha, 1)`` while controlled and uniform on ``(1, 1 + 10 alpha)``
  once critical.

Performance of a detector at threshold ``gamma`` is summarised by the mean
detection delay (samples from the regime change to the alarm, inclusive)
and the false-alarm probability, defined as the reciprocal of the mean
time between threshold crossings when the statistic runs forever in the
controlled regime and is reset to zero at every crossing.

Both maps ``gamma -> delay`` and ``gamma -> log10(pf)`` are close to
linear, so operational curves are produced by fitting straight lines to
directly measured points and extrapolating them into false-alarm regimes
far beyond Monte Carlo reach.

Every trial (and every monitoring chain) owns an independent substream
derived from ``(seed, trial_index)``, so results are a deterministic
function of the seed and the trial count, no matter how the work is
chunked or parallelised.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .core import check_gamma, check_sigma
from .detectors import DetectorConfig

__all__ = [
    "DELAY_SEED_TAG",
    "PF_SEED_TAG",
    "CurvePoint",
    "ExtrapolationError",
    "InsufficientEventsError",
    "LinearFit",
    "OperationalCurve",
    "PerformanceEstimate",
    "ScenarioSpec",
    "estimate_delay",
    "estimate_pf",
    "fit_linear",
    "generate_path",
    "operational_curve",
]

_DELAY_CHUNK = 64
_PF_CHUNK = 512
# seed-path tags separating the delay and false-alarm substreams of one seed
DELAY_SEED_TAG = 1
PF_SEED_TAG = 2


class InsufficientEventsError(RuntimeError):
    """Too few threshold crossings to estimate a false-alarm rate."""


class ExtrapolationError(RuntimeError):
    """Refused to extrapolate from a fit below the r-squared floor."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Generative description of one experiment's ratio stream.

    ``change_time`` is the 1-based index of the first critical-regime
    sample; ``None`` means the stream never leaves the controlled regime.
    """

    scenario: int
    alpha: float
    sigma: float
    change_time: int | None = None

    def __post_init__(self) -> None:
        if self.scenario not in (1, 2):
            raise ValueError(f"scenario must be 1 or 2, got {self.scenario}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if self.change_time is not None and self.change_time < 1:
            raise ValueError(f"change_time must be >= 1, got {self.change_time}")

    def controlled(self) -> "ScenarioSpec":
        """Copy with no regime change (pure controlled stream)."""
        return replace(self, change_time=None)

    def changed(self, nu: int = 1) -> "ScenarioSpec":
        """Copy whose regime turns critical at sample ``nu``."""
        return replace(self, change_time=nu)


def _draw_means(spec: ScenarioSpec, critical: bool, rng: np.random.Generator, n: int) -> np.ndarray:
    if spec.scenario == 1:
        return np.full(n, 1.0 + spec.alpha if critical else 1.0 - spec.alpha)
    if critical:
        return rng.uniform(1.0, 1.0 + 10.0 * spec.alpha, n)
    return rng.uniform(1.0 - spec.alpha, 1.0, n)


def _seed_sequence(seed, spawn_key: tuple[int, ...] = ()) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    entropy = int(seed) if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    return np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)


def _child_seed(seed, *key: int) -> list[int]:
    base = [int(seed)] if isinstance(seed, (int, np.integer)) else [int(s) for s in seed]
    return base + [int(k) for k in key]


def generate_path(spec: ScenarioSpec, length: int, seed) -> np.ndarray:
    """Draw one ratio path of ``length`` samples, deterministic in ``seed``.

    Samples before ``change_time`` come from the controlled regime, those
    from ``change_time`` on from the critical one.  Draw order: all means
    first (controlled block, then critical block), then all noise.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    rng = np.random.default_rng(_seed_sequence(seed))
    nu = spec.change_time
    n_pre = length if nu is None else min(length, nu - 1)
    means = np.concatenate(
        [
            _draw_means(spec, False, rng, n_pre),
            _draw_means(spec, True, rng, length - n_pre),
        ]
    )
    return means + spec.sigma * rng.standard_normal(length)


class _TrialStream:
    """Chunked ratio source for one trial, seeded from (seed, index)."""

    __slots__ = ("_spec", "_rng", "_chunk")

    def __init__(self, spec: ScenarioSpec, seed, index: int, chunk: int):
        self._spec = spec
        self._rng = np.random.default_rng(_seed_sequence(seed, spawn_key=(index,)))
        self._chunk = chunk

    def next_chunk(self, critical: bool) -> np.ndarray:
        means = _draw_means(self._spec, critical, self._rng, self._chunk)
        return means + self._spec.sigma * self._rng.standard_normal(self._chunk)


def trial_samples(
    spec: ScenarioSpec, seed, index: int, n: int, *, critical: bool = True, chunk: int = _DELAY_CHUNK
) -> np.ndarray:
    """First ``n`` samples of the exact stream trial ``index`` consumes.

    Mirrors the engine's chunked draw layout; intended for tests that
    replay a trial through the reference single-stream detector.
    """
    stream = _TrialStream(spec, seed, index, chunk)
    blocks = [stream.next_chunk(critical) for _ in range(-(-n // chunk))]
    return np.concatenate(blocks)[:n]


def _clamped_path(increments: np.ndarray, carry: np.ndarray) -> np.ndarray:
    """Statistic trajectory over a chunk, rows advancing in lockstep.

    Uses the identity T_n = S_n - min(0, min_m S_m) with S the plain
    cumulative sum of increments started at the carried statistic value.
    """
    s = carry[:, None] + np.cumsum(increments, axis=1)
    return s - np.minimum.accumulate(np.minimum(s, 0.0), axis=1)


def _scan_crossings(increments: np.ndarray, carry: float, gamma: float):
    """Crossing offsets (1-based within the chunk) and final statistic.

    Monitor semantics: the statistic resets to zero after each crossing
    and the scan continues with the remaining increments.
    """
    times: list[int] = []
    t0, value = 0, carry
    n = increments.size
    while t0 < n:
        s = value + np.cumsum(increments[t0:])
        path = s - np.minimum.accumulate(np.minimum(s, 0.0))
        hits = path > gamma
        k = int(np.argmax(hits))
        if not hits[k]:
            value = float(path[-1])
            break
        times.append(t0 + k + 1)
        value = 0.0
        t0 += k + 1
    return times, value


def _split_counts(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) index ranges covering ``total`` items."""
    workers = max(1, min(workers, total))
    bounds = np.linspace(0, total, workers + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _map_groups(fn, groups, workers: int):
    if workers <= 1 or len(groups) <= 1:
        return [fn(g) for g in groups]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, groups))


@dataclass(frozen=True)
class PerformanceEstimate:
    """Monte Carlo estimate of delay and/or false-alarm rate at one gamma.

    For the delay part, ``n_trials`` counts simulated trials and
    ``n_censored`` of them never alarmed within the horizon (their delay
    enters the average at the horizon value, as a lower bound).  For the
    false-alarm part, ``n_trials`` counts completed inter-crossing
    intervals over ``observed_steps`` controlled-regime samples and
    ``pf = crossings / observed_steps``, i.e. the reciprocal of the mean
    time between crossings.
    """

    gamma: float
    n_trials: int
    mean_delay: float | None = None
    delay_se: float | None = None
    n_censored: int = 0
    pf: float | None = None
    pf_se: float | None = None
    observed_steps: int | None = None


class _DelayGroup:
    """Lockstep-advancing block of delay trials sharing one sample clock."""

    def __init__(self, spec, config, gamma, seed, start, stop):
        self.config = config
        self.gamma = gamma
        self.streams = [_TrialStream(spec, seed, i, _DELAY_CHUNK) for i in range(start, stop)]
        self.active = np.arange(stop - start)
        self.carry = np.zeros(stop - start)
        self.delays = np.zeros(stop - start, dtype=np.int64)

    def run_in(self, steps: int) -> None:
        """Evolve all trials through controlled samples in monitor mode."""
        done = 0
        while done < steps:
            cols = min(_DELAY_CHUNK, steps - done)
            x = np.stack([s.next_chunk(False) for s in self.streams])[:, :cols]
            inc = self.config.increment(x)
            carry_in = self.carry
            paths = _clamped_path(inc, carry_in)
            carry_out = paths[:, -1].copy()
            for r in np.flatnonzero((paths > self.gamma).any(axis=1)):
                _, carry_out[r] = _scan_crossings(inc[r], float(carry_in[r]), self.gamma)
            self.carry = carry_out
            done += cols

    def advance(self, cols: int, steps_done: int) -> np.ndarray:
        """Advance active trials ``cols`` samples; return delays finished now."""
        if self.active.size == 0 or cols <= 0:
            return np.empty(0, dtype=np.int64)
        x = np.stack([self.streams[i].next_chunk(True) for i in self.active])[:, :cols]
        paths = _clamped_path(self.config.increment(x), self.carry)
        crossed = paths > self.gamma
        hit = crossed.any(axis=1)
        finished = self.active[hit]
        if finished.size:
            first = np.argmax(crossed[hit], axis=1)
            self.delays[finished] = steps_done + first + 1
        self.active = self.active[~hit]
        self.carry = paths[~hit, -1]
        return self.delays[finished]

    def censor(self, horizon: int) -> int:
        n = self.active.size
        self.delays[self.active] = horizon
        self.active = np.empty(0, dtype=np.int64)
        return n


def estimate_delay(
    spec: ScenarioSpec,
    config: DetectorConfig,
    gamma: float,
    n_trials: int,
    seed,
    *,
    run_in: bool = False,
    horizon: int | None = None,
    max_steps: int = 1_000_000,
    workers: int = 1,
) -> PerformanceEstimate:
    """Mean detection delay at threshold ``gamma`` over ``n_trials`` trials.

    Each trial draws its own critical-regime stream and counts the samples
    until the statistic first exceeds ``gamma``; the alarm sample itself
    counts, so an alarm on the first post-change sample is delay 1.  By
    default the statistic starts at zero at the change time (worst-case
    convention); with ``run_in=True`` it first evolves through
    ``change_time - 1`` controlled samples in monitoring mode (reset to
    zero at any crossing) and the post-change segment continues from the
    state so reached.

    Trials still running at the horizon are counted at the horizon value
    and reported in ``n_censored`` with a warning.  ``horizon=None`` grows
    the horizon adaptively to 100x the running mean of completed trials
    (at least 1000 samples, capped by ``max_steps``).
    """
    gamma = check_gamma(gamma)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if spec.change_time is None:
        raise ValueError("delay estimation needs a spec with a change time")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    groups = [
        _DelayGroup(spec, config, float(gamma), seed, a, b)
        for a, b in _split_counts(n_trials, workers)
    ]
    if run_in and spec.change_time > 1:
        _map_groups(lambda g: g.run_in(spec.change_time - 1), groups, workers)

    # integer running sums keep the adaptive cap independent of grouping
    completed_sum = 0
    completed_n = 0
    steps_done = 0
    cap = horizon if horizon is not None else max_steps
    while steps_done < cap and any(g.active.size for g in groups):
        cols = min(_DELAY_CHUNK, cap - steps_done)
        for done in _map_groups(lambda g: g.advance(cols, steps_done), groups, workers):
            completed_sum += int(done.sum())
            completed_n += done.size
        steps_done += cols
        if horizon is None and completed_n:
            adaptive = max(1000, -(-100 * completed_sum // completed_n))
            cap = min(max_steps, adaptive)

    n_censored = sum(g.censor(steps_done) for g in groups)
    if n_censored:
        warnings.warn(
            f"{n_censored} of {n_trials} trials never alarmed within {steps_done} samples; "
            "their delay is counted at the horizon (lower bound)",
            stacklevel=2,
        )
    delays = np.concatenate([g.delays for g in groups]).astype(float)
    se = float(delays.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else float("nan")
    return PerformanceEstimate(
        gamma=float(gamma),
        n_trials=n_trials,
        mean_delay=float(delays.mean()),
        delay_se=se,
        n_censored=n_censored,
    )


class _MonitorGroup:
    """Block of controlled-regime chains monitored with reset-on-crossing."""

    def __init__(self, spec, config, gamma, seed, start, stop):
        self.config = config
        self.gamma = gamma
        self.streams = [_TrialStream(spec, seed, i, _PF_CHUNK) for i in range(start, stop)]
        self.carry = np.zeros(stop - start)
        self.last_cross = np.zeros(stop - start, dtype=np.int64)
        self._chain_ids: list[np.ndarray] = []
        self._intervals: list[np.ndarray] = []
        self.crossings = 0

    def advance(self, cols: int, steps_done: int) -> None:
        x = np.stack([s.next_chunk(False) for s in self.streams])[:, :cols]
        inc = self.config.increment(x)
        carry_in = self.carry
        paths = _clamped_path(inc, carry_in)
        carry_out = paths[:, -1].copy()
        for r in np.flatnonzero((paths > self.gamma).any(axis=1)):
            times, carry_out[r] = _scan_crossings(inc[r], float(carry_in[r]), self.gamma)
            cross_at = steps_done + np.asarray(times, dtype=np.int64)
            intervals = np.diff(cross_at, prepend=self.last_cross[r])
            self._chain_ids.append(np.full(cross_at.size, r))
            self._intervals.append(intervals)
            self.last_cross[r] = cross_at[-1]
            self.crossings += cross_at.size
        self.carry = carry_out

    def canonical_intervals(self) -> np.ndarray:
        """Completed intervals ordered by chain, then by time."""
        if not self._intervals:
            return np.empty(0)
        ids = np.concatenate(self._chain_ids)
        intervals = np.concatenate(self._intervals)
        return intervals[np.argsort(ids, kind="stable")].astype(float)


def estimate_pf(
    spec: ScenarioSpec,
    config: DetectorConfig,
    gamma: float,
    horizon: int | None = None,
    seed=0,
    *,
    n_chains: int = 2048,
    target_crossings: int = 10_000,
    min_crossings: int = 100,
    max_steps: int = 200_000_000,
    workers: int = 1,
) -> PerformanceEstimate:
    """False-alarm probability at threshold ``gamma`` in the controlled regime.

    Runs ``n_chains`` independent controlled-regime chains with the
    statistic reset to zero at every crossing, and estimates
    ``pf = crossings / samples observed``: the reciprocal of the mean time
    between crossings, with each chain's open tail interval counted in the
    denominator.  The standard error comes from the completed-interval
    coefficient of variation.

    ``horizon`` fixes the total observed samples across all chains
    (rounded up to a whole per-chain count); when ``None``, chains run
    until ``target_crossings`` crossings have been seen (never beyond
    ``max_steps`` total samples).  Fewer than
    ``min_crossings`` crossings raises ``InsufficientEventsError`` --
    direct estimation is then out of reach and the threshold belongs on an
    extrapolated operational curve instead.
    """
    gamma = check_gamma(gamma)
    if spec.change_time is not None:
        raise ValueError("false-alarm estimation needs a pure controlled spec")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n_chains = int(n_chains)
    if n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {n_chains}")

    groups = [
        _MonitorGroup(spec, config, float(gamma), seed, a, b)
        for a, b in _split_counts(n_chains, workers)
    ]
    per_chain_cap = -(-(horizon if horizon is not None else max_steps) // n_chains)
    steps = 0
    while steps < per_chain_cap:
        if horizon is None and sum(g.crossings for g in groups) >= target_crossings:
            break
        cols = min(_PF_CHUNK, per_chain_cap - steps)
        _map_groups(lambda g: g.advance(cols, steps), groups, workers)
        steps += cols

    crossings = sum(g.crossings for g in groups)
    observed = steps * n_chains
    if crossings < min_crossings:
        raise InsufficientEventsError(
            f"only {crossings} crossings in {observed} controlled samples at gamma={gamma} "
            f"(need >= {min_crossings}); lower gamma or rely on curve extrapolation"
        )
    intervals = np.concatenate([g.canonical_intervals() for g in groups])
    pf = crossings / observed
    if crossings > 1:
        cv = float(intervals.std(ddof=1) / intervals.mean())
        pf_se = pf * cv / math.sqrt(crossings)
    else:
        pf_se = float("nan")
    return PerformanceEstimate(
        gamma=float(gamma),
        n_trials=crossings,
        pf=pf,
        pf_se=pf_se,
        observed_steps=observed,
    )


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least squares line with its coefficient of determination."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, x):
        out = self.slope * np.asarray(x, dtype=float) + self.intercept
        return float(out) if out.ndim == 0 else out


def fit_linear(points: Iterable[tuple[float, float]]) -> LinearFit:
    """Least-squares line through ``(gamma, y)`` points.

    Requires at least three distinct gamma values.
    """
    pts = [(float(g), float(y)) for g, y in points]
    gammas = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.unique(gammas).size < 3:
        raise ValueError("linear fit needs at least 3 distinct gamma values")
    # the arithmetic of scipy.stats.linregress, which it matches bit for bit
    sxx, sxy, _, syy = np.cov(gammas, ys, bias=1).flat
    slope = sxy / sxx
    intercept = np.mean(ys) - slope * np.mean(gammas)
    if syy == 0.0:
        r = math.nan if sxy == 0.0 else 0.0
    else:
        r = min(1.0, max(-1.0, sxy / np.sqrt(sxx * syy)))
    return LinearFit(float(slope), float(intercept), float(r) ** 2)


@dataclass(frozen=True)
class CurvePoint:
    """One operational-curve point; ``measured`` separates MC from fit output."""

    gamma: float
    delay: float
    delay_se: float | None
    log10_pf: float
    pf_se: float | None
    measured: bool


@dataclass(frozen=True)
class OperationalCurve:
    """Delay versus false-alarm tradeoff of one detector in one scenario."""

    points: tuple[CurvePoint, ...]
    delay_fit: LinearFit | None
    logpf_fit: LinearFit | None

    @property
    def measured(self) -> tuple[CurvePoint, ...]:
        return tuple(p for p in self.points if p.measured)

    @property
    def extrapolated(self) -> tuple[CurvePoint, ...]:
        return tuple(p for p in self.points if not p.measured)

    def gamma_at_pf(self, pf: float) -> float:
        """Threshold whose fitted false-alarm probability equals ``pf``."""
        if self.logpf_fit is None:
            raise ValueError("curve carries no log10(pf) fit")
        if self.logpf_fit.slope >= 0.0:
            raise ValueError("log10(pf) fit slope is not negative; cannot invert")
        return (math.log10(pf) - self.logpf_fit.intercept) / self.logpf_fit.slope

    def delay_at_pf(self, pf: float) -> float:
        """Fitted mean delay at the threshold matching false-alarm rate ``pf``."""
        if self.delay_fit is None:
            raise ValueError("curve carries no delay fit")
        return self.delay_fit.predict(self.gamma_at_pf(pf))


def operational_curve(
    controlled: ScenarioSpec,
    changed: ScenarioSpec,
    config: DetectorConfig,
    gamma_grid: Sequence[float],
    extrapolation_grid: Sequence[float] = (),
    n_trials: int = 10_000,
    seed=0,
    *,
    run_in: bool = False,
    r2_floor: float = 0.95,
    n_chains: int = 2048,
    min_crossings: int = 100,
    pf_max_steps: int = 200_000_000,
    workers: int = 1,
) -> OperationalCurve:
    """Measure (delay, pf) on ``gamma_grid`` and extend by linear fits.

    Direct Monte Carlo runs on every ``gamma_grid`` point (delay on the
    ``changed`` spec, false alarms on the ``controlled`` one); straight
    lines are fitted to ``gamma -> delay`` and ``gamma -> log10(pf)`` and
    evaluated on ``extrapolation_grid``.  Extrapolation is refused unless
    both fits reach ``r2_floor``.
    """
    if controlled.change_time is not None:
        raise ValueError("controlled spec must have no change time")
    if changed.change_time is None:
        raise ValueError("changed spec needs a change time")
    gammas = [float(g) for g in gamma_grid]
    if not gammas:
        raise ValueError("gamma_grid must not be empty")

    measured: list[CurvePoint] = []
    for i, gamma in enumerate(gammas):
        delay = estimate_delay(
            changed,
            config,
            gamma,
            n_trials,
            seed=_child_seed(seed, DELAY_SEED_TAG, i),
            run_in=run_in,
            workers=workers,
        )
        pf = estimate_pf(
            controlled,
            config,
            gamma,
            seed=_child_seed(seed, PF_SEED_TAG, i),
            n_chains=n_chains,
            target_crossings=n_trials,
            min_crossings=min_crossings,
            max_steps=pf_max_steps,
            workers=workers,
        )
        measured.append(
            CurvePoint(
                gamma=gamma,
                delay=delay.mean_delay,
                delay_se=delay.delay_se,
                log10_pf=math.log10(pf.pf),
                pf_se=pf.pf_se,
                measured=True,
            )
        )

    delay_fit = logpf_fit = None
    if len(set(gammas)) >= 3:
        delay_fit = fit_linear([(p.gamma, p.delay) for p in measured])
        logpf_fit = fit_linear([(p.gamma, p.log10_pf) for p in measured])

    extrapolated: list[CurvePoint] = []
    if len(extrapolation_grid):
        if delay_fit is None or logpf_fit is None:
            raise ExtrapolationError("extrapolation needs >= 3 distinct measured gammas")
        if delay_fit.r_squared < r2_floor or logpf_fit.r_squared < r2_floor:
            raise ExtrapolationError(
                "refusing to extrapolate: fit r^2 "
                f"(delay {delay_fit.r_squared:.4f}, log10 pf {logpf_fit.r_squared:.4f}) "
                f"below floor {r2_floor}"
            )
        for gamma in extrapolation_grid:
            gamma = float(gamma)
            extrapolated.append(
                CurvePoint(
                    gamma=gamma,
                    delay=delay_fit.predict(gamma),
                    delay_se=None,
                    log10_pf=logpf_fit.predict(gamma),
                    pf_se=None,
                    measured=False,
                )
            )

    return OperationalCurve(tuple(measured + extrapolated), delay_fit, logpf_fit)
