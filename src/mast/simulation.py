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
linear over the measured grids, so an operational curve fits straight
lines to directly measured points and may evaluate them at thresholds
beyond Monte Carlo reach.  Those extrapolated points are unchecked
straight-line fits: nothing measures or bounds their error.  For scenario
1 MAST at ``gamma = 12`` the packaged curve's extrapolated false-alarm
rate is about 5.4 times too optimistic against a Brook-Evans run-length
calculation.

Trials (and monitoring chains) are cut into fixed lanes of ``_LANE``
consecutive indices.  Each lane owns its PCG64 generators, derived from
``(seed, lane)``: the noise comes from spawn key ``(lane, 0)`` and, in
scenario 2 only, the daily means from ``(lane, 1)``.  The words that seed
them are ``SeedSequence(seed, spawn_key=(lane, stream))``'s, bit for bit,
but computed for every lane at once by one vectorised pass
(``_seed_words``) and handed to each PCG64 directly; ``numpy.random`` is
imported only when the first generator is built.  A lane draws
time-major: a step of ``cols`` samples fills a ``(cols, _LANE)`` slice
whose row ``t`` is time and whose column ``r`` belongs to trial
``lane * _LANE + r``.  Sample ``t`` of that trial is then element
``t * _LANE + r`` of each of its lane's streams, whatever the step sizes,
so results are a deterministic function of the seed and the trial count
and do not depend on the chunk schedule.  The live lanes' slices make up
one ``(lanes, cols, _LANE)`` block: each lane's generators fill only its
slice, and the affine steps (the scale by ``sigma``, the mean, scenario
2's mean plus noise) then run once over the whole block.  A seed is an
int or a sequence of ints.

Every chain runs the recursion of ``run_stream``,
``T_n = max(0, T_{n-1} + increment(x_n))``, with the same float
operations, so a chain crosses where ``run_stream`` replaying its samples
does.  All lanes advance together: the live lanes' next columns are drawn
into one block of at most ``_BLOCK`` samples, scored by one increment
call per detector, and the recursion then steps one column at a time across every
chain.  The chains can run for several rows at once, each a detector and
a threshold: a block is scored once per detector, and every row adds its
detector's scored column to its own statistic.  A crossing in
the controlled regime (a false alarm, or one in a delay trial's run-in)
restarts the statistic at 0; one in the critical regime is an alarm and
ends the trial.  A lane with no trial left running is not drawn again,
and in the critical regime blocks are kept short so that this happens
soon: after ``c`` critical columns a block is at most ``max(2, c // 2)``
columns long, unless the call has so few lanes that ``_CRITICAL_BLOCK``
samples over all of them make more columns; a call may always run those.
In the controlled regime no lane stops, so every block of a call but
its last holds as many columns as fit in ``_BLOCK`` samples over all its
lanes, and at least one.  Every block is drawn on the calling thread.

A delay trial's run-in draws exactly ``change_time - 1`` controlled
samples, in steps of at most ``_PF_CHUNK``; its post-change step starts
at ``_DELAY_FIRST_STEP`` samples and doubles while trials run, up to
``_DELAY_CHUNK``, so that short delays are not scored over whole chunks.
The false-alarm estimate steps all chains ``_PF_CHUNK`` samples at a time
and checks its target only between these whole steps.  An operational
curve estimates the false-alarm rates of every detector's whole grid on
one set of chains, one row per (detector, threshold)
(``_estimate_pf_grid``), and drops each row at the first step boundary
where it has met its target.  Each point's estimate is exactly that of a
lone ``estimate_pf`` on the curve's false-alarm seed, the seed of
``mast simulate --mode pf``, whatever the other rows are; the points'
errors are correlated, across detectors too, and a repeated threshold
repeats its estimate.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import check_gamma, check_sigma
from .detectors import DetectorConfig, DetectorKind

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
    "operational_curve",
]

# trials per lane: each lane of consecutive trials owns its random streams
_LANE = 256
# the first post-change delay step; later steps double up to _DELAY_CHUNK
_DELAY_FIRST_STEP = 4
_DELAY_CHUNK = 64
# cap of the adaptive delay horizon, in samples per trial
_DELAY_MAX_STEPS = 1_000_000
# pf samples per chain between two checks of the crossing target
_PF_CHUNK = 512
# samples one engine block draws across all live lanes: one lane's pf step
_BLOCK = _LANE * _PF_CHUNK
# samples over all of a call's lanes that a critical-regime block may always
# span: a shorter block's fixed cost outweighs the columns it saves
_CRITICAL_BLOCK = 8192
# seed-path tags separating the delay and false-alarm substreams of one seed
DELAY_SEED_TAG = 1
PF_SEED_TAG = 2
# fixed per-kind tags of a curve's delay seeds, so that detector order is irrelevant
_KIND_SEED_TAG = {DetectorKind.MAST: 10, DetectorKind.PAGE: 13}


class InsufficientEventsError(RuntimeError):
    """Too few threshold crossings to estimate a false-alarm rate."""


class ExtrapolationError(RuntimeError):
    """Refused to extrapolate from a fit below the r-squared floor."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Generative description of one experiment's ratio stream; the
    estimate that reads it decides the regime and when it changes."""

    scenario: int
    alpha: float
    sigma: float

    def __post_init__(self) -> None:
        if self.scenario not in (1, 2):
            raise ValueError(f"scenario must be 1 or 2, got {self.scenario}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        object.__setattr__(self, "sigma", check_sigma(self.sigma))


def _seed_entropy(seed, *tags: int) -> list[int]:
    """``SeedSequence`` entropy: ``seed`` (an int or a sequence of ints),
    then ``tags``.  Any other entry, a bool, float or string too, raises
    TypeError (so does a ``SeedSequence``); a negative one, ValueError."""
    entropy = list(seed) if isinstance(seed, Iterable) else [seed]
    # type() rather than isinstance(): a bool is an int to Python
    if not all(type(s) is int or isinstance(s, np.integer) for s in entropy):
        raise TypeError(f"a seed is an int or a sequence of ints, got {seed!r}")
    if any(s < 0 for s in entropy):
        raise ValueError(f"a seed must be >= 0, got {seed!r}")
    return [int(s) for s in entropy + list(tags)]


_MASK32 = 0xFFFFFFFF
# SeedSequence's hash constants and pool size (numpy.random.bit_generator)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _powers(init: int, mult: int, n: int) -> list[int]:
    """``init * mult**k`` modulo 2**32 for ``k < n``."""
    out = [init]
    while len(out) < n:
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(value, xor, mult):
    """``SeedSequence``'s hash of 32-bit words, given the multiplier before
    and after its update.  A product of two words fits in 64 bits, so the
    same arithmetic serves Python ints and uint64 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    """``SeedSequence``'s mix of a pool word ``x`` with a hashed word ``y``."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _seed_words(entropy: list[int], lanes: int, streams: int) -> np.ndarray:
    """The C-contiguous ``(lanes, streams, 4)`` uint64 array whose
    ``[lane, stream]`` row is
    ``SeedSequence(entropy, spawn_key=(lane, stream)).generate_state(4, np.uint64)``,
    bit for bit, for non-negative ints ``entropy`` and lanes below 2**32.

    This is ``SeedSequence``'s own mixing.  The pool is shared by every
    lane until the first word past the pool size, so it is built in Python
    ints; each later word is mixed into the four pool words at once, and
    the lane and stream words make the pool a ``(4, lanes, streams)`` array.
    """
    words = []
    for value in entropy:
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    # a spawn key pads the run entropy to the pool size
    words += [0] * (_POOL - len(words))
    keys = [np.arange(lanes, dtype=np.uint64)[:, None], np.arange(streams, dtype=np.uint64)]
    # hashmix call k hashes with multipliers a[k] and a[k + 1]
    a = _powers(_INIT_A, _MULT_A, _POOL * (len(words) + 2) + 1)
    pool = [_hash(word, a[k], a[k + 1]) for k, word in enumerate(words[:_POOL])]
    k = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], a[k], a[k + 1]))
                k += 1
    pool = np.array(pool, dtype=np.uint64)[:, None, None]
    a = np.array(a, dtype=np.uint64)[:, None, None]
    for word in words[_POOL:] + keys:
        pool = _mix(pool, _hash(word, a[k : k + _POOL], a[k + 1 : k + _POOL + 1]))
        k += _POOL
    # generate_state(4, np.uint64): eight 32-bit words, from the pool in
    # turn, paired little-endian
    b = np.array(_powers(_INIT_B, _MULT_B, 9), dtype=np.uint64)[:, None, None]
    state = np.moveaxis(_hash(pool[np.arange(8) % _POOL], b[:8], b[1:]), 0, -1)
    return np.ascontiguousarray(state[..., ::2] | state[..., 1::2] << 32)


@functools.cache
def _generator_factory():
    """``words -> Generator(PCG64(...))`` seeded with the four uint64 words of
    a ``_seed_words`` row.  ``numpy.random`` is imported here, at first
    use, because it costs more than the rest of ``import mast.cli``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 the ``generate_state(4, np.uint64)`` words it seeds from."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("SeedWords holds generate_state(4, np.uint64) only")
            return self.words

    return lambda words: Generator(PCG64(SeedWords(words)))


def _lane_rngs(seed, lanes: int, scenario: int) -> list[tuple[np.random.Generator, ...]]:
    """The generators of lanes ``0 .. lanes - 1``, one tuple per lane (lane
    ``i`` holds trials ``i * _LANE`` onward): the noise, from spawn key
    ``(i, 0)``, then for scenario 2 the daily means, from ``(i, 1)``."""
    words = _seed_words(_seed_entropy(seed), lanes, 2 if scenario == 2 else 1)
    generator = _generator_factory()
    return [tuple(map(generator, lane)) for lane in words]


def _draw(
    spec: ScenarioSpec,
    rngs: Sequence[tuple[np.random.Generator, ...]],
    critical: bool,
    out: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Fill ``out``, a ``(lanes, cols, _LANE)`` block, with the next ``cols``
    samples of one regime for every trial of each lane, lane ``i`` being
    drawn time-major from its generators ``rngs[i]`` (see ``_lane_rngs``).
    Scenario 2 draws its means into ``out`` and its noise into ``noise``, a
    buffer of the same shape.  Returns ``out``.

    Each generator fills its lane's slice in memory order, so drawing ``a``
    columns and then ``b`` gives the same samples as drawing ``a + b`` at
    once.  The affine steps then run once over the whole block; their
    in-place arithmetic is that of ``means + sigma * z`` with the means
    from ``rng.uniform(low, high, shape)``, bit for bit.
    """
    if spec.scenario == 1:
        for (rng,), lane in zip(rngs, out):
            rng.standard_normal(out=lane)
        out *= spec.sigma
        out += 1.0 + spec.alpha if critical else 1.0 - spec.alpha
        return out
    for (noise_rng, mean_rng), lane, scratch in zip(rngs, out, noise):
        mean_rng.random(out=lane)
        noise_rng.standard_normal(out=scratch)
    low, high = (1.0, 1.0 + 10.0 * spec.alpha) if critical else (1.0 - spec.alpha, 1.0)
    out *= high - low
    out += low
    noise *= spec.sigma
    out += noise
    return out


class _Lanes:
    """Chains ``0 .. n - 1`` in lanes of ``_LANE``, advancing in lockstep
    on one sample clock by ``run_stream``'s recursion, once for each row of
    ``rows``: a ``(config, gamma)`` pair, a detector and its threshold.

    ``stat`` and ``limit`` are ``(rows, lanes, _LANE)`` arrays: one row per
    ``(config, gamma)`` still running, one lane per live lane and one
    column per chain of it.  Every row scores the same samples with its
    own config.  ``limit`` is the row's threshold, or inf for an alarmed
    chain and for the padding past ``n`` in the last lane, which is drawn
    and scored with its lane but never crosses.  The attribute ``rows``
    holds the indices of the rows still running, ``lanes`` those of the
    live lanes and ``rngs`` their generators, and ``critical_cols`` counts
    the critical-regime columns run so far.  Consecutive rows with equal
    configs make one group, scored once per block; ``group`` holds each
    running row's group and ``configs`` each group's config.  A block is
    drawn into the start of row 0 of ``buf``, with scenario 2's noise at
    the start of row 1.  A group other than the last scores the block into
    the start of row 1 onward, once the noise is spent, and the last in
    place.  So ``buf`` holds two rows of floats for up to two groups.  The crossings of a
    block are marked in ``hits``.
    """

    def __init__(self, spec, rows, seed, n):
        count = -(-n // _LANE)
        configs = [config for config, _ in rows]
        gammas = np.array([gamma for _, gamma in rows], dtype=float)
        # a row whose config differs from the one before it starts a group
        starts = [i == 0 or config != configs[i - 1] for i, config in enumerate(configs)]
        self.spec = spec
        self.configs = [config for config, start in zip(configs, starts) if start]
        self.group = np.cumsum(starts) - 1
        self.rngs = _lane_rngs(seed, count, spec.scenario)
        self.rows = np.arange(len(rows))
        self.lanes = np.arange(count)
        # a critical block may always run this many columns
        self.min_critical_cols = _CRITICAL_BLOCK // (count * _LANE)
        self.critical_cols = 0
        self.stat = np.zeros((len(rows), count, _LANE))
        self.limit = np.empty_like(self.stat)
        self.limit[...] = gammas[:, None, None]
        self.limit.reshape(len(rows), -1)[:, n:] = np.inf
        size = max(_BLOCK, count * _LANE)
        self.buf = np.empty((max(2, len(self.configs)), size))
        self.hits = np.empty(len(rows) * size, bool)

    def keep_rows(self, keep: np.ndarray) -> None:
        """Keep only the rows where the bool array ``keep`` is true."""
        self.rows, self.group = self.rows[keep], self.group[keep]
        self.stat, self.limit = self.stat[keep], self.limit[keep]

    def _draw_block(self, critical: bool, cols: int) -> np.ndarray:
        """Draw the live lanes' next block, of at most ``cols`` columns."""
        width = self.lanes.size * _LANE
        k = min(cols, max(1, _BLOCK // width))
        if critical:
            k = min(k, max(2, self.critical_cols // 2, self.min_critical_cols))
            self.critical_cols += k
        buf = self.buf[:2, : k * width].reshape(2, self.lanes.size, k, _LANE)
        return _draw(self.spec, self.rngs, critical, buf[0], buf[1])

    def advance(self, critical: bool, cols: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """Advance every live chain of every row ``cols`` samples of one
        regime; return, for each row in ``rows``, the chain and the offset
        (1-based within the call) of every crossing.  A crossed chain
        restarts at 0 in the controlled regime; in the critical regime it
        has alarmed, and its limit becomes inf.  A lane left with no live
        chain in any row is dropped and not drawn again.

        The live lanes' next columns are drawn into one block, scored by
        one ``config.increment`` call for each group with a running row,
        and run through the recursion one column at a time across all
        chains of all rows: one ``add`` per group, then the rest of the
        step once over every row.  A critical block spans at most
        ``_BLOCK`` samples (one column per lane if there are more lanes
        than that), and after ``c`` critical columns also at most
        ``max(2, c // 2, min_critical_cols)`` columns, so a lane runs few
        columns past its last alarm; ``min_critical_cols`` is the columns
        that ``_CRITICAL_BLOCK`` samples make over all the call's lanes.
        A controlled block likewise spans at most ``_BLOCK`` samples, or
        one column per lane.  A row's crossings are kept per block only
        where the block has some, so a call that never crosses holds
        nothing per block.
        """
        found = [([np.arange(0)], [np.arange(0)]) for _ in self.rows]
        # the running groups and their first rows; rows stay put in a call
        groups, firsts = np.unique(self.group, return_index=True)
        bounds = [*firsts.tolist(), len(self.rows)]
        done = 0
        while done < cols and self.lanes.size and self.rows.size:
            block = self._draw_block(critical, cols - done)
            k, width = block.shape[1], self.lanes.size * _LANE
            scores = self.buf[1:, : k * width].reshape(-1, self.lanes.size, k, _LANE)
            stat, limit = self.stat, self.limit
            # each running group's rows and their scores; the last group
            # scores the block in place, once the others have read it
            parts = []
            for j, (g, lo, hi) in enumerate(zip(groups, bounds, bounds[1:])):
                out = block if j == len(groups) - 1 else scores[j]
                parts.append((stat[lo:hi], self.configs[g].increment(block, out=out)))
            hits = self.hits[: k * stat.size].reshape(len(stat), k, *stat.shape[1:])
            reset, value = (limit, np.inf) if critical else (stat, 0.0)
            add, maximum, greater, copyto = np.add, np.maximum, np.greater, np.copyto
            for t in range(k):
                for part, inc in parts:
                    add(part, inc[:, t], out=part)
                maximum(stat, 0.0, out=stat)
                greater(stat, limit, out=hits[:, t])
                copyto(reset, value, where=hits[:, t])
            # flat indices in C order: by row, then column, lane and chain;
            # row r's crossings have r * k + (column) in `at`
            at, chain = np.divmod(np.flatnonzero(hits), width)
            lane, col = np.divmod(chain, _LANE)
            chain = self.lanes[lane] * _LANE + col
            edges = np.searchsorted(at, np.arange(len(stat) + 1) * k)
            for r, (chains, offsets) in enumerate(found):
                if edges[r] < edges[r + 1]:
                    chains.append(chain[edges[r] : edges[r + 1]])
                    offsets.append(at[edges[r] : edges[r + 1]] + (done + 1 - r * k))
            done += k
            if critical and at.size:
                # only a finite gamma crosses, so an inf limit marks no live chain
                live = (self.limit < np.inf).any(axis=(0, 2))
                self.rngs = [r for r, keep in zip(self.rngs, live) if keep]
                self.lanes, self.stat, self.limit = (
                    self.lanes[live], self.stat[:, live], self.limit[:, live]
                )
        return [(np.concatenate(chains), np.concatenate(offsets)) for chains, offsets in found]


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


def estimate_delay(
    spec: ScenarioSpec,
    config: DetectorConfig,
    gamma: float,
    n_trials: int,
    seed,
    *,
    change_time: int = 1,
    horizon: int | None = None,
) -> PerformanceEstimate:
    """Mean detection delay at threshold ``gamma`` over ``n_trials`` trials.

    Each trial runs the statistic from zero at sample 1 on its own stream,
    whose regime turns critical at sample ``change_time`` (an int >= 1).
    Through the ``change_time - 1`` controlled samples before the change
    the statistic is reset to zero at any crossing; the trial then counts
    the critical-regime samples until it first exceeds ``gamma``.  The
    alarm sample itself counts, so an alarm on the first post-change
    sample is delay 1.  The default ``change_time=1`` starts the statistic
    at zero at the change: the worst-case convention.

    Lane ``i``'s generators are seeded like
    ``SeedSequence(seed, spawn_key=(i, stream))``, from words computed for
    all lanes at once; each lane draws its own slice of a block, and the
    affine steps run once over the block (see the module docstring).  The
    run-in draws exactly ``change_time - 1`` samples per trial, in steps
    of at most ``_PF_CHUNK`` whose crossings are dropped, so it holds no
    more memory however long it is.  The post-change steps
    start at ``_DELAY_FIRST_STEP`` samples and double while trials run,
    up to ``_DELAY_CHUNK``, and the horizon is checked only between
    them.  Within a step, a block after ``c`` post-change
    columns is at most ``max(2, c // 2)`` columns long, so a lane whose
    trials have all alarmed is dropped soon after the last alarm.  But a
    block may always span ``_CRITICAL_BLOCK`` samples over all the call's
    lanes, which is more than two columns only for a call of few lanes:
    shorter blocks would cost more than the columns they save.  A
    trial's samples, and so the estimate, depend neither on the steps nor
    on the blocks.

    Trials still running at the horizon are counted at the horizon value
    and reported in ``n_censored`` with a warning.  ``horizon=None`` grows
    the horizon adaptively to 100x the running mean of completed trials
    (at least 1000 samples, capped at one million).
    """
    gamma = check_gamma(gamma)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    # a bool is an int to Python; change_time=True must not run as 1
    if type(change_time) is not int or change_time < 1:
        raise ValueError(f"change_time must be an integer >= 1, got {change_time!r}")
    if horizon is not None and horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")

    lanes = _Lanes(spec, [(config, gamma)], seed, n_trials)
    for done in range(0, change_time - 1, _PF_CHUNK):
        lanes.advance(False, min(_PF_CHUNK, change_time - 1 - done))

    # 0 marks a trial still running; integer sums keep the adaptive cap
    # independent of grouping
    delays = np.zeros(n_trials, dtype=np.int64)
    steps_done = 0
    cap = horizon if horizon is not None else _DELAY_MAX_STEPS
    step = _DELAY_FIRST_STEP
    while steps_done < cap and lanes.lanes.size:
        cols = min(step, cap - steps_done)
        ((trials, offsets),) = lanes.advance(True, cols)
        delays[trials] = steps_done + offsets
        steps_done += cols
        step = min(2 * step, _DELAY_CHUNK)
        completed = np.count_nonzero(delays)
        if horizon is None and completed:
            adaptive = max(1000, -(-100 * int(delays.sum()) // completed))
            cap = min(_DELAY_MAX_STEPS, adaptive)

    n_censored = n_trials - int(np.count_nonzero(delays))
    if n_censored:
        delays[delays == 0] = steps_done
        warnings.warn(
            f"{n_censored} of {n_trials} trials never alarmed within {steps_done} samples; "
            "their delay is counted at the horizon (lower bound)",
            stacklevel=2,
        )
    delays = delays.astype(float)
    se = float(delays.std(ddof=1) / math.sqrt(n_trials)) if n_trials > 1 else float("nan")
    return PerformanceEstimate(
        gamma=gamma,
        n_trials=n_trials,
        mean_delay=float(delays.mean()),
        delay_se=se,
        n_censored=n_censored,
    )


def estimate_pf(
    spec: ScenarioSpec,
    config: DetectorConfig,
    gamma: float,
    seed=0,
    *,
    n_chains: int = 2048,
    target_crossings: int = 10_000,
    min_crossings: int = 100,
    max_steps: int = 200_000_000,
) -> PerformanceEstimate:
    """False-alarm probability at threshold ``gamma`` in the controlled regime.

    Runs ``n_chains`` independent controlled-regime chains with the
    statistic reset to zero at every crossing, and estimates
    ``pf = crossings / samples observed``: the reciprocal of the mean time
    between crossings, with each chain's open tail interval counted in the
    denominator.  The standard error comes from the completed-interval
    coefficient of variation.

    Chains run until ``target_crossings`` crossings have been seen, but
    never beyond ``max_steps`` total samples (rounded up to a whole
    per-chain count).  The target is checked only after every chain has
    run a whole step of ``_PF_CHUNK`` samples (the last step may be
    shorter, at the ``max_steps`` cap).  A step is cut into blocks of at
    most ``_BLOCK`` samples over all chains (see ``_Lanes.advance``).  A
    chain's samples and crossings depend neither on these steps nor on
    how a step is cut into blocks.

    Fewer than ``min_crossings`` crossings raises
    ``InsufficientEventsError`` -- direct estimation is then out of reach
    and the threshold belongs on an extrapolated operational curve
    instead.

    This is the one-row case of ``_estimate_pf_grid``, which
    ``operational_curve`` runs over every detector's grid on one set of
    chains; each of its rows is this function's estimate on the same seed.
    """
    (est,) = _estimate_pf_grid(
        spec, [(config, gamma)], seed, n_chains=n_chains, target_crossings=target_crossings,
        min_crossings=min_crossings, max_steps=max_steps,
    )
    return est


def _estimate_pf_grid(
    spec: ScenarioSpec,
    rows: Sequence[tuple[DetectorConfig, float]],
    seed,
    *,
    n_chains: int = 2048,
    target_crossings: int = 10_000,
    min_crossings: int = 100,
    max_steps: int = 200_000_000,
) -> list[PerformanceEstimate]:
    """``estimate_pf`` at every ``(config, gamma)`` of ``rows``, on one set
    of chains.

    Every pair is a row of the same ``_Lanes``: each sample is drawn once
    and scored once per config, and each row runs the recursion on it with
    its own statistic.  Rows of one config should be consecutive, so that
    a block is scored once for each config; the rows of two detectors then
    fit ``_Lanes``'s two buffer rows.  A row is dropped at the first step
    boundary where it has seen ``target_crossings`` crossings; the others
    run on.  So each row's chains, crossings and stopping step are exactly
    those of a lone ``estimate_pf`` at its config and threshold on
    ``seed``, and so is its estimate, whatever the other rows are; only
    the estimates' joint distribution differs, since the rows share their
    samples.  The first row, in the order given, with fewer than
    ``min_crossings`` crossings raises ``InsufficientEventsError``.
    """
    rows = [(config, check_gamma(gamma)) for config, gamma in rows]
    if target_crossings < 1:
        raise ValueError(f"target_crossings must be >= 1, got {target_crossings}")
    n_chains = int(n_chains)
    if n_chains < 1:
        raise ValueError(f"n_chains must be >= 1, got {n_chains}")
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")

    lanes = _Lanes(spec, rows, seed, n_chains)
    # per running row: the chain and time of its crossings, step by step
    found = {row: [(np.arange(0), np.arange(0))] for row in range(len(rows))}
    crossings = np.zeros(len(rows), dtype=np.int64)
    estimates: list = [None] * len(rows)
    per_chain_cap = -(-max_steps // n_chains)
    done = 0
    while lanes.rows.size:
        cols = min(_PF_CHUNK, per_chain_cap - done)
        for row, (chains, offsets) in zip(lanes.rows, lanes.advance(False, cols)):
            found[row].append((chains, done + offsets))
            crossings[row] += chains.size
        done += cols
        # a row that has met its target, or reached the cap, is estimated
        # at once, and its crossings are let go
        keep = (crossings[lanes.rows] < target_crossings) & (done < per_chain_cap)
        for row in lanes.rows[~keep].tolist():
            chains, times = map(np.concatenate, zip(*found.pop(row)))
            estimates[row] = _pf_estimate(rows[row][1], chains, times, n_chains, done)
        lanes.keep_rows(keep)

    for (config, gamma), est in zip(rows, estimates):
        if est.n_trials < min_crossings:
            raise InsufficientEventsError(
                f"only {est.n_trials} crossings in {est.observed_steps} controlled samples at "
                f"gamma={gamma} for {config.kind.value} (need >= {min_crossings}); lower gamma "
                "or rely on curve extrapolation"
            )
    return estimates


def _pf_estimate(gamma, chains, times, n_chains, per_chain) -> PerformanceEstimate:
    """The estimate from one row's crossings, given by chain and time, over
    ``per_chain`` samples of each of ``n_chains`` chains.  Each chain's
    crossings come in increasing time, as ``_estimate_pf_grid`` gathers
    them step by step."""
    crossings = chains.size
    observed = n_chains * per_chain
    pf = crossings / observed
    if crossings > 1:
        # completed intervals, ordered by chain then time so that pf_se
        # does not depend on the grouping: a stable sort by chain keeps
        # each chain's times in order, and on a key of at most 16 bits
        # numpy sorts by radix
        order = np.argsort(chains.astype(np.min_scalar_type(n_chains - 1)), kind="stable")
        chains, times = chains[order], times[order]
        intervals = np.diff(times, prepend=0)
        first_of_chain = np.diff(chains, prepend=-1) != 0
        intervals[first_of_chain] = times[first_of_chain]
        intervals = intervals.astype(float)
        cv = float(intervals.std(ddof=1) / intervals.mean())
        pf_se = pf * cv / math.sqrt(crossings)
    else:
        pf_se = float("nan")
    return PerformanceEstimate(
        gamma=gamma,
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
    # a set rather than np.unique, whose first call on floats imports numpy.ma
    if len({g for g, _ in pts}) < 3:
        raise ValueError("linear fit needs at least 3 distinct gamma values")
    gammas = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
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


def _check_grids(
    gamma_grid: Sequence[float], extrapolation_grid: Sequence[float] = (), r2_floor: float = 0.95
) -> tuple[list[float], list[float]]:
    """The measured and extrapolated grids of ``operational_curve`` as floats,
    or ``ValueError``: the measured grid must be a nonempty list of finite
    thresholds, the extrapolated one of thresholds (see ``check_gamma``),
    and ``r2_floor`` must lie in [0, 1]."""
    gammas = [check_gamma(g) for g in gamma_grid]
    if not gammas:
        raise ValueError("gamma_grid must not be empty")
    if math.inf in gammas:
        raise ValueError("a measured gamma must be finite, got inf")
    extra_gammas = [check_gamma(g) for g in extrapolation_grid]
    if not 0.0 <= r2_floor <= 1.0:
        raise ValueError(f"r2_floor must lie in [0, 1], got {r2_floor}")
    return gammas, extra_gammas


def operational_curve(
    spec: ScenarioSpec,
    curves: Sequence[tuple[DetectorConfig, Sequence[float], Sequence[float]]],
    n_trials: int = 10_000,
    seed=0,
    *,
    change_time: int = 1,
    r2_floor: float = 0.95,
) -> list[OperationalCurve]:
    """Measure (delay, pf) on each detector's grid and extend by linear fits.

    ``curves`` holds one ``(config, gamma_grid, extrapolation_grid)`` per
    detector; one ``OperationalCurve`` comes back for each, in order.
    Every grid is checked by ``_check_grids`` before anything runs.

    Direct Monte Carlo runs on every ``gamma_grid`` point, each finite:
    delay trials with the regime change at ``change_time`` (see
    ``estimate_delay``), on the point's own seed
    ``[seed, _KIND_SEED_TAG[kind], DELAY_SEED_TAG, i]``, and false alarms.
    The false-alarm chains are shared by every point of every detector:
    one ``_estimate_pf_grid`` on seed ``[seed, PF_SEED_TAG, 0]`` draws each
    controlled sample once, scores it once per detector, and stops each
    point at its own crossing target.  Each point's ``log10_pf`` and
    ``pf_se`` are exactly those of a lone ``estimate_pf`` at its config and
    threshold on that seed, which is ``mast simulate --mode pf``'s, so no
    point depends on the other detectors named.  But the points' errors
    are correlated, within a detector and across detectors: the log10 pf
    fit's r-squared does not come from independent points, and a repeated
    threshold repeats its estimate.  Straight lines are fitted to
    ``gamma -> delay`` and ``gamma -> log10(pf)`` and evaluated on
    ``extrapolation_grid``, but only if both fits reach ``r2_floor``, a
    number in [0, 1].
    """
    grids = [_check_grids(gamma_grid, extra_grid, r2_floor) for _, gamma_grid, extra_grid in curves]
    configs = [config for config, _, _ in curves]

    delays = [
        [
            estimate_delay(
                spec,
                config,
                gamma,
                n_trials,
                seed=_seed_entropy(seed, _KIND_SEED_TAG[config.kind], DELAY_SEED_TAG, i),
                change_time=change_time,
            )
            for i, gamma in enumerate(gammas)
        ]
        for config, (gammas, _) in zip(configs, grids)
    ]
    # the pf estimates come back detector by detector, as their rows went in
    pfs = iter(
        _estimate_pf_grid(
            spec,
            [(config, gamma) for config, (gammas, _) in zip(configs, grids) for gamma in gammas],
            _seed_entropy(seed, PF_SEED_TAG, 0),
            target_crossings=n_trials,
        )
    )
    return [
        _fit_curve(
            config, gammas, extra_gammas, [(delay, next(pfs)) for delay in curve_delays], r2_floor
        )
        for config, (gammas, extra_gammas), curve_delays in zip(configs, grids, delays)
    ]


def _fit_curve(
    config: DetectorConfig,
    gammas: list[float],
    extra_gammas: list[float],
    estimates: list[tuple[PerformanceEstimate, PerformanceEstimate]],
    r2_floor: float,
) -> OperationalCurve:
    """The curve of the detector ``config`` from its (delay, pf) estimate at
    each measured threshold: the measured points, the fits, and the
    extrapolated points.  A refused extrapolation names the detector."""
    measured = [
        CurvePoint(
            gamma=gamma,
            delay=delay.mean_delay,
            delay_se=delay.delay_se,
            log10_pf=math.log10(pf.pf),
            pf_se=pf.pf_se,
            measured=True,
        )
        for gamma, (delay, pf) in zip(gammas, estimates)
    ]

    delay_fit = logpf_fit = None
    if len(set(gammas)) >= 3:
        delay_fit = fit_linear([(p.gamma, p.delay) for p in measured])
        logpf_fit = fit_linear([(p.gamma, p.log10_pf) for p in measured])

    extrapolated: list[CurvePoint] = []
    if extra_gammas:
        if delay_fit is None or logpf_fit is None:
            raise ExtrapolationError(
                f"extrapolation of {config.kind.value} needs >= 3 distinct measured gammas"
            )
        if delay_fit.r_squared < r2_floor or logpf_fit.r_squared < r2_floor:
            raise ExtrapolationError(
                f"refusing to extrapolate {config.kind.value}: fit r^2 "
                f"(delay {delay_fit.r_squared:.4f}, log10 pf {logpf_fit.r_squared:.4f}) "
                f"below floor {r2_floor}"
            )
        for gamma in extra_gammas:
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
