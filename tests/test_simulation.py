"""Tests for the scenario generators and the Monte Carlo harness."""

import itertools
import math
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence
from scipy.stats import linregress, norm

from mast import runlength, simulation
from mast.core import Barriers
from mast.detectors import DetectorConfig, DetectorKind, run_stream
from mast.simulation import (
    _LANE,
    _STEP,
    DELAY_SEED_TAG,
    ExtrapolationError,
    InsufficientEventsError,
    LinearFit,
    PerformanceEstimate,
    ScenarioSpec,
    _Lanes,
    _draw,
    _estimate_pf_grid,
    _lane_rngs,
    _seed_entropy,
    estimate_delay,
    estimate_pf,
    fit_linear,
    operational_curve,
)

S1 = ScenarioSpec(1, 0.05, 0.05)
S2 = ScenarioSpec(2, 0.05, 0.05)
MAST = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(1.0, 1.0))
PAGE = DetectorConfig(DetectorKind.PAGE, 0.05, alpha=0.05)
PAIR = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(0.99, 1.02))
# the packaged scenario 1 grids
S1_MAST_GRID = [1.2, 1.6, 2.0, 2.4, 2.8, 3.2, 3.6, 4.0]
S1_PAGE_GRID = [2.0, 2.8, 3.6, 4.4, 5.2, 6.0, 6.8, 7.6]
# false-alarm sizing under which the sample cap binds the higher rows of a
# 2000-crossing target, at 1500 samples a chain (512 x 2 + 476)
CAPPED = {"_CHAINS": 300, "_MIN_CROSSINGS": 1, "_MAX_SAMPLES": 300 * 1500}


def set_constants(monkeypatch, constants):
    """Set the ``simulation`` module constants named in ``constants``."""
    for name, value in constants.items():
        monkeypatch.setattr(simulation, name, value)


def trial_samples(spec, seed, index, n, *, critical=True):
    """First ``n`` samples of the exact stream trial ``index`` consumes.

    Draws the lane's first ``n`` time rows as one ``(1, n, _LANE)`` block and
    keeps the trial's column: the engine's draws do not depend on how they
    are cut into steps, so this is what it scores.
    """
    lane = index // _LANE
    block, noise = np.empty((2, 1, n, _LANE))
    _draw(spec, _lane_rngs(seed, lane + 1, spec.scenario)[lane:], critical, block, noise)
    return block[0, :, index % _LANE].copy()


class SeedWords(ISeedSequence):
    """Hands PCG64 four given uint64 words as its ``generate_state(4, np.uint64)``."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == 4 and np.dtype(dtype) == np.uint64
        return self.words


def reference_rngs(entropy, lanes, streams):
    """Lane by lane, the generators of the documented seed layout, built
    here from ``SeedSequence`` and not by ``_lane_rngs``: the entropy is
    each entry's count of 32-bit words followed by the entry, and lane
    ``i``'s stream ``j`` is seeded with words ``8 i + 4 j`` to
    ``8 i + 4 j + 3`` of one ``generate_state(..., np.uint64)`` call."""
    prefixed = []
    for value in entropy:
        prefixed += [max(1, (value.bit_length() + 31) // 32), value]
    words = np.random.SeedSequence(prefixed).generate_state(8 * lanes, np.uint64)
    return [
        tuple(
            np.random.Generator(np.random.PCG64(SeedWords(words[k : k + 4])))
            for k in range(8 * i, 8 * i + 4 * streams, 4)
        )
        for i in range(lanes)
    ]


def advance_crossings(lanes, steps, critical=False):
    """Chain and 1-based time of every crossing over ``lanes.advance`` calls
    of ``steps`` columns each, for lanes of one threshold."""
    trials, times, done = [], [], 0
    for cols in steps:
        ((chain_of, offsets),) = lanes.advance(critical, cols)
        assert ((offsets >= 1) & (offsets <= cols)).all()
        trials.append(chain_of)
        times.append(done + offsets)
        done += cols
    return np.concatenate(trials), np.concatenate(times)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(3, 0.05, 0.05)
        with pytest.raises(ValueError):
            ScenarioSpec(1, 0.0, 0.05)
        with pytest.raises(ValueError):
            ScenarioSpec(1, 0.05, 0.0)
        # the change time belongs to the delay estimate, not to the stream
        with pytest.raises(TypeError):
            ScenarioSpec(1, 0.05, 0.05, change_time=10)


class TestTrialSamples:
    def test_zero_noise_limit_exposes_means(self):
        spec = ScenarioSpec(1, 0.05, 1e-12)
        assert np.allclose(trial_samples(spec, 1, 0, 12, critical=False), 0.95, atol=1e-9)
        assert np.allclose(trial_samples(spec, 1, 0, 12, critical=True), 1.05, atol=1e-9)

    def test_deterministic_in_seed(self):
        a = trial_samples(S2, 5, 0, 100)
        np.testing.assert_array_equal(a, trial_samples(S2, 5, 0, 100))
        np.testing.assert_array_equal(a, trial_samples(S2, [5], 0, 100))
        assert not np.array_equal(a, trial_samples(S2, 6, 0, 100))

    def test_trial_indices_give_different_streams(self):
        assert not np.array_equal(trial_samples(S2, 5, 0, 100), trial_samples(S2, 5, 1, 100))

    @pytest.mark.parametrize("spec", [S1, S2], ids=["s1", "s2"])
    @pytest.mark.parametrize("index", [0, _LANE - 1, _LANE + 3])
    def test_shorter_replay_is_a_prefix(self, spec, index):
        # a lane's draws do not depend on how many rows one call takes
        for critical in (False, True):
            whole = trial_samples(spec, 8, index, 300, critical=critical)
            for k in (1, 37, 299):
                np.testing.assert_array_equal(
                    whole[:k], trial_samples(spec, 8, index, k, critical=critical)
                )

    # the scenario-2 means are checked on one whole lane block of 4096 x 256
    # samples: trial_samples would draw 256 columns for every one it returns
    def test_scenario2_controlled_mean(self):
        # controlled means are uniform on (1 - alpha, 1): expectation 0.975
        rngs = (np.random.default_rng(77), np.random.default_rng(177))
        xs = _draw(S2, [rngs], False, *np.empty((2, 1, 4096, _LANE)))
        se = np.sqrt(0.05**2 / 12 + 0.05**2) / 1024.0
        assert abs(xs.mean() - 0.975) < 3 * se

    def test_scenario2_critical_mean(self):
        # critical means are uniform on (1, 1 + 10 alpha): expectation 1.25
        rngs = (np.random.default_rng(78), np.random.default_rng(178))
        xs = _draw(S2, [rngs], True, *np.empty((2, 1, 4096, _LANE)))
        se = np.sqrt(0.5**2 / 12 + 0.05**2) / 1024.0
        assert abs(xs.mean() - 1.25) < 3 * se


class TestSeeds:
    # a SeedSequence carries no per-lane spawn key, so it would give every
    # lane the same stream; seeds are ints or sequences of ints only
    def test_seed_sequence_rejected(self):
        seed = np.random.SeedSequence(5)
        with pytest.raises(TypeError):
            estimate_delay(S1, MAST, 4.0, 200, seed=seed)
        with pytest.raises(TypeError):
            estimate_pf(S1, MAST, 1.0, seed=seed)
        with pytest.raises(TypeError):
            trial_samples(S1, seed, 0, 10)

    # a bool is an int to Python, and a float or string converted by int()
    # would run as some other seed
    @pytest.mark.parametrize(
        "seed", [True, 2.5, "2", None, [2.5], ["2"], [1, True], [np.float64(2)]]
    )
    def test_non_int_seed_entries_rejected(self, seed):
        with pytest.raises(TypeError, match="a seed is an int or a sequence of ints"):
            _seed_entropy(seed)
        with pytest.raises(TypeError):
            estimate_delay(S1, MAST, 4.0, 10, seed=seed)

    @pytest.mark.parametrize("seed", [-1, [3, -1]])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="a seed must be >= 0"):
            estimate_delay(S1, MAST, 4.0, 10, seed=seed)

    def test_numpy_int_seeds_accepted(self):
        assert _seed_entropy(np.int64(5), 1) == [5, 1]
        assert _seed_entropy([np.uint32(5), 2]) == [5, 2]

    @pytest.mark.parametrize(
        "entropy",
        [[0], [2**32], [2**64 + 1], [1, 2, 3, 4, 5], [2**64 + 1, 7, 2**40], [9, 1, 0]],
        ids=["zero", "two-words", "three-words", "five-words", "long-multiword", "tagged"],
    )
    def test_seed_words_match_seed_sequence(self, entropy):
        # every lane is seeded with SeedSequence's own words, and a lane's
        # words do not depend on how many lanes are seeded
        rngs = _lane_rngs(entropy, 501, 2)
        assert len(rngs) == 501 and all(len(lane) == 2 for lane in rngs)
        states = [[rng.bit_generator.state for rng in lane] for lane in rngs]
        assert states == [
            [rng.bit_generator.state for rng in lane] for lane in reference_rngs(entropy, 501, 2)
        ]
        for lanes in (1, 64):
            assert [
                [rng.bit_generator.state for rng in lane] for lane in _lane_rngs(entropy, lanes, 2)
            ] == states[:lanes]
        # scenario 1 seeds only the noise, with scenario 2's noise words
        assert [[lane[0].bit_generator.state] for lane in _lane_rngs(entropy, 3, 1)] == [
            lane[:1] for lane in states[:3]
        ]

    @pytest.mark.parametrize(
        "seed, alias",
        [([42949672961, DELAY_SEED_TAG, 0], [1, 10, DELAY_SEED_TAG, 0]), ([5], [5, 0]),
         ([2**64], [0, 0, 1])],
        ids=["seed-and-curve-tag", "zero-padding", "three-words"],
    )
    def test_aliasing_seeds_give_different_streams(self, seed, alias):
        # SeedSequence alone flattens each pair into the same 32-bit words
        # (42949672961 is 10 * 2**32 + 1) and pads them with zeros
        words = [np.random.SeedSequence(s).generate_state(8) for s in (seed, alias)]
        assert np.array_equal(*words)
        for ours, theirs in zip(_lane_rngs(seed, 2, 2), _lane_rngs(alias, 2, 2)):
            for a, b in zip(ours, theirs):
                assert a.bit_generator.state != b.bit_generator.state
        assert not np.array_equal(trial_samples(S2, seed, 0, 50), trial_samples(S2, alias, 0, 50))

    def test_lane_generators_match_default_rng(self):
        # lane 0's noise generator is numpy's default_rng on the
        # word-counted entropy, and every lane's generators draw what
        # PCG64s seeded with the reference words draw
        rngs = _lane_rngs([7, 3], 5, 2)
        assert len(rngs) == 5 and all(len(lane) == 2 for lane in rngs)
        ((noise,),) = _lane_rngs([7, 3], 1, 1)
        np.testing.assert_array_equal(
            noise.standard_normal(9),
            np.random.default_rng(np.random.SeedSequence([1, 7, 1, 3])).standard_normal(9),
        )
        reference = reference_rngs([7, 3], 5, 2)
        for lane in (0, 4):
            for stream in range(2):
                np.testing.assert_array_equal(
                    rngs[lane][stream].standard_normal(9),
                    reference[lane][stream].standard_normal(9),
                )

    def test_pinned_estimates(self, monkeypatch):
        # exact outputs of the draw layout at fixed seeds: a change to the
        # layout must update them on purpose
        delay = estimate_delay(S2, MAST, 1.5, 200, seed=17, change_time=70)
        assert delay == PerformanceEstimate(
            gamma=1.5, n_trials=200, mean_delay=1.2, delay_se=0.03170213124741207
        )
        # every delay of the pin above is 1, 2 or 3, so a new layout can
        # keep its counts; these spread over a dozen values (the layout
        # before seeds carried their word counts gave 5.7 here)
        spread = estimate_delay(S1, MAST, 4.0, 200, seed=17)
        assert spread == PerformanceEstimate(
            gamma=4.0, n_trials=200, mean_delay=5.515, delay_se=0.2077611573236497
        )
        monkeypatch.setattr(simulation, "_CHAINS", 16)
        pf = estimate_pf(S1, PAGE, 2.0, seed=[3, 1], target_crossings=300)
        assert pf == PerformanceEstimate(
            gamma=2.0, n_trials=440, pf=0.02685546875, pf_se=0.0012894945499407392,
            observed_steps=16384,
        )
        # plain Python numbers, so that callers can serialise an estimate
        for est in (delay, spread, pf):
            assert all(type(v) in (int, float, type(None)) for v in vars(est).values())


class TestEstimateDelay:
    def test_zero_threshold_delay_is_about_one(self):
        est = estimate_delay(S1, PAGE, 0.0, 4000, seed=42)
        assert 1.0 <= est.mean_delay < 1.5
        assert est.n_censored == 0

    def test_monotone_in_gamma(self):
        means = [
            estimate_delay(S1, PAGE, g, 3000, seed=15).mean_delay
            for g in (0.0, 2.0, 4.0)
        ]
        assert means[0] < means[1] < means[2]

    def test_se_shrinks_with_sqrt_trials(self):
        a = estimate_delay(S1, PAGE, 3.0, 2000, seed=11)
        b = estimate_delay(S1, PAGE, 3.0, 4000, seed=11)
        assert 1.25 < a.delay_se / b.delay_se < 1.6

    def test_deterministic_and_parallel_identical(self):
        one = estimate_delay(S2, MAST, 2.0, 500, seed=9)
        two = estimate_delay(S2, MAST, 2.0, 500, seed=9)
        assert one == two

    @pytest.mark.parametrize("change_time", [1, 100], ids=["zero-start", "run-in"])
    @pytest.mark.parametrize(
        "spec, cfg, far_gamma", [(S1, PAGE, 20.0), (S2, MAST, 100.0)], ids=["s1", "s2"]
    )
    def test_chunk_schedule_leaves_estimate_alone(
        self, monkeypatch, spec, cfg, far_gamma, change_time
    ):
        # change time 100: the run-in ends inside a step of 512 or of 7
        # samples (14 x 7 + 1); 300 trials make a whole lane and a partial
        # one.  The explicit horizon 11 ends inside a step of 512 or of 7
        # (7 + 4) and inside a block, and censors some trials at far_gamma.
        def run(gamma=4.0, horizon=None):
            return estimate_delay(
                spec, cfg, gamma, 300, seed=31, change_time=change_time, horizon=horizon
            )

        def censored():
            with pytest.warns(UserWarning, match="counted at the horizon"):
                return run(far_gamma, horizon=11)

        packaged, packaged_censored = run(), censored()
        assert 0 < packaged_censored.n_censored < 300
        for step in (1, 7):
            monkeypatch.setattr(simulation, "_STEP", step)
            assert repr(run()) == repr(packaged)
            assert repr(censored()) == repr(packaged_censored)

    def test_adaptive_horizon_leaves_estimate_alone(self, monkeypatch):
        # horizon=None: this pair alarms after about 3,000 samples, so the
        # horizon is checked between many steps of 512 or of 7 samples
        pair = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(1.15, 1.15))
        packaged = repr(estimate_delay(S1, pair, 1.0, 300, seed=4))
        monkeypatch.setattr(simulation, "_STEP", 7)
        assert repr(estimate_delay(S1, pair, 1.0, 300, seed=4)) == packaged

    @pytest.mark.parametrize(
        "estimate",
        [lambda gamma: estimate_delay(S1, MAST, gamma, 10, seed=0),
         lambda gamma: estimate_pf(S1, MAST, gamma, seed=0)],
        ids=["delay", "pf"],
    )
    def test_rejects_infinite_gamma_before_drawing(self, monkeypatch, estimate):
        # no chain crosses at inf: the delay trials would run to the
        # 1 M-sample cap, the pf chains to the 200 M-sample one
        def unbuilt(*args, **kwargs):
            raise AssertionError("chains built before gamma was checked")

        monkeypatch.setattr(simulation, "_Lanes", unbuilt)
        with pytest.raises(ValueError, match="a measured gamma must be finite, got inf"):
            estimate(math.inf)

    def test_matches_reference_detector(self):
        # engine delays averaged over trials == replaying each trial's own
        # stream through the single-sample detector (every trial alarms
        # within the 640 replayed samples, or the mean of None fails)
        for spec, cfg in [(S1, MAST), (S1, PAGE), (S2, MAST), (S2, PAGE)]:
            for gamma in (0.0, 1.5, 4.0):
                est = estimate_delay(spec, cfg, gamma, 25, seed=123)
                reference = []
                for trial in range(25):
                    xs = trial_samples(spec, 123, trial, 640, critical=True)
                    reference.append(run_stream(xs, cfg, gamma).alarm_index)
                assert est.mean_delay == pytest.approx(np.mean(reference), abs=1e-12)
        # 300 trials fill one lane and part of a second: the lanes' own
        # delays make up the estimate, each trial alarms once, and the
        # trials at the lane edges alarm where their replayed rows do
        spec, n_trials, gamma = S2, 300, 4.0
        est = estimate_delay(spec, MAST, gamma, n_trials, seed=123)
        delays = np.zeros(n_trials, dtype=int)
        lanes = _Lanes(spec, [(MAST, gamma)], 123, n_trials)
        done = 0
        while lanes.lanes.size:
            ((trials, offsets),) = lanes.advance(True, _STEP)
            assert not delays[trials].any()
            delays[trials] = done + offsets
            done += _STEP
        assert delays.all()
        assert est.mean_delay == pytest.approx(delays.mean(), abs=1e-12)
        for trial in (0, _LANE - 1, _LANE, n_trials - 1):
            xs = trial_samples(S2, 123, trial, 640, critical=True)
            assert delays[trial] == run_stream(xs, MAST, gamma).alarm_index

    def test_run_in_matches_reference_replay(self):
        # change_time 100: the run-in draws exactly 99 controlled samples,
        # ending inside its first step, and the post-change part
        # starts with the lane's very next draw.  The barrier at the
        # controlled mean keeps the run-in statistic near the threshold, so
        # the resets decide where the post-change part starts.
        nu, n_trials = 100, 30
        at_mean = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(0.95, 0.95))
        for spec, cfg in [(S1, MAST), (S1, PAGE), (S2, MAST), (S1, at_mean)]:
            for gamma in (0.5, 2.0, 8.0):
                est = estimate_delay(spec, cfg, gamma, n_trials, seed=61, change_time=nu)
                # the lane's generators, seeded here independently of the engine
                (rngs,) = reference_rngs([61], 1, spec.scenario)
                pre = _draw(spec, [rngs], False, *np.empty((2, 1, nu - 1, _LANE)))[0].T
                post = _draw(spec, [rngs], True, *np.empty((2, 1, 3200, _LANE)))[0].T
                reference = []
                for trial in range(n_trials):
                    t = 0.0
                    for d in cfg.increment(pre[trial]).tolist():
                        t = max(0.0, t + d)
                        if t > gamma:
                            t = 0.0
                    for n, d in enumerate(cfg.increment(post[trial]).tolist(), 1):
                        t = max(0.0, t + d)
                        if t > gamma:
                            reference.append(n)
                            break
                assert len(reference) == n_trials
                assert est.mean_delay == pytest.approx(np.mean(reference), abs=1e-12)

    def test_censoring_counts_at_horizon(self):
        # a threshold far out of reach within the horizon censors every trial
        with pytest.warns(UserWarning, match="counted at the horizon"):
            est = estimate_delay(S1, MAST, 500.0, 50, seed=3, horizon=64)
        assert est.n_censored == 50
        assert est.mean_delay == 64.0

    def test_run_in_state_carries_over(self):
        est = estimate_delay(S1, MAST, 2.0, 400, seed=21, change_time=40)
        again = estimate_delay(S1, MAST, 2.0, 400, seed=21, change_time=40)
        assert est == again
        assert est.mean_delay >= 1.0

    def test_run_in_memory_does_not_grow_with_its_length(self):
        # a run-in that never crosses keeps nothing per block, so ten times
        # the columns peak within 8 KiB of each other; an untraced first
        # call makes the allocations that happen only once in a process
        _Lanes(S1, [(MAST, 1e9)], 1, 100).advance(False, 20_000)
        peaks = []
        for cols in (2_000, 20_000):
            lanes = _Lanes(S1, [(MAST, 1e9)], 1, 100)
            tracemalloc.start()
            try:
                ((chains, offsets),) = lanes.advance(False, cols)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert chains.size == offsets.size == 0
        assert abs(peaks[1] - peaks[0]) < 8192

    def test_crossing_run_in_memory_does_not_grow_with_its_length(self):
        # at gamma 2 a chain crosses about once in 600 controlled samples;
        # the run-in drops its crossings after every step of _STEP
        # columns, so ten times the change time peaks within 64 KiB
        estimate_delay(S1, MAST, 2.0, 100, seed=1, change_time=5_000)
        peaks = []
        for change_time in (5_000, 50_000):
            tracemalloc.start()
            try:
                estimate_delay(S1, MAST, 2.0, 100, seed=1, change_time=change_time)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 65536

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_delay(S1, MAST, -1.0, 10, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            estimate_delay(S1, MAST, float("nan"), 10, seed=0)
        with pytest.raises(ValueError):
            estimate_delay(S1, MAST, 1.0, 0, seed=0)

    # a bool is an int to Python, and True must not run as change time 1
    @pytest.mark.parametrize("change_time", [0, -3, True, 2.5, 100.0, None])
    def test_rejects_bad_change_time(self, change_time):
        with pytest.raises(ValueError, match="change_time must be an integer >= 1"):
            estimate_delay(S1, MAST, 1.0, 10, seed=0, change_time=change_time)


class TestEstimatePf:
    def test_zero_threshold_matches_gaussian_tail(self):
        # at gamma=0 every positive increment crosses: pf -> Phi(-alpha/sigma)
        est = estimate_pf(S1, MAST, 0.0, seed=42)
        assert abs(est.pf - norm.cdf(-1.0)) < 3 * est.pf_se

    def test_monotone_in_gamma(self):
        pfs = [
            estimate_pf(S1, PAGE, g, seed=13, target_crossings=3000).pf
            for g in (0.5, 1.5, 3.0)
        ]
        assert pfs[0] > pfs[1] > pfs[2]

    def test_deterministic_and_parallel_identical(self):
        one = estimate_pf(S2, MAST, 1.0, seed=4, target_crossings=2000)
        two = estimate_pf(S2, MAST, 1.0, seed=4, target_crossings=2000)
        assert one == two

    def test_concurrent_calls_under_fast_switching_match(self, monkeypatch):
        # three calls at once, switching threads every few microseconds:
        # they share _generator_factory's cache, and each must still draw
        # what it draws alone
        set_constants(monkeypatch, {"_CHAINS": 600, "_MIN_CROSSINGS": 1, "_MAX_SAMPLES": 600 * 700})
        calls = [(S1, MAST, 1.0, 1), (S2, PAIR, 1.0, 2), (S2, PAGE, 2.0, 3)]
        serial = [estimate_pf(spec, cfg, g, seed=seed, target_crossings=10**9)
                  for spec, cfg, g, seed in calls]
        found = [None] * len(calls)

        def run(i):
            spec, cfg, g, seed = calls[i]
            found[i] = estimate_pf(spec, cfg, g, seed=seed, target_crossings=10**9)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert found == serial

    @pytest.mark.parametrize("spec, cfg", [(S1, PAGE), (S2, MAST)], ids=["s1", "s2"])
    def test_chunk_schedule_leaves_estimate_alone(self, monkeypatch, spec, cfg):
        # the sample cap binds before the target, so both schedules observe
        # 1000 samples per chain (512 + 488, or 10 x 96 + 40); the target
        # check between steps would otherwise stop them at different times
        def run():
            return repr(estimate_pf(spec, cfg, 2.0, seed=32, target_crossings=10**9))

        set_constants(monkeypatch, {"_CHAINS": 300, "_MIN_CROSSINGS": 1, "_MAX_SAMPLES": 300_000})
        packaged = run()
        monkeypatch.setattr(simulation, "_STEP", 96)
        assert run() == packaged

    @pytest.mark.parametrize(
        "spec, cfg, gamma, target",
        [
            (S1, MAST, 0.0, 60_000), (S1, MAST, 2.0, 600),
            (S1, PAGE, 0.0, 60_000), (S1, PAGE, 2.0, 10_000),
            (S2, MAST, 0.0, 120_000), (S2, MAST, 2.0, 5_000),
            (S2, PAGE, 0.0, 120_000), (S2, PAGE, 2.0, 35_000),
        ],
        ids=["s1-mast-0", "s1-mast-2", "s1-page-0", "s1-page-2",
             "s2-mast-0", "s2-mast-2", "s2-page-0", "s2-page-2"],
    )
    def test_substep_schedule_leaves_estimate_alone(self, monkeypatch, spec, cfg, gamma, target):
        # the target binds after two or three whole steps; blocks of 7
        # lane columns split the two lanes' 512-sample steps into 3-column
        # blocks, and the crossings and the statistic carried across them
        # must not depend on that split
        n_chains = 300
        monkeypatch.setattr(simulation, "_CHAINS", n_chains)

        def run():
            return estimate_pf(spec, cfg, gamma, seed=33, target_crossings=target)

        packaged = run()
        assert packaged.n_trials >= target
        assert packaged.observed_steps > n_chains * _STEP
        monkeypatch.setattr(simulation, "_BLOCK", _LANE * 7)
        assert repr(run()) == repr(packaged)

    def test_pf_is_reciprocal_mean_crossing_time(self):
        est = estimate_pf(S1, PAGE, 1.0, seed=8, target_crossings=2000)
        assert est.pf == pytest.approx(est.n_trials / est.observed_steps)

    def test_matches_reference_monitor(self, monkeypatch):
        # same streams through the single-sample detector in monitor mode:
        # every chain's crossing indices and final statistic, and the
        # estimate built from the crossings.  An unreachable target makes
        # the sample cap fix the run length.
        n_chains, per_chain, gamma = 6, 2000, 1.0
        sizing = {"_CHAINS": n_chains, "_MIN_CROSSINGS": 1, "_MAX_SAMPLES": n_chains * per_chain}
        set_constants(monkeypatch, sizing)
        est = estimate_pf(S2, MAST, gamma, seed=55, target_crossings=10**9)
        lanes = _Lanes(S2, [(MAST, gamma)], 55, n_chains)
        steps = [min(_STEP, per_chain - done) for done in range(0, per_chain, _STEP)]
        trials, times = advance_crossings(lanes, steps)
        intervals = []
        for chain in range(n_chains):
            xs = trial_samples(S2, 55, chain, per_chain, critical=False)
            report = run_stream(xs, MAST, gamma, monitor=True)
            assert sorted(times[trials == chain].tolist()) == report.crossings
            assert lanes.stat[0, 0, chain] == report.final_state.statistic
            intervals.extend(np.diff(report.crossings, prepend=0).tolist())
        crossings = len(intervals)
        assert est.n_trials == crossings
        assert est.pf == crossings / (n_chains * per_chain)
        intervals = np.array(intervals, dtype=float)
        cv = float(intervals.std(ddof=1) / intervals.mean())
        assert est.pf_se == est.pf * cv / math.sqrt(crossings)
        # 300 chains fill one lane and part of a second: the chains at the
        # lane edges cross where their replayed rows do
        n_chains, per_chain = 300, 1000
        set_constants(monkeypatch, {"_CHAINS": n_chains, "_MAX_SAMPLES": n_chains * per_chain})
        est = estimate_pf(S2, MAST, gamma, seed=55, target_crossings=10**9)
        lanes = _Lanes(S2, [(MAST, gamma)], 55, n_chains)
        trials, times = advance_crossings(lanes, [_STEP, per_chain - _STEP])
        assert est.n_trials == trials.size
        for chain in (0, _LANE - 1, _LANE, n_chains - 1):
            xs = trial_samples(S2, 55, chain, per_chain, critical=False)
            report = run_stream(xs, MAST, gamma, monitor=True)
            assert sorted(times[trials == chain].tolist()) == report.crossings
            assert lanes.stat.reshape(-1)[chain] == report.final_state.statistic

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="target_crossings"):
            estimate_pf(S1, MAST, 2.0, seed=0, target_crossings=0)

    def test_insufficient_events(self, monkeypatch):
        # the sample cap stops the chains short of both the target and the
        # crossing floor (the solver's refusal is turned off)
        set_constants(monkeypatch, {"_CHAINS": 8, "_MAX_SAMPLES": 20_000, "_REACH_SDS": math.inf})
        with pytest.raises(InsufficientEventsError, match=r"only 0 crossings .*need >= 100\)"):
            estimate_pf(S1, MAST, 50.0, seed=1)

    def test_unreachable_gamma_fails_before_any_chain(self, monkeypatch):
        # at gamma 60 the solver expects 1e-24 crossings within the cap
        def unbuilt(*args, **kwargs):
            raise AssertionError("chains built at an unreachable gamma")

        monkeypatch.setattr(simulation, "_Lanes", unbuilt)
        with pytest.raises(InsufficientEventsError, match=r"expects .* crossings .*need >= 100\)"):
            estimate_pf(S1, MAST, 60.0, seed=1)

    @pytest.mark.parametrize("expected, refused", [(40.0, True), (70.0, False)])
    def test_fails_fast_only_far_below_the_floor(self, monkeypatch, expected, refused):
        # a cap that holds `expected` crossings by the solver's rate: 100 is
        # 9.5 Poisson sds above 40 crossings, but only 3.6 above 70, so the
        # chains run there and the cap stops them short
        pf = 10.0 ** runlength.log10_pf(MAST, 4.0, S1.means(False), S1.sigma)[0]
        set_constants(monkeypatch, {"_CHAINS": 8, "_MAX_SAMPLES": round(expected / pf)})
        built = []
        monkeypatch.setattr(simulation, "_Lanes", lambda *a: built.append(1) or _Lanes(*a))
        with pytest.raises(InsufficientEventsError, match="need >= 100") as err:
            estimate_pf(S1, MAST, 4.0, seed=1)
        assert bool(built) is not refused
        assert str(err.value).startswith("the run-length solver" if refused else "only ")

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            estimate_pf(S1, MAST, gamma, seed=0)

    @pytest.mark.parametrize("config, gamma", [(MAST, 4.0), (PAGE, 2.0)], ids=["mast", "page"])
    def test_memory_within_six_lane_blocks(self, config, gamma):
        # a step draws into two blocks of _BLOCK floats, samples and S2's
        # noise, and marks crossings in a bool block of that shape; the
        # rest is the statistic, its limits and the results.  MAST at
        # gamma 4 crosses in few chains, Page at gamma 2 in many.
        lane_block = _LANE * _STEP * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            est = estimate_pf(S1, config, gamma, seed=1, target_crossings=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_trials >= 500
        assert peak <= 6 * lane_block

    def test_two_detector_grid_memory_within_eight_lane_blocks(self):
        # a curve's 16 pf rows on one set of chains: two blocks of floats,
        # the samples and the first detector's scores, and a bool block of
        # crossings for every eight rows; the rest is the statistic, its
        # limits and the running rows' crossings
        lane_block = _LANE * _STEP * np.dtype(float).itemsize
        rows = [(MAST, g) for g in S1_MAST_GRID] + [(PAGE, g) for g in S1_PAGE_GRID]
        tracemalloc.start()
        try:
            grid = _estimate_pf_grid(S1, rows, 1, target_crossings=500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert min(est.n_trials for est in grid) >= 500
        assert peak <= 8 * lane_block

    def test_delay_memory_within_eight_lane_blocks(self):
        # the benchmark's delay-s2 call: 196 lanes draw a 2-column block
        # of at most _BLOCK samples at a time, not a whole step
        lane_block = _LANE * _STEP * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            est = estimate_delay(S2, MAST, 5.0, 50_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_trials == 50_000 and est.n_censored == 0
        assert peak <= 8 * lane_block

    @pytest.mark.parametrize("n_chains", [300, 65_536, 65_537])
    def test_chain_sort_keeps_each_chains_times_in_order(self, monkeypatch, n_chains):
        # _pf_estimate orders a row's crossings by a stable sort on the
        # chain alone, 16 bits wide up to 65,536 chains: each chain's come
        # in increasing time, so that is their (chain, time) order, and the
        # estimate is that of the crossings given in that order
        seen = []
        estimate = simulation._pf_estimate

        def spy(gamma, chains, times, *observed):
            seen.append((gamma, chains, times, observed))
            return estimate(gamma, chains, times, *observed)

        monkeypatch.setattr(simulation, "_pf_estimate", spy)
        set_constants(monkeypatch, {"_STEP": 16, "_CHAINS": n_chains, "_MIN_CROSSINGS": 1,
                                    "_MAX_SAMPLES": n_chains * 40})
        grid = _estimate_pf_grid(S1, [(PAGE, 0.0), (MAST, 1.0)], 3, target_crossings=10**9)
        for (gamma, chains, times, observed), est in zip(seen, grid):
            assert np.unique(chains).size < chains.size
            order = np.lexsort((times, chains))
            key = chains.astype(np.min_scalar_type(n_chains - 1))
            assert key.itemsize == (2 if n_chains <= 65_536 else 4)
            assert np.array_equal(np.argsort(key, kind="stable"), order)
            assert estimate(gamma, chains[order], times[order], *observed) == est

    def test_explicit_horizon_observed_steps(self, monkeypatch):
        set_constants(monkeypatch, {"_CHAINS": 4, "_MIN_CROSSINGS": 1, "_MAX_SAMPLES": 4096})
        est = estimate_pf(S1, MAST, 0.5, seed=2, target_crossings=10**9)
        assert est.observed_steps == 4096


class TestEstimatePfGrid:
    """One set of chains for a whole grid: every row is the lone estimate."""

    @pytest.mark.parametrize(
        "spec, rows, target, capped",
        [
            # the packaged S1 Page grid: the rows stop after 1, 3 and 5 steps
            (S1, [(PAGE, g) for g in S1_PAGE_GRID], 500, None),
            (S2, [(MAST, g) for g in (2.0, 3.0, 4.0, 3.0)], 400, None),
            (S1, [(PAIR, g) for g in (1.0, 2.0, 3.0)], 300, None),
            (S1, [(MAST, g) for g in (0.5, 2.0, 3.0, 4.0)], 2000, {MAST: 3}),
            # both detectors of a packaged curve, each block scored twice
            (S1, [(MAST, g) for g in S1_MAST_GRID] + [(PAGE, g) for g in S1_PAGE_GRID], 500, None),
            # gamma 2 and 3 in both detectors' lists
            (S2, [(PAIR, g) for g in (1.0, 2.0, 3.0)] + [(PAGE, g) for g in (2.0, 3.0, 5.0)],
             300, None),
            (S1, [(MAST, g) for g in (0.5, 4.0)] + [(PAGE, g) for g in (0.5, 2.0, 8.0)], 2000,
             {MAST: 1, PAGE: 1}),
            (S1, [(PAGE, g) for g in (0.5, 2.0, 8.0)] + [(MAST, g) for g in (0.5, 4.0)], 2000,
             {MAST: 1, PAGE: 1}),
        ],
        ids=["s1-page-packaged", "s2-mast", "s1-pair", "max-steps", "s1-mast-page-packaged",
             "s2-pair-page", "max-steps-mast-page", "max-steps-page-mast"],
    )
    def test_rows_match_lone_estimates(self, monkeypatch, spec, rows, target, capped):
        if capped is not None:
            set_constants(monkeypatch, CAPPED)
        grid = _estimate_pf_grid(spec, rows, [5, 2], target_crossings=target)
        lone = [estimate_pf(spec, cfg, g, seed=[5, 2], target_crossings=target) for cfg, g in rows]
        assert grid == lone
        steps = {-(-est.observed_steps // (simulation._CHAINS * _STEP)) for est in grid}
        if spec is S1 and rows[0][0] is PAGE and capped is None:
            assert {1, 3, 5} <= steps
        if capped is not None:
            # the cap binds each detector's top ``capped[cfg]`` rows, and its
            # lower rows meet the target before it
            cap = CAPPED["_MAX_SAMPLES"]
            for cfg, n in capped.items():
                observed = [est.observed_steps for (c, _), est in zip(rows, grid) if c is cfg]
                assert observed[-n:] == [cap] * n
                assert max(observed[:-n]) < cap

    def test_first_short_gamma_raises_lone_message(self, monkeypatch):
        # the lone estimate's chains run, with the solver's refusal off
        set_constants(monkeypatch, {"_CHAINS": 8, "_MAX_SAMPLES": 20_000, "_REACH_SDS": math.inf})
        with pytest.raises(InsufficientEventsError) as lone:
            estimate_pf(S1, MAST, 50.0, seed=1)
        with pytest.raises(InsufficientEventsError) as grid:
            _estimate_pf_grid(S1, [(MAST, g) for g in (0.5, 50.0, 60.0)], 1)
        assert str(grid.value) == str(lone.value)

    @pytest.mark.parametrize(
        "rows, short",
        [([(MAST, 0.5), (MAST, 50.0), (PAGE, 0.5), (PAGE, 60.0)], (MAST, 50.0)),
         ([(PAGE, 0.5), (PAGE, 60.0), (MAST, 0.5), (MAST, 50.0)], (PAGE, 60.0)),
         ([(MAST, 0.5), (MAST, 1.0), (PAGE, 0.5), (PAGE, 60.0)], (PAGE, 60.0))],
        ids=["mast-first", "page-first", "second-detector"],
    )
    def test_first_short_row_named_with_its_detector(self, monkeypatch, rows, short):
        # the first short row in detector-then-grid order raises, and its
        # message is the lone estimate's, naming the detector; the lone
        # estimate's chains run, with the solver's refusal off
        set_constants(monkeypatch, {"_CHAINS": 8, "_MAX_SAMPLES": 20_000, "_REACH_SDS": math.inf})
        with pytest.raises(InsufficientEventsError) as lone:
            estimate_pf(S1, *short, seed=1)
        with pytest.raises(InsufficientEventsError) as grid:
            _estimate_pf_grid(S1, rows, 1)
        assert str(grid.value) == str(lone.value)
        assert f"at gamma={short[1]} for {short[0].kind.value} (need" in str(grid.value)

    @settings(max_examples=40, deadline=None)
    @given(
        gammas=st.lists(st.floats(0.0, 6.0), min_size=2, max_size=5).map(sorted),
        seed=st.integers(0, 2**40),
        n_chains=st.integers(1, 300),
        per_chain=st.integers(1, 1200),
    )
    @pytest.mark.parametrize(
        "spec, cfg", [(S1, MAST), (S1, PAGE), (S2, PAIR)], ids=["s1-mast", "s1-page", "s2-pair"]
    )
    def test_crossings_fall_with_gamma(self, spec, cfg, gammas, seed, n_chains, per_chain):
        # on shared samples, each interval from a reset of the statistic for
        # a higher threshold b to its crossing holds a crossing of a lower
        # one a: the statistic for a starts it at or above that for b and
        # follows the same monotone recursion.  Independent streams per
        # threshold would break this.  Fixtures are not reset between
        # examples, so the sizing is patched for each one.
        sizing = {"_CHAINS": n_chains, "_MIN_CROSSINGS": 0, "_MAX_SAMPLES": n_chains * per_chain}
        with pytest.MonkeyPatch.context() as mp:
            set_constants(mp, sizing)
            grid = _estimate_pf_grid(spec, [(cfg, g) for g in gammas], seed, target_crossings=10**9)
        counts = [est.n_trials for est in grid]
        assert counts == sorted(counts, reverse=True)
        assert {est.observed_steps for est in grid} == {n_chains * per_chain}


@st.composite
def monitor_runs(draw):
    """Rows of samples ``1 + k/8``, the lane columns of one engine block,
    the samples each ``advance`` call takes, and a threshold that is a
    multiple of 1/8."""
    block = draw(st.integers(1, 8))
    steps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n_rows = draw(st.integers(1, 4))
    ks = draw(
        st.lists(
            st.lists(st.integers(-24, 24), min_size=sum(steps), max_size=sum(steps)),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    return 1.0 + np.array(ks) / 8.0, block, steps, draw(st.integers(0, 24)) / 8.0


def block_ends(steps, block, critical):
    """Sample counts at which one lane's blocks end over ``advance`` calls
    of ``steps`` columns, for blocks of at most ``block`` columns.  The
    critical regime also cuts a block to at most ``max(2, c // 2)``
    columns after ``c`` columns."""
    ends, done = [], 0
    for cols in steps:
        stop = done + cols
        while done < stop:
            if critical:
                done += min(stop - done, block, max(2, done // 2))
            else:
                done += min(stop - done, block)
            ends.append(done)
    return ends


class TestMonitorKernel:
    # Page(0.5, 1) scores a sample 1 + k/8 as exactly k/8, so every partial
    # sum is exact and the engine must agree with the reference exactly
    PAGE_EXACT = DetectorConfig(DetectorKind.PAGE, 1.0, alpha=0.5)
    # a sample scoring 25/8 crosses every threshold of monitor_runs at once
    FILLER = 1.0 + 25 / 8

    @settings(max_examples=300, deadline=None)
    @given(run=monitor_runs())
    @example(run=(1.0 + np.array([[1, 1, 1, 0, 0, 9]]) / 8.0, 3, [3, 3], 0.25))  # last column
    @example(run=(1.0 + np.array([[1, -1, 2], [0, 3, -2]]) / 8.0, 2, [2, 1], 0.0))  # gamma 0
    # rows 0 and 1 cross twice in the first call, the second time on its
    # last column, so the next call starts them at 0
    @example(
        run=(
            1.0 + np.array([[3, 0, 0, 3, 1, 1, 1, 0], [0, 3, 0, 3, 2, 0, 0, 1],
                            [0, 0, 0, 3, -1, 2, 1, 0]]) / 8.0,
            4, [4, 4], 0.25,
        )
    )
    # calls longer than a block: the statistic carries across block ends
    @example(run=(1.0 + np.array([[3, 1, 1, 1, 0, 0], [1, 1, 3, -1, 2, 2]]) / 8.0, 2, [6], 0.25))
    def test_matches_run_stream(self, run):
        samples, block, steps, gamma = run
        n_rows, total = samples.shape
        # the lane is drawn time-major; the columns past the rows hold
        # samples that cross at once, as trials or as padding
        lane = np.full((total, _LANE), self.FILLER)
        lane[:, :n_rows] = samples.T
        filler = np.full(total, self.FILLER)
        for retire, n_trials in itertools.product((False, True), (n_rows, _LANE)):
            drawn = 0

            def draw(spec, rngs, critical, out, noise):
                nonlocal drawn
                cols = out.shape[1]
                assert critical == retire and out.shape == noise.shape == (1, cols, _LANE)
                assert drawn + cols in block_ends(steps, block, retire)
                out[0] = lane[drawn : drawn + cols]
                noise[...] = np.nan  # scratch: nothing may read it after the draw
                drawn += cols
                return out

            lanes = _Lanes(S1, [(self.PAGE_EXACT, gamma)], 0, n_trials)
            with mock.patch.multiple(simulation, _draw=draw, _BLOCK=block * _LANE):
                trials, times = advance_crossings(lanes, steps, critical=retire)
            # padding never crosses
            assert not np.isin(trials, np.arange(n_trials, _LANE)).any()
            rows = list(samples) + [filler] * (n_trials - n_rows)
            alarms = []
            for i, row in enumerate(rows):
                report = run_stream(row, self.PAGE_EXACT, gamma, monitor=not retire)
                crossings = times[trials == i].tolist()
                if retire:
                    alarms.append(report.alarm_index)
                    assert crossings == [a for a in alarms[-1:] if a is not None]
                else:
                    assert sorted(crossings) == report.crossings
                    assert lanes.stat[0, 0, i] == report.final_state.statistic
            if retire and None not in alarms:
                # a lane with no live trial is not drawn again
                ends = block_ends(steps, block, retire)
                assert drawn == min(e for e in ends if e >= max(alarms))
                assert lanes.lanes.size == 0
            else:
                assert drawn == total

    @settings(max_examples=25, deadline=None)
    @given(
        block=st.integers(1, 9),
        steps=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        gamma=st.sampled_from([0.0, 0.5, 2.0]),
        retire=st.booleans(),
    )
    @pytest.mark.parametrize(
        "spec, cfg", [(S1, MAST), (S1, PAGE), (S2, MAST), (S2, PAIR)],
        ids=["s1-mast", "s1-page", "s2-mast", "s2-pair"],
    )
    def test_drawn_samples_match_run_stream(self, spec, cfg, block, steps, gamma, retire):
        # real draws, whose sums round: the engine and run_stream run the
        # same recursion on the same increments, so they agree exactly.
        # 300 chains make two lanes, and the chains at their edges are
        # replayed
        total = sum(steps)
        lanes = _Lanes(spec, [(cfg, gamma)], 7, 300)
        with mock.patch.object(simulation, "_BLOCK", block * _LANE):
            trials, times = advance_crossings(lanes, steps, critical=retire)
        for chain in (0, _LANE - 1, _LANE, 299):
            xs = trial_samples(spec, 7, chain, total, critical=retire)
            report = run_stream(xs, cfg, gamma, monitor=not retire)
            crossings = times[trials == chain].tolist()
            if retire:
                assert crossings == [a for a in [report.alarm_index] if a is not None]
            else:
                assert sorted(crossings) == report.crossings
                assert lanes.stat.reshape(-1)[chain] == report.final_state.statistic


    def test_many_lane_blocks_are_full_and_match_one_draw(self, monkeypatch):
        # a delay run-in of 50,000 trials: 196 lanes draw blocks of _BLOCK
        # samples at most, two columns each, that end to end are one _draw
        lanes = _Lanes(S2, [(MAST, 5.0)], 1, 50_000)
        scored, increment = [], DetectorConfig.increment

        def scoring(config, x, out=None):
            scored.append(x.copy())
            return increment(config, x, out=out)

        monkeypatch.setattr(DetectorConfig, "increment", scoring)
        lanes.advance(False, 29)
        assert [block.shape[1] for block in scored] == [2] * 14 + [1]
        count = lanes.lanes.size
        serial, noise = np.empty((2, count, 29, _LANE))
        _draw(S2, _lane_rngs(1, count, 2), False, serial, noise)
        assert np.array_equal(np.concatenate(scored, axis=1), serial)

    def test_two_detectors_in_scenario_2_match_run_stream(self):
        # two lanes make 256-column controlled blocks; the first detector
        # scores each block into buf's second row, where scenario 2's noise
        # was drawn
        rows, steps = [(PAIR, 1.0), (PAGE, 2.0)], [_STEP, 300]
        lanes = _Lanes(S2, rows, 9, 300)
        found = [([], []) for _ in rows]
        done = 0
        for cols in steps:
            for (chains, times), (chain_of, offsets) in zip(found, lanes.advance(False, cols)):
                chains.append(chain_of)
                times.append(done + offsets)
            done += cols
        for chain in (0, _LANE - 1, _LANE, 299):
            xs = trial_samples(S2, 9, chain, done, critical=False)
            for r, ((cfg, gamma), (chains, times)) in enumerate(zip(rows, found)):
                chains, times = np.concatenate(chains), np.concatenate(times)
                report = run_stream(xs, cfg, gamma, monitor=True)
                assert report.crossings
                assert sorted(times[chains == chain].tolist()) == report.crossings
                assert lanes.stat[r].reshape(-1)[chain] == report.final_state.statistic


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([(g, 2.0 * g + 1.0) for g in (0.0, 1.0, 2.0, 3.0)])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_outlier_lowers_r_squared(self):
        points = [(float(g), 2.0 * g + 1.0) for g in range(10)]
        points[4] = (4.0, 20.0)
        assert fit_linear(points).r_squared < 1.0

    def test_needs_three_distinct_gammas(self):
        with pytest.raises(ValueError):
            fit_linear([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            fit_linear([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])

    def test_matches_scipy_linregress_bit_for_bit(self):
        rng = np.random.default_rng(5001)
        gammas = np.linspace(1.0, 4.0, 7)
        point_sets = [
            [(g, 2.0 * g + 1.0) for g in (0.0, 1.0, 2.0, 3.0)],
            [(g, -0.37 * g - 1.9) for g in gammas],
            [(g, 3.1 * g + rng.normal(0.0, 0.4)) for g in gammas],
            [(g, -1.3 * g - 2.0 + rng.normal(0.0, 0.05)) for g in gammas],
            [(float(g), 2.0 * g + 1.0 + (19.0 if g == 4 else 0.0)) for g in range(10)],
            [(g, 1e6 + 1e-3 * g) for g in rng.uniform(0.0, 30.0, 25)],
            [(g, 5.0) for g in gammas],  # constant y: r is undefined (NaN)
        ]
        for points in point_sets:
            fit = fit_linear(points)
            oracle = linregress([p[0] for p in points], [p[1] for p in points])
            # exact equality, NaN matching NaN
            np.testing.assert_array_equal(
                [fit.slope, fit.intercept, fit.r_squared],
                [oracle.slope, oracle.intercept, oracle.rvalue**2],
            )

    def test_predict(self):
        fit = LinearFit(2.0, 1.0, 1.0)
        assert fit.predict(3.0) == 7.0
        np.testing.assert_array_equal(fit.predict([0.0, 1.0]), [1.0, 3.0])


@pytest.fixture(scope="module")
def small_curves():
    return operational_curve(
        S1,
        [(MAST, [1.2, 1.6, 2.0, 2.4], []), (PAGE, [1.0, 2.0, 3.0, 4.0], [6.0, 8.0])],
        n_trials=500,
        seed=31,
    )


@pytest.fixture(scope="module")
def small_curve(small_curves):
    return small_curves[1]


class TestOperationalCurve:
    def test_point_layout(self, small_curves, small_curve):
        measured = [p for p in small_curve.points if p.measured]
        extrapolated = [p for p in small_curve.points if not p.measured]
        assert [p.gamma for p in measured] == [1.0, 2.0, 3.0, 4.0]
        assert [p.gamma for p in extrapolated] == [6.0, 8.0]
        assert all(p.pf_se is None for p in extrapolated)
        assert [p.gamma for p in small_curves[0].points] == [1.2, 1.6, 2.0, 2.4]

    def test_fit_slopes_have_expected_signs(self, small_curves):
        for curve in small_curves:
            assert curve.delay_fit.slope > 0
            assert curve.logpf_fit.slope < 0

    def test_pf_cells_are_the_solvers(self, small_curves):
        # every point of both detectors has the solver's log10 pf, with its
        # discretisation error carried over to pf as pf_se, and the lone
        # delay estimate on its own seed [seed, kind tag, DELAY_SEED_TAG, i],
        # mast's tag 10 and page's 13
        for cfg, tag, curve in ((MAST, 10, small_curves[0]), (PAGE, 13, small_curves[1])):
            measured = [p for p in curve.points if p.measured]
            for i, point in enumerate(measured):
                log10_pf, error = runlength.log10_pf(cfg, point.gamma, (0.95, 0.95), 0.05)
                delay = estimate_delay(S1, cfg, point.gamma, 500, seed=[31, tag, 1, i])
                assert point.log10_pf == log10_pf
                assert point.pf_se == 10.0**log10_pf * math.log(10.0) * error
                assert (point.delay, point.delay_se) == (delay.mean_delay, delay.delay_se)
        assert simulation.DELAY_SEED_TAG == 1

    def test_empty_extrapolation_grid(self):
        (curve,) = operational_curve(S1, [(PAGE, [1.0, 2.0, 3.0], [])], n_trials=300, seed=32)
        assert len(curve.points) == 3
        assert all(p.measured for p in curve.points)

    def test_refuses_extrapolation_below_floor(self):
        # the refusal names its detector, since one call runs several
        with pytest.raises(ExtrapolationError, match="refusing to extrapolate page: fit r"):
            operational_curve(
                S1,
                [(MAST, [1.0, 2.0, 3.0], []), (PAGE, [1.0, 2.0, 3.0], [10.0])],
                n_trials=300,
                seed=33,
                r2_floor=0.999999,
            )

    def test_spec_validation(self, monkeypatch):
        # the false-alarm rates are solved first, so the change time is
        # checked before the solver or any chain runs
        def unbuilt(*args, **kwargs):
            raise AssertionError("ran before change_time was checked")

        with monkeypatch.context() as patched:
            patched.setattr(simulation, "_Lanes", unbuilt)
            patched.setattr(runlength, "log10_pf", unbuilt)
            with pytest.raises(ValueError, match="change_time"):
                operational_curve(S1, [(PAGE, [1.0, 2.0, 3.0], [])], change_time=0)
        with pytest.raises(ValueError):
            operational_curve(S1, [(PAGE, [], [])])

    # the whole grid is checked before any point is simulated, so a bad
    # point fails at once even after good ones
    @pytest.mark.parametrize("point, message", [
        (float("inf"), "a measured gamma must be finite, got inf"),
        (float("nan"), "gamma must be >= 0, got nan"),
        (-1.0, "gamma must be >= 0, got -1.0"),
    ])
    def test_rejects_bad_measured_point(self, monkeypatch, point, message):
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before the grid was checked")

        monkeypatch.setattr(simulation, "estimate_delay", unreachable)
        monkeypatch.setattr(runlength, "log10_pf", unreachable)
        with pytest.raises(ValueError, match=message):
            operational_curve(S1, [(PAGE, [1.0, 2.0, point], [])], n_trials=200)

    @pytest.mark.parametrize(
        "grids, message",
        [(([1.0, 2.0, math.inf], []), "a measured gamma must be finite, got inf"),
         (([1.0, 2.0, 3.0], [6.0, -5.0]), "gamma must be >= 0, got -5.0")],
        ids=["measured", "extrapolated"],
    )
    def test_rejects_bad_point_of_the_second_detector(self, monkeypatch, grids, message):
        # every detector's grids are checked before the first one's points run
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before every grid was checked")

        monkeypatch.setattr(simulation, "estimate_delay", unreachable)
        monkeypatch.setattr(runlength, "log10_pf", unreachable)
        with pytest.raises(ValueError, match=message):
            operational_curve(S1, [(MAST, [1.0, 2.0, 3.0], []), (PAGE, *grids)], n_trials=200)

    @pytest.mark.parametrize("point", [float("nan"), -5.0])
    def test_rejects_bad_extrapolation_point(self, point):
        with pytest.raises(ValueError, match="gamma must be >= 0"):
            operational_curve(S1, [(PAGE, [2.0, 3.0, 4.0], [6.0, point])], n_trials=200)

    @pytest.mark.parametrize("floor", [float("nan"), -0.1, 1.5])
    def test_rejects_bad_r2_floor(self, floor):
        with pytest.raises(ValueError, match="r2_floor"):
            operational_curve(
                S1, [(PAGE, [2.0, 3.0, 4.0], [6.0])], n_trials=200, r2_floor=floor
            )

    def test_infinite_extrapolation_point_allowed(self):
        (curve,) = operational_curve(
            S1, [(PAGE, [1.0, 2.0, 3.0], [float("inf")])], n_trials=200, seed=34, r2_floor=0.0
        )
        assert [p.gamma for p in curve.points if not p.measured] == [float("inf")]
