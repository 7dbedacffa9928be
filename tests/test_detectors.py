"""Unit tests for the streaming detectors and the brute-force oracle."""

import numpy as np
import pytest

from mast import (
    Barriers,
    DetectorConfig,
    DetectorKind,
    DetectorState,
    brute_force_statistic,
    mast_increment,
    page_increment,
    run_stream,
)

NEVER = float("inf")


def naive_statistic(samples, barriers, sigma):
    """Doubly naive pure-Python evaluation of the change-index maximisation."""
    n = len(samples)
    best = 0.0
    for j in range(n):
        total = 0.0
        for k in range(j, n):
            total += mast_increment(samples[k], barriers, sigma)
        best = max(best, total)
    return best


class TestConfig:
    def test_factories(self):
        assert DetectorConfig.mast(0.1).barriers == Barriers(1.0, 1.0)
        assert DetectorConfig.mast_delta(0.9, 0.1).barriers == Barriers(0.9, 0.9)
        assert DetectorConfig.mast_general(0.9, 1.1, 0.1).barriers == Barriers(0.9, 1.1)
        assert DetectorConfig.page(0.05, 0.1).alpha == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorConfig.page(1.5, 0.1)
        with pytest.raises(ValueError):
            DetectorConfig.mast(0.0)
        with pytest.raises(ValueError):
            DetectorConfig(DetectorKind.MAST, 0.1, barriers=Barriers(0.9, 0.9))
        with pytest.raises(ValueError):
            DetectorConfig(DetectorKind.MAST_DELTA, 0.1, barriers=Barriers(0.9, 1.1))
        with pytest.raises(ValueError):
            DetectorConfig(DetectorKind.PAGE, 0.1)

    def test_increment_dispatch(self):
        x = np.array([0.9, 1.0, 1.1])
        page = DetectorConfig.page(0.05, 0.1)
        np.testing.assert_array_equal(page.increment(x), page_increment(x, 0.05, 0.1))
        mast = DetectorConfig.mast_general(0.9, 1.1, 0.1)
        np.testing.assert_array_equal(mast.increment(x), mast_increment(x, mast.barriers, 0.1))

    def test_state_invariants(self):
        state = DetectorState()
        assert state.statistic == 0.0 and state.samples_seen == 0
        with pytest.raises(ValueError):
            DetectorState(statistic=-0.1)


class TestUpdates:
    def test_mast_update_values(self):
        cfg = DetectorConfig.mast(0.1)
        assert run_stream([1.2], cfg, NEVER).path == pytest.approx([2.0])
        assert run_stream([1.2, 0.8], cfg, NEVER).path == pytest.approx([2.0, 0.0], abs=1e-12)
        assert run_stream([1.0], cfg, NEVER).path == [0.0]

    def test_mast_update_clamps_exactly_at_zero(self):
        cfg = DetectorConfig.mast(0.1)
        # a +2 increment followed by its own negation lands on exactly zero
        assert run_stream([1.2, 0.8], cfg, NEVER).path[-1] == 0.0
        # and any net-negative sum clamps to exactly zero too
        assert run_stream([1.2, 0.7], cfg, NEVER).path[-1] == 0.0

    def test_page_update_values(self):
        cfg = DetectorConfig.page(0.05, 0.1)
        assert run_stream([1.02], cfg, NEVER).path == pytest.approx([0.2])
        assert run_stream([1.01, 0.98], cfg, NEVER).path[-1] == 0.0
        # a zero increment leaves the statistic unchanged
        path = run_stream([1.25, 1.25, 1.0], cfg, NEVER).path
        assert path[1] == pytest.approx(5.0)
        assert path[2] == path[1]

    def test_variants_share_the_update(self):
        # mast and mast-delta with the same barrier value step identically
        xs = np.random.default_rng(3001).normal(1.0, 0.1, 50)
        a = run_stream(xs, DetectorConfig.mast(0.1), 1e9)
        b = run_stream(xs, DetectorConfig.mast_delta(1.0, 0.1), 1e9)
        assert a.path == b.path

    def test_statistic_never_negative(self):
        rng = np.random.default_rng(3002)
        for cfg in (DetectorConfig.mast_general(0.9, 1.1, 0.2), DetectorConfig.page(0.1, 0.2)):
            path = run_stream(rng.normal(0.9, 0.3, 500), cfg, NEVER).path
            assert len(path) == 500
            assert min(path) >= 0.0


class TestRunStream:
    def test_alarm_examples(self):
        cfg = DetectorConfig.mast(0.1)
        report = run_stream([1.2, 1.2], cfg, 3.0)
        assert report.alarm_index == 2
        assert report.path == pytest.approx([2.0, 4.0])
        assert run_stream([1.0] * 100, cfg, 0.5).alarm_index is None
        assert run_stream([1.2], cfg, 1.9).alarm_index == 1
        assert run_stream([], cfg, 3.0).alarm_index is None

    def test_threshold_is_strict(self):
        # statistic == gamma must not alarm
        report = run_stream([1.2], DetectorConfig.mast(0.1), 2.0)
        assert report.alarm_index is None
        assert report.final_state.statistic == pytest.approx(2.0)

    def test_stops_at_alarm(self):
        report = run_stream([1.2, 1.2, 1.2, 1.2], DetectorConfig.mast(0.1), 1.0)
        assert report.alarm_index == 1
        assert len(report.path) == 1
        assert report.final_state.samples_seen == 1

    def test_trace_marks_first_crossing(self):
        rng = np.random.default_rng(3003)
        xs = rng.normal(1.02, 0.1, 400)
        gamma = 4.0
        report = run_stream(xs, DetectorConfig.mast(0.1), gamma)
        if report.alarm_index is not None:
            crossed = [n for n, t in enumerate(report.path, 1) if t > gamma]
            assert crossed == [report.alarm_index] == [len(report.path)]

    def test_alarm_monotone_in_gamma(self):
        rng = np.random.default_rng(3004)
        xs = rng.normal(1.01, 0.1, 300)
        previous = 0
        for gamma in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0]:
            report = run_stream(xs, DetectorConfig.mast(0.1), gamma)
            index = report.alarm_index if report.alarm_index is not None else len(xs) + 1
            assert index >= previous
            previous = index

    def test_reset_property(self):
        # from any zero of the statistic, the tail behaves like a fresh run
        rng = np.random.default_rng(3005)
        xs = rng.normal(0.98, 0.15, 300)
        cfg = DetectorConfig.mast(0.15)
        full = run_stream(xs, cfg, 1e9)
        zeros = [n for n, t in enumerate(full.path, 1) if t == 0.0]
        assert zeros, "expected at least one reset under a shrinking mean"
        m = zeros[len(zeros) // 2]
        tail = run_stream(xs[m:], cfg, 1e9)
        np.testing.assert_allclose(tail.path, full.path[m:], rtol=1e-12, atol=0.0)

    def test_monitor_mode_resets_and_collects(self):
        report = run_stream([1.2, 1.2, 0.9, 1.2, 1.2], DetectorConfig.mast(0.1), 3.0, monitor=True)
        # paths: 2.0, 4.0 (cross, reset), -0.5 -> 0.0, 2.0, 4.0 (cross)
        assert report.crossings == [2, 5]
        assert report.alarm_index == 2
        assert report.final_state.samples_seen == 5
        # after the first crossing the statistic restarts from zero
        assert report.path[2] == 0.0
        assert report.path[3] == pytest.approx(2.0)

    def test_page_stream(self):
        report = run_stream([1.02, 1.02], DetectorConfig.page(0.05, 0.1), 0.3)
        assert report.alarm_index == 2

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            run_stream([1.2], DetectorConfig.mast(0.1), gamma)

    def test_scores_like_the_array_increment(self):
        # one vectorised increment call: the path is the plain float
        # recursion over exactly the scores the Monte Carlo engine sees
        rng = np.random.default_rng(3009)
        xs = rng.normal(1.0, 0.1, 200)
        cfg = DetectorConfig.mast_general(0.95, 1.05, 0.1)
        t, expect = 0.0, []
        for d in cfg.increment(xs):
            t = max(0.0, t + float(d))
            expect.append(t)
        assert run_stream(xs, cfg, NEVER).path == expect


class TestBruteForce:
    def test_examples(self):
        b = Barriers.single(1.0)
        assert brute_force_statistic([], b, 0.1) == 0.0
        assert brute_force_statistic([0.8, 1.2], b, 0.1) == pytest.approx(2.0)

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(3006)
        for _ in range(100):
            lo = rng.uniform(0.5, 1.5)
            b = Barriers(lo, lo + rng.uniform(0.0, 0.4))
            sigma = rng.uniform(0.05, 1.0)
            xs = rng.normal(1.0, 2 * sigma, rng.integers(0, 9)).tolist()
            assert brute_force_statistic(xs, b, sigma) == pytest.approx(
                naive_statistic(xs, b, sigma), rel=1e-12, abs=1e-12
            )

    def test_matches_recursion(self):
        rng = np.random.default_rng(3007)
        for _ in range(200):
            lo = rng.uniform(0.5, 1.5)
            b = Barriers(lo, lo + rng.uniform(0.0, 0.5))
            sigma = rng.uniform(0.01, 1.0)
            xs = rng.normal(1.0, 2 * sigma, int(rng.integers(1, 65)))
            cfg = DetectorConfig.mast_general(b.lower, b.upper, sigma)
            report = run_stream(xs, cfg, NEVER)
            oracle = brute_force_statistic(xs, b, sigma)
            assert report.final_state.statistic == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_mast_is_page_with_estimated_alpha():
    # single-barrier score == quarter of the Page increment at alpha=|x-1|
    rng = np.random.default_rng(3008)
    x = rng.uniform(0.0, 2.0, 1000)
    g = mast_increment(x, Barriers.single(1.0), 0.07)
    q = page_increment(x, np.abs(x - 1.0), 0.07)
    np.testing.assert_allclose(g, 0.25 * q, rtol=1e-12, atol=1e-15)

