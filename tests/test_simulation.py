"""Tests for the scenario generators and the Monte Carlo harness."""

import numpy as np
import pytest
from scipy.stats import linregress, norm

from mast import (
    DetectorConfig,
    ExtrapolationError,
    InsufficientEventsError,
    LinearFit,
    ScenarioSpec,
    estimate_delay,
    estimate_pf,
    fit_linear,
    generate_path,
    operational_curve,
    run_stream,
)
from mast.simulation import _PF_CHUNK, trial_samples

S1 = ScenarioSpec(1, 0.05, 0.05)
S2 = ScenarioSpec(2, 0.05, 0.05)
MAST = DetectorConfig.mast(0.05)
PAGE = DetectorConfig.page(0.05, 0.05)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(3, 0.05, 0.05)
        with pytest.raises(ValueError):
            ScenarioSpec(1, 0.0, 0.05)
        with pytest.raises(ValueError):
            ScenarioSpec(1, 0.05, 0.0)
        with pytest.raises(ValueError):
            ScenarioSpec(1, 0.05, 0.05, change_time=0)

    def test_regime_helpers(self):
        spec = S1.changed(10)
        assert spec.change_time == 10
        assert spec.controlled().change_time is None


class TestGeneratePath:
    def test_zero_noise_limit_exposes_means(self):
        spec = ScenarioSpec(1, 0.05, 1e-12, change_time=10)
        path = generate_path(spec, 12, seed=1)
        assert np.allclose(path[:9], 0.95, atol=1e-9)
        assert np.allclose(path[9:], 1.05, atol=1e-9)

    def test_deterministic_in_seed(self):
        spec = S2.changed(20)
        np.testing.assert_array_equal(generate_path(spec, 100, 5), generate_path(spec, 100, 5))
        assert not np.array_equal(generate_path(spec, 100, 5), generate_path(spec, 100, 6))

    def test_scenario2_controlled_mean(self):
        # controlled means are uniform on (1 - alpha, 1): expectation 0.975
        path = generate_path(S2.controlled(), 1_000_000, seed=77)
        se = np.sqrt(0.05**2 / 12 + 0.05**2) / 1000.0
        assert abs(path.mean() - 0.975) < 3 * se

    def test_scenario2_critical_mean(self):
        # critical means are uniform on (1, 1 + 10 alpha): expectation 1.25
        path = generate_path(S2.changed(1), 1_000_000, seed=78)
        se = np.sqrt(0.5**2 / 12 + 0.05**2) / 1000.0
        assert abs(path.mean() - 1.25) < 3 * se

    def test_length_validation(self):
        with pytest.raises(ValueError):
            generate_path(S1, 0, seed=1)


class TestEstimateDelay:
    def test_zero_threshold_delay_is_about_one(self):
        est = estimate_delay(S1.changed(1), PAGE, 0.0, 4000, seed=42)
        assert 1.0 <= est.mean_delay < 1.5
        assert est.n_censored == 0

    def test_monotone_in_gamma(self):
        means = [
            estimate_delay(S1.changed(1), PAGE, g, 3000, seed=15).mean_delay
            for g in (0.0, 2.0, 4.0)
        ]
        assert means[0] < means[1] < means[2]

    def test_se_shrinks_with_sqrt_trials(self):
        a = estimate_delay(S1.changed(1), PAGE, 3.0, 2000, seed=11)
        b = estimate_delay(S1.changed(1), PAGE, 3.0, 4000, seed=11)
        assert 1.25 < a.delay_se / b.delay_se < 1.6

    def test_deterministic_and_parallel_identical(self):
        one = estimate_delay(S2.changed(1), MAST, 2.0, 500, seed=9)
        two = estimate_delay(S2.changed(1), MAST, 2.0, 500, seed=9)
        four = estimate_delay(S2.changed(1), MAST, 2.0, 500, seed=9, workers=4)
        assert one == two == four

    def test_matches_reference_detector(self):
        # engine delays averaged over trials == replaying each trial's own
        # stream through the single-sample detector
        for spec, cfg in [(S1, MAST), (S1, PAGE), (S2, MAST), (S2, PAGE)]:
            for gamma in (0.0, 1.5, 4.0):
                est = estimate_delay(spec.changed(1), cfg, gamma, 25, seed=123)
                reference = []
                for trial in range(25):
                    xs = trial_samples(spec, 123, trial, 3000, critical=True)
                    reference.append(run_stream(xs, cfg, gamma).alarm_index)
                assert est.mean_delay == pytest.approx(np.mean(reference), abs=1e-12)

    def test_censoring_counts_at_horizon(self):
        # a threshold far out of reach within the horizon censors every trial
        with pytest.warns(UserWarning, match="counted at the horizon"):
            est = estimate_delay(S1.changed(1), MAST, 500.0, 50, seed=3, horizon=64)
        assert est.n_censored == 50
        assert est.mean_delay == 64.0

    def test_run_in_state_carries_over(self):
        est = estimate_delay(
            S1.changed(40), MAST, 2.0, 400, seed=21, run_in=True
        )
        again = estimate_delay(
            S1.changed(40), MAST, 2.0, 400, seed=21, run_in=True
        )
        assert est == again
        assert est.mean_delay >= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_delay(S1.controlled(), MAST, 1.0, 10, seed=0)
        with pytest.raises(ValueError):
            estimate_delay(S1.changed(1), MAST, -1.0, 10, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            estimate_delay(S1.changed(1), MAST, float("nan"), 10, seed=0)
        with pytest.raises(ValueError):
            estimate_delay(S1.changed(1), MAST, 1.0, 0, seed=0)


class TestEstimatePf:
    def test_zero_threshold_matches_gaussian_tail(self):
        # at gamma=0 every positive increment crosses: pf -> Phi(-alpha/sigma)
        est = estimate_pf(S1.controlled(), MAST, 0.0, seed=42)
        assert abs(est.pf - norm.cdf(-1.0)) < 3 * est.pf_se

    def test_monotone_in_gamma(self):
        pfs = [
            estimate_pf(S1.controlled(), PAGE, g, seed=13, target_crossings=3000).pf
            for g in (0.5, 1.5, 3.0)
        ]
        assert pfs[0] > pfs[1] > pfs[2]

    def test_deterministic_and_parallel_identical(self):
        one = estimate_pf(S2.controlled(), MAST, 1.0, seed=4, target_crossings=2000)
        two = estimate_pf(S2.controlled(), MAST, 1.0, seed=4, target_crossings=2000)
        four = estimate_pf(S2.controlled(), MAST, 1.0, seed=4, target_crossings=2000, workers=4)
        assert one == two == four

    def test_pf_is_reciprocal_mean_crossing_time(self):
        est = estimate_pf(S1.controlled(), PAGE, 1.0, seed=8, target_crossings=2000)
        assert est.pf == pytest.approx(est.n_trials / est.observed_steps)

    def test_matches_reference_monitor(self):
        # same streams through the single-sample detector in monitor mode
        n_chains, per_chain, gamma = 6, 2000, 1.0
        est = estimate_pf(
            S2.controlled(), MAST, gamma, horizon=n_chains * per_chain, seed=55,
            n_chains=n_chains, min_crossings=1,
        )
        crossings = 0
        for chain in range(n_chains):
            xs = trial_samples(S2, 55, chain, per_chain, critical=False, chunk=_PF_CHUNK)
            report = run_stream(xs, MAST, gamma, monitor=True)
            crossings += len(report.crossings)
        assert est.n_trials == crossings
        assert est.pf == pytest.approx(crossings / (n_chains * per_chain))

    def test_insufficient_events(self):
        with pytest.raises(InsufficientEventsError):
            estimate_pf(
                S1.controlled(), MAST, 50.0, seed=1, n_chains=8, max_steps=20_000
            )

    @pytest.mark.parametrize("gamma", [-1.0, float("nan")])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            estimate_pf(S1.controlled(), MAST, gamma, seed=0)

    def test_requires_controlled_spec(self):
        with pytest.raises(ValueError):
            estimate_pf(S1.changed(5), MAST, 1.0, seed=0)

    def test_explicit_horizon_observed_steps(self):
        est = estimate_pf(
            S1.controlled(), MAST, 0.5, horizon=4096, seed=2, n_chains=4, min_crossings=1
        )
        assert est.observed_steps == 4096


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
def small_curve():
    return operational_curve(
        S1.controlled(),
        S1.changed(1),
        PAGE,
        gamma_grid=[1.0, 2.0, 3.0, 4.0],
        extrapolation_grid=[6.0, 8.0],
        n_trials=500,
        seed=31,
    )


class TestOperationalCurve:
    def test_point_layout(self, small_curve):
        assert len(small_curve.measured) == 4
        assert len(small_curve.extrapolated) == 2
        assert all(p.measured for p in small_curve.measured)
        assert all(p.pf_se is None for p in small_curve.extrapolated)

    def test_fit_slopes_have_expected_signs(self, small_curve):
        assert small_curve.delay_fit.slope > 0
        assert small_curve.logpf_fit.slope < 0

    def test_matched_pf_lookup_is_consistent(self, small_curve):
        gamma = small_curve.gamma_at_pf(1e-6)
        assert small_curve.logpf_fit.predict(gamma) == pytest.approx(-6.0)
        assert small_curve.delay_at_pf(1e-6) == pytest.approx(
            small_curve.delay_fit.predict(gamma)
        )

    def test_empty_extrapolation_grid(self):
        curve = operational_curve(
            S1.controlled(),
            S1.changed(1),
            PAGE,
            gamma_grid=[1.0, 2.0, 3.0],
            extrapolation_grid=[],
            n_trials=300,
            seed=32,
        )
        assert len(curve.points) == 3
        assert all(p.measured for p in curve.points)

    def test_refuses_extrapolation_below_floor(self):
        with pytest.raises(ExtrapolationError, match="refusing to extrapolate"):
            operational_curve(
                S1.controlled(),
                S1.changed(1),
                PAGE,
                gamma_grid=[1.0, 2.0, 3.0],
                extrapolation_grid=[10.0],
                n_trials=300,
                seed=33,
                r2_floor=0.999999,
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            operational_curve(S1.changed(1), S1.changed(1), PAGE, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            operational_curve(S1.controlled(), S1.controlled(), PAGE, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            operational_curve(S1.controlled(), S1.changed(1), PAGE, [])
