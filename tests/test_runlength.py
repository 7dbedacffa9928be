"""Monte Carlo estimates against a deterministic run-length solver.

The solver is the Markov-chain method of Brook and Evans (1972) in the
cycle form of Page (1954), for i.i.d. ratios: Gaussian around a fixed mean
(scenario 1), or around a mean uniform on ``(a, b)`` (scenario 2).  The
statistic on ``[0, gamma]`` is cut into ``m`` states of width
``w = gamma / (m - 1/2)``: state ``j >= 1`` holds ``((j - 1/2) w, (j + 1/2) w]``
and is represented by ``j w``, and state 0 holds ``(0, w / 2]``.  One step
from state ``i`` adds an increment ``g(X)``, lands in state ``j`` with
probability ``Q[i, j]``, crosses ``gamma`` with probability ``s[i]`` and
falls to 0 or below with probability ``z[i]``.

A cycle starts at 0 and ends when the statistic falls to 0 or crosses
``gamma``; both restart it at 0, so the cycles of a monitoring chain are
i.i.d.  With ``(I - Q) h = s`` and ``(I - Q) n = 1``, ``h[0]`` is the chance
that a cycle ends in a crossing and ``n[0]`` its mean length, so the
false-alarm rate ``estimate_pf`` measures is ``h[0] / n[0]`` (Page's
ARL = N / (1 - P)).  The mean delay ``estimate_delay`` measures is the
mean run length under the critical law, where falling to 0 only returns
the chain to state 0: ``(I - P) L = 1`` with ``P = Q`` plus ``z`` in column
0.  From 0 (change time 1) the delay is ``L[0]``.  For a change at sample
``nu > 1`` the controlled kernel with ``z`` and ``s`` added to column 0
(both restart the run-in at 0) steps the distribution of state 0
``nu - 1`` times, and the delay is its dot product with ``L``.  Both
converge at second order in ``w``; the gap between ``m = 400`` and
``m = 800`` is their discretisation error.

``mast.runlength`` is the package's own solver of the same form, for the
false-alarm rate only, built on ``math.erfc`` in place of scipy.  It is
checked against this one, and the Monte Carlo false-alarm rates are
checked against it.
"""

import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy.special import erfcx
from scipy.stats import norm

from mast import runlength
from mast.core import Barriers
from mast.detectors import DetectorConfig, DetectorKind
from mast.simulation import (
    DELAY_SEED_TAG,
    PF_SEED_TAG,
    ScenarioSpec,
    estimate_delay,
    estimate_pf,
)

S1 = ScenarioSpec(1, 0.05, 0.05)
S2 = ScenarioSpec(2, 0.05, 0.05)
MAST = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(1.0, 1.0))
PAGE = DetectorConfig(DetectorKind.PAGE, 0.05, alpha=0.05)
PAIR = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(0.99, 1.02))
# scenario 1 with its controlled mean at MAST's barrier, the least favourable one
BARRIER_MEAN = ScenarioSpec(1, 1e-9, 0.05)
# (spec, config, gamma, log10 pf, mean delay at change time 1) at m = 400:
# the S1 points as an earlier solver of the same form gave them, the rest
# as a scratch solver gave them (the pair's pf 8.4405e-4 and delay 3.8556)
POINTS = [
    (S1, MAST, 2.0, -2.75704, 3.4802),
    (S1, MAST, 3.2, -3.52782, 4.7737),
    (S1, PAGE, 4.4, -2.58994, 2.9421),
    (S1, PAGE, 6.0, -3.29287, 3.7491),
    (S2, MAST, 5.0, -2.99572, 1.4172),
    (S2, PAGE, 10.0, -2.81474, 1.6602),
    (S1, PAIR, 3.0, -3.07363, 3.8556),
]
POINT_IDS = [
    ("s2-" if spec is S2 else "pair-" if config is PAIR else "") + f"{config.kind.value}-{gamma}"
    for spec, config, gamma, _, _ in POINTS
]
# (spec, config, gamma, change time, mean delay) at m = 400
RUN_IN = (S1, MAST, 3.2, 50, 4.7081)
# every measured point of the packaged curves, as (spec, config, gamma)
PACKAGED = [
    (spec, config, gamma)
    for spec in (S1, S2)
    for config in (MAST, PAGE)
    for gamma in json.loads(resources.files("mast").joinpath("default_experiments.json").read_text())[
        f"scenario{spec.scenario}"
    ][config.kind.value]["measure"]
]
PACKAGED_IDS = [f"s{spec.scenario}-{config.kind.value}-{gamma}" for spec, config, gamma in PACKAGED]


def inverse_increment(config, t):
    """The ratio whose increment under ``config`` is ``t``: each increment
    is continuous and strictly increasing, so its CDF at ``t`` is that of
    the ratio here.  A barrier pair ``lo < hi`` has three branches, split
    at ``t = -/+ (hi - lo)^2 / (2 sigma^2)``; one barrier has two."""
    sigma2 = config.sigma**2
    if config.kind is DetectorKind.PAGE:
        return 1.0 + t * sigma2 / (2.0 * config.alpha)
    lo, hi = config.barriers.lower, config.barriers.upper
    root = np.sqrt(2.0 * sigma2 * np.abs(t))
    edge = (hi - lo) ** 2 / (2.0 * sigma2)
    x = np.where(t <= -edge, hi - root, lo + root)
    if hi > lo:
        x = np.where(np.abs(t) < edge, 0.5 * (lo + hi) + t * sigma2 / (hi - lo), x)
    return x


def law(spec, critical):
    """``(a, b, sigma)``: the ratio is ``N(mean, sigma^2)`` with the mean at
    ``a = b`` (scenario 1) or uniform on ``(a, b)`` (scenario 2)."""
    if spec.scenario == 1:
        mean = 1.0 + spec.alpha if critical else 1.0 - spec.alpha
        return mean, mean, spec.sigma
    a, b = (1.0, 1.0 + 10.0 * spec.alpha) if critical else (1.0 - spec.alpha, 1.0)
    return a, b, spec.sigma


def g_integral(z):
    """``G(z) = z Phi(z) + phi(z)``, the integral of ``Phi`` up to ``z``.
    Below 0 it is ``phi(u) (1 - u sqrt(pi / 2) erfcx(u / sqrt 2))`` with
    ``u = -z``, which does not underflow in the deep tail."""
    u = np.abs(z)
    tail = norm.pdf(u) * (1.0 - u * math.sqrt(math.pi / 2.0) * erfcx(u / math.sqrt(2.0)))
    return np.where(z < 0, tail, z * norm.cdf(z) + norm.pdf(z))


def cdf(a, b, sigma, x):
    """P(X <= x) under ``law``'s ``(a, b, sigma)``."""
    if a == b:
        return norm.cdf((x - a) / sigma)
    return sigma / (b - a) * (g_integral((x - a) / sigma) - g_integral((x - b) / sigma))


def sf(a, b, sigma, x):
    """P(X > x) under ``law``'s ``(a, b, sigma)``."""
    if a == b:
        return norm.sf((x - a) / sigma)
    return sigma / (b - a) * (g_integral((b - x) / sigma) - g_integral((a - x) / sigma))


def interval_mass(config, ratio_law, low, high):
    """P(low < g(X) <= high) for X under ``ratio_law``, from the survival
    function where the interval lies above the median ``(a + b) / 2``, so
    that upper tails keep their digits."""
    x_low, x_high = inverse_increment(config, low), inverse_increment(config, high)
    above = x_low > 0.5 * (ratio_law[0] + ratio_law[1])
    return np.where(
        above, sf(*ratio_law, x_low) - sf(*ratio_law, x_high),
        cdf(*ratio_law, x_high) - cdf(*ratio_law, x_low),
    )


def kernel(config, ratio_law, gamma, m):
    """``(Q, s, z)`` of the module docstring.  ``Q[i, j]`` depends only on
    ``j - i`` outside column 0, whose lower edge is 0."""
    w = gamma / (m - 0.5)
    k = np.arange(1 - m, m)
    by_offset = interval_mass(config, ratio_law, (k - 0.5) * w, (k + 0.5) * w)
    i = np.arange(m)
    q = by_offset[i[None, :] - i[:, None] + m - 1]
    q[:, 0] = interval_mass(config, ratio_law, -i * w, (0.5 - i) * w)
    s = sf(*ratio_law, inverse_increment(config, gamma - i * w))
    z = cdf(*ratio_law, inverse_increment(config, -i * w))
    return q, s, z


def solver_log10_pf(config, gamma, spec=S1, m=400):
    """log10 of the false-alarm rate under ``spec``'s controlled law."""
    q, s, _ = kernel(config, law(spec, False), gamma, m)
    h, n = np.linalg.solve(np.eye(m) - q, np.column_stack([s, np.ones(m)]))[0]
    return math.log10(h / n)


def module_log10_pf(config, gamma, spec=S1):
    """``runlength.log10_pf``'s value under ``spec``'s controlled law."""
    return runlength.log10_pf(config, gamma, spec.means(False), spec.sigma)[0]


def solver_delay(config, gamma, spec=S1, m=400, change_time=1):
    """Mean delay after a change at sample ``change_time`` under ``spec``."""
    q, _, z = kernel(config, law(spec, True), gamma, m)
    q[:, 0] += z
    arl = np.linalg.solve(np.eye(m) - q, np.ones(m))
    q, s, z = kernel(config, law(spec, False), gamma, m)
    q[:, 0] += z + s
    state = np.eye(m)[0]
    for _ in range(change_time - 1):
        state = state @ q
    return float(state @ arl)


class TestSolver:
    @pytest.mark.parametrize("spec, config, gamma, log10_pf, delay", POINTS, ids=POINT_IDS)
    def test_matches_earlier_values(self, spec, config, gamma, log10_pf, delay):
        assert solver_log10_pf(config, gamma, spec=spec) == pytest.approx(log10_pf, abs=5e-6)
        assert solver_delay(config, gamma, spec=spec) == pytest.approx(delay, abs=5e-5)

    def test_run_in_delay(self):
        # a change at sample 50 finds the run-in statistic above 0 on
        # average, so the delay is shorter than from 0 (4.7737)
        spec, config, gamma, change_time, delay = RUN_IN
        late = solver_delay(config, gamma, spec=spec, change_time=change_time)
        assert late == pytest.approx(delay, abs=5e-5)
        assert late < solver_delay(config, gamma, spec=spec)

    @pytest.mark.parametrize(
        "config, gamma, spec, log10_pf",
        [(MAST, 12.0, S1, -8.4771), (PAGE, 19.5, S1, -9.1559), (MAST, 12.0, BARRIER_MEAN, -2.3913),
         (MAST, 20.5, S2, -8.5554)],
        ids=["mast-12", "page-19.5", "mast-12-barrier-mean", "s2-mast-20.5"],
    )
    def test_matches_classic_form(self, config, gamma, spec, log10_pf):
        # the classic form (I - P) L = 1 gave these, to 4 decimals; at the
        # barrier mean that is an ARL0 of 246.18
        assert solver_log10_pf(config, gamma, spec=spec) == pytest.approx(log10_pf, abs=5e-5)

    def test_s2_page_far_out(self):
        # the classic form loses this point to its conditioning (-14.884 at
        # m = 400); the cycle form gave -14.8497 when it was first built
        assert solver_log10_pf(PAGE, 70.0, spec=S2) == pytest.approx(-14.8497, abs=5e-5)

    @pytest.mark.parametrize(
        "spec, config, gamma, change_time",
        [(*p[:3], 1) for p in POINTS] + [RUN_IN[:4]],
        ids=POINT_IDS + ["mast-3.2-run-in"],
    )
    def test_discretisation_error(self, spec, config, gamma, change_time):
        def delay(m):
            return solver_delay(config, gamma, spec=spec, m=m, change_time=change_time)

        pf_gap = solver_log10_pf(config, gamma, spec=spec, m=800) - solver_log10_pf(
            config, gamma, spec=spec
        )
        assert abs(pf_gap) <= 1e-4
        assert abs(delay(800) - delay(400)) <= 1e-4

    def test_page_lundberg_slope(self):
        # Page's increments are N(-2, 2^2) in scenario 1, whose Lundberg root
        # is 1: log10 pf falls by 1 / ln 10 per unit of gamma far out.  The
        # slope converges at second order in w, so one Richardson step from
        # m = 400 and 800 removes the discretisation error
        slope = {m: (solver_log10_pf(PAGE, 50.0, m=m) - solver_log10_pf(PAGE, 70.0, m=m)) / 20.0
                 for m in (400, 800)}
        lundberg = 1.0 / math.log(10.0)
        assert slope[400] == pytest.approx(lundberg, abs=1e-3)
        assert (4.0 * slope[800] - slope[400]) / 3.0 == pytest.approx(lundberg, abs=1e-5)


class TestModule:
    """``mast.runlength`` against scipy and the solver above."""

    # z down to -40 takes G's erfcx to u / sqrt(2) = 28.3, past the series' start at 25
    Z = np.linspace(-40.0, 40.0, 8001)

    def test_normal_cdf_and_sf_match_scipy(self):
        # below the smallest normal float the two may round differently
        tiny = np.finfo(float).tiny
        for ours, theirs in ((runlength.norm_cdf, norm.cdf), (runlength.norm_sf, norm.sf)):
            np.testing.assert_allclose(ours(self.Z), theirs(self.Z), rtol=1e-12, atol=tiny)

    def test_erfcx_matches_scipy_on_both_branches(self):
        x = np.linspace(0.0, 60.0, 6001)
        assert (x >= runlength._ERFCX_SERIES_FROM).sum() > 1000
        np.testing.assert_allclose(runlength._erfcx(x), erfcx(x), rtol=1e-12, atol=0.0)

    def test_g_integral_matches_scipy(self):
        # the deep tail loses about u^2 of its relative digits to cancellation
        ours, theirs = runlength.g_integral(self.Z), g_integral(self.Z)
        assert (theirs[self.Z < -25.0 * math.sqrt(2.0)] > 0.0).any()
        np.testing.assert_allclose(ours, theirs, rtol=1e-9, atol=np.finfo(float).tiny)

    def test_ratio_law_matches_the_oracles(self):
        x = np.linspace(0.6, 1.9, 1301)
        for spec in (S1, S2):
            for critical in (False, True):
                oracle = law(spec, critical)
                assert (*spec.means(critical), spec.sigma) == oracle
                for ours, theirs in ((runlength.ratio_cdf, cdf), (runlength.ratio_sf, sf)):
                    np.testing.assert_allclose(ours(oracle, x), theirs(*oracle, x), rtol=1e-9)

    @pytest.mark.parametrize(
        "spec, config, gamma",
        PACKAGED + [p[:3] for p in POINTS],
        ids=PACKAGED_IDS + POINT_IDS,
    )
    def test_matches_oracle_richardson(self, spec, config, gamma):
        value, error = runlength.log10_pf(config, gamma, spec.means(False), spec.sigma)
        fine = [solver_log10_pf(config, gamma, spec=spec, m=m) for m in (800, 1600)]
        assert value == pytest.approx((4.0 * fine[1] - fine[0]) / 3.0, abs=1e-4)
        assert 0.0 < error <= runlength._TOLERANCE

    @pytest.mark.parametrize("spec, config", [(S1, MAST), (S1, PAGE), (S1, PAIR), (S2, MAST)])
    def test_zero_threshold_is_the_chance_of_a_positive_increment(self, spec, config):
        # at gamma 0 every positive increment crosses and nothing else does
        value, error = runlength.log10_pf(config, 0.0, spec.means(False), spec.sigma)
        closed = sf(*law(spec, False), inverse_increment(config, 0.0))
        assert 10.0**value == pytest.approx(closed, rel=1e-12)
        assert error == 0.0

    def test_underflow_refused(self):
        # Page's rate falls by a factor of e per unit of gamma: e^-1000 is no float
        with pytest.raises(runlength.PfUnderflowError, match="below the smallest normal float"):
            runlength.log10_pf(PAGE, 1000.0, S1.means(False), S1.sigma)

    def test_unresolved_rate_refused(self):
        with pytest.raises(ValueError, match="cannot resolve .* between 800 and 1600 states") as err:
            runlength.log10_pf(PAGE, 300.0, S1.means(False), S1.sigma)
        assert not isinstance(err.value, runlength.PfUnderflowError)

    @pytest.mark.parametrize("gamma", [-1.0, math.inf, math.nan])
    def test_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be finite and >= 0"):
            runlength.log10_pf(PAGE, gamma, S1.means(False), S1.sigma)


class TestMonteCarloAgainstSolver:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("spec, config, gamma", [p[:3] for p in POINTS], ids=POINT_IDS)
    def test_pf(self, spec, config, gamma, seed):
        est = estimate_pf(spec, config, gamma, seed=[seed, PF_SEED_TAG, 0], target_crossings=3000)
        solver = 10.0 ** module_log10_pf(config, gamma, spec=spec)
        assert abs(est.pf - solver) <= 4.0 * est.pf_se

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize(
        "spec, config, gamma, change_time",
        [(*p[:3], 1) for p in POINTS] + [RUN_IN[:4]],
        ids=POINT_IDS + ["mast-3.2-run-in"],
    )
    def test_delay(self, spec, config, gamma, change_time, seed):
        est = estimate_delay(
            spec, config, gamma, 20_000, seed=[seed, DELAY_SEED_TAG, 0], change_time=change_time
        )
        solver = solver_delay(config, gamma, spec=spec, change_time=change_time)
        assert abs(est.mean_delay - solver) <= 4.0 * est.delay_se

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP items 3 and 13: pf_se, from the completed-interval CV, understates "
        "the spread of pf over seeds (sd of z about 1.6 here)",
    )
    def test_pf_se_covers_the_spread_over_seeds(self):
        # a curve-s1 row (S1 MAST (1, 1) at gamma 2.8, target 500) over 24
        # seeds: if pf_se were the standard error, z would have sd about 1
        solver = 10.0 ** module_log10_pf(MAST, 2.8)
        z = []
        for seed in range(1, 25):
            est = estimate_pf(S1, MAST, 2.8, seed=[seed, PF_SEED_TAG, 0], target_crossings=500)
            z.append((est.pf - solver) / est.pf_se)
        assert np.std(z, ddof=1) <= 1.3

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: at the barrier mean estimate_pf is biased low (z about -5 here)",
    )
    def test_pf_at_the_barrier_mean(self):
        # as `mast simulate --scenario 1 --alpha 1e-9 --gamma 12 --trials 5000
        # --seed 7 --mode pf` runs it
        solver = 10.0 ** module_log10_pf(MAST, 12.0, spec=BARRIER_MEAN)
        est = estimate_pf(BARRIER_MEAN, MAST, 12.0, seed=[7, PF_SEED_TAG, 0], target_crossings=5000)
        assert abs(est.pf - solver) <= 4.0 * est.pf_se
