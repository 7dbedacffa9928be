"""Scenario 1's Monte Carlo estimates against a deterministic run-length solver.

The solver is the Markov-chain method of Brook and Evans (1972) in the
cycle form of Page (1954), for i.i.d. Gaussian ratios.  The statistic on
``[0, gamma]`` is cut into ``m`` states of width ``w = gamma / (m - 1/2)``:
state ``j >= 1`` holds ``((j - 1/2) w, (j + 1/2) w]`` and is represented by
``j w``, and state 0 holds ``(0, w / 2]``.  One step from state ``i`` adds
an increment ``g(X)``, lands in state ``j`` with probability ``Q[i, j]``,
crosses ``gamma`` with probability ``s[i]`` and falls to 0 or below with
probability ``z[i]``.

A cycle starts at 0 and ends when the statistic falls to 0 or crosses
``gamma``; both restart it at 0, so the cycles of a monitoring chain are
i.i.d.  With ``(I - Q) h = s`` and ``(I - Q) n = 1``, ``h[0]`` is the chance
that a cycle ends in a crossing and ``n[0]`` its mean length, so the
false-alarm rate ``estimate_pf`` measures is ``h[0] / n[0]`` (Page's
ARL = N / (1 - P)).  The mean delay ``estimate_delay`` measures is the
mean run length from 0 under the critical law, where falling to 0 only
returns the chain to state 0: ``(I - P) L = 1`` with ``P = Q`` plus ``z``
in column 0, and the delay is ``L[0]``.  Both converge at second order in
``w``; the gap between ``m = 400`` and ``m = 800`` is their discretisation
error.
"""

import math

import numpy as np
import pytest
from scipy.stats import norm

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
MAST = DetectorConfig(DetectorKind.MAST, 0.05, barriers=Barriers(1.0, 1.0))
PAGE = DetectorConfig(DetectorKind.PAGE, 0.05, alpha=0.05)
# scenario 1 with its controlled mean at MAST's barrier, the least favourable one
BARRIER_MEAN = ScenarioSpec(1, 1e-9, 0.05)
# (config, gamma, log10 pf, mean delay) at m = 400, as an earlier solver of
# the same form gave them
POINTS = [
    (MAST, 2.0, -2.75704, 3.4802),
    (MAST, 3.2, -3.52782, 4.7737),
    (PAGE, 4.4, -2.58994, 2.9421),
    (PAGE, 6.0, -3.29287, 3.7491),
]
POINT_IDS = [f"{config.kind.value}-{gamma}" for config, gamma, _, _ in POINTS]


def inverse_increment(config, t):
    """The ratio whose increment under ``config`` is ``t``: each increment
    is continuous and strictly increasing, so its CDF at ``t`` is that of
    the ratio here."""
    sigma2 = config.sigma**2
    if config.kind is DetectorKind.PAGE:
        return 1.0 + t * sigma2 / (2.0 * config.alpha)
    assert config.barriers.lower == config.barriers.upper, "single barrier only"
    return config.barriers.lower + np.sign(t) * np.sqrt(2.0 * sigma2 * np.abs(t))


def interval_mass(config, mean, sigma, low, high):
    """P(low < g(X) <= high) for X ~ N(mean, sigma^2), from the survival
    function where the interval lies above the median, so that upper
    tails keep their digits."""
    u_low = (inverse_increment(config, low) - mean) / sigma
    u_high = (inverse_increment(config, high) - mean) / sigma
    return np.where(u_low > 0, norm.sf(u_low) - norm.sf(u_high), norm.cdf(u_high) - norm.cdf(u_low))


def kernel(config, mean, sigma, gamma, m):
    """``(Q, s, z)`` of the module docstring.  ``Q[i, j]`` depends only on
    ``j - i`` outside column 0, whose lower edge is 0."""
    w = gamma / (m - 0.5)
    k = np.arange(1 - m, m)
    by_offset = interval_mass(config, mean, sigma, (k - 0.5) * w, (k + 0.5) * w)
    i = np.arange(m)
    q = by_offset[i[None, :] - i[:, None] + m - 1]
    q[:, 0] = interval_mass(config, mean, sigma, -i * w, (0.5 - i) * w)
    s = norm.sf((inverse_increment(config, gamma - i * w) - mean) / sigma)
    z = norm.cdf((inverse_increment(config, -i * w) - mean) / sigma)
    return q, s, z


def solver_log10_pf(config, gamma, spec=S1, m=400):
    """log10 of the false-alarm rate under ``spec``'s controlled law."""
    q, s, _ = kernel(config, 1.0 - spec.alpha, spec.sigma, gamma, m)
    h, n = np.linalg.solve(np.eye(m) - q, np.column_stack([s, np.ones(m)]))[0]
    return math.log10(h / n)


def solver_delay(config, gamma, spec=S1, m=400):
    """Mean delay from 0 under ``spec``'s critical law (change time 1)."""
    q, _, z = kernel(config, 1.0 + spec.alpha, spec.sigma, gamma, m)
    q[:, 0] += z
    return np.linalg.solve(np.eye(m) - q, np.ones(m))[0]


class TestSolver:
    @pytest.mark.parametrize("config, gamma, log10_pf, delay", POINTS, ids=POINT_IDS)
    def test_matches_earlier_values(self, config, gamma, log10_pf, delay):
        assert solver_log10_pf(config, gamma) == pytest.approx(log10_pf, abs=5e-6)
        assert solver_delay(config, gamma) == pytest.approx(delay, abs=5e-5)

    @pytest.mark.parametrize(
        "config, gamma, spec, log10_pf",
        [(MAST, 12.0, S1, -8.4771), (PAGE, 19.5, S1, -9.1559), (MAST, 12.0, BARRIER_MEAN, -2.3913)],
        ids=["mast-12", "page-19.5", "mast-12-barrier-mean"],
    )
    def test_matches_classic_form(self, config, gamma, spec, log10_pf):
        # the classic form (I - P) L = 1 gave these, to 4 decimals; at the
        # barrier mean that is an ARL0 of 246.18
        assert solver_log10_pf(config, gamma, spec=spec) == pytest.approx(log10_pf, abs=5e-5)

    @pytest.mark.parametrize("config, gamma", [p[:2] for p in POINTS], ids=POINT_IDS)
    def test_discretisation_error(self, config, gamma):
        assert abs(solver_log10_pf(config, gamma, m=800) - solver_log10_pf(config, gamma)) <= 1e-4
        assert abs(solver_delay(config, gamma, m=800) - solver_delay(config, gamma)) <= 1e-4

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


class TestMonteCarloAgainstSolver:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("config, gamma", [p[:2] for p in POINTS], ids=POINT_IDS)
    def test_pf(self, config, gamma, seed):
        est = estimate_pf(S1, config, gamma, seed=[seed, PF_SEED_TAG, 0], target_crossings=3000)
        assert abs(est.pf - 10.0 ** solver_log10_pf(config, gamma)) <= 4.0 * est.pf_se

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("config, gamma", [p[:2] for p in POINTS], ids=POINT_IDS)
    def test_delay(self, config, gamma, seed):
        est = estimate_delay(S1, config, gamma, 20_000, seed=[seed, DELAY_SEED_TAG, 0])
        assert abs(est.mean_delay - solver_delay(config, gamma)) <= 4.0 * est.delay_se

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: at the barrier mean estimate_pf is biased low (z about -6 here)",
    )
    def test_pf_at_the_barrier_mean(self):
        # as `mast simulate --scenario 1 --alpha 1e-9 --gamma 12 --trials 5000
        # --seed 7 --mode pf` runs it
        solver = 10.0 ** solver_log10_pf(MAST, 12.0, spec=BARRIER_MEAN)
        est = estimate_pf(BARRIER_MEAN, MAST, 12.0, seed=[7, PF_SEED_TAG, 0], target_crossings=5000)
        assert abs(est.pf - solver) <= 4.0 * est.pf_se
