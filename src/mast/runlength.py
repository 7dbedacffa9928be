"""False-alarm rates of the CUSUM detectors from a run-length solver.

On i.i.d. ratios the statistic ``T_n = max(0, T_{n-1} + g(x_n))`` of
``detectors.run_stream`` is a Markov chain, and its false-alarm rate
follows from the method of Brook and Evans (1972) in the cycle form of
Page (1954).  A ratio is ``N(mu, sigma^2)``, its mean ``mu`` fixed
(scenario 1) or drawn afresh each day, uniform on ``(low, high)``
(scenario 2).

The statistic on ``[0, gamma]`` is cut into ``m`` states of width
``w = gamma / (m - 1/2)``: state ``j >= 1`` holds ``((j - 1/2) w, (j + 1/2) w]``
and is represented by ``j w``, and state 0 holds ``(0, w / 2]``.  One step
from state ``i`` adds an increment ``g(X)``, lands in state ``j`` with
probability ``Q[i, j]`` and crosses ``gamma`` with probability ``s[i]``.
Every increment is continuous and strictly increasing in the ratio, so
these are differences of the ratio's CDF at ``g``'s inverse, which has a
closed form.  ``Q[i, j]`` depends only on ``j - i`` outside column 0, so a
kernel needs ``2m - 1`` interval masses and one column.

A cycle starts at 0 and ends when the statistic falls to 0 or crosses
``gamma``; both restart it at 0, so the cycles of a monitoring chain are
i.i.d.  With ``(I - Q) h = s`` and ``(I - Q) n = 1``, ``h[0]`` is the
chance that a cycle ends in a crossing and ``n[0]`` its mean length, so
the false-alarm rate, the reciprocal of the mean time between crossings
that ``simulation.estimate_pf`` measures, is ``h[0] / n[0]``.  Every state
leaks mass to 0 or past ``gamma``, so ``I - Q`` stays well conditioned
however small the rate.

``L(m) = log10 pf`` converges at second order in ``w``.  ``log10_pf``
solves at ``m = 100`` and 200 and reports the Richardson value
``(4 L(2m) - L(m)) / 3`` with ``|L(2m) - L(m)|`` as its discretisation
error.  While that error is above ``_TOLERANCE`` it doubles ``m``, up to
``_M_CAP``.  Only numpy and ``math`` are used: Phi comes from
``math.erfc``.
"""

from __future__ import annotations

import math

import numpy as np

from .detectors import DetectorConfig, DetectorKind

__all__ = ["PfUnderflowError", "log10_pf"]

# the first discretisation, the largest, and the largest discretisation
# error in log10 pf that a reported value may carry (2.3% of pf)
_M_START = 100
_M_CAP = 1600
_TOLERANCE = 1e-2
# erfcx is exp(x^2) erfc(x) below this, where erfc is still a normal float
_ERFCX_SERIES_FROM = 25.0

_erfc = np.frompyfunc(math.erfc, 1, 1)


class PfUnderflowError(ValueError):
    """The false-alarm rate is below the smallest normal float."""


def _erfc_of(x) -> np.ndarray:
    return np.asarray(_erfc(np.asarray(x, dtype=float)), dtype=float)


def norm_cdf(z) -> np.ndarray:
    """Phi(z), the standard normal CDF."""
    return 0.5 * _erfc_of(-np.asarray(z, dtype=float) / math.sqrt(2.0))


def norm_sf(z) -> np.ndarray:
    """1 - Phi(z), with the digits of the upper tail."""
    return 0.5 * _erfc_of(np.asarray(z, dtype=float) / math.sqrt(2.0))


def _erfcx(x) -> np.ndarray:
    """``exp(x^2) erfc(x)`` for ``x >= 0``.  From ``_ERFCX_SERIES_FROM`` on
    it is the asymptotic series ``(1 - 1/(2x^2) + 3/(2x^2)^2 - ...) / (x sqrt(pi))``,
    whose eighth term there is below 1e-19 of the first."""
    x = np.asarray(x, dtype=float)
    near = np.minimum(x, _ERFCX_SERIES_FROM)
    direct = np.exp(near * near) * _erfc_of(near)
    far = np.maximum(x, _ERFCX_SERIES_FROM)
    step = -0.5 / (far * far)
    term = np.ones_like(far)
    series = term.copy()
    for k in range(1, 8):
        term = term * (2 * k - 1) * step
        series += term
    return np.where(x < _ERFCX_SERIES_FROM, direct, series / (far * math.sqrt(math.pi)))


def g_integral(z) -> np.ndarray:
    """``G(z) = z Phi(z) + phi(z)``, the integral of Phi up to ``z``.  Below
    0 it is ``phi(u) (1 - u sqrt(pi / 2) erfcx(u / sqrt 2))`` with ``u = -z``,
    which keeps its digits in the deep tail."""
    z = np.asarray(z, dtype=float)
    u = np.abs(z)
    pdf = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    tail = pdf * (1.0 - u * math.sqrt(math.pi / 2.0) * _erfcx(u / math.sqrt(2.0)))
    return np.where(z < 0.0, tail, z * norm_cdf(z) + pdf)


def ratio_cdf(law, x) -> np.ndarray:
    """P(X <= x) for a ratio of ``law = (low, high, sigma)``."""
    low, high, sigma = law
    if low == high:
        return norm_cdf((x - low) / sigma)
    return sigma / (high - low) * (g_integral((x - low) / sigma) - g_integral((x - high) / sigma))


def ratio_sf(law, x) -> np.ndarray:
    """P(X > x) for a ratio of ``law = (low, high, sigma)``."""
    low, high, sigma = law
    if low == high:
        return norm_sf((x - low) / sigma)
    return sigma / (high - low) * (g_integral((high - x) / sigma) - g_integral((low - x) / sigma))


def _inverse_increment(config: DetectorConfig, t) -> np.ndarray:
    """The ratio whose increment under ``config`` is ``t``.  A barrier pair
    ``lo < hi`` has three branches, split at ``t = -/+ (hi - lo)^2 / (2 sigma^2)``;
    one barrier has two."""
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


def _interval_mass(config, law, low, high) -> np.ndarray:
    """P(low < g(X) <= high), from the survival function where the interval
    lies above the law's median, so that upper tails keep their digits."""
    x_low, x_high = _inverse_increment(config, low), _inverse_increment(config, high)
    above = x_low > 0.5 * (law[0] + law[1])
    return np.where(
        above, ratio_sf(law, x_low) - ratio_sf(law, x_high),
        ratio_cdf(law, x_high) - ratio_cdf(law, x_low),
    )


def _log10_pf_at(config, law, gamma: float, m: int) -> float:
    """log10 pf with ``m`` states; -inf where pf is below the smallest
    normal float (a coarse kernel can round it to 0 or below)."""
    w = gamma / (m - 0.5)
    k = np.arange(1 - m, m)
    by_offset = _interval_mass(config, law, (k - 0.5) * w, (k + 0.5) * w)
    i = np.arange(m)
    # I - Q, built in place
    a = -by_offset[i[None, :] - i[:, None] + m - 1]
    a[:, 0] = -_interval_mass(config, law, -i * w, (0.5 - i) * w)
    a[i, i] += 1.0
    s = ratio_sf(law, _inverse_increment(config, gamma - i * w))
    h, n = np.linalg.solve(a, np.column_stack([s, np.ones(m)]))[0]
    return math.log10(h / n) if h / n >= np.finfo(float).tiny else -math.inf


def log10_pf(config: DetectorConfig, gamma: float, means: tuple[float, float], sigma: float
             ) -> tuple[float, float]:
    """log10 of the false-alarm rate of ``config`` at threshold ``gamma``
    (finite, >= 0) and its discretisation error, for i.i.d. ratios
    ``N(mu, sigma^2)`` with ``mu`` uniform on ``means = (low, high)``, or
    fixed where ``low == high``.

    The value is the Richardson step ``(4 L(2m) - L(m)) / 3`` and the
    error ``|L(2m) - L(m)|`` (see the module docstring).  Where the rate
    is below the smallest normal float even at ``_M_CAP`` states this
    raises ``PfUnderflowError``, a ``ValueError``; where the error is
    still above ``_TOLERANCE`` there, ``ValueError``.  At ``gamma = 0``
    every kernel is empty and the value is ``P(g(X) > 0)``.
    """
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and >= 0, got {gamma}")
    law = (means[0], means[1], sigma)
    m = _M_START
    coarse = _log10_pf_at(config, law, gamma, m)
    while True:
        fine = _log10_pf_at(config, law, gamma, 2 * m)
        # nan while both underflow, inf while only the coarse one does
        gap = abs(fine - coarse)
        if gap <= _TOLERANCE:
            return (4.0 * fine - coarse) / 3.0, gap
        if 4 * m > _M_CAP:
            break
        m, coarse = 2 * m, fine
    if fine == -math.inf:
        raise PfUnderflowError(
            f"the false-alarm rate of {config.kind.value} at gamma={gamma:g} is below the "
            f"smallest normal float: lower gamma"
        )
    raise ValueError(
        f"the run-length solver cannot resolve the false-alarm rate of {config.kind.value} "
        f"at gamma={gamma:g}: log10 pf moves by {gap:.3g} between {m} and {2 * m} states, "
        f"above {_TOLERANCE:g}"
    )
