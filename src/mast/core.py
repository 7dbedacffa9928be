"""Numerical kernel for ratio-based quickest detection.

The observed quantity is the daily ratio ``x_n = p_n / p_{n-1}`` of a count
series that evolves multiplicatively.  Ratios are modelled as independent
Gaussians with known standard deviation ``sigma`` and an unknown mean that
stays at or below a lower barrier while the process is under control, and
strictly above an upper barrier once it turns critical.

This module holds the pure per-sample arithmetic shared by every detector:

* ``mast_increment`` -- the piecewise score a single ratio contributes to
  the MAST statistic.  Negative (quadratic) below the lower barrier,
  linear between the barriers, positive (quadratic) above the upper one.
* ``page_increment`` -- the classical Page CUSUM increment for nominal
  means ``1 - alpha`` / ``1 + alpha``.

All functions accept scalars or numpy arrays and share no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Barriers",
    "mast_increment",
    "page_increment",
]


@dataclass(frozen=True)
class Barriers:
    """Mean barriers ``0 < lower <= upper`` separating the two regimes.

    ``lower`` bounds the controlled-regime mean from above, ``upper``
    bounds the critical-regime mean from below.  ``lower == upper`` is the
    single-barrier detector; ``lower = 1 - alpha, upper = 1 + alpha``
    matches the nominal Page setup.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("barriers must be finite")
        if not 0.0 < self.lower <= self.upper:
            raise ValueError(
                f"barriers must satisfy 0 < lower <= upper, got ({self.lower}, {self.upper})"
            )

    @classmethod
    def single(cls, delta: float) -> "Barriers":
        """Degenerate pair ``lower == upper == delta``."""
        return cls(delta, delta)

    @classmethod
    def around_unity(cls, alpha: float) -> "Barriers":
        """Symmetric pair ``(1 - alpha, 1 + alpha)`` for ``0 < alpha < 1``."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        return cls(1.0 - alpha, 1.0 + alpha)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)


def check_sigma(sigma: float) -> float:
    """Validate a noise level and return it as a float."""
    sigma = float(sigma)
    if not math.isfinite(sigma) or sigma <= 0.0:
        raise ValueError(f"sigma must be finite and > 0, got {sigma}")
    return sigma


def check_gamma(gamma: float) -> float:
    """Validate an alarm threshold and return it as a float.

    ``inf`` is legal and means "never alarm"; NaN and negative values are not.
    """
    gamma = float(gamma)
    if not gamma >= 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return gamma


def mast_increment(x, barriers: Barriers, sigma: float):
    """Per-sample score of the mean-agnostic detector.

    Piecewise in the sample value:

    * ``x <= lower``:          ``-(x - upper)^2 / (2 sigma^2)``
    * ``lower < x <= upper``:  ``(upper - lower) / sigma^2 * (x - midpoint)``
    * ``x > upper``:           ``(x - lower)^2 / (2 sigma^2)``

    Continuous and nondecreasing in ``x``; scales as ``1 / sigma^2``.  With
    ``lower == upper == delta`` the middle branch is empty and the score
    reduces to ``sign(x - delta) (x - delta)^2 / (2 sigma^2)``.

    Accepts a scalar or array ``x``; returns the same shape.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = barriers.lower, barriers.upper
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    below = -((x - hi) ** 2) * inv2s2
    between = (hi - lo) * 2.0 * inv2s2 * (x - barriers.midpoint)
    above = (x - lo) ** 2 * inv2s2
    out = np.where(x <= lo, below, np.where(x <= hi, between, above))
    return float(out) if out.ndim == 0 else out


def page_increment(x, alpha: float, sigma: float):
    """Page CUSUM increment ``2 alpha (x - 1) / sigma^2``.

    ``alpha`` is the assumed symmetric offset of the pre-/post-change means
    from one.  Accepts a scalar or array ``x``.
    """
    x = np.asarray(x, dtype=float)
    out = 2.0 * alpha * (x - 1.0) / (sigma * sigma)
    return float(out) if out.ndim == 0 else out

