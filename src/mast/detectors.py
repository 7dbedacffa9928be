"""Streaming change detectors built on the CUSUM recursion.

Every detector keeps a single nonnegative statistic updated as

    T_n = max(0, T_{n-1} + increment(x_n)),    T_0 = 0,

and raises an alarm at the first ``n`` with ``T_n > gamma`` (strict).  The
variants differ only in the increment:

* ``mast-general`` -- barrier pair ``(lower, upper)``, mean-agnostic score.
* ``mast-delta``   -- single barrier ``lower == upper == delta``.
* ``mast``         -- single barrier at 1 (ratios shrink vs. grow).
* ``page``         -- classical Page CUSUM with nominal means ``1 +/- alpha``.

``run_stream`` is the one implementation of that recursion.
``brute_force_statistic`` recomputes the same quantity for the MAST family
by explicit maximisation over the unknown change index; it exists as a
slow, structurally independent cross-check of the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Barriers, check_gamma, check_sigma, mast_increment, page_increment

__all__ = [
    "AlarmReport",
    "DetectorConfig",
    "DetectorKind",
    "DetectorState",
    "brute_force_statistic",
    "run_stream",
]


class DetectorKind(str, Enum):
    """Closed set of detector variants, values match the CLI flags."""

    MAST = "mast"
    MAST_DELTA = "mast-delta"
    MAST_GENERAL = "mast-general"
    PAGE = "page"


@dataclass(frozen=True)
class DetectorConfig:
    """Detector variant plus the parameters its increment needs.

    MAST variants carry a ``Barriers`` pair, Page carries the nominal
    offset ``alpha``.  The alarm threshold is not part of the
    configuration; every run takes it as its own argument.
    """

    kind: DetectorKind
    sigma: float
    barriers: Barriers | None = None
    alpha: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", DetectorKind(self.kind))
        object.__setattr__(self, "sigma", check_sigma(self.sigma))
        if self.kind is DetectorKind.PAGE:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError("page detector needs alpha in (0, 1)")
        else:
            if self.barriers is None:
                raise ValueError(f"{self.kind.value} detector needs barriers")
            if self.kind is not DetectorKind.MAST_GENERAL and (
                self.barriers.lower != self.barriers.upper
            ):
                raise ValueError(f"{self.kind.value} detector needs lower == upper")
            if self.kind is DetectorKind.MAST and self.barriers.lower != 1.0:
                raise ValueError("plain mast fixes the barrier at 1")

    @classmethod
    def mast(cls, sigma: float) -> "DetectorConfig":
        return cls(DetectorKind.MAST, sigma, barriers=Barriers.single(1.0))

    @classmethod
    def mast_delta(cls, delta: float, sigma: float) -> "DetectorConfig":
        return cls(DetectorKind.MAST_DELTA, sigma, barriers=Barriers.single(delta))

    @classmethod
    def mast_general(cls, lower: float, upper: float, sigma: float) -> "DetectorConfig":
        return cls(DetectorKind.MAST_GENERAL, sigma, barriers=Barriers(lower, upper))

    @classmethod
    def page(cls, alpha: float, sigma: float) -> "DetectorConfig":
        return cls(DetectorKind.PAGE, sigma, alpha=alpha)

    def increment(self, x):
        """Per-sample score under this configuration (scalar or array)."""
        if self.kind is DetectorKind.PAGE:
            return page_increment(x, self.alpha, self.sigma)
        return mast_increment(x, self.barriers, self.sigma)


@dataclass(frozen=True)
class DetectorState:
    """Statistic value and number of samples consumed at the end of a run."""

    statistic: float = 0.0
    samples_seen: int = 0

    def __post_init__(self) -> None:
        if not self.statistic >= 0.0:
            raise ValueError(f"statistic must be >= 0, got {self.statistic}")


@dataclass
class AlarmReport:
    """Outcome of running a detector over a sample stream.

    ``alarm_index`` is the 1-based index of the first sample whose updated
    statistic exceeded the threshold, or ``None``.  ``path`` holds the
    statistic after each consumed sample (``path[n - 1]`` after sample
    ``n``), up to and including the alarm sample.  In monitoring mode
    ``crossings`` lists every crossing index (the path keeps the crossing
    value; the statistic restarts from zero after it) and ``alarm_index``
    is the first of them.
    """

    alarm_index: int | None
    final_state: DetectorState
    path: list[float]
    crossings: list[int] = field(default_factory=list)

    @property
    def alarmed(self) -> bool:
        return self.alarm_index is not None


def run_stream(
    samples: Sequence[float],
    config: DetectorConfig,
    gamma: float,
    *,
    monitor: bool = False,
) -> AlarmReport:
    """Run a detector over ``samples`` from a fresh state.

    Stops at the first statistic value strictly above ``gamma``
    (stopping-time semantics); ``gamma = inf`` never alarms.  With
    ``monitor=True`` the statistic is instead reset to zero at every
    crossing and the run continues to the end of the stream, collecting
    all crossing indices; this is the regime used to measure time between
    false alarms.

    The whole stream is scored by one vectorised ``config.increment`` call,
    the same array arithmetic the Monte Carlo engine uses, so both score a
    sample identically.
    """
    gamma = check_gamma(gamma)
    increments = config.increment(np.asarray(samples, dtype=float)).tolist()
    path: list[float] = []
    crossings: list[int] = []
    alarm_index: int | None = None
    t = 0.0
    for n, d in enumerate(increments, 1):
        t = max(0.0, t + d)
        path.append(t)
        if t > gamma:
            if alarm_index is None:
                alarm_index = n
            if not monitor:
                break
            crossings.append(n)
            t = 0.0
    return AlarmReport(alarm_index, DetectorState(t, len(path)), path, crossings)


def brute_force_statistic(samples: Sequence[float], barriers: Barriers, sigma: float) -> float:
    """MAST statistic by explicit maximisation over the change index.

    Evaluates ``max(0, max_j sum_{k=j..n} increment(x_k))`` directly; the
    empty change index (change after the last sample) contributes 0.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size == 0:
        return 0.0
    scores = mast_increment(x, barriers, sigma)
    suffix_sums = np.cumsum(scores[::-1])[::-1]
    return float(max(0.0, suffix_sums.max()))
