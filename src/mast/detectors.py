"""Streaming change detectors built on the CUSUM recursion.

Every detector keeps a single nonnegative statistic updated as

    T_n = max(0, T_{n-1} + increment(x_n)),    T_0 = 0,

and raises an alarm at the first ``n`` with ``T_n > gamma`` (strict).  The
detectors differ only in the increment, which comes in two families:

* ``mast`` -- the mean-agnostic score for a barrier pair ``(lower, upper)``;
  the pair (1, 1) is the paper's single barrier at 1;
* ``page`` -- classical Page CUSUM with nominal means ``1 +/- alpha``.

``run_stream`` is the one implementation of that recursion.
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
    "run_stream",
]


class DetectorKind(str, Enum):
    """Closed set of detector variants, values match the CLI flags."""

    MAST = "mast"
    PAGE = "page"


@dataclass(frozen=True)
class DetectorConfig:
    """Detector variant plus the parameters its increment needs.

    MAST carries a ``Barriers`` pair, Page carries the nominal
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
        elif self.barriers is None:
            raise ValueError("mast detector needs barriers")

    def increment(self, x, out=None):
        """Per-sample score under this configuration (scalar or array),
        written into ``out`` if given (numpy style; ``out`` may be ``x``)."""
        if self.kind is DetectorKind.PAGE:
            return page_increment(x, self.alpha, self.sigma, out=out)
        return mast_increment(x, self.barriers, self.sigma, out=out)


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

    The whole stream is scored by one vectorised ``config.increment`` call.
    A float loop then adds each increment and sets a sum not above zero to
    0.0, which is ``max(0.0, t + d)``; it counts samples only at a
    crossing, as the length of the path.  The Monte Carlo engine in
    ``simulation`` runs this recursion with the same array arithmetic and
    float operations, so both reach the same statistic and crossings from
    the same samples.  A NaN or +/-inf sample raises ``ValueError`` instead
    of silently resetting the statistic.  ``detect`` does not pass one: it
    drops the gaps (NaN) of its ratio series, and ``parse_counts`` bounds
    counts to finite floats; the engine sees only drawn, finite samples.
    """
    gamma = check_gamma(gamma)
    x = np.asarray(samples, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("samples must be finite numbers (no NaN or +/-inf)")
    increments = config.increment(x).tolist()
    path: list[float] = []
    append = path.append
    crossings: list[int] = []
    alarm_index: int | None = None
    t = 0.0
    for d in increments:
        t += d
        if not t > 0.0:  # max(0.0, t): -0.0 and NaN become 0.0 too
            t = 0.0
        append(t)
        if t > gamma:
            n = len(path)
            if alarm_index is None:
                alarm_index = n
            if not monitor:
                break
            crossings.append(n)
            t = 0.0
    return AlarmReport(alarm_index, DetectorState(t, len(path)), path, crossings)

