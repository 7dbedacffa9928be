"""Turn raw daily-count files into ratio streams the detectors consume.

A count series is an ordered list of ``(date, count)`` pairs.  Consecutive
same-day-gap pairs are converted to ratios ``x_n = p_n / p_{n-1}``; a
missing day or a zero previous count produces a gap marker instead of a
number.  Detectors skip gaps without touching their state.

The noise level is either supplied by the user or estimated as the sample
standard deviation of a trailing window of ratios.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

__all__ = [
    "CountSeries",
    "DegenerateSigmaError",
    "InsufficientDataError",
    "ParseError",
    "RatioSeries",
    "estimate_sigma",
    "parse_counts",
    "smooth_counts",
    "to_ratios",
]


class ParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientDataError(ValueError):
    """Not enough usable samples for the requested computation."""


class DegenerateSigmaError(ValueError):
    """Estimated noise level is zero; a positive sigma must be supplied."""


@dataclass(frozen=True)
class CountSeries:
    """Dated nonnegative counts with strictly increasing dates.

    Values are integers as parsed; smoothing may make them fractional.
    Calendar gaps are allowed and simply separate ratio runs later on.
    """

    entries: tuple[tuple[dt.date, float], ...]

    def __post_init__(self) -> None:
        for i, (day, value) in enumerate(self.entries):
            if value < 0:
                raise ValueError(f"negative count {value} on {day}")
            if i and day <= self.entries[i - 1][0]:
                raise ValueError(f"dates not strictly increasing at {day}")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def dates(self) -> tuple[dt.date, ...]:
        return tuple(day for day, _ in self.entries)

    @property
    def values(self) -> np.ndarray:
        return np.array([value for _, value in self.entries], dtype=float)


@dataclass(frozen=True)
class RatioSeries:
    """Dated daily ratios; ``None`` marks a gap (no usable ratio that day)."""

    entries: tuple[tuple[dt.date, float | None], ...]

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def values(self) -> list[float]:
        """Ratios with gaps dropped, in date order."""
        return [x for _, x in self.entries if x is not None]

    @property
    def n_gaps(self) -> int:
        return sum(1 for _, x in self.entries if x is None)


def _parse_date(text: str, date_format: str, line: int) -> dt.date:
    try:
        return dt.datetime.strptime(text.strip(), date_format).date()
    except ValueError:
        raise ParseError(line, f"unparseable date {text!r} (expected format {date_format})")


def _parse_count(text: str, line: int) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise ParseError(line, f"unparseable count {text!r}")
    if value < 0:
        raise ParseError(line, f"negative count {value}")
    try:
        float(value)
    except OverflowError:
        raise ParseError(line, f"count {text.strip()!r} is too large for a float")
    return value


def parse_counts(
    source: str | IO[str],
    *,
    date_column: str = "date",
    count_column: str = "count",
    delimiter: str | None = None,
    date_format: str = "%Y-%m-%d",
) -> CountSeries:
    """Parse delimited text with a date and a count column.

    The delimiter is sniffed between comma and tab unless given.  A header
    row holding ``date_column`` and ``count_column`` is used when present;
    headerless input is accepted when the first row already parses as
    (date, count).  Any malformed row, duplicate date, out-of-order date,
    negative count or count too large for a float raises ``ParseError``
    naming the offending line.
    """
    text = source if isinstance(source, str) else source.read()
    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter or _sniff_delimiter(text)))

    def blank(row: list[str]) -> bool:
        return not row or all(not c.strip() for c in row)

    entries: list[tuple[dt.date, float]] = []
    date_idx, count_idx = 0, 1
    first_idx = next((i for i, r in enumerate(rows) if not blank(r)), None)
    if first_idx is None:
        raise ParseError(1, "no data rows")
    first = rows[first_idx]
    data_idx = first_idx
    if not _looks_like_date(first[0], date_format):
        header = [c.strip() for c in first]
        if date_column not in header or count_column not in header:
            raise ParseError(
                first_idx + 1,
                f"header must contain {date_column!r} and {count_column!r}, got {header}",
            )
        date_idx = header.index(date_column)
        count_idx = header.index(count_column)
        data_idx = first_idx + 1

    seen: dict[dt.date, int] = {}
    for offset, row in enumerate(rows[data_idx:]):
        line = data_idx + 1 + offset
        if blank(row):
            continue
        if len(row) <= max(date_idx, count_idx):
            raise ParseError(line, f"expected at least {max(date_idx, count_idx) + 1} columns")
        day = _parse_date(row[date_idx], date_format, line)
        value = _parse_count(row[count_idx], line)
        if day in seen:
            raise ParseError(line, f"duplicate date {day} (first seen on line {seen[day]})")
        if entries and day < entries[-1][0]:
            raise ParseError(line, f"date {day} out of order (previous {entries[-1][0]})")
        seen[day] = line
        entries.append((day, value))
    if not entries:
        raise ParseError(data_idx + 1, "no data rows")
    return CountSeries(tuple(entries))


def _sniff_delimiter(text: str) -> str:
    first_line = next((ln for ln in text.splitlines() if ln.strip()), "")
    return "\t" if "\t" in first_line and "," not in first_line else ","


def _looks_like_date(text: str, date_format: str) -> bool:
    try:
        dt.datetime.strptime(text.strip(), date_format)
        return True
    except ValueError:
        return False


def to_ratios(series: CountSeries) -> RatioSeries:
    """Daily ratios of consecutive counts.

    Each entry is dated at the later day of its pair.  A pair of days more
    than one calendar day apart, or a zero previous count, yields a gap
    marker; a zero current count over a positive previous one yields the
    ratio 0.0 (the collapse itself is informative).
    """
    if len(series) < 2:
        raise InsufficientDataError("need at least 2 counts to form ratios")
    entries: list[tuple[dt.date, float | None]] = []
    for (d0, p0), (d1, p1) in zip(series.entries, series.entries[1:]):
        if (d1 - d0).days != 1 or p0 == 0:
            entries.append((d1, None))
        else:
            entries.append((d1, p1 / p0))
    return RatioSeries(tuple(entries))


def estimate_sigma(ratios: RatioSeries, window: int = 30) -> float:
    """Sample standard deviation of the last ``window`` non-gap ratios.

    The window mean is removed (local detrending), so the estimate tracks
    fluctuation, not level.  A user-supplied sigma always takes precedence
    over this; the estimator is a pragmatic default for real data.
    """
    if window < 8:
        raise ValueError(f"window must be >= 8, got {window}")
    values = ratios.values
    if len(values) < window:
        raise InsufficientDataError(
            f"need {window} non-gap ratios to estimate sigma, have {len(values)}"
        )
    tail = np.array(values[-window:])
    sigma = float(tail.std(ddof=1))
    if sigma <= 0.0 or not math.isfinite(sigma):
        raise DegenerateSigmaError(
            "ratio window has zero spread; supply a positive sigma explicitly"
        )
    return sigma


def smooth_counts(series: CountSeries, window: int = 7) -> CountSeries:
    """Centered moving average over a consecutive-day count series.

    Smoothing suppresses weekday reporting artifacts but correlates
    successive ratios, weakening the independence assumption behind the
    detectors; it is therefore opt-in.  The series must be gap-free and the
    window odd so the average stays centered.  Output length shrinks by
    ``window - 1``.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 1, got {window}")
    if len(series) < window:
        raise InsufficientDataError(f"need at least {window} counts, have {len(series)}")
    days = series.dates
    for d0, d1 in zip(days, days[1:]):
        if (d1 - d0).days != 1:
            raise ValueError(f"smoothing needs consecutive days; gap before {d1}")
    values = series.values
    kernel = np.full(window, 1.0 / window)
    smoothed = np.convolve(values, kernel, mode="valid")
    half = window // 2
    entries = tuple((days[half + i], float(v)) for i, v in enumerate(smoothed))
    return CountSeries(entries)

