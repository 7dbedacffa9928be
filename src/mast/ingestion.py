"""Turn raw daily-count files into ratio streams the detectors consume.

A count series is two columns: strictly increasing days and nonnegative
counts.  Consecutive same-day-gap pairs are converted to ratios
``x_n = p_n / p_{n-1}``; a missing day or a zero previous count produces a
gap (NaN) instead of a number.  Detectors skip gaps without touching their
state.

The noise level is either supplied by the user or estimated as the sample
standard deviation of a trailing window of ratios.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable

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


_ISO_FORMAT = "%Y-%m-%d"
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_ONE_DAY = np.timedelta64(1, "D")


class ParseError(ValueError):
    """Malformed input row; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class InsufficientDataError(ValueError):
    """Not enough usable samples for the requested computation."""


class DegenerateSigmaError(ValueError):
    """Estimated noise level is zero; a positive sigma must be supplied."""


@dataclass(frozen=True, eq=False)
class _Series:
    """A ``datetime64[D]`` column of strictly increasing days and a float64
    column of one value per day.  ``len()`` is the number of days."""

    days: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        days = np.asarray(self.days, dtype="datetime64[D]")
        values = np.asarray(self.values, dtype=float)
        if days.ndim != 1 or days.shape != values.shape:
            raise ValueError("days and values must be 1-D columns of one length")
        if not (np.diff(days) > np.timedelta64(0, "D")).all():
            raise ValueError("days must strictly increase")
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.days)


class CountSeries(_Series):
    """Dated nonnegative counts.

    Counts are float64, so they are exact up to 2**53 and larger ones are
    rounded to the nearest float; smoothing may make them fractional.
    Calendar gaps are allowed and simply separate ratio runs later on.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.values >= 0.0).all() or not np.isfinite(self.values).all():
            raise ValueError("counts must be finite and nonnegative")


class RatioSeries(_Series):
    """Dated daily ratios; NaN marks a gap (no usable ratio that day)."""


def _day_column(dates: Iterable[dt.date]) -> np.ndarray:
    """``dates`` as ``datetime64[D]``, converted through their ordinals,
    which is many times faster than converting the date objects."""
    ordinals = np.fromiter(map(dt.date.toordinal, dates), np.int64)
    return (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")


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


def _blank(row: list[str]) -> bool:
    return not row or all(not c.strip() for c in row)


def parse_counts(
    source: str | IO[str],
    *,
    date_column: str = "date",
    count_column: str = "count",
    delimiter: str | None = None,
    date_format: str = _ISO_FORMAT,
) -> CountSeries:
    """Parse delimited text with a date and a count column.

    The delimiter is sniffed between comma and tab unless given.  A header
    row holding ``date_column`` and ``count_column`` is used when present;
    headerless input is accepted when the first row already parses as
    (date, count).  Any malformed row, duplicate date, out-of-order date,
    negative count or count too large for a float raises ``ParseError``
    naming the offending line.

    With the default ``date_format``, input whose dates are all written
    ``YYYY-MM-DD`` is parsed column by column; anything else goes through
    a per-row loop with ``strptime``.  Both accept the same inputs and give
    the same series: the loop is also what names the first bad line.
    """
    text = source if isinstance(source, str) else source.read()
    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter or _sniff_delimiter(text)))
    date_idx, count_idx = 0, 1
    first_idx = next((i for i, r in enumerate(rows) if not _blank(r)), None)
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

    if date_format == _ISO_FORMAT:
        series = _parse_iso_rows(rows[data_idx:], date_idx, count_idx)
        if series is not None:
            return series

    days: list[dt.date] = []
    counts: list[int] = []
    lines: list[int] = []
    for line, row in enumerate(rows[data_idx:], data_idx + 1):
        if _blank(row):
            continue
        if len(row) <= max(date_idx, count_idx):
            raise ParseError(line, f"expected at least {max(date_idx, count_idx) + 1} columns")
        day = _parse_date(row[date_idx], date_format, line)
        value = _parse_count(row[count_idx], line)
        if days and day <= days[-1]:
            # days strictly increase: only the first one not before day can equal it
            k = next(k for k, earlier in enumerate(days) if earlier >= day)
            if days[k] == day:
                raise ParseError(line, f"duplicate date {day} (first seen on line {lines[k]})")
            raise ParseError(line, f"date {day} out of order (previous {days[-1]})")
        days.append(day)
        counts.append(value)
        lines.append(line)
    if not days:
        raise ParseError(data_idx + 1, "no data rows")
    return CountSeries(_day_column(days), counts)


def _parse_iso_rows(rows: list[list[str]], date_idx: int, count_idx: int) -> CountSeries | None:
    """The data ``rows`` as a series when the per-row loop would accept them
    and every date is written ``YYYY-MM-DD``; else None.

    A date of that shape means the same day to ``fromisoformat`` and to
    ``strptime`` with the default format, and ``CountSeries`` itself
    rejects negative counts and dates that do not strictly increase.
    """
    # testing the first cell before the whole row skips most _blank() calls
    rows = [row for row in rows if row and row[0].strip() or not _blank(row)]
    try:
        dates = [row[date_idx].strip() for row in rows]
        counts = [int(row[count_idx].strip()) for row in rows]
        float(max(counts))  # OverflowError: a count too large for a float
        if all(map(_ISO_DATE.fullmatch, dates)):
            return CountSeries(_day_column(map(dt.date.fromisoformat, dates)), counts)
    except (IndexError, ValueError, OverflowError):
        pass
    return None


def _sniff_delimiter(text: str) -> str:
    """Tab if the first non-blank line of ``text.splitlines()`` has a tab and
    no comma, else comma.  Lines are cut one ``\\n``-ended chunk at a time,
    so nothing past that line is read."""
    lines = (ln for chunk in re.finditer(r".*\n?", text) for ln in chunk[0].splitlines())
    first_line = next((ln for ln in lines if ln.strip()), "")
    return "\t" if "\t" in first_line and "," not in first_line else ","


def _looks_like_date(text: str, date_format: str) -> bool:
    try:
        dt.datetime.strptime(text.strip(), date_format)
        return True
    except ValueError:
        return False


def to_ratios(series: CountSeries) -> RatioSeries:
    """Daily ratios of consecutive counts.

    Each ratio is dated at the later day of its pair.  A pair of days more
    than one calendar day apart, or a zero previous count, yields a gap
    (NaN); a zero current count over a positive previous one yields the
    ratio 0.0 (the collapse itself is informative).  The ratio is the
    quotient of the float64 counts, so counts above 2**53 give the quotient
    of their rounded values.
    """
    if len(series) < 2:
        raise InsufficientDataError("need at least 2 counts to form ratios")
    previous, current = series.values[:-1], series.values[1:]
    usable = (np.diff(series.days) == _ONE_DAY) & (previous != 0.0)
    ratios = np.divide(current, previous, out=np.full(len(current), np.nan), where=usable)
    return RatioSeries(series.days[1:], ratios)


def estimate_sigma(ratios: RatioSeries, window: int = 30) -> float:
    """Sample standard deviation of the last ``window`` non-gap ratios.

    The window mean is removed (local detrending), so the estimate tracks
    fluctuation, not level.  A user-supplied sigma always takes precedence
    over this; the estimator is a pragmatic default for real data.
    """
    if window < 8:
        raise ValueError(f"window must be >= 8, got {window}")
    values = ratios.values[~np.isnan(ratios.values)]
    if len(values) < window:
        raise InsufficientDataError(
            f"need {window} non-gap ratios to estimate sigma, have {len(values)}"
        )
    sigma = float(values[-window:].std(ddof=1))
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
    gaps = np.flatnonzero(np.diff(series.days) != _ONE_DAY)
    if gaps.size:
        raise ValueError(f"smoothing needs consecutive days; gap before {series.days[gaps[0] + 1]}")
    smoothed = np.convolve(series.values, np.full(window, 1.0 / window), mode="valid")
    half = window // 2
    return CountSeries(series.days[half : half + len(smoothed)], smoothed)

