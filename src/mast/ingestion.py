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
from typing import Iterable

import numpy as np

__all__ = [
    "CountSeries",
    "DegenerateSigmaError",
    "InsufficientDataError",
    "ParseError",
    "RatioSeries",
    "estimate_sigma",
    "parse_counts",
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
    rounded to the nearest float.
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
    cell = text.strip()
    iso = date_format == _ISO_FORMAT
    try:
        # the default format is answered without strptime where it can be,
        # since strptime's first call costs milliseconds of set-up: a
        # YYYY-MM-DD cell means the same day to fromisoformat, many times
        # faster, and %Y needs a decimal digit first
        if iso and _ISO_DATE.fullmatch(cell):
            return dt.date.fromisoformat(cell)
        if iso and not cell[:1].isdecimal():
            raise ValueError
        return dt.datetime.strptime(cell, date_format).date()
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
    return not any(map(str.strip, row))


def parse_counts(
    text: str,
    *,
    date_column: str = "date",
    count_column: str = "count",
    date_format: str = _ISO_FORMAT,
) -> CountSeries:
    """Parse delimited text with a date and a count column.

    The delimiter is sniffed between comma and tab (see
    ``_sniff_delimiter``).  A header row holding ``date_column`` and
    ``count_column`` is used when present; input is headerless when the
    first cell of its first non-blank row parses as a date.  Any malformed
    row, duplicate date, out-of-order date, negative count or count too
    large for a float raises ``ParseError`` naming the offending line.  One
    leading byte-order mark (U+FEFF) is dropped.

    ``csv`` first reads the rows up to the first non-blank one.  With the
    default ``date_format``, the rest is parsed as text in bulk when every
    row has as many cells as the first (the header, if any), none quoted,
    the date written ``YYYY-MM-DD`` and the count in at most 15 digits,
    neither padded (see ``_parse_iso_text``).  Any other input, and any
    that fails there (a date out of order, say), goes through a per-row
    loop over every ``csv`` row, which names the first bad line.  Both
    give the same series.
    """
    # a spreadsheet export may start with a UTF-8 byte-order mark
    text = text.removeprefix("\ufeff")
    delimiter = _sniff_delimiter(text)
    # read up to the first non-blank row only: the ISO path takes the rest
    # as text, and only the row loop needs every row
    buffer = io.StringIO(text)
    reader = csv.reader(buffer, delimiter=delimiter)
    first_idx, start = 0, 0
    for first in reader:
        if not _blank(first):
            break
        first_idx, start = first_idx + 1, buffer.tell()
    else:
        raise ParseError(1, "no data rows")
    date_idx, count_idx = 0, 1
    data_idx = first_idx
    try:
        _parse_date(first[0], date_format, first_idx + 1)
    except ParseError:
        header = [c.strip() for c in first]
        if date_column not in header or count_column not in header:
            list(reader)  # a csv.Error in a later row comes first, as in the row loop
            raise ParseError(
                first_idx + 1,
                f"header must contain {date_column!r} and {count_column!r}, got {header}",
            )
        date_idx = header.index(date_column)
        count_idx = header.index(count_column)
        data_idx = first_idx + 1
        start = buffer.tell()

    if date_format == _ISO_FORMAT:
        series = _parse_iso_text(text[start:], delimiter, len(first), date_idx, count_idx)
        if series is not None:
            return series

    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter))
    days: list[dt.date] = []
    counts: list[int] = []
    lines: list[int] = []
    needed = max(date_idx, count_idx) + 1
    for line, row in enumerate(rows[data_idx:], data_idx + 1):
        if _blank(row):
            continue
        if len(row) < needed:
            raise ParseError(line, f"expected at least {needed} columns")
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


def _parse_iso_text(
    body: str, delimiter: str, columns: int, date_idx: int, count_idx: int
) -> CountSeries | None:
    """The data rows in ``body`` as a series, or None unless each row is
    ``columns`` cells with no quote, its date written ``YYYY-MM-DD`` and its
    count in at most 15 ASCII digits, with no whitespace around either, and
    only blank lines (spaces, tabs and delimiters) follow the last row.

    The rows end with the last line that holds a digit.  One regular
    expression search looks for a line among them that is not a row, and
    the rows are split into cells once.  A date of that shape means the
    same day to ``fromisoformat`` and to ``strptime`` with the default
    format, a count of at most 15 digits is an exact float, and
    ``CountSeries`` itself rejects dates that do not strictly increase.
    Lines end in ``\\n`` or ``\\r\\n``, as ``csv`` reads them; a NUL, which
    ``csv`` rejects before Python 3.11, is left to the row loop.
    """
    last_digit = max(map(body.rfind, "0123456789"))
    if date_idx == count_idx or max(date_idx, count_idx) >= columns or last_digit < 0:
        return None
    end = body.find("\n", last_digit)
    rows = body[: len(body) if end < 0 else end].removesuffix("\r")
    if body[len(rows) :].replace("\r\n", "\n").strip(f" \t\n{delimiter}"):
        return None
    sep = re.escape(delimiter)
    patterns = [rf'[^{sep}"\r\n\x00]*'] * columns
    patterns[date_idx] = _ISO_DATE.pattern
    patterns[count_idx] = "[0-9]{1,15}"
    # a search, not a match of repeated rows, whose backtracking stack
    # would grow with the number of rows
    if re.search(rf"\n(?!{sep.join(patterns)}\r?(?:\n|\Z))", "\n" + rows):
        return None
    cells = rows.replace("\r\n", "\n").replace("\n", delimiter).split(delimiter)
    try:
        return CountSeries(
            _day_column(map(dt.date.fromisoformat, cells[date_idx::columns])),
            np.array(cells[count_idx::columns], dtype=float),
        )
    except ValueError:
        return None


def _sniff_delimiter(text: str) -> str:
    """Tab if the first non-blank line of ``text.splitlines()`` has a tab and
    no comma, else comma.  Lines are cut one ``\\n``-ended chunk at a time,
    so nothing past that line is read."""
    lines = (ln for chunk in re.finditer(r".*\n?", text) for ln in chunk[0].splitlines())
    first_line = next((ln for ln in lines if ln.strip()), "")
    return "\t" if "\t" in first_line and "," not in first_line else ","


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
