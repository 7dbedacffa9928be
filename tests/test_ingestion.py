"""Tests for count parsing, ratio conversion and sigma estimation."""

import csv
import datetime as dt
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mast.core import Barriers
from mast.detectors import DetectorConfig, DetectorKind, run_stream
from mast.ingestion import (
    CountSeries,
    DegenerateSigmaError,
    InsufficientDataError,
    ParseError,
    RatioSeries,
    _parse_date,
    _sniff_delimiter,
    estimate_sigma,
    parse_counts,
    to_ratios,
)


def day(offset: int) -> dt.date:
    return dt.date(2020, 10, 1) + dt.timedelta(days=offset)


def days(n: int) -> list[dt.date]:
    return [day(i) for i in range(n)]


def series(counts, start=0):
    return CountSeries([day(start + i) for i in range(len(counts))], counts)


class TestParseCounts:
    def test_headerless_two_columns(self):
        parsed = parse_counts("2020-10-01,100\n2020-10-02,120")
        assert len(parsed) == 2
        assert parsed.days.tolist() == [dt.date(2020, 10, 1), dt.date(2020, 10, 2)]
        assert parsed.values.tolist() == [100.0, 120.0]

    def test_header_with_named_columns(self):
        text = "count,region,date\n7,north,2021-01-05\n9,north,2021-01-06\n"
        parsed = parse_counts(text)
        assert parsed.days.tolist() == [dt.date(2021, 1, 5), dt.date(2021, 1, 6)]
        assert parsed.values.tolist() == [7.0, 9.0]

    def test_custom_column_names(self):
        text = "when,cases\n2021-01-05,7\n2021-01-06,9\n"
        parsed = parse_counts(text, date_column="when", count_column="cases")
        assert len(parsed) == 2

    def test_tab_delimited(self):
        parsed = parse_counts("2020-10-01\t5\n2020-10-02\t6\n")
        assert list(parsed.values) == [5.0, 6.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_tab_delimited_after_blank_lines(self, newline):
        lines = ["", "   ", "\t", " \t ", "date\tcount", "2020-10-01\t5", "2020-10-02\t6"]
        parsed = parse_counts(newline.join(lines) + newline)
        assert parsed.days.tolist() == [dt.date(2020, 10, 1), dt.date(2020, 10, 2)]
        assert parsed.values.tolist() == [5.0, 6.0]

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(alphabet=["\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028", " ", "\t",
                                  ",", "7"], max_size=12))
    # lines that str.splitlines cuts at a form feed or a file separator
    @example(text="\t\f7")
    @example(text=" \n7\x1c\t")
    def test_delimiter_from_first_nonblank_line(self, text):
        first_line = next((ln for ln in text.splitlines() if ln.strip()), "")
        expect = "\t" if "\t" in first_line and "," not in first_line else ","
        assert _sniff_delimiter(text) == expect

    @pytest.mark.parametrize(
        "cell",
        ["date", " Date ", "", "  ", "2020-10-01", " 2020-10-01\t", "2020-02-30", "0000-01-01",
         "2020-1-5", "20201001", "2020-W40-1", "\u0662\u0660\u0662\u0660-10-01",
         "\uff12\uff10\uff12\uff10-10-01", "\u00b2020-10-01", "1st", "x2020-10-01"],
    )
    @pytest.mark.parametrize("date_format", ["%Y-%m-%d", "%d/%m/%Y"])
    def test_header_check_matches_strptime(self, cell, date_format):
        # a first cell that is not a date makes its row a header; the
        # default format is answered without strptime, and must agree with
        # it: Unicode decimal digits are digits to %Y too
        try:
            expect = dt.datetime.strptime(cell.strip(), date_format).date()
        except ValueError:
            expect = None
        try:
            got = _parse_date(cell, date_format, 1)
        except ParseError:
            got = None
        assert got == expect

    def test_out_of_order_dates_name_the_line(self):
        with pytest.raises(ParseError, match="line 3") as err:
            parse_counts("2020-10-01,1\n2020-10-05,2\n2020-10-03,3")
        assert err.value.line == 3

    def test_duplicate_date(self):
        with pytest.raises(ParseError, match="duplicate date"):
            parse_counts("2020-10-01,1\n2020-10-01,2")

    def test_negative_count(self):
        with pytest.raises(ParseError, match="negative count"):
            parse_counts("2020-10-01,1\n2020-10-02,-5")

    def test_unparseable_fields(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_counts("2020-10-01,1\nnot-a-date,2")
        with pytest.raises(ParseError, match="unparseable count"):
            parse_counts("2020-10-01,1\n2020-10-02,many")

    def test_missing_columns_in_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_counts("a,b\n1,2\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_counts("")

    def test_count_too_large_for_a_float(self):
        with pytest.raises(ParseError, match="line 2: count .* too large") as err:
            parse_counts("2020-10-01,1\n2020-10-02," + "9" * 400)
        assert err.value.line == 2

    def test_csv_error_in_a_later_row_comes_before_a_bad_header(self):
        # every row is read before the header is judged, as in the row loop
        with pytest.raises(csv.Error):
            parse_counts("when,count\n2020-10-01,5\r,x\n")


def reference_parse_counts(text, date_column="date", count_column="count", date_format="%Y-%m-%d"):
    """``parse_counts`` as one per-row ``strptime`` loop: the reference the
    column-by-column parse of ``YYYY-MM-DD`` dates must match."""
    first_line = next((ln for ln in text.splitlines() if ln.strip()), "")
    delimiter = "\t" if "\t" in first_line and "," not in first_line else ","
    rows = list(csv.reader(io.StringIO(text), delimiter=delimiter))

    def blank(row):
        return not row or all(not c.strip() for c in row)

    def parse_date(cell, line):
        try:
            return dt.datetime.strptime(cell.strip(), date_format).date()
        except ValueError:
            raise ParseError(line, f"unparseable date {cell!r} (expected format {date_format})")

    def parse_count(cell, line):
        try:
            value = int(cell.strip())
        except ValueError:
            raise ParseError(line, f"unparseable count {cell!r}")
        if value < 0:
            raise ParseError(line, f"negative count {value}")
        try:
            float(value)
        except OverflowError:
            raise ParseError(line, f"count {cell.strip()!r} is too large for a float")
        return value

    first_idx = next((i for i, r in enumerate(rows) if not blank(r)), None)
    if first_idx is None:
        raise ParseError(1, "no data rows")
    date_idx, count_idx, data_idx = 0, 1, first_idx
    try:
        parse_date(rows[first_idx][0], 0)
    except ParseError:
        header = [c.strip() for c in rows[first_idx]]
        if date_column not in header or count_column not in header:
            raise ParseError(
                first_idx + 1,
                f"header must contain {date_column!r} and {count_column!r}, got {header}",
            )
        date_idx, count_idx = header.index(date_column), header.index(count_column)
        data_idx = first_idx + 1
    entries, seen = [], {}
    for line, row in enumerate(rows[data_idx:], data_idx + 1):
        if blank(row):
            continue
        if len(row) <= max(date_idx, count_idx):
            raise ParseError(line, f"expected at least {max(date_idx, count_idx) + 1} columns")
        day = parse_date(row[date_idx], line)
        value = parse_count(row[count_idx], line)
        if day in seen:
            raise ParseError(line, f"duplicate date {day} (first seen on line {seen[day]})")
        if entries and day < entries[-1][0]:
            raise ParseError(line, f"date {day} out of order (previous {entries[-1][0]})")
        seen[day] = line
        entries.append((day, value))
    if not entries:
        raise ParseError(data_idx + 1, "no data rows")
    return CountSeries([day for day, _ in entries], [value for _, value in entries])


ODD_DATES = ["2020-W01-1", "0000-01-01", "2020-02-30", "today", "NaT", "20200105", ""]
ODD_COUNTS = ["+5", "1_000", "\u0663", "-0", str(2**53 + 1), "9" * 400, "-3", "x", " 7 ", ""]
BLANK_ROWS = ["", "  ", "\t", " , ", ","]


@st.composite
def count_files(draw):
    """Count files mixing valid rows, odd dates and counts, blank rows and
    dates that repeat or go backwards, with or without a header.  Each file
    draws how often a row is odd, so that some files are wholly valid."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    header = draw(st.sampled_from([None, ["date", "count"], ["count", "region", "date"]]))
    odd_in_16 = draw(st.sampled_from([0, 0, 1, 4]))

    def odd():
        return draw(st.integers(0, 15)) < odd_in_16

    lines = [] if header is None else [delimiter.join(header)]
    day = dt.date(2020, 1, 1)
    for blank in draw(st.lists(st.sampled_from([False] * 5 + [True]), max_size=12)):
        if blank:
            lines.append(draw(st.sampled_from(BLANK_ROWS)))
            continue
        day += dt.timedelta(days=draw(st.sampled_from([0, -1, -3, 2])) if odd() else 1)
        iso = day.isoformat()
        odd_dates = [f" {iso} ", f"{day.year}-{day.month}-{day.day}", *ODD_DATES]
        date = draw(st.sampled_from(odd_dates)) if odd() else iso
        count = draw(st.sampled_from(ODD_COUNTS)) if odd() else str(draw(st.integers(0, 10**6)))
        cells = {"date": date, "count": count, "region": "north"}
        lines.append(delimiter.join(cells[c] for c in (header or ["date", "count"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def outcome(parse, text):
    """A parse's days and counts, or the line and message of its ParseError."""
    try:
        parsed = parse(text)
    except ParseError as exc:
        return exc.line, str(exc)
    return parsed.days.tolist(), parsed.values.tolist()


class TestParseEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(text=count_files())
    @example(text="2020-01-05,1\n2020-1-6,2\n")  # valid, not written YYYY-MM-DD
    # counts that int() reads
    @example(text="2020-01-05,+5\n2020-01-06,1_000\n2020-01-07,\u0663\n2020-01-08,-0\n")
    @example(text="2020-01-05,1\n2020-01-06," + "9" * 400)
    @example(text="2020-01-05,1\n2020-01-06," + str(2**53 + 1))
    # a duplicate of the date on line 4, after a blank line
    @example(text="date,count\n2020-01-01,1\n\n2020-01-02,2\n2020-01-03,3\n2020-01-02,4\n")
    @example(text="2020-01-05,1\n2020-W02-1,2\n")  # fromisoformat reads this, strptime does not
    @example(text="2020-01-05,1\n20200106,2\n")
    @example(text="2020-01-05,1\n0000-01-01,2\n")
    # first cells that strptime reads as a date, or not, though not YYYY-MM-DD
    @example(text="\u0662\u0660\u0662\u0660-01-05,1\n2020-01-06,2\n")
    @example(text="2020-02-30,1\n2020-03-01,2\n")
    @example(text="1date,count\n2020-01-05,1\n")
    @example(text="\t\n 2020-01-05 \t3\n2020-01-06\t4")
    # a row whose first cell is empty but which is not blank
    @example(text="count,region,date\n5,,2020-01-01\n , ,\n,north,2020-01-02\n")
    @example(text="date,count\n\n")
    # the text-level ISO path: line ends, count widths, trailing blank lines,
    # padding and column order
    @example(text="date,count\r\n2020-01-05,1\r\n2020-01-06,2\r\n")
    @example(text="2020-01-05,1\n2020-01-06,1234567890123456\n")
    @example(text="2020-01-05,999999999999999\n2020-01-06,000000000000007\n")
    @example(text="2020-01-05,1\n2020-01-06,2")
    @example(text="2020-01-05,1\n2020-01-06,2\n,\n , ,\r\n\n,,")
    @example(text="date\tcount\n 2020-01-05 \t 1 \n2020-01-06\t2 \n\t\n")
    @example(text="count,region,date\n1,north,2020-01-05\n2,,2020-01-06\n")
    def test_matches_reference_loop(self, text):
        assert outcome(parse_counts, text) == outcome(reference_parse_counts, text)


class TestToRatios:
    def test_simple_division(self):
        ratios = to_ratios(series([100, 120]))
        assert ratios.days.tolist() == [day(1)]
        assert ratios.values.tolist() == [1.2]

    def test_zero_policies(self):
        # a zero count is a 0.0 ratio; dividing by zero is a gap
        ratios = to_ratios(series([100, 0, 50]))
        assert ratios.days.tolist() == [day(1), day(2)]
        assert ratios.values[0] == 0.0
        assert np.isnan(ratios.values[1])
        assert len(ratios) == 2

    def test_constant_series(self):
        assert to_ratios(series([100, 100, 100])).values.tolist() == [1.0, 1.0]

    def test_calendar_gap_marks_gap(self):
        counts = CountSeries([day(0), day(1), day(3)], [10, 12, 15])
        ratios = to_ratios(counts)
        assert ratios.values[0] == pytest.approx(1.2)
        assert ratios.days[1] == np.datetime64(day(3))
        assert np.isnan(ratios.values[1])

    def test_needs_two_entries(self):
        with pytest.raises(InsufficientDataError):
            to_ratios(series([100]))


def reference_to_ratios(entries):
    """``to_ratios`` as a loop over ``(date, count)`` pairs, with exact
    integer quotients and ``None`` for a gap: the reference the array
    version must match for counts up to 2**53."""
    ratios = []
    for (d0, p0), (d1, p1) in zip(entries, entries[1:]):
        if (d1 - d0).days != 1 or p0 == 0:
            ratios.append((d1, None))
        else:
            ratios.append((d1, p1 / p0))
    return ratios


@st.composite
def count_entries(draw):
    """Dated counts with zeros, calendar gaps of a few days and counts up to
    2**53, the largest range where every count is exact as a float."""
    steps = draw(st.lists(st.sampled_from([1] * 6 + [2, 3]), max_size=20))
    count = st.one_of(st.just(0), st.integers(0, 50), st.integers(0, 2**53),
                      st.just(2**53), st.just(2**53 - 1))
    start = day(draw(st.integers(-1000, 1000)))
    dates = [start + dt.timedelta(days=offset) for offset in np.cumsum([0, *steps]).tolist()]
    return [(d, draw(count)) for d in dates]


def from_pairs(entries):
    return CountSeries([d for d, _ in entries], [c for _, c in entries])


class TestArrayVersionsMatchLoops:
    @settings(max_examples=300, deadline=None)
    @given(entries=count_entries())
    @example(entries=[(day(0), 3), (day(1), 2**53), (day(2), 0), (day(3), 0), (day(5), 7)])
    def test_to_ratios(self, entries):
        counts = from_pairs(entries)
        if len(entries) < 2:
            with pytest.raises(InsufficientDataError):
                to_ratios(counts)
            return
        ratios = to_ratios(counts)
        expect = reference_to_ratios(entries)
        assert ratios.days.tolist() == [d for d, _ in expect]
        # exact, and NaN where the loop has None (assert_array_equal matches NaN to NaN)
        np.testing.assert_array_equal(
            ratios.values, [math.nan if x is None else x for _, x in expect]
        )


class TestRoundTrip:
    def test_gap_isolation(self):
        # a gap never feeds the detector: state is carried unchanged
        counts = series([100, 120, 0, 80, 96, 115])
        ratios = to_ratios(counts).values
        with_gap = ratios[~np.isnan(ratios)].tolist()
        direct = [1.2, 0.0, 1.2, 115.0 / 96.0]
        assert with_gap == pytest.approx(direct)
        cfg = DetectorConfig(DetectorKind.MAST, 0.1, barriers=Barriers(1.0, 1.0))
        a = run_stream(with_gap, cfg, 1e9)
        b = run_stream(direct, cfg, 1e9)
        assert a.final_state == b.final_state


class TestEstimateSigma:
    def test_constant_ratios_rejected(self):
        ratios = to_ratios(series([100] * 40))
        with pytest.raises(DegenerateSigmaError):
            estimate_sigma(ratios)

    def test_recovers_known_noise(self):
        rng = np.random.default_rng(4002)
        ratios = RatioSeries(days(1000), rng.normal(1.0, 0.1, 1000))
        sigma = estimate_sigma(ratios, window=1000)
        assert sigma == pytest.approx(0.1, rel=0.10)

    def test_insufficient_data(self):
        ratios = to_ratios(series([100, 110, 121]))
        with pytest.raises(InsufficientDataError):
            estimate_sigma(ratios, window=30)

    def test_window_floor(self):
        ratios = to_ratios(series([100, 110, 121]))
        with pytest.raises(ValueError):
            estimate_sigma(ratios, window=4)

    def test_uses_trailing_window_only(self):
        rng = np.random.default_rng(4003)
        quiet = rng.normal(1.0, 0.01, 50)
        loud = rng.normal(1.0, 0.3, 50)
        values = np.concatenate([loud, quiet])
        sigma = estimate_sigma(RatioSeries(days(100), values), window=40)
        assert sigma < 0.05  # early loud segment must not leak in
        # gaps are skipped: the last 40 ratios are still quiet ones
        values[-20::2] = np.nan
        assert estimate_sigma(RatioSeries(days(100), values), window=40) < 0.05


class TestCountSeries:
    def test_validation(self):
        for bad in (-1, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                CountSeries([day(0)], [bad])
        with pytest.raises(ValueError, match="strictly increase"):
            CountSeries([day(1), day(0)], [1, 2])
        with pytest.raises(ValueError, match="strictly increase"):
            CountSeries([day(0), day(0)], [1, 2])
        with pytest.raises(ValueError, match="one length"):
            CountSeries([day(0), day(1)], [1])

    def test_len_counts_days(self):
        # gaps included: a length is a number of days, not of usable ratios
        counts = series([5, 0, 3, 4])
        assert len(counts) == 4
        assert len(to_ratios(counts)) == 3
