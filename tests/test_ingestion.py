"""Tests for count parsing, ratio conversion and sigma estimation."""

import datetime as dt
import io

import numpy as np
import pytest

from mast import (
    CountSeries,
    DegenerateSigmaError,
    DetectorConfig,
    InsufficientDataError,
    ParseError,
    RatioSeries,
    estimate_sigma,
    parse_counts,
    run_stream,
    smooth_counts,
    to_ratios,
)


def day(offset: int) -> dt.date:
    return dt.date(2020, 10, 1) + dt.timedelta(days=offset)


def series(counts, start=0):
    return CountSeries(tuple((day(start + i), c) for i, c in enumerate(counts)))


class TestParseCounts:
    def test_headerless_two_columns(self):
        parsed = parse_counts("2020-10-01,100\n2020-10-02,120")
        assert len(parsed) == 2
        assert parsed.entries[0] == (dt.date(2020, 10, 1), 100)
        assert parsed.entries[1] == (dt.date(2020, 10, 2), 120)

    def test_header_with_named_columns(self):
        text = "count,region,date\n7,north,2021-01-05\n9,north,2021-01-06\n"
        parsed = parse_counts(text)
        assert parsed.dates == (dt.date(2021, 1, 5), dt.date(2021, 1, 6))
        assert list(parsed.values) == [7.0, 9.0]

    def test_custom_column_names(self):
        text = "when,cases\n2021-01-05,7\n2021-01-06,9\n"
        parsed = parse_counts(text, date_column="when", count_column="cases")
        assert len(parsed) == 2

    def test_tab_delimited(self):
        parsed = parse_counts("2020-10-01\t5\n2020-10-02\t6\n")
        assert list(parsed.values) == [5.0, 6.0]

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

    def test_file_object(self):
        parsed = parse_counts(io.StringIO("2020-10-01,1\n2020-10-02,2"))
        assert len(parsed) == 2


class TestToRatios:
    def test_simple_division(self):
        ratios = to_ratios(series([100, 120]))
        assert ratios.entries == ((day(1), 1.2),)

    def test_zero_policies(self):
        # a zero count is a 0.0 ratio; dividing by zero is a gap
        ratios = to_ratios(series([100, 0, 50]))
        assert ratios.entries[0] == (day(1), 0.0)
        assert ratios.entries[1] == (day(2), None)
        assert ratios.n_gaps == 1

    def test_constant_series(self):
        assert to_ratios(series([100, 100, 100])).values == [1.0, 1.0]

    def test_calendar_gap_marks_gap(self):
        counts = CountSeries(((day(0), 10), (day(1), 12), (day(3), 15)))
        ratios = to_ratios(counts)
        assert ratios.entries[0][1] == pytest.approx(1.2)
        assert ratios.entries[1] == (day(3), None)

    def test_needs_two_entries(self):
        with pytest.raises(InsufficientDataError):
            to_ratios(series([100]))


class TestRoundTrip:
    def test_gap_isolation(self):
        # a gap never feeds the detector: state is carried unchanged
        counts = series([100, 120, 0, 80, 96, 115])
        ratios = to_ratios(counts)
        with_gap = ratios.values
        direct = [1.2, 0.0, 1.2, 115.0 / 96.0]
        assert with_gap == pytest.approx(direct)
        cfg = DetectorConfig.mast(0.1)
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
        ratios = RatioSeries(
            tuple((day(i), float(x)) for i, x in enumerate(rng.normal(1.0, 0.1, 1000)))
        )
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
        entries = tuple((day(i), float(v)) for i, v in enumerate(np.concatenate([loud, quiet])))
        sigma = estimate_sigma(RatioSeries(entries), window=40)
        assert sigma < 0.05  # early loud segment must not leak in


class TestSmoothing:
    def test_centered_average(self):
        smoothed = smooth_counts(series([0, 3, 6, 9, 12]), window=3)
        assert [v for _, v in smoothed.entries] == [3.0, 6.0, 9.0]
        assert smoothed.dates[0] == day(1)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            smooth_counts(series([1, 2, 3, 4]), window=2)
        with pytest.raises(InsufficientDataError):
            smooth_counts(series([1, 2]), window=5)

    def test_requires_consecutive_days(self):
        counts = CountSeries(((day(0), 1), (day(1), 2), (day(3), 3)))
        with pytest.raises(ValueError, match="consecutive"):
            smooth_counts(counts, window=3)


class TestCountSeries:
    def test_validation(self):
        with pytest.raises(ValueError):
            CountSeries(((day(0), -1),))
        with pytest.raises(ValueError):
            CountSeries(((day(1), 1), (day(0), 2)))

