"""End-to-end tests of the command-line interface."""

import csv
import datetime as dt
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mast
from mast import cli, simulation
from mast.cli import EXIT_ALARM, EXIT_ERROR, EXIT_OK, main
from mast.ingestion import parse_counts


def write_counts(path, counts, start_day=1):
    lines = [f"2020-10-{start_day + i:02d},{c}" for i, c in enumerate(counts)]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def constant_series(tmp_path):
    path = tmp_path / "flat.csv"
    write_counts(path, [200] * 20)
    return path


@pytest.fixture
def doubling_series(tmp_path):
    # controlled-ish for 10 days, then counts double daily
    counts = [1000] * 10 + [1000 * 2**k for k in range(1, 7)]
    path = tmp_path / "boom.csv"
    write_counts(path, counts)
    return path


class TestDetect:
    def test_constant_series_no_alarm(self, constant_series, capsys):
        code = main(
            ["detect", "--input", str(constant_series), "--gamma", "1.0", "--sigma", "0.05"]
        )
        assert code == EXIT_OK
        assert "no alarm" in capsys.readouterr().out

    def test_doubling_series_alarms_quickly(self, doubling_series, capsys):
        code = main(
            ["detect", "--input", str(doubling_series), "--gamma", "5.0", "--sigma", "0.1"]
        )
        assert code == EXIT_ALARM
        out = capsys.readouterr().out
        # x=2 contributes (2-1)^2/(2*0.01) = 50 per day: alarm within days of the change
        assert "alarm on 2020-10-11" in out

    def test_missing_input(self, tmp_path, capsys):
        code = main(["detect", "--input", str(tmp_path / "nope.csv"), "--gamma", "1"])
        assert code == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_input_names_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("2020-10-01,5\n2020-10-02,oops\n")
        code = main(["detect", "--input", str(path), "--gamma", "1", "--sigma", "0.1"])
        assert code == EXIT_ERROR
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("smooth", [[], ["--smooth-window", "3"]])
    def test_count_too_large_for_a_float(self, tmp_path, capsys, smooth):
        path = tmp_path / "huge.csv"
        write_counts(path, [100, 110, 10**400, 120])
        code = main(["detect", "--input", str(path), "--gamma", "1", "--sigma", "0.1"] + smooth)
        assert code == EXIT_ERROR
        assert "error: line 3: " in capsys.readouterr().err

    def test_sigma_estimation_failure_names_remedy(self, constant_series, capsys):
        code = main(["detect", "--input", str(constant_series), "--gamma", "1.0"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--sigma" in err

    def test_trace_output_and_manifest(self, doubling_series, tmp_path):
        trace = tmp_path / "trace.csv"
        code = main(
            ["detect", "--input", str(doubling_series), "--gamma", "5.0", "--sigma", "0.1",
             "--output", str(trace)]
        )
        assert code == EXIT_ALARM
        lines = trace.read_text().splitlines()
        assert lines[0] == "n,date,x,statistic,alarmed"
        assert lines[-1].endswith(",1")  # trace stops at the alarm row
        manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "detect"
        assert manifest["parameters"]["gamma"] == 5.0

    def test_other_date_format_gives_the_same_trace(self, doubling_series, tmp_path, capsys):
        # the same data with dates written 01/10/2020: parsed by strptime, row by row
        rows = [line.split(",") for line in doubling_series.read_text().splitlines()]
        other = tmp_path / "other.csv"
        other.write_text("".join(f"{dt.date.fromisoformat(d):%d/%m/%Y},{c}\n" for d, c in rows))
        runs = []
        for path, flags in ((doubling_series, []), (other, ["--date-format", "%d/%m/%Y"])):
            trace = tmp_path / f"{path.stem}.trace.csv"
            args = ["detect", "--input", str(path), "--gamma", "5", "--sigma", "0.1",
                    "--output", str(trace)]
            assert main(args + flags) == EXIT_ALARM
            runs.append((trace.read_bytes(), capsys.readouterr().out))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("header", ["date,count\n", ""], ids=["header", "headerless"])
    def test_byte_order_mark_is_dropped(self, doubling_series, tmp_path, capsys, header):
        # spreadsheet exports often start with a UTF-8 byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(header + doubling_series.read_text())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        runs = []
        for path in (plain, marked):
            series = parse_counts(path.read_text(encoding="utf-8"))
            trace = tmp_path / f"{path.stem}.trace.csv"
            code = main(["detect", "--input", str(path), "--gamma", "5", "--sigma", "0.1",
                         "--output", str(trace)])
            runs.append((series.days.tolist(), series.values.tolist(), trace.read_bytes(),
                         capsys.readouterr().out, code))
        assert runs[0] == runs[1]
        assert runs[0][-1] == EXIT_ALARM

    @pytest.mark.parametrize(
        "sep, date_format, flags",
        [("\t", "%Y-%m-%d", []), (",", "%d/%m/%Y", ["--date-format", "%d/%m/%Y"])],
    )
    def test_trace_text_with_zero_count_and_missing_day(
        self, tmp_path, capsys, sep, date_format, flags
    ):
        # a zero count on 10-03 gives the ratio 0.0 and then a gap (10-04
        # over zero); the missing 10-05 gives a second gap (10-06)
        counts = {1: 100, 2: 120, 3: 0, 4: 80, 6: 96, 7: 192, 8: 200}
        path = tmp_path / "gappy.txt"
        path.write_text(f"date{sep}count\n" + "".join(
            f"{dt.date(2020, 10, d):{date_format}}{sep}{c}\n" for d, c in counts.items()
        ))
        trace = tmp_path / "trace.csv"
        code = main(["detect", "--input", str(path), "--gamma", "30", "--sigma", "0.1",
                     "--output", str(trace)] + flags)
        assert code == EXIT_ALARM
        assert trace.read_text() == (
            "n,date,x,statistic,alarmed\n"
            "1,2020-10-02,1.2,1.9999999999999987,0\n"
            "2,2020-10-03,0.0,0.0,0\n"
            "3,2020-10-07,2.0,49.99999999999999,1\n"
        )
        assert capsys.readouterr().out == (
            "alarm on 2020-10-07 (sample 3 of 4, 2 gap(s) skipped; statistic 50 > gamma 30; "
            "sigma 0.1, supplied)\n"
        )

    @pytest.mark.parametrize("window", ["5", "-1"])
    def test_sigma_window_below_floor_names_the_flag(self, doubling_series, capsys, window):
        code = main(["detect", "--input", str(doubling_series), "--gamma", "5",
                     "--sigma-window", window])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"error: --sigma-window: window must be >= 8, got {window}" in err

    def test_bad_row_after_blank_lines_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        path.write_text("date,count\n\n2020-10-01,5\n\n  \n2020-10-02,5\n2020-10-03,oops\n")
        code = main(["detect", "--input", str(path), "--gamma", "1", "--sigma", "0.1"])
        assert code == EXIT_ERROR
        assert "error: line 7: unparseable count 'oops'" in capsys.readouterr().err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as err:
            main(["detect", "--input", "x.csv"])  # --gamma missing
        assert err.value.code == EXIT_ERROR

    def test_smoothing_flag(self, tmp_path, capsys):
        path = tmp_path / "weekly.csv"
        # weekday sawtooth around a flat level
        write_counts(path, [100, 140, 100, 140, 100, 140, 100, 140, 100, 140, 100, 140])
        code = main(
            ["detect", "--input", str(path), "--gamma", "5", "--sigma", "0.1",
             "--smooth-window", "3"]
        )
        assert code == EXIT_OK
        # a window of 0 is an error, not "no smoothing"
        code = main(
            ["detect", "--input", str(path), "--gamma", "5", "--sigma", "0.1",
             "--smooth-window", "0"]
        )
        assert code == EXIT_ERROR
        assert "window must be odd and >= 1, got 0" in capsys.readouterr().err


SIMULATE = ["simulate", "--scenario", "1", "--gamma", "2", "--trials", "50", "--seed", "1"]
CURVE = ["curve", "--scenario", "1", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none",
         "--trials", "50", "--seed", "1"]


class TestDetectorFlags:
    @pytest.mark.parametrize(
        "command, flags, unread",
        [("detect", ["--detector", "page", "--delta-lower", "0.5"], "--delta-lower"),
         ("detect", ["--detector", "page", "--delta-upper", "1.5"], "--delta-upper"),
         ("detect", ["--detector", "page", "--alpha", "0.1", "--delta-lower", "0.5"],
          "--delta-lower"),
         ("detect", ["--detector", "mast", "--alpha", "0.5"], "--alpha"),
         ("detect", ["--detector", "mast", "--delta-lower", "0.9", "--delta-upper", "1.1",
                     "--alpha", "0.5"], "--alpha"),
         ("simulate", ["--detector", "page", "--delta-lower", "0.5"], "--delta-lower"),
         ("simulate", ["--detector", "page", "--delta-upper", "1.1"], "--delta-upper"),
         ("curve", ["--detectors", "page", "--delta-lower", "0.99"], "--delta-lower")],
    )
    def test_unread_flag_rejected(self, constant_series, capsys, command, flags, unread):
        base = {"detect": ["detect", "--input", str(constant_series), "--gamma", "1",
                           "--sigma", "0.05"],
                "simulate": SIMULATE, "curve": CURVE}[command]
        assert main(base + flags) == EXIT_ERROR
        assert f"error: {unread} is not read by the chosen detector(s)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [SIMULATE + ["--detector", "mast", "--alpha", "0.1", "--mode", "delay"],
         SIMULATE + ["--detector", "mast", "--delta-lower", "1", "--delta-upper", "1",
                     "--mode", "delay"],
         CURVE + ["--detectors", "mast,page", "--delta-lower", "0.99"],
         CURVE + ["--detectors", "mast", "--alpha", "0.04"]],
    )
    def test_read_flags_accepted(self, args):
        # in simulate and curve --alpha is the scenario offset, read by every
        # detector; in curve a flag read by any listed detector is valid
        assert main(args) == EXIT_OK


class TestBarrierPair:
    def run(self, tmp_path, name, flags):
        out = tmp_path / f"{name}.csv"
        args = ["simulate", "--scenario", "1", "--gamma", "2", "--trials", "300", "--seed", "5",
                "--detector", "mast", "--output", str(out)] + flags
        assert main(args) == EXIT_OK
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest.pop("output") == str(out)
        return out.read_bytes(), manifest

    def test_mast_default_is_the_unit_pair(self, tmp_path, capsys):
        default = self.run(tmp_path, "default", [])
        default_out = capsys.readouterr()
        explicit = self.run(tmp_path, "explicit", ["--delta-lower", "1", "--delta-upper", "1"])
        assert explicit == default
        assert capsys.readouterr() == default_out
        parameters = default[1]["parameters"]
        assert (parameters["delta_lower"], parameters["delta_upper"]) == (1.0, 1.0)

    def test_upper_alone_keeps_the_lower_at_one(self, tmp_path):
        parameters = self.run(tmp_path, "upper", ["--delta-upper", "1.1"])[1]["parameters"]
        assert (parameters["delta_lower"], parameters["delta_upper"]) == (1.0, 1.1)

    def test_upper_alone_below_one_rejected(self, capsys):
        code = main(SIMULATE + ["--detector", "mast", "--delta-upper", "0.9"])
        assert code == EXIT_ERROR
        assert "barriers must satisfy 0 < lower <= upper, got (1.0, 0.9)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "detectors, flags, pair",
        [("page,mast", [], (1.0, 1.0)), ("page,mast", ["--delta-lower", "0.99"], (0.99, 0.99)),
         ("page,mast", ["--delta-lower", "0.99", "--delta-upper", "1.02"], (0.99, 1.02)),
         ("page", [], (None, None))],
    )
    def test_curve_manifest_records_the_pair_it_ran(self, tmp_path, detectors, flags, pair):
        out = tmp_path / "curve.csv"
        args = ["curve", "--scenario", "1", "--detectors", detectors, "--trials", "100",
                "--seed", "2", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none",
                "--output", str(out)] + flags
        assert main(args) == EXIT_OK
        parameters = json.loads(Path(f"{out}.manifest.json").read_text())["parameters"]
        assert (parameters["delta_lower"], parameters["delta_upper"]) == pair

    @pytest.mark.parametrize("label", ["mast-delta", "mast-general"])
    def test_removed_labels_rejected(self, capsys, label):
        with pytest.raises(SystemExit) as err:
            main(SIMULATE + ["--detector", label, "--delta-lower", "1"])
        assert err.value.code == EXIT_ERROR
        assert f"invalid choice: {label!r}" in capsys.readouterr().err


# sha256 of the CSV each command writes; a change means the seeds, the
# random-stream layout or the CSV formatting moved
PINNED_CSV = [
    (["curve", "--scenario", "1", "--detectors", "mast,page", "--trials", "300", "--seed", "4",
      "--gamma-grid", "1,2,3", "--extrapolate-grid", "none"],
     "e34d66c16d990e3ff1189f9c4369db47e8294eb05ec1c8a07984af7ec961310e"),
    (["simulate", "--scenario", "2", "--gamma", "1.5", "--trials", "600", "--seed", "3"],
     "d053379923f7749b0f7540861eac358c7d2c102bdb8e9307d99c240705748558"),
    # scenario 2 pf draws and the run-in monitor (exactly 49 samples, part of a chunk)
    (["curve", "--scenario", "2", "--detectors", "mast,page", "--trials", "300", "--seed", "4",
      "--gamma-grid", "2,3,4", "--extrapolate-grid", "none", "--change-time", "50"],
     "db6f6d20ad1bb76b181395c7b8e2f3a9e1d0f0da5a0e34014c58b453ef95e295"),
    # a barrier pair with a middle branch
    (["curve", "--scenario", "1", "--detectors", "mast", "--delta-lower", "0.99",
      "--delta-upper", "1.02", "--trials", "300", "--seed", "4", "--gamma-grid", "1,2,3",
      "--extrapolate-grid", "none"],
     "d2ed18a7109fa655bdd38bde1864093efe2c6f9bbd7ba586d4d5572f46c5a9eb"),
]


@pytest.mark.parametrize(
    "args, digest", PINNED_CSV, ids=["curve", "simulate", "curve-s2-run-in", "curve-pair"]
)
def test_pinned_csv_bytes(tmp_path, args, digest):
    out = tmp_path / "out.csv"
    assert main(args + ["--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def long_count_file(path, days=24_000, tail=60):
    """A count file of ``days`` days: counts decay with noisy daily ratios,
    read zero when they would fall below 10**5 (a gap in the ratios) and
    restart near 10**14; the last ``tail`` days grow."""
    rng = random.Random(11)
    start, level, lines = dt.date(1900, 1, 1), 7e13, ["date,count"]
    for i in range(days):
        if i:
            level = (0.5 + 0.5 * rng.random()) * 1e14 if level == 0 else level * (
                (1.05 if i >= days - tail else 0.95) + 0.1 * (rng.random() - 0.5))
            if level < 1e5 and i < days - tail:
                level = 0
        lines.append(f"{start + dt.timedelta(days=i)},{round(level)}")
    path.write_text("\n".join(lines) + "\n")


class TestDetectBytes:
    """``detect`` output pinned byte for byte on a long file whose trace
    spans several of the chunks ``cli`` writes it in."""

    # sha256 of the trace, its manifest and stdout
    PINNED = ("013af0e8ffc006279a8ada1884950f031a40ae3a3898ac57808c090e93a5cd1f",
              "806865cb8c5a4cd25657139b9d6e0e65d2a035f8eafc88ac85ad3a02d90fc7be",
              "db7407444a18229a569c7372b9472bd1759cd62e3e02d5453419852284bc0777")

    def test_long_trace_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        long_count_file(tmp_path / "counts.csv")
        code = main(["detect", "--input", "counts.csv", "--sigma", "0.05", "--gamma", "12",
                     "--output", "trace.csv"])
        assert code == EXIT_ALARM
        trace = (tmp_path / "trace.csv").read_bytes()
        assert trace.count(b"\n") > 2 * cli._TRACE_CHUNK + 1
        digests = tuple(hashlib.sha256(data).hexdigest() for data in (
            trace, (tmp_path / "trace.csv.manifest.json").read_bytes(),
            capsys.readouterr().out.encode()))
        assert digests == self.PINNED

    @pytest.mark.parametrize("alarm", [None, 1, "last", "first"])
    def test_chunks_match_row_by_row(self, alarm):
        chunk = cli._TRACE_CHUNK
        n = 2 * chunk + 5
        alarm = {"last": chunk, "first": chunk + 1}.get(alarm, alarm)
        days = np.datetime64("2001-02-03") + np.arange(n)
        # floats whose repr is in exponent form, integral or 17 digits long
        odd = [1e-05, 1e+16, 2.5e-300, 1.7976931348623157e+308, 0.0, 3.0, 0.1 + 0.2]
        values = np.resize(np.array(odd + [1.0 / 3.0]), n)
        path = np.resize(np.array([0.0, 1e-07, 12345678901234567.0] + odd), n).tolist()
        rows = enumerate(zip(np.datetime_as_string(days).tolist(), values.tolist(), path), 1)
        expect = "".join(f"{i},{day},{x!r},{s!r},{int(i == alarm)}\n" for i, (day, x, s) in rows)
        chunks = list(cli._trace_chunks(days, values, path, alarm))
        assert len(chunks) == 3
        assert "".join(chunks) == expect
        if alarm is not None:
            assert chunks[(alarm - 1) // chunk].count(",1\n") == 1


class TestSimulate:
    def test_zero_threshold_delay_about_one(self, capsys):
        code = main(
            ["simulate", "--scenario", "1", "--detector", "page", "--gamma", "0",
             "--mode", "delay", "--trials", "2000", "--seed", "7"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        delay = float(out.split()[1])
        assert 1.0 <= delay < 1.5

    def test_identical_seeds_identical_bytes(self, tmp_path):
        args = ["simulate", "--scenario", "2", "--gamma", "1.5", "--trials", "400",
                "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(a)]) == EXIT_OK
        assert main(args + ["--output", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_insufficient_events_guidance(self, capsys):
        code = main(
            ["simulate", "--scenario", "1", "--gamma", "60", "--mode", "pf",
             "--trials", "500", "--seed", "1"]
        )
        assert code == EXIT_ERROR
        assert "extrapolation" in capsys.readouterr().err

    def test_zero_trials_rejected(self, capsys):
        code = main(["simulate", "--scenario", "1", "--gamma", "2", "--mode", "pf", "--trials", "0"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "--trials must be an integer >= 1, got 0" in err
        assert "extrapolation" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--trials", "0", "--trials must be an integer >= 1, got 0"),
         ("--seed", "-1", "--seed must be an integer >= 0, got -1"),
         ("--workers", "0", "--workers must be an integer >= 1, got 0"),
         ("--workers", "-5", "--workers must be an integer >= 1, got -5")],
    )
    @pytest.mark.parametrize("command", ["simulate", "curve"])
    def test_run_size_flags_named(self, capsys, tmp_path, command, flag, value, message):
        args = {"simulate": ["simulate", "--scenario", "1", "--gamma", "2", "--mode", "delay"],
                "curve": ["curve", "--scenario", "1", "--detectors", "page"]}[command]
        out = tmp_path / "out.csv"
        code = main(args + [flag, value, "--output", str(out)])
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["delay", "pf", "both"])
    def test_change_time_checked_in_every_mode(self, capsys, tmp_path, mode):
        out = tmp_path / "out.csv"
        code = main(["simulate", "--scenario", "1", "--gamma", "1", "--trials", "100",
                     "--seed", "1", "--mode", mode, "--change-time", "0", "--output", str(out)])
        assert code == EXIT_ERROR
        assert "error: --change-time must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [(["--horizon", "5"], "--horizon"), (["--change-time", "40"], "--change-time"),
         (["--change-time", "1"], "--change-time"),
         (["--horizon", "5", "--change-time", "40"], "--horizon, --change-time")],
    )
    def test_delay_flags_rejected_in_pf_mode(self, capsys, tmp_path, flags, named):
        out = tmp_path / "out.csv"
        code = main(["simulate", "--scenario", "1", "--gamma", "2", "--trials", "100",
                     "--seed", "1", "--mode", "pf", "--output", str(out)] + flags)
        assert code == EXIT_ERROR
        assert f"error: {named} not read by --mode pf" in capsys.readouterr().err
        assert not out.exists()

    DELAY_COMMANDS = pytest.mark.parametrize(
        "args",
        [["simulate", "--scenario", "1", "--gamma", "2", "--mode", "delay"],
         ["simulate", "--scenario", "1", "--gamma", "2", "--mode", "both"],
         ["curve", "--scenario", "1", "--detectors", "page", "--gamma-grid", "1,2,3"]],
        ids=["delay", "both", "curve"],
    )

    @DELAY_COMMANDS
    def test_change_time_alone_runs_the_run_in(self, tmp_path, args):
        # the delay trials run through the 49 samples before the change
        args = args + ["--trials", "100", "--seed", "1"]
        plain, changed = tmp_path / "plain.csv", tmp_path / "changed.csv"
        assert main(args + ["--output", str(plain)]) == EXIT_OK
        assert main(args + ["--change-time", "50", "--output", str(changed)]) == EXIT_OK
        assert plain.read_text() != changed.read_text()
        recorded = [
            {key: json.loads(Path(f"{path}.manifest.json").read_text())["parameters"][key]
             for key in ("run_in", "change_time")}
            for path in (plain, changed)
        ]
        assert recorded == [{"run_in": False, "change_time": 1}, {"run_in": True, "change_time": 50}]

    @DELAY_COMMANDS
    def test_run_in_flag_rejected(self, capsys, tmp_path, args):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(args + ["--change-time", "50", "--run-in", "--output", str(out)])
        assert err.value.code == EXIT_ERROR
        assert "unrecognized arguments: --run-in" in capsys.readouterr().err
        assert not out.exists()

    def test_delay_flags_read_in_both_mode(self, tmp_path):
        args = ["simulate", "--scenario", "1", "--gamma", "2", "--trials", "100", "--seed", "1",
                "--mode", "both"]
        plain, flagged = tmp_path / "plain.csv", tmp_path / "flagged.csv"
        assert main(args + ["--output", str(plain)]) == EXIT_OK
        with pytest.warns(UserWarning, match="within 3 samples"):
            code = main(args + ["--horizon", "3", "--change-time", "40",
                                "--output", str(flagged)])
        assert code == EXIT_OK
        (_, delay, pf), (_, delay_flagged, pf_flagged) = (
            path.read_text().splitlines() for path in (plain, flagged)
        )
        assert delay != delay_flagged and pf == pf_flagged
        manifest = json.loads((tmp_path / "flagged.csv.manifest.json").read_text())
        recorded = {key: manifest["parameters"][key] for key in ("horizon", "run_in", "change_time")}
        assert recorded == {"horizon": 3, "run_in": True, "change_time": 40}

    @pytest.mark.parametrize("key, value", [("trials", 0), ("seed", -3), ("trials", 2.5)])
    def test_run_sizes_from_config_checked(self, capsys, tmp_path, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code = main(["simulate", "--scenario", "1", "--gamma", "2", "--config", str(config)])
        assert code == EXIT_ERROR
        assert f"--{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [("simulate", "alpha", "0.05"), ("curve", "r2_floor", "high"), ("simulate", "sigma", None),
         ("curve", "sigma", True)],
    )
    def test_real_numbers_from_config_checked(self, capsys, tmp_path, command, key, value):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args = {"simulate": ["simulate", "--scenario", "1", "--gamma", "2"],
                "curve": ["curve", "--scenario", "1", "--detectors", "page"]}[command]
        code = main(args + ["--config", str(config)])
        assert code == EXIT_ERROR
        flag = "--" + key.replace("_", "-")
        assert f"error: {flag} must be a real number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, key",
        [([1, 2], "the top level"),
         ({"grids": 3}, "grids"),
         ({"grids": {"scenario1": 3}}, "grids.scenario1"),
         ({"grids": {"scenario1": {"page": [1, 2, 3]}}}, "grids.scenario1.page"),
         ({"grids": {"scenario1": {"page": {"measure": 3}}}}, "grids.scenario1.page.measure"),
         ({"grids": {"scenario1": {"page": {"measure": ["a"]}}}}, "grids.scenario1.page.measure"),
         ({"grids": {"scenario1": {"page": {"extrapolate": [None]}}}},
          "grids.scenario1.page.extrapolate"),
         ({"grids": {"scenario1": {"page": {"measure": [1, "2.5", 3]}}}},
          "grids.scenario1.page.measure"),
         ({"grids": {"scenario1": {"page": {"measure": [1, True, 3]}}}},
          "grids.scenario1.page.measure")],
        ids=["top-list", "grids-int", "scenario-int", "entry-list", "grid-int", "grid-str",
             "grid-null", "grid-numeric-str", "grid-bool"],
    )
    def test_config_shape_named(self, capsys, tmp_path, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(["curve", "--scenario", "1", "--detectors", "page", "--trials", "100",
                     "--config", str(path)])
        assert code == EXIT_ERROR
        assert f"error: --config: {key} must be " in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--mode", "delay", "--horizon", "200"], ["--mode", "pf"]])
    def test_nan_gamma_rejected(self, capsys, extra):
        code = main(["simulate", "--scenario", "1", "--gamma", "nan", "--trials", "10"] + extra)
        assert code == EXIT_ERROR
        assert "gamma must be >= 0" in capsys.readouterr().err

    def test_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main(
            ["simulate", "--scenario", "1", "--gamma", "1.0", "--trials", "300",
             "--seed", "5", "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("metric,detector,scenario,gamma")
        assert len(lines) == 3  # header + delay row + pf row
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 5


class TestCurve:
    def test_single_detector_subset(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--scenario", "1", "--detectors", "mast", "--trials", "200",
             "--seed", "2", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("mast,1,") for line in lines[1:])
        assert all(line.endswith(",measured") for line in lines[1:])

    def test_grid_range_syntax_and_extrapolation(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            ["curve", "--scenario", "1", "--detectors", "page", "--trials", "300",
             "--seed", "4", "--gamma-grid", "1:4:4", "--extrapolate-grid", "6,8",
             "--output", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert sum(line.endswith(",extrapolated") for line in lines) == 2

    def test_unknown_detector(self, capsys):
        for label in ("sprt", "mast-delta"):
            code = main(["curve", "--scenario", "1", "--detectors", f"page,{label}",
                         "--gamma-grid", "1,2,3"])
            assert code == EXIT_ERROR
            err = capsys.readouterr().err
            assert f"error: unknown detector {label!r} (choose from mast, page)" in err
            assert "DetectorKind" not in err

    def test_repeated_detector_rejected(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["curve", "--scenario", "1", "--detectors", "page,mast,page", "--trials",
                     "100", "--gamma-grid", "1,2,3", "--output", str(out)])
        assert code == EXIT_ERROR
        assert "error: --detectors names 'page' more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_gamma_in_grid_rejected(self, capsys):
        code = main(["curve", "--scenario", "1", "--gamma-grid", "nan,1,2", "--trials", "200"])
        assert code == EXIT_ERROR
        assert "gamma must be >= 0" in capsys.readouterr().err

    def test_infinite_measured_gamma_rejected_before_simulating(self, capsys, monkeypatch):
        # an inf point would run its delay trials to the 1 M-sample cap and
        # draw 200 M pf samples before the pf estimate failed
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before the grid was checked")

        monkeypatch.setattr(simulation, "estimate_delay", unreachable)
        monkeypatch.setattr(simulation, "estimate_pf", unreachable)
        code = main(["curve", "--scenario", "1", "--detectors", "page", "--trials", "100",
                     "--seed", "1", "--gamma-grid", "inf,1,2", "--extrapolate-grid", "none"])
        assert code == EXIT_ERROR
        assert "error: a measured gamma must be finite, got inf" in capsys.readouterr().err

    def test_later_detectors_grid_checked_before_simulating(self, tmp_path, capsys, monkeypatch):
        # JSON Infinity passes --config as a number; page's grid must fail
        # before the packaged mast curve is simulated
        def unreachable(*args, **kwargs):
            raise AssertionError("simulated before every grid was checked")

        monkeypatch.setattr(simulation, "estimate_delay", unreachable)
        monkeypatch.setattr(simulation, "estimate_pf", unreachable)
        config = tmp_path / "grid.json"
        config.write_text('{"grids": {"scenario1": {"page": {"measure": [1, 2, Infinity]}}}}')
        code = main(["curve", "--scenario", "1", "--detectors", "mast,page", "--trials", "100",
                     "--seed", "1", "--config", str(config)])
        assert code == EXIT_ERROR
        assert "error: a measured gamma must be finite, got inf" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grids, message",
        [(["--gamma-grid", "abc"], "--gamma-grid: could not convert string to float: 'abc'"),
         (["--gamma-grid", "1:5:-1"], "--gamma-grid: Number of samples, -1, must be non-negative"),
         (["--gamma-grid", "1:5"], "--gamma-grid: grid range must be lo:hi:n, got '1:5'"),
         (["--gamma-grid", "1:5:2.5"], "--gamma-grid: invalid literal for int()"),
         (["--gamma-grid", "1,2,3", "--extrapolate-grid", "6,x"],
          "--extrapolate-grid: could not convert string to float: 'x'")],
        ids=["word", "negative-count", "two-parts", "fractional-count", "extrapolate-word"],
    )
    def test_grid_syntax_error_names_the_flag(self, capsys, grids, message):
        code = main(["curve", "--scenario", "1", "--detectors", "page", "--trials", "100"] + grids)
        assert code == EXIT_ERROR
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--extrapolate-grid", "nan,-5,inf"], "gamma must be >= 0, got nan"),
         (["--extrapolate-grid", "6,-5"], "gamma must be >= 0, got -5.0"),
         (["--r2-floor", "nan"], "r2_floor must lie in [0, 1], got nan"),
         (["--r2-floor", "1.5"], "r2_floor must lie in [0, 1], got 1.5")],
    )
    def test_bad_extrapolation_settings_rejected(self, capsys, flags, message):
        code = main(["curve", "--scenario", "1", "--detectors", "page", "--gamma-grid", "2,3,4",
                     "--trials", "200", "--seed", "1"] + flags)
        assert code == EXIT_ERROR
        assert message in capsys.readouterr().err

    def test_detector_without_default_grid_needs_explicit(self, capsys):
        code = main(
            ["curve", "--scenario", "1", "--detectors", "mast", "--delta-lower", "0.99",
             "--trials", "200", "--seed", "2"]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "no default gamma grid for detector 'mast' with barriers (0.99, 0.99)" in err
        assert "pass --gamma-grid" in err

    def test_config_grid_only_for_the_unit_pair(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text('{"grids": {"scenario1": {"mast": {"measure": [1, 2, 3]}}}}')
        base = ["curve", "--scenario", "1", "--detectors", "mast", "--trials", "200",
                "--config", str(config)]
        assert main(base + ["--delta-lower", "1", "--delta-upper", "1"]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert main(base + ["--delta-upper", "1.01"]) == EXIT_ERROR
        assert "with barriers (1, 1.01)" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:4:0", ","])
    def test_empty_given_grid_named(self, capsys, grid):
        code = main(["curve", "--scenario", "1", "--detectors", "page", "--gamma-grid", grid])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert f"--gamma-grid {grid!r} is empty" in err
        assert "no default gamma grid" not in err

    def test_pf_cells_are_simulate_pf(self, tmp_path):
        # a curve's pf runs on the seed of `simulate --mode pf`, and each of
        # its cells is that run's estimate at the same gamma and trials
        out = tmp_path / "curve.csv"
        base = ["--scenario", "1", "--trials", "200", "--seed", "6"]
        assert main(["curve", *base, "--detectors", "mast,page", "--gamma-grid", "1,2,3",
                     "--extrapolate-grid", "none", "--output", str(out)]) == EXIT_OK
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6
        for row in rows:
            sim = tmp_path / "pf.csv"
            assert main(["simulate", *base, "--detector", row["detector"], "--gamma",
                         row["gamma"], "--mode", "pf", "--output", str(sim)]) == EXIT_OK
            (pf,) = csv.DictReader(sim.open())
            assert row["log10_pf"] == repr(math.log10(float(pf["value"])))
            assert row["pf_se"] == pf["std_error"]

    def test_page_rows_independent_of_other_detectors(self, capsys):
        # per-kind delay seeds and per-row pf estimates: naming mast too,
        # before or after page, leaves every page byte alone
        outputs = []
        for detectors in ("page", "mast,page", "page,mast"):
            code = main(["curve", "--scenario", "1", "--detectors", detectors, "--trials",
                         "200", "--seed", "6"])
            assert code == EXIT_OK
            out, err = capsys.readouterr()
            outputs.append((
                [line for line in out.splitlines() if line.startswith("page,")],
                [line for line in err.splitlines() if line.startswith("page:")],
            ))
        assert len(outputs[0][0]) == 16 and len(outputs[0][1]) == 1
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_stdout_output(self, capsys):
        code = main(
            ["curve", "--scenario", "2", "--detectors", "mast", "--trials", "200",
             "--seed", "2", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("detector,scenario,gamma")


@pytest.mark.parametrize(
    "args",
    [["simulate", "--scenario", "2", "--gamma", "1.5", "--mode", "both", "--trials", "600",
      "--seed", "3"],
     ["curve", "--scenario", "1", "--detectors", "mast,page", "--trials", "300", "--seed", "4",
      "--gamma-grid", "1,2,3"]],
)
def test_worker_count_leaves_bytes_alone(tmp_path, args):
    a, b = tmp_path / "one.csv", tmp_path / "three.csv"
    assert main(args + ["--workers", "1", "--output", str(a)]) == EXIT_OK
    assert main(args + ["--workers", "3", "--output", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "mast" in capsys.readouterr().out


def _imported_with_cli(module: str) -> bool:
    """Whether a fresh ``import mast.cli`` loads ``module``."""
    src = str(Path(mast.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = f"import sys, mast.cli; sys.exit({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode != 0


def test_cli_import_leaves_scipy_out():
    assert not _imported_with_cli("scipy")


def test_cli_import_leaves_numpy_random_out():
    # numpy.random costs more to import than the rest of mast.cli; the
    # Monte Carlo engine imports it when it builds its first generator
    assert not _imported_with_cli("numpy.random")


def test_curve_leaves_numpy_ma_and_concurrent_futures_out():
    # np.unique on floats imports numpy.ma at its first call, for a share of
    # a small curve's time; a curve runs on one thread, with no executor
    src = str(Path(mast.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["curve", "--scenario", "1", "--detectors", "mast,page", "--trials", "200",
            "--seed", "1", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none"]
    code = (
        f"import sys; from mast.cli import main; main({argv!r}); "
        "print(sorted(m for m in ('numpy.ma', 'concurrent.futures') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 1 + 6 + 1  # the header, three points per detector
    assert lines[-1] == "[]"


def test_iso_detect_leaves_strptime_out(tmp_path):
    # strptime's first call costs milliseconds of set-up; a header-first
    # YYYY-MM-DD file and its trace need none of it
    path, trace = tmp_path / "counts.csv", tmp_path / "trace.csv"
    counts = [1000] * 10 + [1000 * 2**k for k in range(1, 7)]
    path.write_text("date,count\n" + "".join(
        f"2020-10-{day:02d},{count}\n" for day, count in enumerate(counts, 1)
    ))
    src = str(Path(mast.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["detect", "--input", str(path), "--gamma", "5.0", "--sigma", "0.1",
            "--output", str(trace)]
    code = (
        f"import sys; from mast.cli import main; code = main({argv!r}); "
        "print(code, '_strptime' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"{EXIT_ALARM} False"
    assert trace.read_text().splitlines()[1].startswith("1,2020-10-02,1.0,")


def test_trace_dates_match_datetime_as_string():
    # every year from 1 to 9999 is written with four digits; a spread of
    # days over that range, its ends and the leap days near 1900 and 2000
    first, last = np.datetime64("0001-01-01"), np.datetime64("9999-12-31")
    days = np.concatenate([
        np.arange(first, last, 997),
        [first, last, np.datetime64("1900-02-28"), np.datetime64("1900-03-01"),
         np.datetime64("2000-02-29"), np.datetime64("1970-01-01")],
    ])
    assert cli._iso_days(days) == np.datetime_as_string(days).tolist()
    assert cli._iso_days(days[:0]) == []
