"""End-to-end tests of the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mast
from mast.cli import EXIT_ALARM, EXIT_ERROR, EXIT_OK, main


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
        code = main(["curve", "--scenario", "1", "--detectors", "sprt", "--gamma-grid", "1,2,3"])
        assert code == EXIT_ERROR

    def test_nan_gamma_in_grid_rejected(self, capsys):
        code = main(["curve", "--scenario", "1", "--gamma-grid", "nan,1,2", "--trials", "200"])
        assert code == EXIT_ERROR
        assert "gamma must be >= 0" in capsys.readouterr().err

    def test_detector_without_default_grid_needs_explicit(self, capsys):
        code = main(
            ["curve", "--scenario", "1", "--detectors", "mast-delta", "--delta-lower", "1.0",
             "--trials", "200", "--seed", "2"]
        )
        assert code == EXIT_ERROR
        assert "--gamma-grid" in capsys.readouterr().err

    def test_stdout_output(self, capsys):
        code = main(
            ["curve", "--scenario", "2", "--detectors", "mast", "--trials", "200",
             "--seed", "2", "--gamma-grid", "1,2,3", "--extrapolate-grid", "none"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("detector,scenario,gamma")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "mast" in capsys.readouterr().out


def test_cli_import_leaves_scipy_out():
    src = str(Path(mast.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, mast.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
