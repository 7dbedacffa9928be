"""Self-checks of the benchmark's gates, span summary and metric lists.

    python3 bench/selftest.py

Shows that the correctness gates reject a curve point shifted by a few
standard errors and a ``detect`` alarm one sample off, that they accept
the unshifted outputs, and that ``BENCHMARK.json`` lists exactly the
metrics ``run.py`` reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run
import spans
import workloads

SHIFT_SE = 8.0    # a shift the gate must reject; Z_BOUND is below it


def _combined(ref: dict, key: str) -> float:
    return math.hypot(ref[f"{key}_sd"], ref[f"{key}_se"])


def _curve_rows() -> list[dict]:
    """A curve table equal to the reference means."""
    ref = workloads.reference("curve-s1")
    rows = []
    for p in ref["points"]:
        pf = 10.0 ** p["log10_pf"]
        rows.append({
            "detector": p["detector"], "scenario": "1", "gamma": repr(p["gamma"]),
            "delay": repr(p["delay"]), "delay_se": repr(0.03 * p["delay"]),
            "log10_pf": repr(p["log10_pf"]), "pf_se": repr(0.02 * pf),
            "measured_or_extrapolated": "measured",
        })
    for detector, grid in ref["extrapolated"].items():
        rows.extend({"detector": detector, "scenario": "1", "gamma": repr(g), "delay": "9.0",
                     "delay_se": "", "log10_pf": "-7.0", "pf_se": "",
                     "measured_or_extrapolated": "extrapolated"} for g in grid)
    return rows


class CurveGate(unittest.TestCase):
    def setUp(self):
        self.ref = workloads.reference("curve-s1")

    def test_accepts_reference_table(self):
        self.assertEqual(gate.curve_problems(_curve_rows(), self.ref), [])

    def test_rejects_one_point_shifted_by_a_few_se(self):
        for i, key in ((3, "delay"), (10, "log10_pf"), (12, "log10_pf")):
            rows = _curve_rows()
            shift = SHIFT_SE * _combined(self.ref["points"][i], key)
            rows[i][key] = repr(float(rows[i][key]) - shift)
            problems = gate.curve_problems(rows, self.ref)
            self.assertEqual(len(problems), 1, (i, key))
            self.assertIn(key, problems[0])

    def test_accepts_shift_within_bound(self):
        rows = _curve_rows()
        rows[3]["delay"] = repr(float(rows[3]["delay"])
                                + 0.9 * gate.Z_BOUND * _combined(self.ref["points"][3], "delay"))
        self.assertEqual(gate.curve_problems(rows, self.ref), [])

    def test_rejects_missing_point(self):
        self.assertNotEqual(gate.curve_problems(_curve_rows()[1:], self.ref), [])

    def test_rel_se_max_is_worst_measured_ratio(self):
        self.assertAlmostEqual(gate.rel_se_max(_curve_rows()), 0.03)


class DelayGate(unittest.TestCase):
    def setUp(self):
        self.ref = workloads.reference("delay-s2")

    def row(self, delay):
        return [{"metric": "delay", "detector": "mast", "scenario": "2", "gamma": "5.0",
                 "value": repr(delay), "std_error": "0.003",
                 "n": str(workloads.DELAY_TRIALS), "n_censored": "0", "observed_steps": ""}]

    def test_accepts_reference_value(self):
        self.assertEqual(gate.delay_problems(self.row(self.ref["delay"]), self.ref,
                                             workloads.DELAY_TRIALS), [])

    def test_rejects_shift_of_a_few_se(self):
        shifted = self.ref["delay"] + SHIFT_SE * _combined(self.ref, "delay")
        problems = gate.delay_problems(self.row(shifted), self.ref, workloads.DELAY_TRIALS)
        self.assertEqual(len(problems), 1)


class DetectGate(unittest.TestCase):
    """Runs the real ``mast detect`` on a short generated file."""

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(run.SRC))
        from mast import cli

        cls.entries, cls.oracle = workloads.detect_counts(seed=5, n_days=3000)
        cls.tmp = tempfile.TemporaryDirectory()
        counts, trace = Path(cls.tmp.name) / "counts.csv", Path(cls.tmp.name) / "trace.csv"
        counts.write_text("date,count\n" + "".join(
            f"{day.isoformat()},{count}\n" for day, count in cls.entries))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["detect", "--input", str(counts), "--sigma", "0.05",
                             "--gamma", f"{workloads.DETECT_GAMMA:g}", "--output", str(trace)])
        assert code == 2, code
        cls.stdout = out.getvalue()
        cls.rows = gate.read_table(trace.read_text(), gate.TRACE_HEADER)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_input_has_gaps_and_a_late_alarm(self):
        zeros = sum(1 for _, count in self.entries if count == 0)
        self.assertGreater(zeros, 0)
        self.assertGreater(self.oracle["alarm_index"], self.oracle["n_ratios"] - workloads.DETECT_TAIL)

    def test_accepts_program_output(self):
        self.assertEqual(gate.detect_problems(self.stdout, self.rows, self.oracle), [])

    def test_rejects_alarm_one_sample_early(self):
        idx = self.oracle["alarm_index"]
        rows = [dict(r) for r in self.rows[:-1]]
        rows[-1]["alarmed"] = "1"
        stdout = self.stdout.replace(f"(sample {idx} ", f"(sample {idx - 1} ")
        self.assertNotEqual(gate.detect_problems(stdout, rows, self.oracle), [])
        self.assertNotEqual(gate.detect_problems(self.stdout, rows, self.oracle), [])

    def test_rejects_alarm_one_sample_late(self):
        idx = self.oracle["alarm_index"]
        stdout = self.stdout.replace(f"(sample {idx} ", f"(sample {idx + 1} ")
        self.assertNotEqual(gate.detect_problems(stdout, self.rows, self.oracle), [])

    def test_rejects_perturbed_statistic(self):
        rows = [dict(r) for r in self.rows]
        rows[len(rows) // 2]["statistic"] = repr(float(rows[len(rows) // 2]["statistic"]) + 1e-6)
        self.assertNotEqual(gate.detect_problems(self.stdout, rows, self.oracle), [])


class Summaries(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        recorded = [
            {"id": 0, "name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
            {"id": 1, "name": "simulation.estimate_delay", "parent": 0, "start": 1.0, "end": 5.0,
             "scenario": 1, "kind": "mast", "gamma": 4.0, "n_trials": 10, "samples_used": 40,
             "censored": 0},
            {"id": 2, "name": "core.increment", "parent": 1, "start": 2.0, "end": 3.0,
             "samples": 640},
        ]
        m = spans.summarise(recorded)
        self.assertEqual(m["cli.main.self_s"], 6.0)
        self.assertEqual(m["simulation.estimate_delay.self_s"], 3.0)
        self.assertEqual(m["core.increment.delay_s"], 1.0)
        self.assertEqual(m["simulation.estimate_delay.used_share"], 40 / 640)
        self.assertEqual(spans.delay_used_share(recorded, 1, "mast", 4.0), 40 / 640)
        self.assertEqual(set(m), {name for name, _, _ in spans.LAYER_METRICS})

    def test_import_split_charges_outermost_entries(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 | site",
            "import time:       100 |        100 |       numpy",
            "import time:        50 |        150 |     mast.core",
            "import time:        30 |         30 |         numpy.linalg",
            "import time:       200 |        230 |       scipy.stats",
            "import time:        20 |        250 |     mast.simulation",
            "import time:         5 |        405 |   mast",
            "import time:        15 |        420 | mast.cli",
        ])
        split = run.import_split(text)
        self.assertAlmostEqual(split["setup.numpy_import_s"], 100e-6)
        self.assertAlmostEqual(split["setup.scipy_import_s"], 230e-6)
        self.assertAlmostEqual(split["setup.mast_import_s"], 90e-6)


class BenchmarkFile(unittest.TestCase):
    def test_lists_the_reported_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         spans.LAYER_METRICS + run.SETUP_METRICS + run.TRACE_METRICS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
