"""The benchmark's three workloads: inputs, CLI arguments and output checks.

Each workload is one ``mast`` subcommand on generated inputs:

* ``curve-s1``: ``curve --scenario 1 --detectors mast,page`` on the packaged
  grids, the paper's delay-versus-false-alarm job.  Stresses the
  ``estimate_pf`` monitor chains (MAST at gamma 1.2 rescans once per
  crossing; Page is draw-bound); bypasses ingestion and ``run_stream``.
* ``delay-s2``: ``simulate --scenario 2 --mode delay --gamma 5`` with many
  trials.  Stresses the delay engine (per-trial generators, uniform-mean
  draws, fixed 64-sample chunks); bypasses pf estimation, fitting,
  ingestion and ``run_stream``.
* ``detect-long``: ``detect`` on a generated count file of ``DETECT_DAYS``
  days with zero-count gaps and a planted change near the end, so nearly
  every ratio is scored before the alarm.  Stresses ``parse_counts``,
  ``run_stream`` and trace writing; bypasses all Monte Carlo code.

The benchmark seed fixes every input: the count file of ``detect-long``
and the ``--seed`` passed to the Monte Carlo commands (one per call).
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CURVE_TRIALS = 500
DELAY_TRIALS = 50_000
DELAY_GAMMA = 5.0

DETECT_DAYS = 50_000
DETECT_TAIL = 60          # critical-regime days at the end of the file
DETECT_SIGMA = 0.05
DETECT_GAMMA = 12.0
DETECT_MEANS = (0.95, 1.05)   # ratio mean before / after the planted change
LEVEL_TOP = 1e14          # counts restart below this after a zero-count day ...
LEVEL_FLOOR = 1e5         # ... and drop to zero once they would fall below this
_DETECT_STREAM = 0xDE7EC7


def program_seed(seed: int, call: int) -> int:
    """Seed passed to the CLI on the ``call``-th call of a run."""
    return seed * 1000 + call


def detect_counts(seed: int, n_days: int = DETECT_DAYS) -> tuple[list[tuple], dict]:
    """Dated counts whose ratios follow the scenario-1 regimes, and their oracle.

    Counts decay with ratio mean 0.95 and noise 0.05; when a count would
    fall below ``LEVEL_FLOOR`` the day reads zero and the next day restarts
    near ``LEVEL_TOP``, which leaves a gap in the ratio stream.  The last
    ``DETECT_TAIL`` days grow with ratio mean 1.05.  Counts stay below 2**53
    so every ratio is an exactly rounded quotient of two exact floats.  An
    input whose oracle alarms before the change is redrawn.
    """
    for attempt in range(16):
        rng = np.random.default_rng([seed, _DETECT_STREAM, attempt])
        change = n_days - DETECT_TAIL
        x = rng.normal(DETECT_MEANS[0], DETECT_SIGMA, n_days)
        x[change:] += DETECT_MEANS[1] - DETECT_MEANS[0]
        x = x.tolist()
        restart = (rng.uniform(0.5, 1.0, n_days) * LEVEL_TOP).tolist()
        start = dt.date(1800, 1, 1)
        level = restart[0]
        entries = [(start, int(round(level)))]
        for i in range(1, n_days):
            if entries[-1][1] == 0:
                level = restart[i]
            else:
                level *= x[i]
                if i < change and level < LEVEL_FLOOR:
                    level = 0.0
            entries.append((start + dt.timedelta(days=i), int(round(level))))
        oracle = gate.detect_oracle(entries, DETECT_SIGMA, DETECT_GAMMA)
        idx = oracle["alarm_index"]
        if idx is not None and oracle["dates"][idx - 1] >= entries[change][0]:
            return entries, oracle
    raise RuntimeError(f"no usable detect input for seed {seed}")


@dataclass(frozen=True)
class Workload:
    name: str
    work_unit: str                       # what work_per_s counts
    expected_exit: int
    prepare: Callable[[int, Path], dict]  # (seed, work dir) -> inputs
    argv: Callable[[dict, int, Path], list[str]]  # (inputs, call, output) -> CLI argv
    work: Callable[[dict], int]
    # (inputs, output path, stdout) -> (problems, rel_se_max or None)
    check: Callable[[dict, Path, str], tuple[list[str], float | None]]


def reference(key: str) -> dict:
    """Committed reference entry for one workload (see make_reference.py)."""
    return json.loads(REFERENCE_PATH.read_text())[key]


def _mc_check(ref_key: str, header: list[str], problems_fn):
    def check(inputs, output, stdout):
        ref = reference(ref_key)
        rows = gate.read_table(output.read_text(), header)
        rel = gate.rel_se_max(rows)
        problems = problems_fn(rows, ref)
        if not rel <= ref["rel_se_ceiling"]:
            problems.append(f"rel_se_max {rel:.4g} above ceiling {ref['rel_se_ceiling']:.4g}")
        return problems, rel

    return check


def _detect_prepare(seed, work_dir):
    entries, oracle = detect_counts(seed)
    path = work_dir / "counts.csv"
    with open(path, "w") as fh:
        fh.write("date,count\n")
        fh.writelines(f"{day.isoformat()},{count}\n" for day, count in entries)
    return {"input": path, "oracle": oracle}


def _detect_check(inputs, output, stdout):
    rows = gate.read_table(output.read_text(), gate.TRACE_HEADER)
    return gate.detect_problems(stdout, rows, inputs["oracle"]), None


WORKLOADS = {
    "curve-s1": Workload(
        name="curve-s1",
        work_unit="measured curve points",
        expected_exit=0,
        prepare=lambda seed, work_dir: {"seed": seed},
        argv=lambda inputs, call, out: [
            "curve", "--scenario", "1", "--detectors", "mast,page",
            "--trials", str(CURVE_TRIALS), "--seed", str(program_seed(inputs["seed"], call)),
            "--workers", "1", "--output", str(out)],
        work=lambda inputs: len(reference("curve-s1")["points"]),
        check=_mc_check("curve-s1", gate.CURVE_HEADER, gate.curve_problems),
    ),
    "delay-s2": Workload(
        name="delay-s2",
        work_unit="delay trials",
        expected_exit=0,
        prepare=lambda seed, work_dir: {"seed": seed},
        argv=lambda inputs, call, out: [
            "simulate", "--scenario", "2", "--mode", "delay", "--gamma", f"{DELAY_GAMMA:g}",
            "--trials", str(DELAY_TRIALS), "--seed", str(program_seed(inputs["seed"], call)),
            "--workers", "1", "--output", str(out)],
        work=lambda inputs: DELAY_TRIALS,
        check=_mc_check("delay-s2", gate.SIMULATE_HEADER,
                        lambda rows, ref: gate.delay_problems(rows, ref, DELAY_TRIALS)),
    ),
    "detect-long": Workload(
        name="detect-long",
        work_unit="ratios",
        expected_exit=2,
        prepare=_detect_prepare,
        argv=lambda inputs, call, out: [
            "detect", "--input", str(inputs["input"]), "--sigma", f"{DETECT_SIGMA:g}",
            "--gamma", f"{DETECT_GAMMA:g}", "--output", str(out)],
        work=lambda inputs: inputs["oracle"]["n_ratios"],
        check=_detect_check,
    ),
}
