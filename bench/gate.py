"""Correctness gates for the CLI outputs the benchmark produces.

Monte Carlo outputs are compared with a committed reference table by a
fixed |z| bound, not by digests, so a deliberate change of the
random-stream layout still passes while a wrong estimate fails.  The
combined standard error is the reference's measured run-to-run spread at
the workload's size and the standard error of the reference mean (see
``make_reference.py``).  ``detect`` output is compared with an independent
re-implementation of ratio formation and the MAST recursion: alarm index
and date exactly, statistics to a tight relative tolerance.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import io
import math
import re

Z_BOUND = 6.0
STAT_RTOL = 1e-9

CURVE_HEADER = ["detector", "scenario", "gamma", "delay", "delay_se", "log10_pf", "pf_se",
                "measured_or_extrapolated"]
SIMULATE_HEADER = ["metric", "detector", "scenario", "gamma", "value", "std_error", "n",
                   "n_censored", "observed_steps"]
TRACE_HEADER = ["n", "date", "x", "statistic", "alarmed"]


def read_table(text: str, header: list[str]) -> list[dict]:
    """CSV rows as dicts; raises ValueError when the header differs."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"unexpected header {rows[0] if rows else None}")
    return [dict(zip(header, row)) for row in rows[1:]]


def _z(value: float, ref: dict, key: str) -> float:
    return (value - ref[key]) / math.hypot(ref[f"{key}_sd"], ref[f"{key}_se"])


def curve_problems(rows: list[dict], reference: dict, z_bound: float = Z_BOUND) -> list[str]:
    """Check a ``mast curve`` table against ``reference``.

    Measured points must match the reference grid and lie within
    ``z_bound`` combined standard errors of it in delay and in log10 pf;
    extrapolated points must cover the reference grid with finite values.
    """
    problems = []
    measured = {(r["detector"], float(r["gamma"])): r
                for r in rows if r["measured_or_extrapolated"] == "measured"}
    expected = {(p["detector"], p["gamma"]): p for p in reference["points"]}
    if set(measured) != set(expected):
        problems.append(f"measured points {sorted(measured)} != reference {sorted(expected)}")
    for key in sorted(set(measured) & set(expected)):
        row, ref = measured[key], expected[key]
        for what in ("delay", "log10_pf"):
            z = _z(float(row[what]), ref, what)
            if not abs(z) <= z_bound:
                problems.append(f"{key[0]} gamma={key[1]:g} {what}: z={z:.2f} beyond {z_bound}")
    for detector, grid in reference["extrapolated"].items():
        got = [r for r in rows
               if r["detector"] == detector and r["measured_or_extrapolated"] == "extrapolated"]
        if [float(r["gamma"]) for r in got] != grid:
            problems.append(f"{detector}: extrapolated grid differs from {grid}")
        if not all(math.isfinite(float(r["delay"])) and math.isfinite(float(r["log10_pf"]))
                   for r in got):
            problems.append(f"{detector}: non-finite extrapolated value")
    return problems


def delay_problems(rows: list[dict], reference: dict, trials: int,
                   z_bound: float = Z_BOUND) -> list[str]:
    """Check a ``mast simulate --mode delay`` table against ``reference``."""
    if len(rows) != 1 or rows[0]["metric"] != "delay":
        return [f"expected one delay row, got {len(rows)}"]
    row = rows[0]
    problems = []
    if (row["detector"], int(row["scenario"]), float(row["gamma"])) != (
            reference["detector"], reference["scenario"], reference["gamma"]):
        problems.append(f"row is for {row['detector']} S{row['scenario']} gamma={row['gamma']}")
    if int(row["n"]) != trials or int(row["n_censored"]) != 0:
        problems.append(f"n={row['n']} censored={row['n_censored']}, expected {trials} and 0")
    z = _z(float(row["value"]), reference, "delay")
    if not abs(z) <= z_bound:
        problems.append(f"delay z={z:.2f} beyond {z_bound}")
    return problems


def rel_se_max(rows: list[dict]) -> float:
    """Worst standard error over estimate among the measured rows of a table."""
    worst = 0.0
    for r in rows:
        if "log10_pf" in r:
            if r["measured_or_extrapolated"] != "measured":
                continue
            worst = max(worst, float(r["delay_se"]) / float(r["delay"]),
                        float(r["pf_se"]) / 10.0 ** float(r["log10_pf"]))
        else:
            worst = max(worst, float(r["std_error"]) / float(r["value"]))
    return worst


def detect_oracle(entries: list[tuple], sigma: float, gamma: float) -> dict:
    """Expected ``mast detect`` result for the plain MAST detector.

    ``entries`` are ``(date, count)`` pairs.  A ratio is formed only for
    consecutive days with a nonzero previous count; gaps are not scored.
    Returns the usable ratios' dates, the statistic path up to the alarm,
    and the alarm's 1-based sample index (``None`` without an alarm).
    """
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    dates, path = [], []
    n_ratios = 0
    alarm = None
    t = 0.0
    for (d0, p0), (d1, p1) in zip(entries, entries[1:]):
        if (d1 - d0).days != 1 or p0 == 0:
            continue
        n_ratios += 1
        if alarm is not None:
            continue
        x = p1 / p0
        score = (x - 1.0) ** 2 * inv2s2
        t = max(0.0, t + (score if x > 1.0 else -score))
        dates.append(d1)
        path.append(t)
        if t > gamma:
            alarm = n_ratios
    return {"alarm_index": alarm, "dates": dates, "path": path, "n_ratios": n_ratios}


_ALARM_LINE = re.compile(r"^alarm on (\S+) \(sample (\d+) of (\d+)")


def detect_problems(stdout: str, trace_rows: list[dict], oracle: dict,
                    rtol: float = STAT_RTOL) -> list[str]:
    """Check ``mast detect`` stdout and trace CSV against ``detect_oracle``."""
    idx = oracle["alarm_index"]
    if idx is None:
        return ["oracle raised no alarm; the workload input is unusable"]
    problems = []
    match = _ALARM_LINE.match(stdout.strip())
    want_date = oracle["dates"][idx - 1].isoformat()
    if match is None:
        problems.append(f"no alarm line in stdout: {stdout.strip()[:200]!r}")
    elif (match.group(1), int(match.group(2)), int(match.group(3))) != (
            want_date, idx, oracle["n_ratios"]):
        problems.append(f"stdout alarm {match.groups()} != ({want_date}, {idx}, {oracle['n_ratios']})")
    if len(trace_rows) != idx:
        problems.append(f"trace has {len(trace_rows)} rows, alarm is at sample {idx}")
    for i, row in enumerate(trace_rows[:idx]):
        want = oracle["path"][i]
        got = float(row["statistic"])
        alarmed = i + 1 == idx
        if (int(row["n"]) != i + 1 or row["date"] != oracle["dates"][i].isoformat()
                or int(row["alarmed"]) != alarmed
                or abs(got - want) > rtol * max(1.0, abs(want))):
            problems.append(f"trace row {i + 1} {row} differs: expected statistic {want!r}, "
                            f"date {oracle['dates'][i]}, alarmed {int(alarmed)}")
            break
    return problems
