"""Regenerate ``bench/reference.json``, the correctness reference of the gates.

    python3 bench/make_reference.py

Run from the repository root on the code whose numbers are to be trusted.
It runs each Monte Carlo workload ``RUNS`` times at its benchmark size,
with seeds the benchmark itself never derives (it uses ``seed * 1000 +
call`` for seeds below 20,000), and records for every output value the
mean, the spread of one run (sample standard deviation) and the standard
error of the mean.  The gates compare a run with this table using the
measured spread, not the standard error the program reports: at the
workload's size the program's ``pf_se`` understates the run-to-run spread
of short-horizon false-alarm estimates, and the mean absorbs the
estimator's finite-horizon bias.  Each ``rel_se_ceiling`` is
``CEILING_FACTOR`` times the worst ``rel_se_max`` seen, so a change that
buys speed with precision fails the gate.
"""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads

RUNS = 40
CEILING_FACTOR = 1.25
REF_SEED = 20_201_121


def _summary(values: list[float]) -> dict:
    sd = statistics.stdev(values)
    return {"mean": statistics.fmean(values), "sd": sd, "se": sd / math.sqrt(len(values))}


def _outputs(name: str, header: list[str], tmp: Path) -> list[list[dict]]:
    wl = workloads.WORKLOADS[name]
    tables = []
    for k in range(RUNS):
        out = tmp / "out.csv"
        argv = wl.argv({"seed": 0}, 0, out)
        argv[argv.index("--seed") + 1] = str(REF_SEED + k)
        subprocess.run([sys.executable, "-m", "mast.cli", *argv], env=run.child_env(),
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        tables.append(gate.read_table(out.read_text(), header))
    return tables


def _source(name: str) -> str:
    argv = workloads.WORKLOADS[name].argv({"seed": 0}, 0, Path("OUT"))
    argv[argv.index("--seed") + 1] = f"{REF_SEED}..{REF_SEED + RUNS - 1}"
    return "mast " + " ".join(argv)


def main() -> None:
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        curves = _outputs("curve-s1", gate.CURVE_HEADER, Path(tmp))
        delays = _outputs("delay-s2", gate.SIMULATE_HEADER, Path(tmp))

    points = []
    for i, row in enumerate(curves[0]):
        if row["measured_or_extrapolated"] != "measured":
            continue
        delay = _summary([float(t[i]["delay"]) for t in curves])
        log_pf = _summary([float(t[i]["log10_pf"]) for t in curves])
        points.append({
            "detector": row["detector"], "gamma": float(row["gamma"]),
            "delay": delay["mean"], "delay_sd": delay["sd"], "delay_se": delay["se"],
            "log10_pf": log_pf["mean"], "log10_pf_sd": log_pf["sd"], "log10_pf_se": log_pf["se"],
        })
    extrapolated: dict[str, list[float]] = {}
    for row in curves[0]:
        if row["measured_or_extrapolated"] == "extrapolated":
            extrapolated.setdefault(row["detector"], []).append(float(row["gamma"]))
    delay = _summary([float(t[0]["value"]) for t in delays])
    first = delays[0][0]

    reference = {
        "curve-s1": {
            "source": _source("curve-s1"),
            "runs": RUNS,
            "points": points,
            "extrapolated": extrapolated,
            "rel_se_ceiling": CEILING_FACTOR * max(gate.rel_se_max(t) for t in curves),
        },
        "delay-s2": {
            "source": _source("delay-s2"),
            "runs": RUNS,
            "detector": first["detector"],
            "scenario": int(first["scenario"]),
            "gamma": float(first["gamma"]),
            "delay": delay["mean"], "delay_sd": delay["sd"], "delay_se": delay["se"],
            "rel_se_ceiling": CEILING_FACTOR * max(gate.rel_se_max(t) for t in delays),
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
