"""Benchmark of the ``mast`` CLI: end-to-end time, memory and precision.

    python3 bench/run.py --workload {curve-s1,delay-s2,detect-long} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; nothing needs building.  Each call runs the
CLI in a fresh interpreter (``bench/child.py``) on generated inputs, with
``--workers 1`` and numeric thread pools pinned to one thread, one call at
a time.  Calls repeat until ``--seconds`` have passed (at least one call;
in a traced run at least one untraced and one traced call), each with its
own ``--seed`` derived from the benchmark seed.  ``gate.py`` checks every
call's outputs; a crash, an unexpected exit code or a failed check counts
the call as failed.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: interpreter start plus ``import mast.cli``, median over calls;
* ``wall_s``: the ``mast.cli.main`` call, outputs written, best over calls;
* ``work_per_s``: curve points, delay trials or ratios per second of ``wall_s``;
* ``peak_rss_mb``: peak resident set size of a call's process, median.

The timings are given at a fixed machine speed.  On the shared 2-core
Xeon machine the baseline was taken on, the same call takes 1x or 1.7x
its time from one second to the next, and the share of slow seconds
drifts within half an hour, moving every timing of a run alike.  So
before each call the benchmark times ``speed_probe()``, a fixed piece of
work that does not touch ``mast``, and scales each timing by
``PROBE_REF_S`` over the same statistic of the probe times: the best
call by the best probe, the median set-up by the median probe.  The
unscaled figures and the probes are printed and recorded too.

``rel_se_max`` (worst standard error over estimate in a Monte Carlo
output; gated by a ceiling) and ``error_rate`` are printed on their own
lines.  ``--trace 1`` alternates untraced and traced calls.  Traced calls
record spans at each module boundary (``spans.py``) and give the
per-layer metrics as medians over traced calls; ``-X importtime`` gives
the import split of set-up; the traced minus the untraced median wall
time is the tracing overhead.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, machine
facts included, is written to ``bench/.work/<workload>-s<seed>-t<trace>/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
CALL_TIMEOUT_S = 90
PROBE_REF_S = 0.15   # about the best speed_probe() time on a 2-core Xeon sandbox
IMPORTTIME_RUNS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]
SETUP_METRICS = [
    ("setup.numpy_import_s", "s", "lower"),
    ("setup.scipy_import_s", "s", "lower"),
    ("setup.mast_import_s", "s", "lower"),
]
TRACE_METRICS = [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mast").glob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine_facts(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def run_call(wl, inputs: dict, call: int, traced: bool, work_dir: Path) -> dict:
    """One CLI call in a fresh interpreter, checked; returns its record."""
    out = work_dir / f"output-{call}.csv"
    result_path = work_dir / f"call-{call}.json"
    argv = wl.argv(inputs, call, out)
    record = {"call": call, "traced": traced, "argv": argv, "problems": []}
    launched = time.time()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result_path), str(int(traced)), "--", *argv],
            env=child_env(), cwd=work_dir, capture_output=True, text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {CALL_TIMEOUT_S} s")
        return record
    if proc.returncode != 0 or not result_path.exists():
        record["problems"].append(f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return record
    result = json.loads(result_path.read_text())
    record.update(exit=result["exit"], wall_s=result["wall_s"],
                  setup_s=result["imported_at"] - launched, peak_rss_mb=result["peak_rss_mb"])
    if traced:
        record["spans"] = result["spans"]
    if Path(result["mast_file"]).resolve().parent != (SRC / "mast").resolve():
        record["problems"].append(f"imported mast from {result['mast_file']}, not {SRC}")
    if result["exit"] != wl.expected_exit:
        record["problems"].append(f"exit code {result['exit']}, expected {wl.expected_exit}: "
                                  f"{proc.stderr.strip()[-500:]}")
    else:
        try:
            problems, record["rel_se_max"] = wl.check(inputs, out, proc.stdout)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        record["problems"].extend(problems)
    for path in (out, Path(f"{out}.manifest.json")):
        path.unlink(missing_ok=True)
    return record


def speed_probe() -> float:
    """Seconds taken by a fixed mix of numpy and interpreter work.

    It stands in for the machine's current speed: it uses only numpy and
    the standard library, so no change to ``mast`` changes its work.  The
    garbage collector is off while it runs, so the size of this process's
    heap does not change its work either.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        x = np.random.default_rng(0).standard_normal((256, 1024))
        for _ in range(8):
            np.minimum.accumulate(np.cumsum(x, axis=1), axis=1)
        acc, table = 0.0, {}
        for i in range(300_000):
            acc = max(0.0, acc + (i % 7) * 0.25 - 0.8)
            table[i & 4095] = acc
        text = "\n".join(f"{i},{i * 0.37!r}" for i in range(40_000))
        sum(float(line.split(",")[1]) for line in text.splitlines())
        return time.perf_counter() - start
    finally:
        gc.enable()


_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)\s*$")


def import_split(stderr: str) -> dict[str, float]:
    """numpy, scipy and remaining mast import time from ``-X importtime`` output.

    Entries are printed after their children, indented by nesting depth.
    numpy and scipy are each charged the cumulative time of their outermost
    entries (numpy modules first imported by scipy count for scipy); mast
    is charged the rest of the ``mast.cli`` import.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            level = len(match.group(2)) // 2
            node = (match.group(3), int(match.group(1)), pending.pop(level + 1, []))
            pending.setdefault(level, []).append(node)
    roots = [node for nodes in pending.values() for node in nodes]
    us = {"numpy": 0, "scipy": 0, "mast": 0}

    def charge(node, under_mast):
        name, cumulative, children = node
        pkg = name.split(".")[0]
        if pkg == "mast" and not under_mast:
            us["mast"] += cumulative
            under_mast = True
        elif pkg in ("numpy", "scipy") and under_mast:
            us[pkg] += cumulative
            return
        for child in children:
            charge(child, under_mast)

    for root in roots:
        charge(root, False)
    return {
        "setup.numpy_import_s": us["numpy"] / 1e6,
        "setup.scipy_import_s": us["scipy"] / 1e6,
        "setup.mast_import_s": (us["mast"] - us["numpy"] - us["scipy"]) / 1e6,
    }


def measure_import_split() -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mast.cli"],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S, check=True)
        runs.append(import_split(proc.stderr))
    return {name: statistics.median(r[name] for r in runs) for name in runs[0]}


CROSSCHECK_TOLERANCE = 0.25


def crosschecks(workload: str, traced: list[dict]) -> list[dict]:
    """Used shares of the traced calls against the baseline table in ROADMAP.md.

    A share more than ``CROSSCHECK_TOLERANCE`` (relative) away from the
    baseline is reported as disagreeing; it is not a failure.
    """
    expected = {
        "curve-s1": [
            ("delay used_share, S1 mast gamma=4", 0.09,
             lambda c: spans.delay_used_share(c["spans"], 1, "mast", 4.0)),
            ("pf used_share", 1.0, lambda c: c["layers"]["simulation.estimate_pf.used_share"]),
        ],
        "delay-s2": [
            ("delay used_share", 0.02,
             lambda c: c["layers"]["simulation.estimate_delay.used_share"]),
        ],
    }
    checks = []
    for label, baseline, share in expected.get(workload, []):
        measured = statistics.median(share(c) for c in traced)
        agrees = abs(measured - baseline) <= CROSSCHECK_TOLERANCE * baseline
        checks.append({"label": label, "measured": measured, "baseline": baseline,
                       "agrees": agrees})
    return checks


def traced_metrics(workload: str, traced: list[dict], untraced: list[dict]):
    """Per-layer metrics of a traced run, and its cross-checks."""
    for c in traced:
        c["layers"] = spans.summarise(c["spans"])
    values = {name: statistics.median(c["layers"][name] for c in traced)
              for name, _, _ in spans.LAYER_METRICS}
    values.update(measure_import_split())
    values["trace.wall_s"] = statistics.median(c["wall_s"] for c in traced)
    values["trace.untraced_wall_s"] = statistics.median(c["wall_s"] for c in untraced)
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    values["trace.overhead_share"] = values["trace.overhead_s"] / values["trace.untraced_wall_s"]
    return values, crosschecks(workload, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mast" / "cli.py").is_file():
        print(f"error: no mast sources under {SRC}", file=sys.stderr)
        return 1

    wl = workloads.WORKLOADS[args.workload]
    work_dir = BENCH / ".work" / f"{wl.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    facts = machine_facts(args.seed)
    print(f"facts: {json.dumps(facts)}")
    inputs = wl.prepare(args.seed, work_dir)
    work = wl.work(inputs)

    calls = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        probe_s = speed_probe()
        record = run_call(wl, inputs, len(calls), traced, work_dir)
        record["probe_s"] = probe_s
        calls.append(record)
        status = "ok" if not record["problems"] else "FAILED: " + "; ".join(record["problems"])
        print(f"call {record['call']} traced={int(traced)} wall_s={record.get('wall_s')} "
              f"setup_s={record.get('setup_s')} peak_rss_mb={record.get('peak_rss_mb')} "
              f"probe_s={probe_s} rel_se_max={record.get('rel_se_max')} {status}", flush=True)
        if time.perf_counter() - start >= args.seconds and len(calls) >= 1 + args.trace:
            break
    if "input" in inputs:
        inputs["input"].unlink()

    ok = [c for c in calls if not c["problems"]]
    untraced = [c for c in ok if not c["traced"]]
    traced_ok = [c for c in ok if c["traced"]]
    failed = len(calls) - len(ok)
    if not untraced or (args.trace and not traced_ok):
        print("error: no call passed its checks; no result", file=sys.stderr)
        return 1

    if args.trace:
        listed = spans.LAYER_METRICS + SETUP_METRICS + TRACE_METRICS
        values, checks = traced_metrics(wl.name, traced_ok, untraced)
        print(f"per-layer metrics: medians over {len(traced_ok)} traced calls; setup.* over "
              f"{IMPORTTIME_RUNS} -X importtime runs; trace.untraced_wall_s over "
              f"{len(untraced)} untraced calls")
        for check in checks:
            print(f"crosscheck {check['label']}: {check['measured']:.4f}, ROADMAP baseline "
                  f"about {check['baseline']:g}: {'agrees' if check['agrees'] else 'DISAGREES'}")
    else:
        listed = END_TO_END
        probes = [c["probe_s"] for c in calls]
        raw = {
            "setup_s": statistics.median(c["setup_s"] for c in untraced),
            "wall_s": min(c["wall_s"] for c in untraced),
        }
        values = {
            "setup_s": raw["setup_s"] * PROBE_REF_S / statistics.median(probes),
            "wall_s": raw["wall_s"] * PROBE_REF_S / min(probes),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        }
        values["work_per_s"] = work / values["wall_s"]
        checks = []
        print(f"end-to-end metrics over {len(untraced)} calls; probe best "
              f"{min(probes):.6g} s, median {statistics.median(probes):.6g} s, "
              f"PROBE_REF_S {PROBE_REF_S} s; unscaled setup_s {raw['setup_s']:.6g} s, "
              f"wall_s {raw['wall_s']:.6g} s")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    rel = [c["rel_se_max"] for c in untraced if c.get("rel_se_max") is not None]
    if rel:
        print(f"rel_se_max = {statistics.median(rel):.6g} ratio (median of {len(rel)} calls)")
    print(f"error_rate = {failed / len(calls):.6g} ratio ({failed} of {len(calls)} calls failed)")
    print(f"work = {work} {wl.work_unit} per call")

    for c in calls:
        c.pop("spans", None)
    (work_dir / "record.json").write_text(json.dumps(
        {"workload": wl.name, "facts": facts, "seconds": args.seconds, "trace": args.trace,
         "calls": calls, "metrics": metrics, "crosschecks": checks}, indent=1, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": len(calls), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
