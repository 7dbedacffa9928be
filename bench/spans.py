"""Span recording at the module boundaries of the ``mast`` package.

``install()`` replaces the public functions that the CLI calls in each
module (``presets``, ``ingestion``, ``detectors``, ``core`` via
``DetectorConfig.increment``, and ``simulation``) with wrappers that record
one span per call: name, start, end, parent span and a few counts taken
from the arguments and the result.  Spans stay in memory; the caller
writes them out when the run ends.  Nothing inside the package is edited.

``summarise()`` turns the spans of one CLI call into the per-layer metrics
the benchmark reports.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """In-memory span list; parents follow the call stack of one thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``counts(args, kwargs, result)`` returns extra fields for the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result

        return wrapper


def _estimate_counts(args, kwargs, est):
    spec, config, gamma = args[0], args[1], args[2]
    out = {"scenario": spec.scenario, "kind": config.kind.value, "gamma": float(gamma),
           "n_trials": est.n_trials}
    if est.mean_delay is not None:
        out["samples_used"] = int(round(est.mean_delay * est.n_trials))
        out["censored"] = est.n_censored
    if est.observed_steps is not None:
        out["samples_used"] = int(est.observed_steps)
    return out


def install() -> Recorder:
    """Wrap the CLI's calls into each layer; return the recorder."""
    from mast import cli, detectors, simulation

    rec = Recorder()
    delay = rec.wrap("simulation.estimate_delay", simulation.estimate_delay, _estimate_counts)
    pf = rec.wrap("simulation.estimate_pf", simulation.estimate_pf, _estimate_counts)
    # operational_curve looks these up in its own module, the CLI in its namespace
    simulation.estimate_delay = cli.estimate_delay = delay
    simulation.estimate_pf = cli.estimate_pf = pf
    simulation.fit_linear = rec.wrap("simulation.fit_linear", simulation.fit_linear)
    cli.operational_curve = rec.wrap("simulation.operational_curve", cli.operational_curve)
    cli.load_defaults = rec.wrap("presets.load_defaults", cli.load_defaults)
    cli.parse_counts = rec.wrap("ingestion.parse_counts", cli.parse_counts,
                                lambda a, k, r: {"rows": len(r)})
    cli.to_ratios = rec.wrap("ingestion.to_ratios", cli.to_ratios,
                             lambda a, k, r: {"rows": len(r)})
    cli.run_stream = rec.wrap("detectors.run_stream", cli.run_stream,
                              lambda a, k, r: {"samples": r.final_state.samples_seen})
    detectors.DetectorConfig.increment = rec.wrap(
        "core.increment", detectors.DetectorConfig.increment,
        lambda a, k, r: {"samples": int(np.size(a[1]))},
    )
    cli.main = rec.wrap("cli.main", cli.main)
    return rec


# (name, unit, better) of every metric summarise() returns
LAYER_METRICS = [
    ("cli.main.self_s", "s", "lower"),
    ("presets.load_defaults.s", "s", "lower"),
    ("ingestion.parse_counts.s", "s", "lower"),
    ("ingestion.to_ratios.s", "s", "lower"),
    ("ingestion.rows_per_s", "1/s", "higher"),
    ("detectors.run_stream.s", "s", "lower"),
    ("detectors.run_stream.samples_per_s", "1/s", "higher"),
    ("core.increment.s", "s", "lower"),
    ("core.increment.calls", "count", "lower"),
    ("core.increment.samples", "count", "lower"),
    ("core.increment.delay_s", "s", "lower"),
    ("core.increment.delay_samples", "count", "lower"),
    ("core.increment.pf_s", "s", "lower"),
    ("core.increment.pf_samples", "count", "lower"),
    ("simulation.operational_curve.self_s", "s", "lower"),
    ("simulation.fit_linear.s", "s", "lower"),
    ("simulation.estimate_delay.self_s", "s", "lower"),
    ("simulation.estimate_delay.trials", "count", "higher"),
    ("simulation.estimate_delay.censored", "count", "lower"),
    ("simulation.estimate_delay.samples_used", "count", "lower"),
    ("simulation.estimate_delay.samples_scored", "count", "lower"),
    ("simulation.estimate_delay.used_share", "ratio", "higher"),
    ("simulation.estimate_pf.self_s", "s", "lower"),
    ("simulation.estimate_pf.crossings", "count", "higher"),
    ("simulation.estimate_pf.samples_used", "count", "lower"),
    ("simulation.estimate_pf.samples_scored", "count", "lower"),
    ("simulation.estimate_pf.used_share", "ratio", "higher"),
]


def _self_times(spans):
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}


def summarise(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced CLI call (0 where a layer was not entered)."""
    by_id = {s["id"]: s for s in spans}
    self_s = _self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    for s in spans:
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += self_s[s["id"]]
        for key in ("rows", "samples", "n_trials", "samples_used", "censored"):
            count[s["name"], key] += s.get(key, 0)
    inc = {"delay": [0.0, 0], "pf": [0.0, 0]}
    for s in spans:
        if s["name"] == "core.increment" and s["parent"] is not None:
            parent = by_id[s["parent"]]["name"]
            side = {"simulation.estimate_delay": "delay", "simulation.estimate_pf": "pf"}.get(parent)
            if side:
                inc[side][0] += s["end"] - s["start"]
                inc[side][1] += s["samples"]

    def rate(n, secs):
        return n / secs if secs > 0 else 0.0

    m = {
        "cli.main.self_s": own["cli.main"],
        "presets.load_defaults.s": total["presets.load_defaults"],
        "ingestion.parse_counts.s": total["ingestion.parse_counts"],
        "ingestion.to_ratios.s": total["ingestion.to_ratios"],
        "ingestion.rows_per_s": rate(count["ingestion.parse_counts", "rows"],
                                     total["ingestion.parse_counts"]),
        "detectors.run_stream.s": total["detectors.run_stream"],
        "detectors.run_stream.samples_per_s": rate(count["detectors.run_stream", "samples"],
                                                   total["detectors.run_stream"]),
        "core.increment.s": total["core.increment"],
        "core.increment.calls": sum(1 for s in spans if s["name"] == "core.increment"),
        "core.increment.samples": count["core.increment", "samples"],
        "core.increment.delay_s": inc["delay"][0],
        "core.increment.delay_samples": inc["delay"][1],
        "core.increment.pf_s": inc["pf"][0],
        "core.increment.pf_samples": inc["pf"][1],
        "simulation.operational_curve.self_s": own["simulation.operational_curve"],
        "simulation.fit_linear.s": total["simulation.fit_linear"],
    }
    for side, name in (("delay", "simulation.estimate_delay"), ("pf", "simulation.estimate_pf")):
        used, scored = count[name, "samples_used"], inc[side][1]
        m[f"{name}.self_s"] = own[name]
        m[f"{name}.samples_used"] = used
        m[f"{name}.samples_scored"] = scored
        m[f"{name}.used_share"] = used / scored if scored else 0.0
    m["simulation.estimate_delay.trials"] = count["simulation.estimate_delay", "n_trials"]
    m["simulation.estimate_delay.censored"] = count["simulation.estimate_delay", "censored"]
    m["simulation.estimate_pf.crossings"] = count["simulation.estimate_pf", "n_trials"]
    return m


def delay_used_share(spans: list[dict], scenario: int, kind: str, gamma: float) -> float | None:
    """Used share of the one ``estimate_delay`` call matching the arguments."""
    for s in spans:
        if (s["name"] == "simulation.estimate_delay" and s["scenario"] == scenario
                and s["kind"] == kind and s["gamma"] == gamma):
            scored = sum(c["samples"] for c in spans
                         if c["name"] == "core.increment" and c["parent"] == s["id"])
            return s["samples_used"] / scored if scored else None
    return None
