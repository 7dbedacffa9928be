"""Command-line interface: detection on real data, simulation, curves.

Three subcommands:

* ``mast detect``   -- run a detector over a delimited date/count file.
* ``mast simulate`` -- Monte Carlo delay and false-alarm estimates at one
  threshold under a synthetic scenario.
* ``mast curve``    -- measured plus extrapolated operational curves as
  plot-ready CSV.

Exit codes are a stable contract: 0 = ran, no alarm; 2 = alarm raised;
1 = usage or input error.  Every CSV written to a path is accompanied by
``<path>.manifest.json`` holding the fully resolved configuration, and
identical manifests reproduce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path
from typing import IO

import numpy as np

from . import __version__
from .detectors import DetectorConfig, DetectorKind, run_stream
from .ingestion import (
    DegenerateSigmaError,
    InsufficientDataError,
    estimate_sigma,
    parse_counts,
    smooth_counts,
    to_ratios,
)
from .presets import grid_for, load_defaults
from .simulation import (
    DELAY_SEED_TAG,
    PF_SEED_TAG,
    ScenarioSpec,
    estimate_delay,
    estimate_pf,
    operational_curve,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ALARM = 2

# fixed per-kind seed tags so detector order on the command line is irrelevant
_KIND_SEED_TAG = {
    DetectorKind.MAST: 10,
    DetectorKind.MAST_DELTA: 11,
    DetectorKind.MAST_GENERAL: 12,
    DetectorKind.PAGE: 13,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """CSV cell for a float or missing value; repr keeps runs byte-stable."""
    if value is None:
        return ""
    return repr(float(value))


def _parse_grid(text: str) -> list[float]:
    """Grid syntax: comma list ``1,2,3`` or linspace ``lo:hi:n`` or ``none``."""
    text = text.strip()
    if text.lower() == "none":
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be lo:hi:n, got {text!r}")
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        return [float(g) for g in np.linspace(lo, hi, n)]
    return [float(part) for part in text.split(",") if part.strip()]


def _detector_config(args, sigma: float, alpha_default: float | None = None) -> DetectorConfig:
    kind = DetectorKind(args.detector)
    if kind is DetectorKind.PAGE:
        alpha = args.alpha if args.alpha is not None else alpha_default
        if alpha is None:
            raise ValueError("page detector needs --alpha")
        return DetectorConfig.page(alpha, sigma)
    if kind is DetectorKind.MAST:
        return DetectorConfig.mast(sigma)
    if kind is DetectorKind.MAST_DELTA:
        if args.delta_lower is None:
            raise ValueError("mast-delta needs --delta-lower (the single barrier)")
        if args.delta_upper is not None and args.delta_upper != args.delta_lower:
            raise ValueError("mast-delta uses one barrier; --delta-upper must match or be omitted")
        return DetectorConfig.mast_delta(args.delta_lower, sigma)
    if args.delta_lower is None or args.delta_upper is None:
        raise ValueError("mast-general needs --delta-lower and --delta-upper")
    return DetectorConfig.mast_general(args.delta_lower, args.delta_upper, sigma)


def _detector_params(config: DetectorConfig) -> dict:
    params: dict = {"detector": config.kind.value, "sigma": config.sigma}
    if config.barriers is not None:
        params["delta_lower"] = config.barriers.lower
        params["delta_upper"] = config.barriers.upper
    if config.alpha is not None:
        params["alpha"] = config.alpha
    return params


def _experiment_settings(args, *names: str) -> tuple[dict, list]:
    """Experiment defaults (packaged, overlaid by ``--config``) and each named
    flag's value, taken from the defaults where the flag was not given."""
    defaults = load_defaults(args.config)
    return defaults, [
        defaults[name] if getattr(args, name) is None else getattr(args, name) for name in names
    ]


def _write_manifest(output: str, subcommand: str, parameters: dict) -> None:
    payload = {
        "tool": "mast",
        "version": __version__,
        "subcommand": subcommand,
        "output": str(output),
        "parameters": parameters,
    }
    path = Path(str(output) + ".manifest.json")
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--detector",
        choices=[k.value for k in DetectorKind],
        default=DetectorKind.MAST.value,
        help="detector variant (default: mast, the single barrier at 1)",
    )
    parser.add_argument("--delta-lower", type=float, help="lower mean barrier (mast variants)")
    parser.add_argument("--delta-upper", type=float, help="upper mean barrier (mast-general)")
    parser.add_argument("--alpha", type=float, help="nominal mean offset (page; scenario mean offset)")


def cmd_detect(args) -> int:
    try:
        text = Path(args.input).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}")
    series = parse_counts(
        text,
        date_column=args.date_column,
        count_column=args.count_column,
        date_format=args.date_format,
    )
    if args.smooth_window:
        series = smooth_counts(series, args.smooth_window)
    ratios = to_ratios(series)

    if args.sigma is not None:
        sigma, sigma_source = args.sigma, "supplied"
    else:
        window = args.sigma_window if args.sigma_window is not None else 30
        try:
            sigma = estimate_sigma(ratios, window)
        except (InsufficientDataError, DegenerateSigmaError) as exc:
            raise ValueError(f"sigma estimation failed: {exc}; supply --sigma instead")
        sigma_source = f"estimated from trailing window of {window}"

    config = _detector_config(args, sigma)
    dates = [day for day, x in ratios.entries if x is not None]
    values = ratios.values
    report = run_stream(values, config, args.gamma)

    if args.output is not None:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "date", "x", "statistic", "alarmed"])
            for n, statistic in enumerate(report.path, 1):
                writer.writerow(
                    [n, dates[n - 1].isoformat(), _fmt(values[n - 1]), _fmt(statistic),
                     int(n == report.alarm_index)]
                )
        parameters = _detector_params(config)
        parameters.update(
            {
                "gamma": args.gamma,
                "sigma_source": sigma_source,
                "input": str(args.input),
                "smooth_window": args.smooth_window,
                "date_column": args.date_column,
                "count_column": args.count_column,
                "date_format": args.date_format,
            }
        )
        _write_manifest(args.output, "detect", parameters)

    gaps = ratios.n_gaps
    gap_note = f", {gaps} gap(s) skipped" if gaps else ""
    if report.alarmed:
        day = dates[report.alarm_index - 1]
        print(
            f"alarm on {day.isoformat()} (sample {report.alarm_index} of {len(values)}"
            f"{gap_note}; statistic {report.final_state.statistic:.6g} > gamma {args.gamma:g}; "
            f"sigma {sigma:.6g}, {sigma_source})"
        )
        return EXIT_ALARM
    print(
        f"no alarm over {len(values)} usable ratios{gap_note} "
        f"(gamma {args.gamma:g}; sigma {sigma:.6g}, {sigma_source})"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, (alpha, sigma, trials, seed) = _experiment_settings(
        args, "alpha", "sigma", "trials", "seed"
    )
    spec = ScenarioSpec(args.scenario, alpha, sigma)
    config = _detector_config(args, sigma, alpha_default=alpha)

    rows = []
    if args.mode in ("delay", "both"):
        est = estimate_delay(
            spec.changed(args.change_time),
            config,
            args.gamma,
            trials,
            seed=[seed, DELAY_SEED_TAG, 0],
            run_in=args.run_in,
            horizon=args.horizon,
            workers=args.workers,
        )
        censored = f", {est.n_censored} censored" if est.n_censored else ""
        print(
            f"delay: {est.mean_delay:.6g} +/- {est.delay_se:.3g} samples "
            f"({est.n_trials} trials{censored})"
        )
        rows.append(
            ["delay", config.kind.value, args.scenario, _fmt(args.gamma), _fmt(est.mean_delay),
             _fmt(est.delay_se), est.n_trials, est.n_censored, ""]
        )
    if args.mode in ("pf", "both"):
        est = estimate_pf(
            spec.controlled(),
            config,
            args.gamma,
            seed=[seed, PF_SEED_TAG, 0],
            target_crossings=trials,
            workers=args.workers,
        )
        print(
            f"pf: {est.pf:.6g} +/- {est.pf_se:.3g} "
            f"({est.n_trials} crossings over {est.observed_steps} samples)"
        )
        rows.append(
            ["pf", config.kind.value, args.scenario, _fmt(args.gamma), _fmt(est.pf),
             _fmt(est.pf_se), est.n_trials, "", est.observed_steps]
        )

    if args.output is not None:
        with open(args.output, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["metric", "detector", "scenario", "gamma", "value", "std_error",
                 "n", "n_censored", "observed_steps"]
            )
            writer.writerows(rows)
        parameters = _detector_params(config)
        parameters.update(
            {
                "scenario": args.scenario,
                "alpha": alpha,
                "gamma": args.gamma,
                "trials": trials,
                "seed": seed,
                "mode": args.mode,
                "change_time": args.change_time,
                "run_in": args.run_in,
                "horizon": args.horizon,
                "workers": args.workers,
            }
        )
        _write_manifest(args.output, "simulate", parameters)
    return EXIT_OK


def cmd_curve(args) -> int:
    defaults, (alpha, sigma, trials, seed, r2_floor) = _experiment_settings(
        args, "alpha", "sigma", "trials", "seed", "r2_floor"
    )
    spec = ScenarioSpec(args.scenario, alpha, sigma)

    kinds = [DetectorKind(k.strip()) for k in args.detectors.split(",") if k.strip()]
    if not kinds:
        raise ValueError("--detectors must name at least one detector")

    table: list[list] = []
    for kind in kinds:
        detector_args = argparse.Namespace(
            detector=kind.value,
            alpha=args.alpha,
            delta_lower=args.delta_lower,
            delta_upper=args.delta_upper,
        )
        config = _detector_config(detector_args, sigma, alpha_default=alpha)
        preset = grid_for(defaults, args.scenario, kind.value)
        gamma_grid = _parse_grid(args.gamma_grid) if args.gamma_grid else (preset or (None,))[0]
        if not gamma_grid:
            raise ValueError(
                f"no default gamma grid for detector {kind.value!r} in scenario "
                f"{args.scenario}; pass --gamma-grid"
            )
        if args.extrapolate_grid is not None:
            extra_grid = _parse_grid(args.extrapolate_grid)
        else:
            extra_grid = preset[1] if preset else []
        curve = operational_curve(
            spec.controlled(),
            spec.changed(args.change_time),
            config,
            gamma_grid,
            extra_grid,
            n_trials=trials,
            seed=[seed, _KIND_SEED_TAG[kind]],
            run_in=args.run_in,
            r2_floor=r2_floor,
            workers=args.workers,
        )
        if curve.delay_fit is not None:
            print(
                f"{kind.value}: delay fit r2 {curve.delay_fit.r_squared:.4f} "
                f"(slope {curve.delay_fit.slope:.4g}), log10 pf fit r2 "
                f"{curve.logpf_fit.r_squared:.4f} (slope {curve.logpf_fit.slope:.4g})",
                file=sys.stderr,
            )
        for pt in curve.points:
            table.append(
                [kind.value, args.scenario, _fmt(pt.gamma), _fmt(pt.delay), _fmt(pt.delay_se),
                 _fmt(pt.log10_pf), _fmt(pt.pf_se),
                 "measured" if pt.measured else "extrapolated"]
            )

    def write_table(fh: IO[str]) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["detector", "scenario", "gamma", "delay", "delay_se", "log10_pf", "pf_se",
             "measured_or_extrapolated"]
        )
        writer.writerows(table)

    if args.output is not None:
        with open(args.output, "w", newline="") as fh:
            write_table(fh)
        parameters = {
            "detectors": [k.value for k in kinds],
            "scenario": args.scenario,
            "alpha": alpha,
            "sigma": sigma,
            "trials": trials,
            "seed": seed,
            "r2_floor": r2_floor,
            "gamma_grid": args.gamma_grid,
            "extrapolate_grid": args.extrapolate_grid,
            "change_time": args.change_time,
            "run_in": args.run_in,
            "delta_lower": args.delta_lower,
            "delta_upper": args.delta_upper,
            "workers": args.workers,
        }
        _write_manifest(args.output, "curve", parameters)
    else:
        write_table(sys.stdout)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="mast",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="exit codes: 0 = ran, no alarm; 2 = alarm raised; 1 = usage or input error",
    )
    parser.add_argument("--version", action="version", version=f"mast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    detect = sub.add_parser("detect", help="run a detector over a date,count file")
    detect.add_argument("--input", required=True, help="delimited file with date and count columns")
    _add_detector_flags(detect)
    detect.add_argument("--gamma", type=float, required=True, help="alarm threshold (no safe default)")
    sigma_group = detect.add_mutually_exclusive_group()
    sigma_group.add_argument("--sigma", type=float, help="known ratio noise level")
    sigma_group.add_argument(
        "--sigma-window", type=int, help="trailing ratios used to estimate sigma (default 30)"
    )
    detect.add_argument("--date-column", default="date", help="date column name (default: date)")
    detect.add_argument("--count-column", default="count", help="count column name (default: count)")
    detect.add_argument("--date-format", default="%Y-%m-%d", help="strptime date format")
    detect.add_argument(
        "--smooth-window",
        type=int,
        help="odd window for centered moving-average smoothing; correlates successive "
        "ratios, weakening the independence assumption (off by default)",
    )
    detect.add_argument("--output", help="write the statistic trace CSV here")
    detect.set_defaults(func=cmd_detect)

    simulate = sub.add_parser("simulate", help="Monte Carlo estimates at one threshold")
    simulate.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    _add_detector_flags(simulate)
    simulate.add_argument("--gamma", type=float, required=True)
    simulate.add_argument("--mode", choices=("delay", "pf", "both"), default="both")
    simulate.add_argument("--sigma", type=float, help="ratio noise level (default from config)")
    simulate.add_argument("--trials", type=int, help="trials / target crossings (default from config)")
    simulate.add_argument("--seed", type=int, help="master seed (default from config)")
    simulate.add_argument("--change-time", type=int, default=1, help="regime change sample (default 1)")
    simulate.add_argument(
        "--run-in",
        action="store_true",
        help="evolve the statistic through the pre-change samples instead of starting at zero",
    )
    simulate.add_argument("--horizon", type=int, help="delay-trial horizon (default adaptive)")
    simulate.add_argument("--workers", type=int, default=1)
    simulate.add_argument("--config", help="JSON file overriding packaged experiment defaults")
    simulate.add_argument("--output", help="write estimates as CSV here")
    simulate.set_defaults(func=cmd_simulate)

    curve = sub.add_parser("curve", help="operational curves as plot-ready CSV")
    curve.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    curve.add_argument(
        "--detectors",
        default="mast,page",
        help="comma list of detectors to compare (default: mast,page)",
    )
    curve.add_argument("--delta-lower", type=float, help="lower mean barrier (mast variants)")
    curve.add_argument("--delta-upper", type=float, help="upper mean barrier (mast-general)")
    curve.add_argument("--alpha", type=float, help="scenario mean offset / page alpha")
    curve.add_argument("--sigma", type=float, help="ratio noise level (default from config)")
    curve.add_argument("--gamma-grid", help="measured grid: comma list or lo:hi:n (default from config)")
    curve.add_argument(
        "--extrapolate-grid",
        help="extrapolated grid: comma list, lo:hi:n, or none (default from config)",
    )
    curve.add_argument("--trials", type=int, help="trials / target crossings per point")
    curve.add_argument("--seed", type=int, help="master seed (default from config)")
    curve.add_argument("--change-time", type=int, default=1)
    curve.add_argument("--run-in", action="store_true")
    curve.add_argument("--r2-floor", type=float, help="minimum fit r^2 for extrapolation")
    curve.add_argument("--workers", type=int, default=1)
    curve.add_argument("--config", help="JSON file overriding packaged experiment defaults")
    curve.add_argument("--output", help="write the curve CSV here (default: stdout)")
    curve.set_defaults(func=cmd_curve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
