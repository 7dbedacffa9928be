"""Command-line interface: detection on real data, simulation, curves.

Three subcommands:

* ``mast detect``   -- run a detector over a delimited date/count file.
* ``mast simulate`` -- Monte Carlo delay and false-alarm estimates at one
  threshold under a synthetic scenario.
* ``mast curve``    -- measured plus extrapolated operational curves as
  plot-ready CSV: Monte Carlo delays, and false-alarm rates from a
  run-length solver.

Exit codes are a stable contract: 0 = ran, no alarm; 2 = alarm raised;
1 = usage or input error.  A warning raised while a command runs goes to
stderr as one ``warning: <message>`` line.  Every CSV written to a path is
accompanied by ``<path>.manifest.json`` holding the fully resolved
configuration, and identical manifests reproduce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import nullcontext
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .core import Barriers
from .detectors import DetectorConfig, DetectorKind, run_stream
from .ingestion import (
    DegenerateSigmaError,
    InsufficientDataError,
    estimate_sigma,
    parse_counts,
    to_ratios,
)
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

_TRACE_CHUNK = 8192  # trace rows per string written


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


def _parse_grid(text: str, flag: str) -> list[float]:
    """Grid syntax: comma list ``1,2,3`` or linspace ``lo:hi:n`` or ``none``.
    A syntax error names ``flag``, the option the text came from."""
    text = text.strip()
    if text.lower() == "none":
        return []
    try:
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError(f"grid range must be lo:hi:n, got {text!r}")
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
            return [float(g) for g in np.linspace(lo, hi, n)]
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _detector_kinds(args, alpha_read: bool) -> list[DetectorKind]:
    """The selected detectors; a detector flag that none of them reads is an
    error.  ``alpha_read`` is set where ``--alpha`` is also the scenario's
    mean offset, so that every run reads it."""
    labels = [k.strip() for k in args.detector.split(",") if k.strip()]
    if not labels:
        raise ValueError("--detectors must name at least one detector")
    choices = [kind.value for kind in DetectorKind]
    for i, label in enumerate(labels):
        if label not in choices:
            raise ValueError(f"unknown detector {label!r} (choose from {', '.join(choices)})")
        if label in labels[:i]:
            raise ValueError(f"--detectors names {label!r} more than once")
    kinds = [DetectorKind(label) for label in labels]
    read = {"alpha"} if alpha_read or DetectorKind.PAGE in kinds else set()
    if DetectorKind.MAST in kinds:
        read |= {"delta_lower", "delta_upper"}
    for name in ("delta_lower", "delta_upper", "alpha"):
        if getattr(args, name) is not None and name not in read:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is not read by the chosen detector(s): {','.join(labels)}")
    return kinds


def _detector_config(kind: DetectorKind, args, sigma: float) -> DetectorConfig:
    """The one place a ``DetectorConfig`` is built from the detector flags."""
    if kind is DetectorKind.PAGE:
        if args.alpha is None:
            raise ValueError("page detector needs --alpha")
        return DetectorConfig(kind, sigma, alpha=args.alpha)
    lower = 1.0 if args.delta_lower is None else args.delta_lower
    upper = lower if args.delta_upper is None else args.delta_upper
    return DetectorConfig(kind, sigma, barriers=Barriers(lower, upper))


def _detector_params(config: DetectorConfig) -> dict:
    params: dict = {"detector": config.kind.value, "sigma": config.sigma}
    if config.barriers is not None:
        params["delta_lower"] = config.barriers.lower
        params["delta_upper"] = config.barriers.upper
    if config.alpha is not None:
        params["alpha"] = config.alpha
    return params


def load_defaults() -> dict:
    """The packaged measured and extrapolated grids, keyed by scenario and
    detector (``default_experiments.json``)."""
    return json.loads(resources.files("mast").joinpath("default_experiments.json").read_text())


def _experiment_settings(args, *names: str) -> dict:
    """The resolved settings a manifest records: each named flag's value,
    the scenario and workers flags, and the change time (1 when not given)
    with ``run_in``, whether ``--change-time`` was given and so the delay
    trials run through the samples before the change.  The run sizes
    ``--trials``, ``--seed`` and ``--workers`` and the ``--change-time`` of
    every mode are range-checked here, so that an error names the flag."""
    settings = {name: getattr(args, name) for name in names}
    settings.update(
        scenario=args.scenario, run_in=args.change_time is not None, workers=args.workers,
        change_time=args.change_time if args.change_time is not None else 1,
    )
    for name, low in (("trials", 1), ("seed", 0), ("workers", 1), ("change_time", 1)):
        if settings[name] < low:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} must be an integer >= {low}, got {settings[name]!r}")
    return settings


def _csv_line(cells: Iterable) -> str:
    """One CSV line.  No cell this program writes needs quoting: each is a
    number, a date, a label or empty."""
    return ",".join(map(str, cells)) + "\n"


def _write_output(
    output: str | None, header: list[str], lines: Iterable[str], subcommand: str, parameters: dict
) -> None:
    """Write the CSV ``header`` and ``lines`` (each ending in a newline) to
    ``output`` with its manifest, or to stdout, without a manifest, when
    ``output`` is None."""
    with open(output, "w", newline="") if output is not None else nullcontext(sys.stdout) as fh:
        fh.write(_csv_line(header))
        fh.writelines(lines)
    if output is not None:
        manifest = {"tool": "mast", "version": __version__, "subcommand": subcommand,
                    "output": str(output), "parameters": parameters}
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        Path(str(output) + ".manifest.json").write_text(text)


def _add_detector_flags(parser: argparse.ArgumentParser, *, several: bool = False) -> None:
    """``--detector``, or the comma list ``--detectors`` stored under the same
    name when ``several``, and the flags the detectors read.  ``--alpha``
    keeps the default ``parser`` already holds for it, if any."""
    parser.add_argument(
        "--detectors" if several else "--detector",
        dest="detector",
        choices=None if several else [k.value for k in DetectorKind],
        default="mast,page" if several else DetectorKind.MAST.value,
        help="comma list of detectors to compare (default: mast,page)" if several
        else "mast (the barrier pair test) or page (default: mast)",
    )
    parser.add_argument("--delta-lower", type=float, help="lower mean barrier of mast (default 1)")
    parser.add_argument("--delta-upper", type=float, help="upper mean barrier of mast (default: lower)")
    also = " and of the scenario (default: %(default)s)" if parser.get_default("alpha") else ""
    parser.add_argument("--alpha", type=float, help="nominal mean offset of page" + also)


def _add_experiment_flags(parser: argparse.ArgumentParser, trials_help: str) -> None:
    """The flags ``simulate`` and ``curve`` share, with their defaults, and
    the default of their ``--alpha``, the scenario's mean offset;
    ``trials_help`` says what ``--trials`` counts."""
    parser.set_defaults(alpha=0.05)
    parser.add_argument("--scenario", type=int, choices=(1, 2), required=True)
    parser.add_argument("--sigma", type=float, default=0.05,
                        help="ratio noise level (default: %(default)s)")
    parser.add_argument("--trials", type=int, default=10000,
                        help=trials_help + " (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=42, help="master seed (default: %(default)s)")
    parser.add_argument(
        "--change-time", type=int,
        help="regime change sample (default 1); when given, delay trials run in before it",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="has no effect; checked and recorded in the manifest, to be removed (default: 1)",
    )


def _iso_days(days: np.ndarray) -> list[str]:
    """The ``YYYY-MM-DD`` text of each day of ``days``, a ``datetime64[D]``
    array of years 1 to 9999, as ``np.datetime_as_string`` writes it.  The
    ten ASCII bytes of each day and a newline make one row of a buffer that
    is decoded and split once."""
    text = np.empty((len(days), 11), np.uint8)
    text[:, :10] = days.astype("S10")[:, None].view(np.uint8)
    text[:, 10] = ord("\n")
    return text.tobytes().decode("ascii").splitlines()


def _trace_chunks(days, values, path: list[float], alarm: int | None) -> Iterator[str]:
    """The ``detect`` trace rows ``n,date,x,statistic,alarmed`` for each
    scored sample, ``_TRACE_CHUNK`` lines per string, so that a long trace
    is never held whole.  The ``repr`` of a list of floats holds the
    ``repr`` of each, so split at ``", "`` it gives the cells ``_fmt`` would."""
    for start in range(0, len(path), _TRACE_CHUNK):
        stop = min(start + _TRACE_CHUNK, len(path))
        x = repr(values[start:stop].tolist())[1:-1].split(", ")
        statistic = repr(path[start:stop])[1:-1].split(", ")
        alarmed = ["0"] * (stop - start)
        if alarm is not None and start < alarm <= stop:
            alarmed[alarm - 1 - start] = "1"
        rows = zip(map(str, range(start + 1, stop + 1)),
                   _iso_days(days[start:stop]), x, statistic, alarmed)
        yield "\n".join(map(",".join, rows)) + "\n"


def cmd_detect(args) -> int:
    (kind,) = _detector_kinds(args, alpha_read=False)
    try:
        text = Path(args.input).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read input: {exc}")
    series = parse_counts(
        text,
        date_column=args.date_column,
        count_column=args.count_column,
        date_format=args.date_format,
    )
    ratios = to_ratios(series)

    if args.sigma is not None:
        sigma, sigma_source = args.sigma, "supplied"
    else:
        window = args.sigma_window if args.sigma_window is not None else 30
        try:
            sigma = estimate_sigma(ratios, window)
        except (InsufficientDataError, DegenerateSigmaError) as exc:
            raise ValueError(f"sigma estimation failed: {exc}; supply --sigma instead")
        except ValueError as exc:
            raise ValueError(f"--sigma-window: {exc}")
        sigma_source = f"estimated from trailing window of {window}"

    config = _detector_config(kind, args, sigma)
    usable = ~np.isnan(ratios.values)
    days, values = ratios.days[usable], ratios.values[usable]
    report = run_stream(values, config, args.gamma)

    if args.output is not None:
        parameters = {**_detector_params(config), "gamma": args.gamma,
                      "sigma_source": sigma_source, "input": str(args.input),
                      "date_column": args.date_column, "count_column": args.count_column,
                      "date_format": args.date_format}
        trace = _trace_chunks(days, values, report.path, report.alarm_index)
        _write_output(
            args.output, ["n", "date", "x", "statistic", "alarmed"], trace, "detect", parameters
        )

    gaps = len(ratios) - len(values)
    gap_note = f", {gaps} gap(s) skipped" if gaps else ""
    if report.alarmed:
        print(
            f"alarm on {days[report.alarm_index - 1]} (sample {report.alarm_index} of {len(values)}"
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
    (kind,) = _detector_kinds(args, alpha_read=True)
    settings = _experiment_settings(args, "alpha", "sigma", "trials", "seed")
    spec = ScenarioSpec(args.scenario, args.alpha, args.sigma)
    config = _detector_config(kind, args, args.sigma)
    if args.mode == "pf":
        given = (("--horizon", args.horizon is not None),
                 ("--change-time", args.change_time is not None))
        unread = [flag for flag, is_given in given if is_given]
        if unread:
            raise ValueError(f"{', '.join(unread)} not read by --mode pf (delay trials only)")

    if args.horizon is not None and args.horizon < 1:
        raise ValueError(f"--horizon must be an integer >= 1, got {args.horizon}")

    # the false alarms first: a rate out of Monte Carlo reach then fails
    # before any delay trial runs
    pf = None
    if args.mode in ("pf", "both"):
        pf = estimate_pf(
            spec,
            config,
            args.gamma,
            seed=[args.seed, PF_SEED_TAG, 0],
            target_crossings=args.trials,
        )
    rows = []
    if args.mode in ("delay", "both"):
        est = estimate_delay(
            spec,
            config,
            args.gamma,
            args.trials,
            seed=[args.seed, DELAY_SEED_TAG, 0],
            change_time=settings["change_time"],
            horizon=args.horizon,
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
    if pf is not None:
        print(
            f"pf: {pf.pf:.6g} +/- {pf.pf_se:.3g} "
            f"({pf.n_trials} crossings over {pf.observed_steps} samples)"
        )
        rows.append(
            ["pf", config.kind.value, args.scenario, _fmt(args.gamma), _fmt(pf.pf),
             _fmt(pf.pf_se), pf.n_trials, "", pf.observed_steps]
        )

    if args.output is not None:
        parameters = {**settings, **_detector_params(config), "gamma": args.gamma,
                      "mode": args.mode, "horizon": args.horizon}
        header = ["metric", "detector", "scenario", "gamma", "value", "std_error", "n",
                  "n_censored", "observed_steps"]
        _write_output(args.output, header, map(_csv_line, rows), "simulate", parameters)
    return EXIT_OK


def cmd_curve(args) -> int:
    kinds = _detector_kinds(args, alpha_read=True)
    settings = _experiment_settings(args, "alpha", "sigma", "trials", "seed", "r2_floor")
    spec = ScenarioSpec(args.scenario, args.alpha, args.sigma)

    given_grid = None if args.gamma_grid is None else _parse_grid(args.gamma_grid, "--gamma-grid")
    if given_grid == []:
        raise ValueError(f"--gamma-grid {args.gamma_grid!r} is empty")

    packaged = load_defaults()[f"scenario{args.scenario}"]
    runs = []
    pair: dict = {"delta_lower": None, "delta_upper": None}
    for kind in kinds:
        config = _detector_config(kind, args, args.sigma)
        if config.barriers is not None:
            pair = {"delta_lower": config.barriers.lower, "delta_upper": config.barriers.upper}
        # the packaged mast grids were chosen for the barrier pair (1, 1)
        unit_pair = config.barriers in (None, Barriers(1.0, 1.0))
        preset = packaged.get(kind.value, {}) if unit_pair else {}
        gamma_grid = given_grid or preset.get("measure")
        if not gamma_grid:
            b = config.barriers
            pair = "" if unit_pair else f" with barriers ({b.lower:g}, {b.upper:g})"
            raise ValueError(
                f"no default gamma grid for detector {kind.value!r}{pair} in scenario "
                f"{args.scenario}; pass --gamma-grid"
            )
        if args.extrapolate_grid is not None:
            extra_grid = _parse_grid(args.extrapolate_grid, "--extrapolate-grid")
        else:
            extra_grid = preset.get("extrapolate", [])
        runs.append((config, gamma_grid, extra_grid))

    curves = operational_curve(
        spec,
        runs,
        n_trials=args.trials,
        seed=args.seed,
        change_time=settings["change_time"],
        r2_floor=args.r2_floor,
    )
    table: list[list] = []
    for kind, curve in zip(kinds, curves):
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

    parameters = {**settings, "detectors": [k.value for k in kinds], "gamma_grid": args.gamma_grid,
                  "extrapolate_grid": args.extrapolate_grid, **pair}
    header = ["detector", "scenario", "gamma", "delay", "delay_se", "log10_pf", "pf_se",
              "measured_or_extrapolated"]
    _write_output(args.output, header, map(_csv_line, table), "curve", parameters)
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
        "--sigma-window", type=int, help="last ratios of the file used to estimate sigma "
        "(default 30); every earlier day is scored with it, a look-ahead",
    )
    detect.add_argument("--date-column", default="date", help="date column name (default: date)")
    detect.add_argument("--count-column", default="count", help="count column name (default: count)")
    detect.add_argument("--date-format", default="%Y-%m-%d",
                        help="strptime date format (default: %(default)s)")
    detect.add_argument("--output", help="write the statistic trace CSV here")
    detect.set_defaults(func=cmd_detect)

    simulate = sub.add_parser("simulate", help="Monte Carlo estimates at one threshold")
    _add_experiment_flags(simulate, "trials / target crossings")
    _add_detector_flags(simulate)
    simulate.add_argument("--gamma", type=float, required=True)
    simulate.add_argument("--mode", choices=("delay", "pf", "both"), default="both",
                          help="estimates to make (default: %(default)s)")
    simulate.add_argument("--horizon", type=int, help="delay-trial horizon (default adaptive)")
    simulate.add_argument("--output", help="write estimates as CSV here")
    simulate.set_defaults(func=cmd_simulate)

    curve = sub.add_parser(
        "curve", help="operational curves as plot-ready CSV (Monte Carlo delays, solved pf)"
    )
    _add_experiment_flags(curve, "delay trials per measured point; the false-alarm rates are "
                          "solved, not simulated")
    _add_detector_flags(curve, several=True)
    curve.add_argument("--gamma-grid", help="measured grid: comma list or lo:hi:n (default: packaged)")
    curve.add_argument(
        "--extrapolate-grid",
        help="extrapolated grid: comma list, lo:hi:n, or none (default: packaged)",
    )
    curve.add_argument("--r2-floor", type=float, default=0.95,
                       help="minimum fit r^2 for extrapolation (default: %(default)s)")
    curve.add_argument("--output", help="write the curve CSV here (default: stdout)")
    curve.set_defaults(func=cmd_curve)

    return parser


def _show_warning(message, *_) -> None:
    """A command's warning as one stderr line, printed as it is raised."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, RuntimeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
