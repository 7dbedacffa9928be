"""Mean-agnostic sequential tests for multiplicative count series.

Streaming CUSUM-type detectors for the daily growth ratio of a count
series, a Monte Carlo harness measuring their delay/false-alarm tradeoff,
and ingestion helpers for running them on real data.
"""

from .core import Barriers, mast_increment, page_increment
from .detectors import (
    AlarmReport,
    DetectorConfig,
    DetectorKind,
    DetectorState,
    brute_force_statistic,
    run_stream,
)
from .ingestion import (
    CountSeries,
    DegenerateSigmaError,
    InsufficientDataError,
    ParseError,
    RatioSeries,
    estimate_sigma,
    parse_counts,
    smooth_counts,
    to_ratios,
)
from .simulation import (
    CurvePoint,
    ExtrapolationError,
    InsufficientEventsError,
    LinearFit,
    OperationalCurve,
    PerformanceEstimate,
    ScenarioSpec,
    estimate_delay,
    estimate_pf,
    fit_linear,
    generate_path,
    operational_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmReport",
    "Barriers",
    "CountSeries",
    "CurvePoint",
    "DegenerateSigmaError",
    "DetectorConfig",
    "DetectorKind",
    "DetectorState",
    "ExtrapolationError",
    "InsufficientDataError",
    "InsufficientEventsError",
    "LinearFit",
    "OperationalCurve",
    "ParseError",
    "PerformanceEstimate",
    "RatioSeries",
    "ScenarioSpec",
    "brute_force_statistic",
    "estimate_delay",
    "estimate_pf",
    "estimate_sigma",
    "fit_linear",
    "generate_path",
    "mast_increment",
    "operational_curve",
    "page_increment",
    "parse_counts",
    "run_stream",
    "smooth_counts",
    "to_ratios",
    "__version__",
]
