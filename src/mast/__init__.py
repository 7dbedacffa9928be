"""Mean-agnostic sequential tests for multiplicative count series.

Streaming CUSUM-type detectors for the daily growth ratio of a count
series, a Monte Carlo harness measuring their delay/false-alarm tradeoff,
and ingestion helpers for running them on real data.
"""

__version__ = "0.2.0"
