"""Default experiment parameters for the simulation commands.

The packaged ``default_experiments.json`` records the scenario parameters
and per-detector threshold grids behind the stock operational curves, so
runs are reproducible from a declarative file.  A user file with the same
schema (any subset of keys) can be overlaid on top:

    {
      "alpha": 0.05,            // mean offset of both scenarios
      "sigma": 0.05,            // ratio noise level
      "trials": 10000,          // Monte Carlo trials / target crossings
      "seed": 42,               // master seed
      "r2_floor": 0.95,         // minimum fit quality for extrapolation
      "grids": {
        "scenario1": {"mast": {"measure": [...], "extrapolate": [...]},
                       "page": {...}},
        "scenario2": {...}
      }
    }

Grids are provided for ``mast`` and ``page``.  The ``mast`` grids were chosen
for the barrier pair (1, 1), the paper's single barrier at 1; ``curve`` uses
them only for that pair, and any other pair needs an explicit grid on the
command line.

A user file of the wrong shape (a top level, ``grids``, scenario or
detector entry that is not an object, or a ``measure`` or ``extrapolate``
grid that is not a list of numbers) raises a ``ValueError`` naming
``--config`` and the key.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

__all__ = ["load_defaults", "grid_for"]


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"--config: {key} must be an object, got {value!r}")
    return value


def _grid(value, key: str) -> list[float]:
    # JSON numbers only: a string or a bool is not a grid point
    if isinstance(value, list) and all(type(g) in (int, float) for g in value):
        return [float(g) for g in value]
    raise ValueError(f"--config: {key} must be a list of numbers, got {value!r}")


def load_defaults(path: str | Path | None = None) -> dict:
    """Packaged defaults, optionally overlaid with a user JSON file."""
    packaged = resources.files("mast").joinpath("default_experiments.json")
    defaults = json.loads(packaged.read_text())
    if path is not None:
        user = _object(json.loads(Path(path).read_text()), "the top level")
        for key, value in user.items():
            if key == "grids":
                for scenario, per_kind in _object(value, "grids").items():
                    per_kind = _object(per_kind, f"grids.{scenario}")
                    defaults["grids"].setdefault(scenario, {}).update(per_kind)
            else:
                defaults[key] = value
    return defaults


def grid_for(defaults: dict, scenario: int, kind: str) -> tuple[list[float], list[float]] | None:
    """(measure, extrapolate) grids for a detector kind, if configured."""
    key = f"grids.scenario{scenario}.{kind}"
    entry = defaults.get("grids", {}).get(f"scenario{scenario}", {}).get(kind)
    if entry is None:
        return None
    entry = _object(entry, key)
    return (
        _grid(entry.get("measure", []), f"{key}.measure"),
        _grid(entry.get("extrapolate", []), f"{key}.extrapolate"),
    )
