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
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

__all__ = ["load_defaults", "grid_for"]


def load_defaults(path: str | Path | None = None) -> dict:
    """Packaged defaults, optionally overlaid with a user JSON file."""
    packaged = resources.files("mast").joinpath("default_experiments.json")
    defaults = json.loads(packaged.read_text())
    if path is not None:
        user = json.loads(Path(path).read_text())
        for key, value in user.items():
            if key == "grids":
                for scenario, per_kind in value.items():
                    defaults["grids"].setdefault(scenario, {}).update(per_kind)
            else:
                defaults[key] = value
    return defaults


def grid_for(defaults: dict, scenario: int, kind: str) -> tuple[list[float], list[float]] | None:
    """(measure, extrapolate) grids for a detector kind, if configured."""
    entry = defaults.get("grids", {}).get(f"scenario{scenario}", {}).get(kind)
    if entry is None:
        return None
    return (
        [float(g) for g in entry.get("measure", [])],
        [float(g) for g in entry.get("extrapolate", [])],
    )
