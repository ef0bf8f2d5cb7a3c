"""Persistence of experiment results (JSON / CSV).

Lets the CLI, the benchmark harness and examples write machine-readable
results alongside the human-readable tables: JSON payloads and
telemetry registries round-trip losslessly.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.obs import StatsRegistry

__all__ = [
    "save_stats",
    "load_stats",
    "stats_to_csv",
    "save_json",
    "load_json",
]


def save_stats(registry: StatsRegistry, path: str | Path) -> None:
    """Write a telemetry registry (counters, gauges, series, timers,
    events) to JSON — the export format of ``python -m repro stats``."""
    save_json(registry.to_dict(), path)


def load_stats(path: str | Path) -> StatsRegistry:
    """Read a registry written by :func:`save_stats`."""
    return StatsRegistry.from_dict(load_json(path))


def stats_to_csv(registry: StatsRegistry, path: str | Path) -> None:
    """Write a registry as one flat CSV.

    Rows are ``kind,name,index,field,value``: scalars (counters, gauges,
    timers) leave ``index``/``field`` empty; each series row emits one
    line per field with its row index; events use their kind as ``name``
    and their record index.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "name", "index", "field", "value"])
        for kind, mapping in (
            ("counter", registry.counters),
            ("gauge", registry.gauges),
            ("timer", registry.timers),
        ):
            for name in sorted(mapping):
                writer.writerow([kind, name, "", "", mapping[name]])
        for name in sorted(registry.series):
            for index, row in enumerate(registry.series[name]):
                for field, value in row.items():
                    writer.writerow(["series", name, index, field, value])
        for index, event in enumerate(registry.events):
            if event.time is not None:
                writer.writerow(["event", event.kind, index, "time", event.time])
            if event.rank is not None:
                writer.writerow(["event", event.kind, index, "rank", event.rank])
            for field, value in event.fields.items():
                writer.writerow(["event", event.kind, index, field, value])


def save_json(payload: Any, path: str | Path) -> None:
    """Write any JSON-serializable payload, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path) -> Any:
    """Read a JSON payload."""
    return json.loads(Path(path).read_text())
