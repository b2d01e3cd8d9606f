"""Export experiment results to CSV / JSON for external plotting.

The benchmark harness prints figures as tables; labs that want to plot
the reproduction against the paper's scan need machine-readable series.
These helpers are deliberately dependency-free (no pandas): a figure is
a dict of named y-series over one x-axis, exactly like
:func:`repro.analysis.report.format_series_table`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

from ..errors import ConfigurationError

__all__ = [
    "series_to_csv",
    "series_to_json",
    "write_csv",
    "write_json",
    "write_text",
]


def _validate(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
) -> None:
    if not x_label:
        raise ConfigurationError("x_label must be non-empty")
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ConfigurationError(
                f"series {name!r} has {len(values)} points, x-axis has "
                f"{len(x_values)}"
            )


def series_to_csv(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
) -> str:
    """Render a figure's series as CSV text (header + one row per x)."""
    _validate(x_label, x_values, series)
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([x_label, *series.keys()])
    for i, x in enumerate(x_values):
        writer.writerow([x, *(series[name][i] for name in series)])
    return buffer.getvalue()


def series_to_json(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    metadata: Mapping[str, object] | None = None,
) -> str:
    """Render a figure's series as a JSON document.

    ``metadata`` (seed, trials, parameters...) is embedded verbatim so
    the export is self-describing.
    """
    _validate(x_label, x_values, series)
    document = {
        "x_label": x_label,
        "x": list(x_values),
        "series": {name: list(values) for name, values in series.items()},
        "metadata": dict(metadata or {}),
    }
    return json.dumps(document, indent=2, sort_keys=True)


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path``, creating missing parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


def write_csv(
    path: str | Path,
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
) -> Path:
    """Write CSV to ``path``; returns the resolved path."""
    return write_text(path, series_to_csv(x_label, x_values, series))


def write_json(
    path: str | Path,
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[object]],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write JSON to ``path``; returns the resolved path."""
    return write_text(
        path, series_to_json(x_label, x_values, series, metadata)
    )
