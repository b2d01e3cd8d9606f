"""Minimal JSON-schema validation for emitted telemetry bundles.

The repo is zero-dependency, so this implements the small JSON-Schema
subset the telemetry formats actually need -- ``type``, ``properties``,
``required``, ``items``, ``enum``, ``additionalProperties`` (boolean
form) and ``minimum`` -- rather than pulling in ``jsonschema``.
:func:`validate` returns a list of human-readable error strings (empty
means valid), which both the tests and the ``repro obs check`` CI gate
consume.

The schemas here are the written contract for the bundle files:

* :data:`METRICS_SCHEMA` -- ``metrics.json`` (a
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot`),
* :data:`CHROME_TRACE_SCHEMA` -- ``trace.chrome.json`` (the Chrome
  ``trace_event`` document Perfetto loads),
* :data:`TRACE_RECORD_SCHEMA` -- one line of ``trace.jsonl``,
* :data:`TIMESERIES_SCHEMA` -- ``timeseries.json`` (probe samples),
* :data:`SPAN_SCHEMA` -- one line of ``spans.jsonl`` (causal spans),
* :data:`ANOMALY_SCHEMA` -- one line of ``anomalies.jsonl`` (invariant
  monitor output),
* :data:`FLIGHT_SCHEMA` -- a flight-recorder ``flight.json`` dump.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = [
    "validate",
    "validate_bundle",
    "METRICS_SCHEMA",
    "CHROME_TRACE_SCHEMA",
    "TRACE_RECORD_SCHEMA",
    "TIMESERIES_SCHEMA",
    "SPAN_SCHEMA",
    "ANOMALY_SCHEMA",
    "FLIGHT_SCHEMA",
]

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
    "null": type(None),
}


def validate(instance, schema: dict, path: str = "$") -> list[str]:
    """Check ``instance`` against the supported JSON-Schema subset.

    Returns error strings; an empty list means the instance conforms.
    """
    errors: list[str] = []
    expected = schema.get("type")
    if expected is not None:
        py_type = _TYPES[expected]
        ok = isinstance(instance, py_type)
        # bool is an int subclass in Python; keep the JSON types distinct
        if ok and expected in ("integer", "number") and isinstance(
            instance, bool
        ):
            ok = False
        if not ok:
            errors.append(
                f"{path}: expected {expected}, got "
                f"{type(instance).__name__}"
            )
            return errors  # deeper checks would be nonsense
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']!r}")
    if "minimum" in schema and isinstance(instance, (int, float)):
        if instance < schema["minimum"]:
            errors.append(
                f"{path}: {instance} below minimum {schema['minimum']}"
            )
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            subschema = properties.get(key)
            if subschema is not None:
                errors.extend(validate(value, subschema, f"{path}.{key}"))
            elif schema.get("additionalProperties") is False:
                errors.append(f"{path}: unexpected key {key!r}")
        extra = schema.get("patternValues")
        if extra is not None:  # schema applied to every value (our ext.)
            for key, value in instance.items():
                if key not in properties:
                    errors.extend(validate(value, extra, f"{path}.{key}"))
    if isinstance(instance, list):
        item_schema = schema.get("items")
        if item_schema is not None:
            for index, item in enumerate(instance):
                errors.extend(
                    validate(item, item_schema, f"{path}[{index}]")
                )
    return errors


#: One series entry inside a metric family.
_SERIES_SCHEMA = {
    "type": "object",
    "required": ["labels"],
    "properties": {
        "labels": {"type": "object"},
        "value": {"type": "number"},
        "count": {"type": "integer", "minimum": 0},
        "sum": {"type": "number"},
        "buckets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["le", "count"],
                "properties": {"count": {"type": "integer", "minimum": 0}},
            },
        },
    },
}

METRICS_SCHEMA = {
    "type": "object",
    "patternValues": {
        "type": "object",
        "required": ["type", "label_names", "series"],
        "properties": {
            "type": {"enum": ["counter", "gauge", "histogram"]},
            "help": {"type": "string"},
            "label_names": {"type": "array", "items": {"type": "string"}},
            "series": {"type": "array", "items": _SERIES_SCHEMA},
        },
    },
}

CHROME_TRACE_SCHEMA = {
    "type": "object",
    "required": ["traceEvents"],
    "properties": {
        "traceEvents": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ph", "pid", "tid"],
                "properties": {
                    "name": {"type": "string"},
                    # b/n/e are the async-span phases the Perfetto
                    # span export emits (one async track per trace).
                    "ph": {
                        "enum": ["X", "i", "M", "B", "E", "C", "b", "n", "e"]
                    },
                    "pid": {"type": "integer", "minimum": 0},
                    "tid": {"type": "integer", "minimum": 0},
                    "ts": {"type": "number", "minimum": 0},
                    "dur": {"type": "number", "minimum": 0},
                    "id": {"type": "integer", "minimum": 0},
                    "cat": {"type": "string"},
                    "args": {"type": "object"},
                },
            },
        },
        "displayTimeUnit": {"type": "string"},
    },
}

TRACE_RECORD_SCHEMA = {
    "type": "object",
    "required": ["time", "category", "subject"],
    "additionalProperties": False,
    "properties": {
        "time": {"type": "integer", "minimum": 0},
        "category": {"type": "string"},
        "subject": {"type": "string"},
        "detail": {"type": "string"},
        "fields": {"type": "object"},
    },
}

TIMESERIES_SCHEMA = {
    "type": "object",
    "patternValues": {
        "type": "array",
        "items": {
            "type": "array",
            "items": {"type": "number"},
        },
    },
}

#: One line of ``spans.jsonl`` (a :class:`~repro.obs.spans.Span`).
#: ``end_ns == -1`` marks a span still open at export; ``parent == -1``
#: marks a trace root (where ``span == trace``).
SPAN_SCHEMA = {
    "type": "object",
    "required": [
        "span", "trace", "parent", "name", "subject", "start_ns", "end_ns",
    ],
    "additionalProperties": False,
    "properties": {
        "span": {"type": "integer", "minimum": 0},
        "trace": {"type": "integer", "minimum": 0},
        "parent": {"type": "integer", "minimum": -1},
        "name": {"type": "string"},
        "subject": {"type": "string"},
        "start_ns": {"type": "integer", "minimum": 0},
        "end_ns": {"type": "integer", "minimum": -1},
        "fields": {"type": "object"},
    },
}

#: One line of ``anomalies.jsonl`` (an invariant-monitor record).
ANOMALY_SCHEMA = {
    "type": "object",
    "required": ["time", "invariant", "subject", "severity", "detail"],
    "additionalProperties": False,
    "properties": {
        "time": {"type": "integer", "minimum": 0},
        "invariant": {
            "enum": [
                "paper-bound",
                "netcalc-bound",
                "link-overbooking",
                "lease-leak",
                "shared-link-double-book",
                "shared-link-divergence",
            ]
        },
        "subject": {"type": "string"},
        "severity": {"enum": ["warning", "critical"]},
        "detail": {"type": "string"},
        "fields": {"type": "object"},
    },
}

#: A flight-recorder dump (``flight.json``).
FLIGHT_SCHEMA = {
    "type": "object",
    "required": ["reason", "time_ns", "events", "anomalies", "metrics"],
    "additionalProperties": False,
    "properties": {
        "reason": {"type": "string"},
        "time_ns": {"type": "integer", "minimum": -1},
        "events": {"type": "array", "items": SPAN_SCHEMA},
        "anomalies": {"type": "array", "items": ANOMALY_SCHEMA},
        "metrics": {"type": "object"},
    },
}


def validate_bundle(directory: str | Path) -> list[str]:
    """Validate every telemetry file present in ``directory``.

    Missing optional files are fine; a bundle without even
    ``metrics.json`` is reported. Returns error strings (empty = valid).
    """
    directory = Path(directory)
    errors: list[str] = []

    metrics_path = directory / "metrics.json"
    if metrics_path.exists():
        errors.extend(
            validate(
                json.loads(metrics_path.read_text()),
                METRICS_SCHEMA,
                "metrics.json",
            )
        )
    else:
        errors.append(f"{metrics_path}: missing")

    chrome_path = directory / "trace.chrome.json"
    if chrome_path.exists():
        errors.extend(
            validate(
                json.loads(chrome_path.read_text()),
                CHROME_TRACE_SCHEMA,
                "trace.chrome.json",
            )
        )

    jsonl_path = directory / "trace.jsonl"
    if jsonl_path.exists():
        with jsonl_path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"trace.jsonl:{lineno}: not JSON ({exc})")
                    continue
                errors.extend(
                    validate(
                        record,
                        TRACE_RECORD_SCHEMA,
                        f"trace.jsonl:{lineno}",
                    )
                )

    series_path = directory / "timeseries.json"
    if series_path.exists():
        errors.extend(
            validate(
                json.loads(series_path.read_text()),
                TIMESERIES_SCHEMA,
                "timeseries.json",
            )
        )

    for name, line_schema in (
        ("spans.jsonl", SPAN_SCHEMA),
        ("anomalies.jsonl", ANOMALY_SCHEMA),
    ):
        jsonl = directory / name
        if not jsonl.exists():
            continue
        with jsonl.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"{name}:{lineno}: not JSON ({exc})")
                    continue
                errors.extend(
                    validate(record, line_schema, f"{name}:{lineno}")
                )

    for flight_path in sorted(directory.glob("flight*.json")):
        errors.extend(
            validate(
                json.loads(flight_path.read_text()),
                FLIGHT_SCHEMA,
                flight_path.name,
            )
        )

    return errors
