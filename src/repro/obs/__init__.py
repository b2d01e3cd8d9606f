"""Unified telemetry: metrics registry, trace export, probes, profiling.

The one import most callers need is :class:`Telemetry` -- build one,
pass it to :func:`~repro.network.topology.build_star` or an experiment
runner, and call :meth:`~repro.obs.bundle.Telemetry.write` at the end
to emit a bundle directory (metrics snapshot, probe time series, JSONL
trace, Chrome/Perfetto trace). The pieces are importable on their own
for targeted use.
"""

from .bundle import Telemetry, TelemetryConfig, TelemetryShard
from .export import (
    chrome_trace,
    span_chrome_events,
    span_jsonl_lines,
    trace_jsonl_lines,
    write_chrome_trace,
    write_span_jsonl,
    write_trace_jsonl,
)
from .flight import FlightRecorder
from .monitor import InvariantMonitor, star_bound_provider
from .probes import ProbeSet
from .profiling import KernelProfiler
from .registry import DEFAULT_LATENCY_BUCKETS_NS, MetricsRegistry
from .schema import (
    ANOMALY_SCHEMA,
    CHROME_TRACE_SCHEMA,
    FLIGHT_SCHEMA,
    METRICS_SCHEMA,
    SPAN_SCHEMA,
    TIMESERIES_SCHEMA,
    TRACE_RECORD_SCHEMA,
    validate,
    validate_bundle,
)
from .spans import (
    ATTRIBUTED_PHASES,
    RequestAttribution,
    Span,
    SpanTracker,
    span_from_dict,
    summarize_requests,
)

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "TelemetryShard",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_NS",
    "ProbeSet",
    "KernelProfiler",
    "Span",
    "SpanTracker",
    "RequestAttribution",
    "summarize_requests",
    "span_from_dict",
    "ATTRIBUTED_PHASES",
    "InvariantMonitor",
    "star_bound_provider",
    "FlightRecorder",
    "chrome_trace",
    "trace_jsonl_lines",
    "span_jsonl_lines",
    "span_chrome_events",
    "write_chrome_trace",
    "write_trace_jsonl",
    "write_span_jsonl",
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
