"""Tracing + metrics shared by the live stack and the simulators.

One :class:`Tracer` (nested spans on an injectable clock, Chrome-trace
export) and one :class:`MetricRegistry` (counters, gauges, streaming
histograms) instrument every harness — the networked stack on wall time,
``SimulatedElasticJob`` and the replication/scheduling simulators on
simulated time — with a single span taxonomy (``docs/OBSERVABILITY.md``).

The fleet half (:mod:`.fleet`) aligns per-process clocks from the
``net.clock_sample`` instants each trace recorded, merges N per-process traces into one fleet trace, and
folds live TELEMETRY deltas into per-job and fleet-wide goodput
reports.
"""

from .fleet import (
    FleetCollector,
    GoodputReport,
    SLOViolation,
    TraceMerger,
    clock_sample,
    derive_report,
    merge_metric_snapshots,
    prometheus_text,
)
from .metrics import Counter, Gauge, Histogram, MetricRegistry, P2Quantile
from .tracing import (
    Span,
    Tracer,
    load_trace_events,
    summarize_events,
    summarize_point_events,
    track_names,
    validate_events,
    write_trace_events,
)

__all__ = [
    "Counter",
    "FleetCollector",
    "Gauge",
    "GoodputReport",
    "Histogram",
    "MetricRegistry",
    "P2Quantile",
    "SLOViolation",
    "Span",
    "TraceMerger",
    "Tracer",
    "clock_sample",
    "derive_report",
    "load_trace_events",
    "merge_metric_snapshots",
    "prometheus_text",
    "summarize_events",
    "summarize_point_events",
    "track_names",
    "validate_events",
    "write_trace_events",
]
