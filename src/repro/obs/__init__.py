"""Observability for the compiler and the service: spans, metrics,
correlation, logging, and trace export.

The layers, all disabled by default with near-zero overhead:

- :mod:`repro.obs.context` — the request-scoped :class:`QueryContext`:
  a ``contextvars``-based current-query identity (``query_id``) that
  every span, telemetry record, log event, and analyze report for one
  service request shares, across the executor's thread hop;
- :mod:`repro.obs.trace` — hierarchical :class:`Span`/:class:`Tracer`
  (context-manager API, thread-local span stack, a true no-op
  :data:`NULL_TRACER`), plus tail-based trace sampling
  (:class:`SamplingPolicy`, keep decided at completion) and the bounded
  :class:`TraceRing` of kept fragments;
- :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  :class:`MetricsRegistry`, plus the time-bucketed :class:`RateRing`
  behind the obs endpoint's QPS/latency ``/stats``;
- :mod:`repro.obs.log` — the durable structured query log: JSON-lines
  events with size-bounded rotation and a reader API;
- :mod:`repro.obs.export` — Chrome ``trace_event`` JSON, a text
  report, and Prometheus text exposition;
- :mod:`repro.obs.analyze` — EXPLAIN ANALYZE: per-plan-node runtime
  statistics (cardinalities, timings, join-engine outcomes) and the
  cost-model calibration report, as text or JSON.

The one-call entry point is :func:`observe`, which installs a fresh
tracer + registry globally *and* hooks the evaluators and the backend
runtime, then tears everything down on exit::

    from repro.obs import observe
    from repro.obs.export import write_chrome_trace

    with observe() as session:
        result = compile_sql("select a from t")
    write_chrome_trace("out.json", session.tracer, session.metrics)

Used by ``repro compile --trace/--profile``, ``repro explain``, and the
benchmark harness (``REPRO_BENCH_TRACE=1``).
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.analyze import (
    AnalyzeCollector,
    NodeStats,
    analysis_summary,
    analyze_json,
    calibration_data,
    calibration_report,
    render_analyze,
)
from repro.obs.context import (
    QueryContext,
    current_query,
    current_query_id,
    new_query_id,
    query_context,
)
from repro.obs.export import (
    chrome_trace,
    merged_chrome_events,
    prometheus_text,
    render_trace_tree,
    text_report,
    write_chrome_trace,
)
from repro.obs.log import QueryLog, iter_events, read_events
from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    EvalObserver,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    RateRing,
    delta_is_empty,
    get_metrics,
    set_metrics,
    snapshot_delta,
    use_metrics,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    SamplingPolicy,
    Span,
    TraceRing,
    Tracer,
    get_tracer,
    set_tracer,
    span_to_wire,
    spans_to_wire,
    use_tracer,
)

__all__ = [
    "AnalyzeCollector",
    "Counter",
    "EvalObserver",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NULL_TRACER",
    "NodeStats",
    "NullMetrics",
    "NullTracer",
    "ObsSession",
    "QueryContext",
    "QueryLog",
    "RateRing",
    "SamplingPolicy",
    "Span",
    "TraceRing",
    "Tracer",
    "analysis_summary",
    "analyze_json",
    "calibration_data",
    "calibration_report",
    "chrome_trace",
    "current_query",
    "current_query_id",
    "delta_is_empty",
    "get_metrics",
    "get_tracer",
    "iter_events",
    "merged_chrome_events",
    "new_query_id",
    "observe",
    "prometheus_text",
    "query_context",
    "read_events",
    "render_analyze",
    "render_trace_tree",
    "set_metrics",
    "set_tracer",
    "snapshot_delta",
    "span_to_wire",
    "spans_to_wire",
    "text_report",
    "use_metrics",
    "use_tracer",
    "write_chrome_trace",
]


class ObsSession(object):
    """Handle yielded by :func:`observe`: the live tracer and registry."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, tracer: Tracer, metrics: MetricsRegistry):
        self.tracer = tracer
        self.metrics = metrics

    def report(self) -> str:
        return text_report(self.tracer, self.metrics)


@contextmanager
def observe(tracer: Tracer = None, metrics: MetricsRegistry = None):
    """Turn full observability on for the duration of the block.

    Installs the tracer and metrics registry as the process globals
    (compiler pipeline and optimizer pick them up automatically) and
    registers evaluator observers on the NRAe interpreter, the NNRC
    interpreter, and the generated-code runtime library.
    """
    from repro.backend import runtime
    from repro.nnrc import eval as nnrc_eval
    from repro.nraenv import eval as nraenv_eval

    tracer = tracer or Tracer()
    metrics = metrics or MetricsRegistry()
    session = ObsSession(tracer, metrics)
    with use_tracer(tracer), use_metrics(metrics):
        nraenv_eval.set_observer(EvalObserver(metrics, "eval.nraenv"))
        nnrc_eval.set_observer(EvalObserver(metrics, "eval.nnrc"))
        runtime.install_observer(metrics)
        try:
            yield session
        finally:
            nraenv_eval.set_observer(None)
            nnrc_eval.set_observer(None)
            runtime.uninstall_observer()
