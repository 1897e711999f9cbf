"""Per-query telemetry: what every query the service ran actually did.

The :mod:`repro.obs` metrics registry aggregates (how many executions,
latency distribution); this module keeps the *per-query* records a
production debugging session needs — did this query hit the plan cache,
how long did compile vs execute take, how big did its intermediates
get, which operators were hottest — in a bounded ring buffer, plus a
separate ring of queries that crossed a configurable slow-query
threshold.

Both rings are capped (:class:`TelemetryLog` drops the oldest record
on overflow), so a long-lived service's memory stays bounded no matter
how many queries it serves.  Records are plain data
(:meth:`QueryTelemetry.describe` is JSON-safe) so the ``telemetry``
wire op can return them directly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional


class QueryTelemetry:
    """One query's life: cache behaviour, phase timings, data volume.

    ``query_id`` is the correlation id assigned at service ingress (see
    :mod:`repro.obs.context`) — the same id appears in the query-log
    audit event, any kept trace fragment, and the analyze report for
    this execution.  ``started_at`` is the wall-clock ingress time
    (``time.time()``), stamped at construction unless supplied.  When
    tail sampling keeps this query's trace, the chrome-trace fragment
    lands on ``trace``.  ``plan`` names the callable variant that
    answered (``"typed"`` or ``"untyped"``, see
    :meth:`~repro.service.prepared.CompiledPlan.run`) when it is known.
    """

    __slots__ = (
        "handle",
        "language",
        "cache_hit",
        "compile_seconds",
        "execute_seconds",
        "ok",
        "error_kind",
        "rows",
        "peak_rows",
        "hot_operators",
        "join_engine",
        "analyzed",
        "slow",
        "query_id",
        "started_at",
        "worker",
        "trace",
        "plan",
    )

    def __init__(
        self,
        handle: str,
        language: str,
        cache_hit: bool,
        compile_seconds: float,
        execute_seconds: float,
        ok: bool,
        error_kind: Optional[str] = None,
        rows: Optional[int] = None,
        peak_rows: Optional[int] = None,
        hot_operators: Optional[List[Dict[str, Any]]] = None,
        join_engine: Optional[Dict[str, Any]] = None,
        analyzed: bool = False,
        query_id: Optional[str] = None,
        started_at: Optional[float] = None,
        worker: Optional[str] = None,
        plan: Optional[str] = None,
    ):
        self.handle = handle
        self.language = language
        self.cache_hit = cache_hit
        self.compile_seconds = compile_seconds
        self.execute_seconds = execute_seconds
        self.ok = ok
        self.error_kind = error_kind
        self.rows = rows
        self.peak_rows = peak_rows
        self.hot_operators = hot_operators
        self.join_engine = join_engine
        self.analyzed = analyzed
        self.slow = False
        self.query_id = query_id
        self.started_at = time.time() if started_at is None else started_at
        # The worker-process label ("w0", "w1", ...) when the execution
        # ran in a scale-out worker rather than the leader's thread pool.
        self.worker = worker
        self.plan = plan
        self.trace: Optional[Dict[str, Any]] = None

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "handle": self.handle,
            "language": self.language,
            "started_at": self.started_at,
            "cache_hit": self.cache_hit,
            "compile_seconds": self.compile_seconds,
            "execute_seconds": self.execute_seconds,
            "ok": self.ok,
        }
        if self.query_id is not None:
            out["query_id"] = self.query_id
        if self.worker is not None:
            out["worker"] = self.worker
        if self.error_kind is not None:
            out["error_kind"] = self.error_kind
        if self.rows is not None:
            out["rows"] = self.rows
        if self.plan is not None:
            out["plan"] = self.plan
        if self.analyzed:
            out["analyzed"] = True
            out["peak_rows"] = self.peak_rows
            out["hot_operators"] = self.hot_operators
            if self.join_engine is not None:
                out["join_engine"] = self.join_engine
        if self.slow:
            out["slow"] = True
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def __repr__(self) -> str:
        return "QueryTelemetry(%s, %s, %.4fs)" % (
            self.handle,
            "ok" if self.ok else self.error_kind,
            self.execute_seconds,
        )


class TelemetryLog:
    """Bounded rings of recent and slow query records (thread-safe).

    ``slow_query_seconds=None`` disables the slow ring entirely; any
    other value marks and retains queries whose execute phase met or
    exceeded it.  Counters ``service.telemetry.recorded`` and
    ``service.slow_queries`` land in the given metrics registry.
    """

    def __init__(
        self,
        capacity: int = 256,
        slow_query_seconds: Optional[float] = None,
        metrics: Any = None,
    ):
        if capacity < 1:
            raise ValueError("telemetry capacity must be positive, got %d" % capacity)
        self.capacity = capacity
        self.slow_query_seconds = slow_query_seconds
        self._recent: deque = deque(maxlen=capacity)
        self._slow: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0
        self._metrics = metrics

    def record(self, telemetry: QueryTelemetry) -> None:
        threshold = self.slow_query_seconds
        if threshold is not None and telemetry.execute_seconds >= threshold:
            telemetry.slow = True
        with self._lock:
            self._recorded += 1
            self._recent.append(telemetry)
            if telemetry.slow:
                self._slow.append(telemetry)
        if self._metrics is not None:
            self._metrics.counter("service.telemetry.recorded").inc()
            if telemetry.slow:
                self._metrics.counter("service.slow_queries").inc()

    def recent(self, n: Optional[int] = None) -> List[QueryTelemetry]:
        with self._lock:
            records = list(self._recent)
        return records if n is None else records[-n:]

    def slow(self, n: Optional[int] = None) -> List[QueryTelemetry]:
        with self._lock:
            records = list(self._slow)
        return records if n is None else records[-n:]

    def select(
        self,
        n: Optional[int] = None,
        slow: bool = False,
        outcome: Optional[str] = None,
        handle: Optional[str] = None,
        worker: Optional[str] = None,
    ) -> List[QueryTelemetry]:
        """Filtered view of a ring: by outcome (``ok``/``error``),
        handle, or the worker process that executed the query.

        Filters apply before the ``n`` cut, so asking for the last 5
        errors returns 5 errors (if that many are retained), not
        whatever errors happen to sit in the last 5 records.
        """
        if outcome not in (None, "ok", "error"):
            raise ValueError("outcome filter must be 'ok' or 'error', got %r" % (outcome,))
        records = self.slow(None) if slow else self.recent(None)
        if outcome is not None:
            wanted = outcome == "ok"
            records = [record for record in records if record.ok is wanted]
        if handle is not None:
            records = [record for record in records if record.handle == handle]
        if worker is not None:
            records = [record for record in records if record.worker == worker]
        return records if n is None else records[-n:]

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "recorded": self._recorded,
                "capacity": self.capacity,
                "recent": len(self._recent),
                "slow": len(self._slow),
                "slow_query_seconds": self.slow_query_seconds,
            }


__all__ = ["QueryTelemetry", "TelemetryLog"]
