"""``QueryService``: the long-lived serving layer over the compiler.

Owns the three persistent pieces a one-shot ``compile_sql`` call cannot
amortize — a :class:`~repro.service.catalog.Catalog` of registered
datasets, a :class:`~repro.service.cache.PlanCache` of compiled plans
keyed on structural AST hashes, and a
:class:`~repro.service.executor.SessionExecutor` that runs prepared
queries with deadlines and admission control.

Programmatic use::

    from repro.service import QueryService

    svc = QueryService()
    svc.register_table("people", [{"name": "ann", "age": 40}])
    q = svc.prepare("sql", "select name from people where age > $min")
    outcome = svc.execute(q.handle, params={"min": 30})
    assert outcome.ok

Wire use: :meth:`handle_request` maps one JSON-decodable request dict to
one response dict, and :meth:`serve` runs the stdin/stdout JSON-lines
loop behind ``repro serve`` (see DESIGN.md for the protocol).  Neither
ever raises on bad input — every failure becomes a structured error
response so one poisoned request cannot kill the loop.
"""

from __future__ import annotations

import itertools
import json
import threading
import time as _time
from typing import Any, Dict, IO, Iterable, List, Optional

from contextlib import contextmanager

from repro.data import json_io
from repro.data.model import DataError
from repro.obs.context import QueryContext, current_query, query_context
from repro.obs.export import merged_chrome_events
from repro.obs.log import QueryLog
from repro.obs.metrics import MetricsRegistry, RateRing
from repro.obs.trace import SamplingPolicy, TraceRing, Tracer, get_tracer, spans_to_wire
from repro.service.cache import PlanCache
from repro.service.catalog import Catalog
from repro.service.errors import BadRequest, CompileError, ServiceError
from repro.service.executor import Outcome, SessionExecutor
from repro.service.fleet import Fleet
from repro.service.plan_key import plan_key
from repro.service.prepared import CompiledPlan, PreparedQuery, compile_plan, parse_query
from repro.service.telemetry import QueryTelemetry, TelemetryLog


class QueryService:
    """The serving facade: catalog + plan cache + session executor."""

    def __init__(
        self,
        cache_capacity: int = 128,
        workers: int = 4,
        queue_depth: int = 16,
        default_timeout: Optional[float] = 30.0,
        metrics: Optional[MetricsRegistry] = None,
        telemetry_capacity: int = 256,
        slow_query_seconds: Optional[float] = None,
        trace_sample_rate: Optional[float] = 0.05,
        trace_capacity: int = 64,
        query_log: Optional[Any] = None,
        handle_prefix: str = "q",
    ) -> None:
        """``trace_sample_rate`` is the tail-sampling head rate (``None``
        disables per-query tracing entirely; ``0.0`` still keeps slow and
        errored queries).  ``query_log`` is a
        :class:`~repro.obs.log.QueryLog` or a path for one (``None``
        disables the durable log)."""
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.catalog = Catalog()
        self.cache = PlanCache(cache_capacity, metrics=self.metrics)
        self.executor = SessionExecutor(
            workers=workers,
            queue_depth=queue_depth,
            default_timeout=default_timeout,
            metrics=self.metrics,
        )
        self.telemetry = TelemetryLog(
            capacity=telemetry_capacity,
            slow_query_seconds=slow_query_seconds,
            metrics=self.metrics,
        )
        self.sampling = (
            None if trace_sample_rate is None else SamplingPolicy(rate=trace_sample_rate)
        )
        self.traces = TraceRing(trace_capacity)
        # Per-worker registries/resources when this service fronts a
        # worker pool; empty (but present, so /metrics and /workers can
        # always consult it) when serving single-process.
        self.fleet = Fleet(metrics=self.metrics)
        self.query_log = QueryLog(query_log) if isinstance(query_log, str) else query_log
        self.rates = RateRing(window=60)
        self._started_at = _time.time()
        self._prepared: Dict[str, PreparedQuery] = {}
        self._handles = itertools.count(1)
        # Worker processes use a distinct prefix ("w3t") so their
        # transient one-shot handles can never collide with the handles
        # the leader broadcasts (see repro.service.worker).
        self._handle_prefix = handle_prefix
        self._lock = threading.Lock()
        self._drain_guard = threading.Lock()
        self._drained = False
        self._compile_seconds = self.metrics.histogram("service.compile_ms")
        self._installed = self.metrics.counter("service.plan.installed")
        self._artifact_mismatch = self.metrics.counter("service.plan.artifact_mismatch")

    # -- catalog ----------------------------------------------------------

    def register_table(self, name: str, rows: Any, schema: Optional[Iterable[str]] = None):
        return self.catalog.register_table(name, rows, schema)

    def load_json(self, path: str):
        return self.catalog.load_json(path)

    # -- prepare / execute ------------------------------------------------

    def prepare(
        self,
        language: str,
        text: str,
        handle: Optional[str] = None,
        plan: Optional[Dict[str, Any]] = None,
    ) -> PreparedQuery:
        """Compile ``text`` once (or reuse a cached plan) and hand out a handle.

        Raises :class:`~repro.service.errors.CompileError` on bad queries;
        the wire layer turns that into a structured response.  ``handle``
        forces a specific handle name instead of drawing from the
        counter, and ``plan`` is the leader's
        :meth:`~repro.service.prepared.CompiledPlan.artifact` for
        ``text`` — the pair worker processes use to mirror the leader's
        handles without re-optimizing (a forced handle replaces any
        existing entry under that name).  ``text`` is still parsed: on a
        plan-cache miss the artifact is installed only when its key is
        the key of ``text``; otherwise ``text`` compiles as usual and
        ``service.plan.artifact_mismatch`` counts it.
        """
        tracer = get_tracer()
        with tracer.span("service.prepare", category="service", language=language):
            ast = parse_query(language, text)
            key = plan_key(language, ast)
            compiled = self.cache.get(key)
            cached = compiled is not None
            if not cached:
                compiled = self._install(plan, key) if plan is not None else None
                if compiled is None:
                    compiled = compile_plan(language, ast, key=key)
                    self._compile_seconds.record(compiled.compile_seconds * 1e3)
                self.cache.put(key, compiled)
            if handle is None:
                handle = "%s%d" % (self._handle_prefix, next(self._handles))
            prepared = PreparedQuery(handle, language, text, compiled, cached)
            with self._lock:
                self._prepared[handle] = prepared
            return prepared

    def _install(self, artifact: Dict[str, Any], key: str) -> Optional[CompiledPlan]:
        """The plan ``artifact`` carries, when it is the plan for ``key``."""
        if artifact.get("key") == key:
            try:
                compiled = CompiledPlan.from_artifact(artifact)
            except CompileError:
                pass
            else:
                self._installed.inc()
                return compiled
        self._artifact_mismatch.inc()
        return None

    def prepared(self, handle: str) -> PreparedQuery:
        try:
            return self._prepared[handle]
        except KeyError:
            raise BadRequest("unknown prepared-query handle %r" % (handle,))

    def prepared_queries(self) -> List[PreparedQuery]:
        """All live prepared queries, in creation order (dict order)."""
        with self._lock:
            return list(self._prepared.values())

    def close_prepared(self, handle: str) -> None:
        with self._lock:
            if self._prepared.pop(handle, None) is None:
                raise BadRequest("unknown prepared-query handle %r" % (handle,))

    @contextmanager
    def _query_scope(self):
        """Ensure a :class:`~repro.obs.context.QueryContext` is active.

        This is the ingress point of the correlation layer: a request
        arriving without a context (the wire loop, or a direct API call)
        gets a fresh ``query_id``, its wall-clock start time, the head
        sampling coin, and — when tail sampling is enabled — a private
        tracer that every span downstream (service, pipeline, executor,
        join engine) lands in via the context-aware ``get_tracer``.
        Nested scopes reuse the enclosing request's context, so one wire
        request is one ``query_id`` end to end.
        """
        existing = current_query()
        if existing is not None:
            yield existing
            return
        with query_context(self.ingress_context()) as context:
            yield context

    def ingress_context(self) -> QueryContext:
        """A fresh request context configured like :meth:`_query_scope`.

        The network front end calls this at its own ingress point so the
        ``query_id`` (and the tail-sampling coin) exists *before*
        admission control — a shed response carries a real id even
        though it never reaches the executor.
        """
        tracer = Tracer() if self.sampling is not None else None
        return QueryContext(
            tracer=tracer,
            head_sampled=self.sampling.head() if self.sampling is not None else False,
        )

    def execute(
        self,
        handle: str,
        params: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        analyze: bool = False,
    ) -> Outcome:
        """Run a prepared query on the executor; never raises.

        The plain path runs the plan's generated callable through
        :meth:`~repro.service.prepared.CompiledPlan.run`, which
        specialises a reused plan to the catalog's and the parameters'
        types.  ``analyze=True`` runs the slower EXPLAIN ANALYZE path (the
        optimized NRAe plan through the join engine with per-node
        statistics) and attaches the summary to ``outcome.analysis``.
        Every execution — either path — lands one
        :class:`~repro.service.telemetry.QueryTelemetry` record in
        :attr:`telemetry`, one audit event in the query log (when
        configured), and its trace in :attr:`traces` when sampling
        keeps it — all under the request's ``query_id``.
        """
        with self._query_scope() as context:
            return self._execute(context, handle, params, timeout, analyze)

    def _execute(
        self,
        context: QueryContext,
        handle: str,
        params: Optional[Dict[str, Any]],
        timeout: Optional[float],
        analyze: bool,
    ) -> Outcome:
        try:
            prepared = self.prepared(handle)
        except ServiceError as exc:
            if self.query_log is not None:
                self.query_log.emit(
                    {
                        "event": "error",
                        "query_id": context.query_id,
                        "handle": handle,
                        "error_kind": exc.kind,
                        "message": str(exc),
                    }
                )
            return Outcome(error=exc)
        constants = self.catalog.constants()
        plan = prepared.plan
        tracer = get_tracer()
        with tracer.span(
            "service.execute",
            category="service",
            handle=handle,
            query_id=context.query_id,
            analyze=analyze,
        ):
            variant = None
            if analyze:
                outcome = self.executor.submit(
                    lambda: plan.execute_analyzed(constants, params, self.catalog),
                    timeout=timeout,
                )
                if outcome.ok:
                    outcome.value, outcome.analysis = outcome.value
                    variant = outcome.analysis.get("plan")
            else:
                outcome = self.executor.submit(
                    lambda: plan.run(constants, params, self.catalog, self.metrics),
                    timeout=timeout,
                )
                if outcome.ok:
                    outcome.value, variant = outcome.value
        if outcome.ok:
            prepared.executions += 1
        telemetry = self._record_telemetry(
            context, prepared, outcome, analyzed=analyze, variant=variant
        )
        self._finish_query(context, telemetry, outcome)
        return outcome

    def query(
        self,
        language: str,
        text: str,
        params: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        analyze: bool = False,
    ) -> Outcome:
        """One-shot prepare + execute (still plan-cached); never raises."""
        with self._query_scope():
            try:
                prepared = self.prepare(language, text)
            except ServiceError as exc:
                return Outcome(error=exc)
            try:
                return self.execute(
                    prepared.handle, params=params, timeout=timeout, analyze=analyze
                )
            finally:
                # One-shot handles must not accumulate for the service's lifetime.
                self._prepared.pop(prepared.handle, None)

    def _record_telemetry(
        self,
        context: QueryContext,
        prepared: PreparedQuery,
        outcome: Outcome,
        analyzed: bool,
        variant: Optional[str],
    ) -> QueryTelemetry:
        rows = None
        if outcome.ok:
            try:
                rows = len(outcome.value)
            except TypeError:
                rows = None
        analysis = outcome.analysis if isinstance(outcome.analysis, dict) else {}
        telemetry = QueryTelemetry(
            handle=prepared.handle,
            language=prepared.language,
            cache_hit=prepared.cached,
            compile_seconds=0.0 if prepared.cached else prepared.plan.compile_seconds,
            execute_seconds=outcome.seconds,
            ok=outcome.ok,
            error_kind=None if outcome.ok else outcome.error.kind,
            rows=rows,
            peak_rows=analysis.get("peak_rows"),
            hot_operators=analysis.get("hot"),
            join_engine=analysis.get("join_engine"),
            analyzed=analyzed,
            query_id=context.query_id,
            started_at=context.started_at,
            plan=variant,
        )
        self.telemetry.record(telemetry)
        return telemetry

    def record_remote(
        self,
        context: QueryContext,
        response: Dict[str, Any],
        handle: Optional[str] = None,
        language: Optional[str] = None,
        cache_hit: bool = False,
        worker: Optional[str] = None,
        obs: Optional[Dict[str, Any]] = None,
        rows: Optional[int] = None,
    ) -> QueryTelemetry:
        """Record an execution that ran in a *worker process*.

        The leader never sees the worker's ``Outcome`` object — only the
        wire response — so this rebuilds the telemetry record (and the
        rates/query-log/trace bookkeeping of :meth:`_finish_query`) from
        the response dict, labelled with the worker id.  Per-worker
        counters (``service.worker.<id>.ok`` / ``.error``) and a
        latency histogram land in the metrics registry so ``/metrics``
        exposes each worker's share of the load.

        ``obs`` is the worker's piggybacked observability payload (the
        ``_obs`` reply field): its ``spans`` join the leader's own spans
        in the merged trace :meth:`_finish_query` builds, its
        ``metrics`` delta folds into the :attr:`fleet` under the
        worker's label, and its ``resources`` snapshot (when present)
        refreshes the worker's gauges.

        ``rows`` is the result's row count as the worker reported it
        (``None`` for a non-list result or an error): the leader does
        not read the rows, which stay the worker's encoded text.
        """
        from repro.service.errors import error_from_payload

        obs = obs if isinstance(obs, dict) else {}
        ok = bool(response.get("ok"))
        seconds = float(response.get("seconds") or 0.0)
        error_payload = response.get("error") or {}
        analysis = response.get("analysis")
        analysis = analysis if isinstance(analysis, dict) else {}
        telemetry = QueryTelemetry(
            handle=handle,
            language=language,
            cache_hit=cache_hit,
            compile_seconds=0.0,
            execute_seconds=seconds,
            ok=ok,
            error_kind=None if ok else error_payload.get("kind", "internal_error"),
            rows=rows,
            peak_rows=analysis.get("peak_rows"),
            hot_operators=analysis.get("hot"),
            join_engine=analysis.get("join_engine"),
            analyzed=response.get("analysis") is not None,
            query_id=context.query_id,
            started_at=context.started_at,
            worker=worker,
            plan=analysis.get("plan"),
        )
        self.telemetry.record(telemetry)
        outcome = Outcome(seconds=seconds)
        if not ok:
            outcome.error = error_from_payload(error_payload)
        remote = None
        if worker is not None and obs.get("spans"):
            remote = [{"process": worker, "spans": obs["spans"]}]
        self._finish_query(context, telemetry, outcome, remote=remote)
        if worker is not None:
            self.fleet.apply_delta(worker, obs.get("metrics"))
            if obs.get("resources") is not None:
                self.fleet.set_resources(worker, obs.get("resources"))
        if worker is not None:
            self.metrics.counter(
                "service.worker.%s.%s" % (worker, "ok" if ok else "error")
            ).inc()
            self.metrics.histogram("service.worker.%s.latency_ms" % worker).record(
                seconds * 1e3
            )
        return telemetry

    def _finish_query(
        self,
        context: QueryContext,
        telemetry: QueryTelemetry,
        outcome: Outcome,
        remote: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        """Completion-time observability: rates, tail sampling, query log.

        Runs once per execute, after the telemetry record exists (so the
        slow-query mark is already decided).  The trace keep/drop
        decision happens here — this is the "tail" of tail-based
        sampling — over the *merged* trace: the leader's own spans plus
        any ``remote`` process fragments (``[{"process": "w0", "spans":
        [...]}, ...]``) a worker shipped back.  A kept fragment carries
        per-process span trees *and* ready-to-load chrome events with
        one ``pid`` lane per process; it is attached to the telemetry
        record and retained in the bounded :attr:`traces` ring, keyed by
        ``query_id`` (what ``GET /trace/<query_id>`` serves).
        """
        self.rates.observe(telemetry.execute_seconds)
        if self.sampling is not None and context.tracer is not None:
            if self.sampling.keep(context.head_sampled, telemetry.slow, telemetry.ok):
                processes = [
                    {"process": "leader", "spans": spans_to_wire(context.tracer)}
                ]
                if remote:
                    processes.extend(remote)
                fragment = {
                    "query_id": context.query_id,
                    "processes": processes,
                    "events": merged_chrome_events(processes),
                }
                self.traces.add(context.query_id, fragment)
                telemetry.trace = fragment
                self.metrics.counter("obs.trace.kept").inc()
            else:
                self.traces.drop()
                self.metrics.counter("obs.trace.dropped").inc()
        if self.query_log is not None:
            audit: Dict[str, Any] = {
                "event": "query",
                "query_id": context.query_id,
                "handle": telemetry.handle,
                "language": telemetry.language,
                "cache_hit": telemetry.cache_hit,
                "compile_seconds": telemetry.compile_seconds,
                "execute_seconds": telemetry.execute_seconds,
                "rows": telemetry.rows,
                "outcome": "ok" if telemetry.ok else "error",
            }
            if telemetry.worker is not None:
                audit["worker"] = telemetry.worker
            if telemetry.error_kind is not None:
                audit["error_kind"] = telemetry.error_kind
            if telemetry.slow:
                audit["slow"] = True
            if telemetry.join_engine is not None:
                audit["join_engine"] = telemetry.join_engine
            if telemetry.trace is not None:
                audit["trace_kept"] = True
            self.query_log.emit(audit)
            self.metrics.counter("obs.log.events").inc()
            if not telemetry.ok:
                self.query_log.emit(
                    {
                        "event": "error",
                        "query_id": context.query_id,
                        "handle": telemetry.handle,
                        "error_kind": telemetry.error_kind,
                        "message": str(outcome.error),
                    }
                )
                self.metrics.counter("obs.log.events").inc()
            elif telemetry.slow:
                self.query_log.emit(
                    {
                        "event": "slow_query",
                        "query_id": context.query_id,
                        "handle": telemetry.handle,
                        "execute_seconds": telemetry.execute_seconds,
                        "threshold_seconds": self.telemetry.slow_query_seconds,
                    }
                )
                self.metrics.counter("obs.log.events").inc()

    # -- introspection ----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "tables": self.catalog.describe(),
            "prepared": len(self._prepared),
            "plan_cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
            "telemetry": self.telemetry.describe(),
            "uptime_seconds": _time.time() - self._started_at,
            "traces": self.traces.describe(),
            "rates": {
                "last_10s": self.rates.snapshot(window=10),
                "last_60s": self.rates.snapshot(window=60),
            },
        }
        if self.sampling is not None:
            stats["sampling"] = self.sampling.describe()
        if self.query_log is not None:
            stats["query_log"] = self.query_log.describe()
        return stats

    def drain(
        self, reason: str = "shutdown", wait: bool = True, obs_server: Any = None
    ) -> None:
        """The one graceful-shutdown path every serve mode goes through.

        Sequence: stop the executor (``wait=True`` lets in-flight queries
        finish; abandoned/timed-out workers are waited out too), emit a
        final ``shutdown`` audit event, close the query log, and stop the
        obs sidecar when one is passed.  Idempotent — the stdin loop, the
        network front end, and the CLI's signal handlers can all call it;
        only the first call drains (later calls still close ``obs_server``
        so no caller leaks the sidecar thread).
        """
        with self._drain_guard:
            already = self._drained
            self._drained = True
        if not already:
            self.executor.shutdown(wait=wait)
            if self.query_log is not None:
                try:
                    self.query_log.emit(
                        {
                            "event": "shutdown",
                            "reason": reason,
                            "served": self.telemetry.describe()["recorded"],
                            "shed": self.metrics.counter("service.shed").value,
                            "uptime_seconds": _time.time() - self._started_at,
                        }
                    )
                except ValueError:
                    pass  # the log was closed by an earlier caller
                self.query_log.close()
        if obs_server is not None:
            obs_server.close()

    def close(self, wait: bool = True) -> None:
        self.drain(reason="close", wait=wait)

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the JSON-lines wire protocol ------------------------------------

    def handle_request(self, request: Any) -> Dict[str, Any]:
        """Map one decoded request to one response dict (never raises).

        Every response carries the request's ``query_id`` — the same id
        the telemetry record, the query-log audit event, and any kept
        trace fragment use — so a wire client can correlate its call
        with everything the service recorded about it.
        """
        with self._query_scope() as context:
            try:
                response = self._dispatch(request)
            except ServiceError as exc:
                response = {"ok": False, "error": exc.to_payload()}
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                response = {
                    "ok": False,
                    "error": {
                        "kind": "internal_error",
                        "message": "%s: %s" % (type(exc).__name__, exc),
                    },
                }
            response["query_id"] = context.query_id
            return response

    def _dispatch(self, request: Any) -> Dict[str, Any]:
        if not isinstance(request, dict):
            raise BadRequest("request must be a JSON object")
        op = request.get("op")
        if op == "register":
            info = self.register_table(
                self._field(request, "table"),
                request.get("rows", []),
                request.get("schema"),
            )
            return {"ok": True, "table": info.describe()}
        if op == "load":
            tables = self.load_json(self._field(request, "path"))
            return {"ok": True, "tables": [t.describe() for t in tables]}
        if op == "prepare":
            prepared = self.prepare(
                request.get("language", "sql"), self._field(request, "query")
            )
            return {"ok": True, **prepared.describe()}
        if op == "execute":
            outcome = self.execute(
                self._field(request, "handle"),
                params=request.get("params"),
                timeout=request.get("timeout"),
                analyze=bool(request.get("analyze", False)),
            )
            return self._outcome_response(outcome)
        if op == "query":
            outcome = self.query(
                request.get("language", "sql"),
                self._field(request, "query"),
                params=request.get("params"),
                timeout=request.get("timeout"),
                analyze=bool(request.get("analyze", False)),
            )
            return self._outcome_response(outcome)
        if op == "close":
            self.close_prepared(self._field(request, "handle"))
            return {"ok": True}
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            from repro.obs.export import prometheus_text

            return {
                "ok": True,
                "prometheus": prometheus_text(self.metrics, fleet=self.fleet),
                "metrics": self.metrics.snapshot(),
            }
        if op == "telemetry":
            try:
                records = self.telemetry.select(
                    n=request.get("n"),
                    slow=bool(request.get("slow")),
                    outcome=request.get("outcome"),
                    handle=request.get("filter_handle"),
                    worker=request.get("filter_worker"),
                )
            except ValueError as exc:
                raise BadRequest(str(exc))
            return {
                "ok": True,
                "telemetry": self.telemetry.describe(),
                "queries": [t.describe() for t in records],
            }
        if op == "traces":
            return {"ok": True, **self.traces.describe(), "traces": self.traces.recent(request.get("n"))}
        if op == "trace":
            wanted = self._field(request, "query_id")
            fragment = self.traces.get(wanted)
            if fragment is None:
                raise BadRequest(
                    "no kept trace for query id %r (sampled out, evicted, or never seen)"
                    % (wanted,)
                )
            return {"ok": True, "trace": fragment}
        if op == "workers":
            return {"ok": True, **self.fleet.describe()}
        raise BadRequest("unknown op %r" % (op,))

    @staticmethod
    def _field(request: Dict[str, Any], name: str) -> Any:
        try:
            return request[name]
        except KeyError:
            raise BadRequest("request is missing field %r" % (name,))

    @staticmethod
    def _outcome_response(outcome: Outcome) -> Dict[str, Any]:
        if not outcome.ok:
            return {
                "ok": False,
                "error": outcome.error.to_payload(),
                "seconds": outcome.seconds,
            }
        try:
            result = json_io.to_jsonable(outcome.value)
        except DataError as exc:
            return {
                "ok": False,
                "error": {"kind": "internal_error", "message": str(exc)},
                "seconds": outcome.seconds,
            }
        response = {"ok": True, "result": result, "seconds": outcome.seconds}
        if outcome.analysis is not None:
            response["analysis"] = outcome.analysis
        return response

    def serve(self, input_stream: IO[str], output_stream: IO[str]) -> int:
        """The ``repro serve`` loop: one JSON request per line, one JSON
        response per line.  EOF or ``{"op": "shutdown"}`` ends the loop;
        malformed lines produce structured errors and the loop continues.

        Ends through :meth:`drain` — the same graceful-shutdown path the
        network front end uses — so the executor is drained and the query
        log gets its final ``shutdown`` audit event no matter how the
        loop terminated (EOF, wire shutdown op, or a signal the CLI
        translated; see ``repro serve``'s SIGTERM handling).
        """
        served = 0
        reason = "eof"
        for line in input_stream:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as exc:
                response: Dict[str, Any] = {
                    "ok": False,
                    "error": {"kind": "bad_request", "message": "malformed JSON: %s" % exc},
                }
            else:
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    print(json.dumps({"ok": True, "served": served}), file=output_stream)
                    output_stream.flush()
                    reason = "shutdown_op"
                    break
                response = self.handle_request(request)
                served += 1
            print(json.dumps(response), file=output_stream)
            output_stream.flush()
        self.drain(reason=reason, wait=False)
        return 0


__all__ = ["QueryService"]
