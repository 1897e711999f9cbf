"""The traced pass: per-layer numbers for one workload.

Three measurements, none of which feeds an end-to-end metric:

1. against a live server: worker warm-up, up to 100 sequential requests
   on one connection (``service.net.http_1c_p50_ms``: the request with
   nothing else competing), shed count, and the plan-cache hit share;
2. in process, untraced: the head of the same seeded request stream
   through ``QueryService.handle_request`` (the baseline tracing
   overhead is measured against), and the same bound plans through the
   engine ``eval_fast`` — the executor that serves no traffic today —
   checked multiset-equal to what the callable answered;
3. in process, traced: each of those requests again, turn by turn, with
   every call into a layer's public function wrapped in a span
   (:mod:`spans`).

The in-process service is configured as ``repro.service.worker`` builds
a worker's, so what is timed is what a worker runs.
"""

from __future__ import annotations

import itertools
import json
import pickle
import re
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import oracle
import served
import workloads
from spans import Recorder, Span, patched

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sql.parse_ms", "ms", "lower"),
    ("sql.to_nraenv_ms", "ms", "lower"),
    ("sql.to_nraenv_size", "count", "lower"),
    ("optim.nraenv_opt_ms", "ms", "lower"),
    ("optim.nraenv_size_out", "count", "lower"),
    ("optim.nraenv_depth_out", "count", "lower"),
    ("optim.nraenv_fired", "count", "lower"),
    ("optim.nraenv_passes", "count", "lower"),
    ("optim.nnrc_opt_ms", "ms", "lower"),
    ("optim.nnrc_size_out", "count", "lower"),
    ("optim.nnrc_fired", "count", "lower"),
    ("translate.to_nnrc_ms", "ms", "lower"),
    ("translate.nnrc_size", "count", "lower"),
    ("backend.codegen_ms", "ms", "lower"),
    ("backend.source_bytes", "bytes", "lower"),
    ("backend.callable_ms", "ms", "lower"),
    ("backend.callable_us_per_row", "us", "lower"),
    ("nraenv.exec.engine_ms", "ms", "lower"),
    ("nraenv.exec.engine_us_per_row", "us", "lower"),
    ("nraenv.exec.joins", "count", "higher"),
    ("nraenv.exec.group_bys", "count", "higher"),
    ("nraenv.exec.columnar_passes", "count", "higher"),
    ("nraenv.exec.fallbacks", "count", "lower"),
    ("data.json_io.encode_ms", "ms", "lower"),
    ("data.json_io.result_rows", "count", "lower"),
    ("service.plan_key_ms", "ms", "lower"),
    ("service.cache.hit_share", "ratio", "higher"),
    ("service.prepared.bind_ms", "ms", "lower"),
    ("service.service.execute_ms", "ms", "lower"),
    ("service.service.overhead_ms", "ms", "lower"),
    ("service.service.wire_ms", "ms", "lower"),
    ("service.worker.pickle_ms", "ms", "lower"),
    ("service.worker.reply_bytes", "bytes", "lower"),
    ("service.worker.warm_s", "s", "lower"),
    ("service.net.dumps_ms", "ms", "lower"),
    ("service.net.body_bytes", "bytes", "lower"),
    ("service.net.http_1c_p50_ms", "ms", "lower"),
    ("service.net.overhead_ms", "ms", "lower"),
    ("service.net.shed", "count", "lower"),
    ("service.catalog.register_ms", "ms", "lower"),
    ("service.catalog.columnar_bytes", "bytes", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.calibration_ms", "ms", "lower"),
)

#: Sequential requests on one connection against the live server.
HTTP_1C_REQUESTS = 100
#: In-process replays stop at this many stream requests ...
REPLAY_MAX = 256
#: ... or when this share of ``--seconds`` is spent, but not before this many.
REPLAY_SHARE = 0.4
REPLAY_MIN = 8
#: Requests whose engine run is also counted (under ``repro.obs.observe``)
#: and compared with the callable's answer.
ENGINE_CHECKED = 3
#: Extra compilations of an execute workload's one statement, so that
#: the compile-stage medians are not a single sample.
COMPILE_SAMPLES = 5
#: Below this the printed report flags an uninstrumented gap.
COVERAGE_FLOOR = 0.95


def calibration_ms() -> float:
    """A fixed pure-Python loop: moves with the machine, not the program."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200000):
            total += i * i
        samples.append(time.perf_counter() - started)
    return served.median(samples) * 1e3


def tables_read(sql: str, tables: Dict[str, Any]) -> List[str]:
    """The registered tables a statement names."""
    return [name for name in tables if re.search(r"\b%s\b" % re.escape(name), sql)]


# -- the scripts -------------------------------------------------------------

#: ``send(payload, measured, params, sql) -> response``.  ``measured``
#: requests are the replayed stream; the rest is set-up around them.
Send = Callable[..., Dict[str, Any]]


def execute_script(workload: workloads.Workload, stream: Sequence[Dict[str, Any]]):
    def script(send: Send, take: Callable[[], bool]) -> None:
        handle = send({"op": "prepare", "query": workload.sql})["handle"]
        for params in stream[:REPLAY_MAX]:
            if not take():
                break
            send(
                {"op": "execute", "handle": handle, "params": params},
                measured=True, params=params, sql=workload.sql,
            )

    return script


def adhoc_script(stream: Sequence[Dict[str, Any]]):
    """Connection 0's prepares, then the five templates micro can execute."""
    from repro.tpch.queries import QUERIES

    def script(send: Send, take: Callable[[], bool]) -> None:
        for entry in stream[:REPLAY_MAX]:
            if not take():
                break
            reply = send({"op": "prepare", "query": entry["query"]}, measured=True)
            send({"op": "close", "handle": reply["handle"]})
        for name in workloads.ADHOC_EXECUTED:
            handle = send({"op": "prepare", "query": QUERIES[name]})["handle"]
            send(
                {"op": "execute", "handle": handle}, measured=True, params={},
                sql=QUERIES[name],
            )
            send({"op": "close", "handle": handle})

    return script


def _budget(seconds: float) -> Callable[[], bool]:
    """``take()``: may another stream request be replayed?"""
    deadline = time.perf_counter() + seconds * REPLAY_SHARE
    taken = [0]

    def take() -> bool:
        if taken[0] >= REPLAY_MIN and time.perf_counter() >= deadline:
            return False
        taken[0] += 1
        return True

    return take


def _worker_service() -> Any:
    from repro.service.service import QueryService

    return QueryService(
        cache_capacity=128, workers=1, queue_depth=2, telemetry_capacity=16,
        trace_sample_rate=None, handle_prefix="w0t",
    )


def _must_ok(payload: Dict[str, Any], response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        raise RuntimeError("in-process %s failed: %s" % (payload.get("op"), response))
    return response


# -- 1: the live server -------------------------------------------------


def live_pass(
    start: Callable[[], Tuple[served.Server, Any]],
    requests: Callable[[Any], Iterator[served.Request]],
    check: served.Check,
    after: Any,
) -> Dict[str, Any]:
    """One connection, sequential requests, against a fresh live server."""
    server, prepared = start()
    try:
        tally = served.Tally()
        stream = itertools.islice(requests(prepared), HTTP_1C_REQUESTS)
        served.client_loop(server, stream, check, tally, None, after)
        counters = server.get_json("/stats")["metrics"]["counters"]
    finally:
        server.stop()
    if not tally.latencies:
        raise RuntimeError("no ok reply on the live server: %s" % tally.first_failure)
    return {
        "warm_s": server.announced_at - server.spawned_at,
        "http_1c_p50_ms": served.median(tally.latencies) * 1e3,
        "shed": counters.get("service.shed", 0),
        "tally": tally,
    }


# -- 2 and 3: the in-process replay ------------------------------------------


class _ModuleProxy:
    """A module with some attributes replaced, for one importing module.

    ``json_io.to_jsonable`` recurses through its own module global; the
    service reaches it as ``json_io.to_jsonable``.  Replacing the
    service's ``json_io`` name wraps the call the service makes and
    leaves the recursion bare.
    """

    def __init__(self, module: Any, **overrides: Any):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


def layer_patches(recorder: Recorder) -> List[Tuple[Any, str, Any]]:
    """Each layer's public entry point, wrapped where the service calls it."""
    from repro.backend import python_gen
    from repro.compiler import metrics as plan_metrics, pipeline
    from repro.data import json_io
    from repro.service import catalog, prepared, service
    from repro.sql import parser, to_nraenv

    def fired(result: Any) -> int:
        return sum(result.fire_counts.values())

    def on_to_nraenv(span: Span, plan: Any) -> None:
        span.args["size"] = plan_metrics.query_size(plan)

    def on_nraenv_opt(span: Span, result: Any) -> None:
        span.args.update(
            size_out=plan_metrics.query_size(result.plan),
            depth_out=plan_metrics.query_depth(result.plan),
            fired=fired(result),
            passes=result.passes,
        )

    def on_to_nnrc(span: Span, expr: Any) -> None:
        span.args["size"] = plan_metrics.query_size(expr)

    def on_nnrc_opt(span: Span, result: Any) -> None:
        span.args.update(size_out=plan_metrics.query_size(result.plan), fired=fired(result))

    def on_encode(span: Span, result: Any) -> None:
        span.args["rows"] = len(result) if isinstance(result, list) else 1

    codegen = python_gen.compile_nnrc_to_callable

    def traced_codegen(*args: Any, **kwargs: Any) -> Any:
        """Time code generation, and hand back a callable that times itself."""
        with recorder.span("backend.codegen") as span:
            fn = codegen(*args, **kwargs)
            span.args["source_bytes"] = len(fn.__source__)
        traced = recorder.wrap(fn, "backend.callable")
        traced.__source__ = fn.__source__  # type: ignore[attr-defined]
        return traced

    wrap = recorder.wrap
    return [
        (parser, "parse_sql", wrap(parser.parse_sql, "sql.parse")),
        (to_nraenv, "sql_to_nraenv",
         wrap(to_nraenv.sql_to_nraenv, "sql.to_nraenv", on_to_nraenv)),
        (pipeline, "optimize_nraenv",
         wrap(pipeline.optimize_nraenv, "optim.nraenv_opt", on_nraenv_opt)),
        (pipeline, "nraenv_to_nnrc",
         wrap(pipeline.nraenv_to_nnrc, "translate.to_nnrc", on_to_nnrc)),
        (pipeline, "optimize_nnrc",
         wrap(pipeline.optimize_nnrc, "optim.nnrc_opt", on_nnrc_opt)),
        (python_gen, "compile_nnrc_to_callable", traced_codegen),
        (service, "plan_key", wrap(service.plan_key, "service.plan_key")),
        (prepared.CompiledPlan, "bind",
         wrap(prepared.CompiledPlan.bind, "service.prepared.bind")),
        (service.QueryService, "execute",
         wrap(service.QueryService.execute, "service.service.execute")),
        (service.QueryService, "handle_request",
         wrap(service.QueryService.handle_request, "service.service.wire")),
        (service, "json_io", _ModuleProxy(
            json_io,
            to_jsonable=wrap(json_io.to_jsonable, "data.json_io.encode", on_encode))),
        (catalog.Catalog, "register_table",
         wrap(catalog.Catalog.register_table, "service.catalog.register")),
    ]


class Replay:
    """The head of the request stream through two in-process services.

    Every request goes to both services, to one with the spans recording
    and to the other with the recorder disabled (the wrapped functions
    then run bare: the baseline for the tracing overhead, and the plans
    the engine is timed on).  The two swap roles on every request, so
    that neither a difference between the instances nor machine drift
    reads as tracing overhead.
    """

    def __init__(self, tables: Dict[str, Any]):
        self.tables = tables
        self.recorder = Recorder()
        self.columnar_bytes = 0
        self.plain_wire_seconds: List[float] = []
        self.callable_us_per_row: List[float] = []
        self.engine_seconds: List[float] = []
        self.engine_us_per_row: List[float] = []
        self.engine_counts: Dict[str, List[int]] = {
            "engine.join": [], "engine.group_by": [], "engine.columnar": [], "fallbacks": [],
        }
        self.attempted = 0
        self.failed = 0
        self._requests = 0

    def run(self, script: Any, seconds: float, compile_sql: Optional[str]) -> None:
        with patched(layer_patches(self.recorder)):
            services = (_worker_service(), _worker_service())
            try:
                with self.recorder.span("setup.register"):
                    for service in services:
                        for name, rows in self.tables.items():
                            service.register_table(name, rows)
                self.columnar_bytes = services[0].catalog.columnar_bytes()
                script(lambda *a, **k: self._send(services, *a, **k), _budget(seconds))
            finally:
                for service in services:
                    service.close()
            for _ in range(COMPILE_SAMPLES if compile_sql else 0):
                # A fresh service per sample: its plan cache is empty, so
                # the statement compiles again.
                throwaway = _worker_service()
                try:
                    self._traced(throwaway, {"op": "prepare", "query": compile_sql}, False)
                finally:
                    throwaway.close()

    def _send(
        self, services: Tuple[Any, Any], payload: Dict[str, Any], measured: bool = False,
        params: Optional[Dict[str, Any]] = None, sql: Optional[str] = None,
    ) -> Dict[str, Any]:
        # Which service records, and which of the two goes first, cycle
        # over four requests: the collector's full passes (7 ms on a
        # 45 ms ``group_agg`` request) otherwise land on one side for
        # stretches of ten requests and read as tracing overhead.
        turn, traced_first = self._requests % 2, self._requests // 2 % 2
        traced, plain = services[turn], services[1 - turn]
        first = len(self.recorder.spans)
        if traced_first:
            response = self._traced(traced, payload, measured)
        with self.recorder.disabled():
            started = time.perf_counter()
            baseline = plain.handle_request(payload)
            elapsed = time.perf_counter() - started
        _must_ok(payload, baseline)
        if not traced_first:
            response = self._traced(traced, payload, measured)
        if baseline.get("handle") != response.get("handle"):
            raise RuntimeError("the two in-process services fell out of step")
        if measured:
            self.plain_wire_seconds.append(elapsed)
        if measured and payload["op"] == "execute":
            calls = self.recorder.durations("backend.callable", first)
            if not calls:
                raise RuntimeError("no backend.callable span: the layer is no longer called")
            rows = max(1, sum(len(self.tables[t]) for t in tables_read(sql, self.tables)))
            self.callable_us_per_row.append(sum(calls) * 1e6 / rows)
            with self.recorder.disabled():
                self._engine(plain, payload["handle"], params, rows, baseline)
        return response

    def _traced(self, service: Any, payload: Dict[str, Any], measured: bool) -> Dict[str, Any]:
        """One request as a worker and the leader handle it, span by span."""
        recorder = self.recorder
        self._requests += 1
        root = "request" if measured else "setup.%s" % payload["op"]
        with recorder.span(root, request_id=self._requests):
            response = service.handle_request(payload)
            with recorder.span("service.worker.pickle") as span:
                blob = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
                pickle.loads(blob)
                span.args["bytes"] = len(blob)
            with recorder.span("service.net.dumps") as span:
                body = (json.dumps(response) + "\n").encode("utf-8")
                span.args["bytes"] = len(body)
        return _must_ok(payload, response)

    def _engine(
        self, service: Any, handle: str, params: Any, rows: int, response: Dict[str, Any]
    ) -> None:
        """The same bound plan through ``eval_fast``: timed, then checked."""
        from repro.data import json_io
        from repro.data.model import Record
        from repro.nraenv.exec import eval_fast
        from repro.obs import observe

        plan = service.prepared(handle).plan
        bound = plan.bind(service.catalog.constants(), params)
        started = time.perf_counter()
        value = eval_fast(plan.nraenv, Record({}), None, bound)
        elapsed = time.perf_counter() - started
        self.engine_seconds.append(elapsed)
        self.engine_us_per_row.append(elapsed * 1e6 / rows)
        if len(self.engine_seconds) > ENGINE_CHECKED:
            return
        self.attempted += 1
        same = oracle.rows_equal(
            oracle.canonical_rows(json_io.to_jsonable(value)),
            oracle.canonical_rows(response["result"]),
        )
        self.failed += 0 if same else 1
        with observe() as session:
            eval_fast(plan.nraenv, Record({}), None, bound)
        counters = session.metrics.snapshot()["counters"]
        for name in ("engine.join", "engine.group_by", "engine.columnar"):
            self.engine_counts[name].append(counters.get(name, 0))
        self.engine_counts["fallbacks"].append(
            sum(v for k, v in counters.items() if k.startswith("engine.fallback."))
        )


# -- assembling the metrics ----------------------------------------------------


def _ms(values: Sequence[float]) -> float:
    return served.median(values) * 1e3 if values else 0.0


def _mid(values: Sequence[float]) -> float:
    return served.median(values) if values else 0.0


def _trimmed_mean(values: Sequence[float], cut: float = 0.1) -> float:
    """The mean without the lowest and highest ``cut`` of the sample.

    For comparing the traced and untraced sides: ``group_agg`` requests
    come in two speeds (with and without a full collector pass), where
    a median lands on either; ``tiny_exec`` has rare long outliers,
    which a plain mean follows.
    """
    ordered = sorted(values)
    drop = int(len(ordered) * cut)
    kept = ordered[drop : len(ordered) - drop] or ordered
    return sum(kept) / len(kept)


def per_layer_metrics(
    live: Dict[str, Any], replay: Replay, hit_share: float, calibration: float
) -> Dict[str, float]:
    rec = replay.recorder
    # Wire time, overhead and coverage are judged on the replayed requests only.
    roots = {i for i, span in enumerate(rec.spans) if span.name == "request"}
    request_wire = [
        span.duration for span in rec.spans
        if span.name == "service.service.wire" and span.parent in roots
    ]
    values = {
        "sql.parse_ms": _ms(rec.durations("sql.parse")),
        "sql.to_nraenv_ms": _ms(rec.durations("sql.to_nraenv")),
        "sql.to_nraenv_size": _mid(rec.args("sql.to_nraenv", "size")),
        "optim.nraenv_opt_ms": _ms(rec.durations("optim.nraenv_opt")),
        "optim.nraenv_size_out": _mid(rec.args("optim.nraenv_opt", "size_out")),
        "optim.nraenv_depth_out": _mid(rec.args("optim.nraenv_opt", "depth_out")),
        "optim.nraenv_fired": _mid(rec.args("optim.nraenv_opt", "fired")),
        "optim.nraenv_passes": _mid(rec.args("optim.nraenv_opt", "passes")),
        "optim.nnrc_opt_ms": _ms(rec.durations("optim.nnrc_opt")),
        "optim.nnrc_size_out": _mid(rec.args("optim.nnrc_opt", "size_out")),
        "optim.nnrc_fired": _mid(rec.args("optim.nnrc_opt", "fired")),
        "translate.to_nnrc_ms": _ms(rec.durations("translate.to_nnrc")),
        "translate.nnrc_size": _mid(rec.args("translate.to_nnrc", "size")),
        "backend.codegen_ms": _ms(rec.durations("backend.codegen")),
        "backend.source_bytes": _mid(rec.args("backend.codegen", "source_bytes")),
        "backend.callable_ms": _ms(rec.durations("backend.callable")),
        "backend.callable_us_per_row": _mid(replay.callable_us_per_row),
        "nraenv.exec.engine_ms": _ms(replay.engine_seconds),
        "nraenv.exec.engine_us_per_row": _mid(replay.engine_us_per_row),
        "nraenv.exec.joins": _mid(replay.engine_counts["engine.join"]),
        "nraenv.exec.group_bys": _mid(replay.engine_counts["engine.group_by"]),
        "nraenv.exec.columnar_passes": _mid(replay.engine_counts["engine.columnar"]),
        "nraenv.exec.fallbacks": _mid(replay.engine_counts["fallbacks"]),
        "data.json_io.encode_ms": _ms(rec.durations("data.json_io.encode")),
        "data.json_io.result_rows": _mid(rec.args("data.json_io.encode", "rows")),
        "service.plan_key_ms": _ms(rec.durations("service.plan_key")),
        "service.cache.hit_share": hit_share,
        "service.prepared.bind_ms": _ms(rec.durations("service.prepared.bind")),
        "service.service.execute_ms": _ms(rec.durations("service.service.execute")),
        "service.service.overhead_ms": _ms(rec.self_durations("service.service.execute")),
        "service.service.wire_ms": _ms(request_wire),
        "service.worker.pickle_ms": _ms(_of_requests(rec, roots, "service.worker.pickle")),
        "service.worker.reply_bytes": _mid(
            _of_requests(rec, roots, "service.worker.pickle", "bytes")),
        "service.worker.warm_s": live["warm_s"],
        "service.net.dumps_ms": _ms(_of_requests(rec, roots, "service.net.dumps")),
        "service.net.body_bytes": _mid(
            _of_requests(rec, roots, "service.net.dumps", "bytes")),
        "service.net.http_1c_p50_ms": live["http_1c_p50_ms"],
        "service.net.overhead_ms": live["http_1c_p50_ms"] - _ms(request_wire),
        "service.net.shed": live["shed"],
        "service.catalog.register_ms": _ms(rec.durations("service.catalog.register")),
        "service.catalog.columnar_bytes": replay.columnar_bytes,
        "bench.trace_overhead_share": (
            _trimmed_mean(request_wire) / _trimmed_mean(replay.plain_wire_seconds) - 1.0
            if replay.plain_wire_seconds else 0.0
        ),
        "bench.span_coverage": rec.coverage("request"),
        "bench.calibration_ms": calibration,
    }
    return values


def _of_requests(
    rec: Recorder, roots: Any, name: str, arg: Optional[str] = None
) -> List[float]:
    """Durations (or one argument) of ``name`` spans directly under a request."""
    return [
        span.args[arg] if arg else span.duration
        for span in rec.spans
        if span.name == name and span.parent in roots
    ]
