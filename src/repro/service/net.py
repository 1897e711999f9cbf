"""``repro.service.net``: the asyncio network front end.

``repro serve`` without flags is one client on stdin/stdout.  This
module is the production shape: an asyncio server speaking the *same*
JSON wire protocol over two transports —

- **HTTP** (``--http PORT``): ``POST /`` with a JSON request body gets
  the JSON response back, status-mapped from the error taxonomy
  (``overloaded`` → 503, ``timeout`` → 504, ``bad_request`` /
  ``compile_error`` / ``catalog_error`` → 400, internal → 500);
  ``GET`` serves the observability surface (``/healthz /metrics /stats
  /telemetry /slow``) through the same :func:`repro.service.http.obs_route`
  the sidecar uses, so the query port and the obs port answer
  identically.  Connections are keep-alive HTTP/1.1.
- **TCP JSON-lines** (``--tcp PORT``): the stdin protocol verbatim,
  one JSON object per line per direction, persistent connections.

Request flow per work op (``execute``/``query``)::

    ingress context (query_id)  ->  admission.try_admit()   O(1) shed
        -> worker pool acquire (deadline-bounded)
        -> round trip to a worker process (remaining budget rides along)
        -> record_remote (telemetry, rates, query log, per-worker metrics)

With ``--workers 0`` there is no pool and admitted work runs on the
leader's own thread-pool executor instead; everything else (admission,
shedding, drain) is identical.  Control ops (``register``/``load``/
``prepare``/``close``) apply to the leader first and then broadcast to
every worker under a lock, with ``prepare`` forcing the leader's handle
name so every worker's handle space mirrors the leader's.

Graceful drain (SIGTERM, SIGINT, or the ``shutdown`` op): stop
admitting (new work is shed with the structured ``overloaded`` error),
close the listeners, wait for in-flight requests up to
``drain_timeout``, stop the workers, then run
:meth:`~repro.service.service.QueryService.drain` — the same path the
stdin loop uses — so the query log gets its final ``shutdown`` audit
event and the obs sidecar stops.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import threading
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs.context import QueryContext, query_context
from repro.service.admission import AdmissionController
from repro.service.errors import ServiceError
from repro.service.http import obs_route
from repro.service.worker import WorkerCrashed, WorkerPool

_JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Ops that consume an execution slot and may be shed under load.
WORK_OPS = frozenset(("execute", "query"))

#: Ops that mutate leader state and must be broadcast to every worker.
CONTROL_BROADCAST_OPS = frozenset(("register", "load", "prepare", "close"))

#: Error kind → HTTP status for POST responses.
_STATUS_BY_KIND = {
    "bad_request": 400,
    "compile_error": 400,
    "catalog_error": 400,
    "overloaded": 503,
    "timeout": 504,
}

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def _error_response(kind: str, message: str) -> Dict[str, Any]:
    return {"ok": False, "error": {"kind": kind, "message": message}}


class ServeNetServer:
    """The asyncio front end over one :class:`QueryService` (+ workers).

    ``pool=None`` serves in-process (admitted work runs on the service's
    thread-pool executor); otherwise work ops round-robin over the
    pool's idle workers.  Admission capacity is the execution
    parallelism (pool size, or the executor's thread count) plus
    ``queue_depth`` waiters; everything beyond that is shed in O(1)
    with the structured ``overloaded`` error *before* compilation or
    parameter binding happens.
    """

    def __init__(
        self,
        service: Any,
        pool: Optional[WorkerPool] = None,
        http_port: Optional[int] = None,
        tcp_port: Optional[int] = None,
        host: str = "127.0.0.1",
        queue_depth: int = 16,
        default_timeout: Optional[float] = 30.0,
        drain_timeout: float = 10.0,
        obs_server: Any = None,
        heartbeat_interval: float = 2.0,
    ):
        if http_port is None and tcp_port is None:
            raise ValueError("serve over the network needs --http and/or --tcp")
        self.service = service
        self.pool = pool
        self.heartbeat_interval = heartbeat_interval
        self._heartbeat_task: Optional[Any] = None
        if pool is not None:
            # Fleet wiring: /workers joins the pool's liveness view with
            # the heartbeat resources, and crash/respawn supervision
            # events land in the query log under the victim's query_id.
            service.fleet.attach_pool(pool.describe, pool.pending)
            if pool.on_event is None:
                pool.on_event = self._worker_event
        self.host = host
        self.http_port = http_port
        self.tcp_port = tcp_port
        self.default_timeout = default_timeout
        self.drain_timeout = drain_timeout
        self.obs_server = obs_server
        slots = pool.count if pool is not None else service.executor.workers
        self.admission = AdmissionController(
            capacity=slots + queue_depth, metrics=service.metrics
        )
        self.served = 0
        self._loop: Optional[Any] = None
        self._http_server: Optional[Any] = None
        self._tcp_server: Optional[Any] = None
        self._connections: set = set()
        self._control_lock: Optional["asyncio.Lock"] = None
        self._shutdown_event: Optional["asyncio.Event"] = None
        self._shutdown_reason = "shutdown"
        self._shutdown_requested = False
        self._drained = False
        self._thread: Optional[threading.Thread] = None
        self._http_requests = service.metrics.counter("service.net.http_requests")
        self._tcp_requests = service.metrics.counter("service.net.tcp_requests")

    # -- request handling --------------------------------------------------

    async def handle(self, request: Any) -> Dict[str, Any]:
        """One wire request → one response dict; never raises.

        This is the network ingress: the correlation context is created
        *here* (so even a shed response carries a real ``query_id``),
        then the request is admitted, dispatched, and answered.
        """
        context = self.service.ingress_context()
        with query_context(context):
            try:
                response = await self._route(request, context)
            except ServiceError as exc:
                response = {"ok": False, "error": exc.to_payload()}
            except Exception as exc:  # noqa: BLE001 - the loop must survive
                response = _error_response(
                    "internal_error", "%s: %s" % (type(exc).__name__, exc)
                )
        response.setdefault("query_id", context.query_id)
        return response

    async def _route(self, request: Any, context: QueryContext) -> Dict[str, Any]:
        if not isinstance(request, dict):
            return _error_response("bad_request", "request must be a JSON object")
        op = request.get("op")
        if op == "shutdown":
            served = self.served
            self.request_shutdown("shutdown_op")
            return {"ok": True, "served": served}
        if op in WORK_OPS:
            # The load-shedding fast path: O(1), before the catalog, the
            # plan cache, parameter binding, or any worker is touched.
            if not self.admission.try_admit():
                if context.tracer is not None:
                    with context.tracer.span("serve.admission", category="serve", shed=True):
                        pass
                response = _error_response("overloaded", self.admission.shed_message())
                response["shed"] = True
                return response
            try:
                response = await self._dispatch_work(request, context)
            finally:
                self.admission.release()
        elif op in CONTROL_BROADCAST_OPS and self.pool is not None:
            response = await self._dispatch_control(request, context)
        else:
            response = await self._run_local(request)
        self.served += 1
        return response

    async def _run_local(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Run a request on the leader's service without blocking the loop.

        ``copy_context`` carries the request's ``QueryContext`` into the
        executor thread, so the service reuses our ``query_id`` instead
        of minting a new one.
        """
        loop = asyncio.get_running_loop()
        ctx = contextvars.copy_context()
        return await loop.run_in_executor(
            None, ctx.run, self.service.handle_request, request
        )

    async def _dispatch_work(
        self, request: Dict[str, Any], context: QueryContext
    ) -> Dict[str, Any]:
        if self.pool is None:
            return await self._run_local(request)
        op = request.get("op")
        handle = language = None
        cache_hit = False
        if op == "execute":
            handle = request.get("handle")
            if handle is None:
                return _error_response("bad_request", "request is missing field 'handle'")
            try:
                # Leader-side validation: an unknown handle must not cost
                # a worker round trip (and must fail even on a worker
                # that missed the prepare broadcast).
                prepared = self.service.prepared(handle)
            except ServiceError as exc:
                return {"ok": False, "error": exc.to_payload()}
            language, cache_hit = prepared.language, True
        else:
            if "query" not in request:
                return _error_response("bad_request", "request is missing field 'query'")
            language = request.get("language", "sql")
        timeout = request.get("timeout", self.default_timeout)
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        tracer = context.tracer
        # Leader-side spans close *before* record_remote stitches the
        # merged trace — only completed spans are in the tracer's roots.
        acquire_span = (
            tracer.span("serve.acquire", category="serve") if tracer is not None else None
        )
        try:
            if acquire_span is not None:
                acquire_span.__enter__()
            try:
                worker = await self.pool.acquire(timeout)
            finally:
                if acquire_span is not None:
                    acquire_span.__exit__(None, None, None)
        except asyncio.TimeoutError:
            return _error_response(
                "timeout",
                "deadline expired after %.3fs waiting for a worker" % timeout,
            )
        remaining = None if deadline is None else max(0.001, deadline - loop.time())
        msg = dict(request)
        msg["_obs"] = context.to_wire()
        if remaining is not None:
            # The worker's own executor enforces the remaining budget —
            # deadline propagation, not a fresh full-size timeout.
            msg["timeout"] = remaining
        dispatch_span = (
            tracer.span("serve.dispatch", category="serve", worker=worker.name)
            if tracer is not None
            else None
        )
        try:
            if dispatch_span is not None:
                dispatch_span.__enter__()
            try:
                reply = await self.pool.request(worker, msg, timeout=remaining)
            finally:
                if dispatch_span is not None:
                    dispatch_span.__exit__(None, None, None)
        except asyncio.TimeoutError:
            return _error_response(
                "timeout",
                "query exceeded its %.3fs deadline on worker %s" % (timeout, worker.name),
            )
        except WorkerCrashed:
            crashed = _error_response(
                "runtime_error",
                "worker %s crashed mid-query; it was restarted" % worker.name,
            )
            # Satellite of the crash audit trail: the client's error and
            # the query-log event both carry the in-flight query_id.
            crashed["query_id"] = context.query_id
            return crashed
        if not isinstance(reply, dict):  # pragma: no cover - defensive
            return _error_response("internal_error", "worker sent a non-dict reply")
        worker_name = reply.pop("_worker", worker.name)
        obs = reply.pop("_obs", None)
        self.service.record_remote(
            context,
            reply,
            handle=handle if handle is not None else reply.get("handle"),
            language=language,
            cache_hit=cache_hit,
            worker=worker_name,
            obs=obs,
        )
        return reply

    async def _dispatch_control(
        self, request: Dict[str, Any], context: QueryContext
    ) -> Dict[str, Any]:
        """Leader-first, then broadcast: every worker sees control ops in
        the same order (the lock serializes; per-worker pipes are FIFO).

        A ``prepare`` compiles on the leader only: the broadcast forces
        the leader's handle name and carries its plan artifact, which
        each worker installs instead of re-optimizing the text.

        A worker that crashes around a broadcast is not retried — its
        replacement warms up from a snapshot taken *after* the leader
        applied the change, which already includes it.
        """
        assert self._control_lock is not None
        async with self._control_lock:
            response = await self._run_local(request)
            if response.get("ok"):
                msg = dict(request)
                msg["_obs"] = context.to_wire(record_trace=False)
                if request.get("op") == "prepare":
                    plan = self.service.prepared(response["handle"]).plan
                    msg["_handle"] = response["handle"]
                    msg["_plan"] = await asyncio.get_running_loop().run_in_executor(
                        None, plan.artifact
                    )
                self._absorb(await self.pool.broadcast(msg))
            return response

    # -- fleet supervision -------------------------------------------------

    def _worker_event(self, event: Dict[str, Any]) -> None:
        """Pool supervision hook (runs on a worker IO thread).

        ``worker_crash`` events carry the in-flight ``query_id`` when a
        query was on the pipe, so the audit trail ties the restart to
        the request the client saw fail.
        """
        kind = event.get("event", "worker_event")
        self.service.metrics.counter("service.worker.events.%s" % kind).inc()
        if self.service.query_log is not None:
            try:
                self.service.query_log.emit(dict(event))
            except ValueError:
                pass  # the log closed mid-drain

    def _absorb(self, replies: List[Any]) -> None:
        """Fold the metrics deltas and resource documents that broadcast
        replies carry into the fleet view.  Each worker moved its delta
        baseline when it replied, so a dropped reply loses its delta."""
        for reply in replies:
            if not isinstance(reply, dict):
                continue
            worker = reply.get("_worker")
            obs = reply.get("_obs")
            if worker is None or not isinstance(obs, dict):
                continue
            self.service.fleet.set_resources(worker, obs.get("resources"))
            self.service.fleet.apply_delta(worker, obs.get("metrics"))

    async def _heartbeat_loop(self) -> None:
        """Poll every worker for resource gauges on a fixed cadence.

        Heartbeats ride the same per-worker FIFO pipes as queries, so a
        busy worker answers after its current query — the gauges are
        eventually fresh, never racing a query on the pipe.  Each reply
        also carries any metrics delta accrued since the last ship.
        """
        assert self.pool is not None
        while not self._shutdown_requested:
            try:
                replies = await self.pool.broadcast(
                    {"op": "_heartbeat"}, timeout=max(5.0, self.heartbeat_interval * 4)
                )
            except (asyncio.TimeoutError, RuntimeError):
                replies = []
            self._absorb(replies)
            try:
                await asyncio.sleep(self.heartbeat_interval)
            except asyncio.CancelledError:
                return

    @staticmethod
    def status_for(response: Dict[str, Any]) -> int:
        if response.get("ok"):
            return 200
        kind = (response.get("error") or {}).get("kind")
        return _STATUS_BY_KIND.get(kind, 500)

    # -- HTTP transport ----------------------------------------------------

    async def _serve_http(self, reader: Any, writer: Any) -> None:
        self._connections.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line:
                    break
                parts = request_line.decode("latin-1").strip().split()
                if len(parts) != 3:
                    await self._write_http(
                        writer,
                        400,
                        _JSON_CONTENT_TYPE,
                        json.dumps(_error_response("bad_request", "malformed request line"))
                        + "\n",
                        keep_alive=False,
                    )
                    break
                method, target, version = parts[0].upper(), parts[1], parts[2]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if not line or line in (b"\r\n", b"\n"):
                        break
                    if b":" in line:
                        key, value = line.decode("latin-1").split(":", 1)
                        headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length") or 0)
                body = await reader.readexactly(length) if length else b""
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                    and version.upper() != "HTTP/1.0"
                )
                self._http_requests.inc()
                parsed = urlsplit(target)
                if method == "GET":
                    answer = obs_route(self.service, parsed.path, parsed.query)
                    if answer is None:
                        answer = (
                            404,
                            _JSON_CONTENT_TYPE,
                            json.dumps({"error": "unknown path %r" % parsed.path}) + "\n",
                        )
                    await self._write_http(writer, *answer, keep_alive=keep_alive)
                elif method == "POST":
                    try:
                        request = json.loads(body.decode("utf-8"))
                    except ValueError as exc:
                        response: Dict[str, Any] = _error_response(
                            "bad_request", "malformed JSON: %s" % exc
                        )
                    else:
                        response = await self.handle(request)
                    await self._write_http(
                        writer,
                        self.status_for(response),
                        _JSON_CONTENT_TYPE,
                        json.dumps(response) + "\n",
                        keep_alive=keep_alive,
                    )
                else:
                    await self._write_http(
                        writer,
                        405,
                        _JSON_CONTENT_TYPE,
                        json.dumps({"error": "method %s not allowed" % method}) + "\n",
                        keep_alive=False,
                    )
                    break
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError, ValueError):
            pass
        finally:
            self._connections.discard(writer)
            self._close_writer(writer)

    async def _write_http(
        self,
        writer: Any,
        status: int,
        content_type: str,
        body: str,
        keep_alive: bool = True,
    ) -> None:
        data = body.encode("utf-8")
        head = (
            "HTTP/1.1 %d %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: %s\r\n\r\n"
            % (
                status,
                _HTTP_REASONS.get(status, "Status"),
                content_type,
                len(data),
                "keep-alive" if keep_alive else "close",
            )
        )
        writer.write(head.encode("latin-1") + data)
        await writer.drain()

    # -- TCP JSON-lines transport -----------------------------------------

    async def _serve_tcp(self, reader: Any, writer: Any) -> None:
        self._connections.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                self._tcp_requests.inc()
                try:
                    request = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    response: Dict[str, Any] = _error_response(
                        "bad_request", "malformed JSON: %s" % exc
                    )
                    request = None
                else:
                    response = await self.handle(request)
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
                if isinstance(request, dict) and request.get("op") == "shutdown":
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            self._close_writer(writer)

    @staticmethod
    def _close_writer(writer: Any) -> None:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 - already gone
            pass

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "ServeNetServer":
        """Bind listeners (port 0 → ephemeral; the attribute is updated to
        the bound port) and attach the worker pool to this loop."""
        self._loop = asyncio.get_running_loop()
        self._control_lock = asyncio.Lock()
        self._shutdown_event = asyncio.Event()
        if self._shutdown_requested:  # a signal beat start(); honor it
            self._shutdown_event.set()
        if self.pool is not None:
            self.pool.bind(self._loop)
            if self.heartbeat_interval and self.heartbeat_interval > 0:
                self._heartbeat_task = self._loop.create_task(self._heartbeat_loop())
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._serve_http, self.host, self.http_port
            )
            self.http_port = self._http_server.sockets[0].getsockname()[1]
        if self.tcp_port is not None:
            self._tcp_server = await asyncio.start_server(
                self._serve_tcp, self.host, self.tcp_port
            )
            self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]
        return self

    def endpoints(self) -> Dict[str, Tuple[str, int]]:
        out: Dict[str, Tuple[str, int]] = {}
        if self.http_port is not None:
            out["http"] = (self.host, self.http_port)
        if self.tcp_port is not None:
            out["tcp"] = (self.host, self.tcp_port)
        return out

    def request_shutdown(self, reason: str = "shutdown") -> None:
        """Begin graceful drain; safe from any thread or signal handler.

        Idempotent, and the *first* reason wins — a later ``stop`` must
        not relabel a drain the ``shutdown`` op already started.
        """
        if not self._shutdown_requested:
            self._shutdown_reason = reason
            self._shutdown_requested = True
        self.admission.start_drain()
        if self._loop is not None and self._shutdown_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._shutdown_event.set)
            except RuntimeError:
                pass  # the loop already exited; nothing left to wake

    async def run(self, install_signals: bool = True) -> int:
        """Serve until shutdown is requested, then drain gracefully."""
        if self._loop is None:
            await self.start()
        if install_signals:
            import signal as _signal

            for signum, name in (
                (_signal.SIGTERM, "sigterm"),
                (_signal.SIGINT, "sigint"),
            ):
                try:
                    self._loop.add_signal_handler(
                        signum, self.request_shutdown, name
                    )
                except (NotImplementedError, RuntimeError, ValueError):
                    pass  # non-main thread or unsupported platform
        await self._shutdown_event.wait()
        await self.drain()
        return 0

    async def drain(self) -> None:
        """The drain sequence (idempotent):

        1. stop admitting — new work ops shed as ``overloaded``;
        2. close the listeners (no new connections);
        3. wait for in-flight requests, up to ``drain_timeout``;
        4. close surviving connections;
        5. stop the worker pool;
        6. :meth:`QueryService.drain` — final ``shutdown`` audit event,
           query-log close, obs-sidecar stop.
        """
        if self._drained:
            return
        self._drained = True
        loop = asyncio.get_running_loop()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self.admission.start_drain()
        for server in (self._http_server, self._tcp_server):
            if server is not None:
                server.close()
        for server in (self._http_server, self._tcp_server):
            if server is not None:
                await server.wait_closed()
        await loop.run_in_executor(None, self.admission.wait_idle, self.drain_timeout)
        # One beat so completed handlers flush their final response bytes.
        await asyncio.sleep(0.05)
        for writer in list(self._connections):
            self._close_writer(writer)
        self._connections.clear()
        if self.pool is not None:
            await loop.run_in_executor(None, self.pool.close)
        service_drain = self.service.drain
        obs_server = self.obs_server

        def _drain_service() -> None:
            service_drain(reason=self._shutdown_reason, wait=True, obs_server=obs_server)

        await loop.run_in_executor(None, _drain_service)

    # -- background-thread harness (tests, benchmarks) ---------------------

    def start_background(self, timeout: float = 60.0) -> "ServeNetServer":
        """Run the server on a private loop in a daemon thread.

        Returns once the listeners are bound (ports resolved), so tests
        and the benchmark can connect immediately.  Pair with
        :meth:`stop_background`.
        """
        started = threading.Event()
        failure: Dict[str, BaseException] = {}

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)

            async def main() -> None:
                try:
                    await self.start()
                finally:
                    started.set()
                await self._shutdown_event.wait()
                await self.drain()

            try:
                loop.run_until_complete(main())
            except BaseException as exc:  # noqa: BLE001 - surface to caller
                failure["error"] = exc
                started.set()
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=runner, name="repro-serve-net", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("serve-net background thread failed to start")
        if "error" in failure:
            raise RuntimeError(
                "serve-net background thread died: %s" % failure["error"]
            )
        return self

    def stop_background(self, timeout: float = 60.0) -> None:
        self.request_shutdown("stop")
        if self._thread is not None:
            self._thread.join(timeout)


__all__ = [
    "CONTROL_BROADCAST_OPS",
    "ServeNetServer",
    "WORK_OPS",
]
