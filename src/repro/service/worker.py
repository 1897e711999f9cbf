"""Worker processes: multi-core scale-out for the serving layer.

One Python process is one GIL; the thread-pool executor overlaps I/O
but cannot run two query executions on two cores.  This module moves
execution into **N worker processes** (``multiprocessing`` — ``spawn``
by default, ``fork``/``forkserver`` selectable), each holding

- a **read-only catalog snapshot**: the leader's registered tables,
  serialized through the JSON wire format at pool start (and at every
  respawn) so a worker can never see a half-registered catalog;
- a **per-worker LRU plan cache** filled by **plan install**: the
  snapshot carries the leader's live prepared handles with their
  compiled plans (``handle``, ``language``, ``text`` and the plan
  artifact — the optimized NRAe as an S-expression), and the worker
  installs each one *under the leader's handle name*
  (``QueryService.prepare(handle=..., plan=...)``), so any handle a
  client holds is valid on whichever worker the request lands on.  A
  worker lowers the leader's NRAe to Python; it never re-optimizes a
  prepared statement, neither at warm-up nor on a ``prepare`` broadcast;
- its own :class:`~repro.service.executor.SessionExecutor`, which is
  what enforces the request deadline the leader propagates (the
  ``timeout`` field of the worker message is the *remaining* budget).

The leader talks to each worker over a private pipe, serialized by a
dedicated **IO thread** per worker (:class:`WorkerHandle`): requests
enqueue into a mailbox, the thread does one blocking send/recv round
trip per message, and completion lands in a ``concurrent.futures``
future the asyncio front end awaits.  A worker death (EOF on the pipe)
fails the in-flight future with :class:`WorkerCrashed` — which the
front end reports as a structured ``runtime_error``, never a hung
client — and the pool **respawns** a replacement from a fresh snapshot
before putting it back into rotation.

Replies are encoded once, here: an ok reply's ``result`` crosses the
pipe as its ``json.dumps`` text and row count (:func:`encode_result`),
which the leader holds as an :class:`EncodedResult` and splices into
the response body (:func:`repro.service.net.render`) without decoding
or re-encoding the rows.

Transient handles: one-shot ``query`` ops prepared inside a worker use
the worker's own ``w<N>t…`` handle prefix so they can never collide
with the leader-broadcast ``q…`` handles.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import sys
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Dict, List, Optional


class WorkerCrashed(Exception):
    """The worker process died while (or before) answering a request."""


class EncodedResult:
    """An ok reply's ``result`` as the worker encoded it, once.

    ``text`` is ``json.dumps(result)`` (default separators,
    ``ensure_ascii``), so the leader can splice it into the response
    body unchanged; ``rows`` is ``len(result)`` for a list result and
    ``None`` otherwise, for the leader's telemetry.  Deliberately not
    JSON-serializable: a path that forgets to splice fails loudly
    instead of writing the text as a JSON string.

    On the pipe the pair travels as the plain tuple ``(text, rows)``
    that :func:`encode_result` leaves in the reply, and
    :func:`received_reply` wraps it on the leader's IO thread: a tuple
    pickles and unpickles in about half the time of an instance, and
    JSON-able data holds no tuples, so the form is unambiguous.
    """

    __slots__ = ("text", "rows")

    def __init__(self, text: str, rows: Optional[int]):
        self.text = text
        self.rows = rows

    def __repr__(self) -> str:
        return "EncodedResult(%d bytes, rows=%r)" % (len(self.text), self.rows)


def encode_result(response: Dict[str, Any], tracer: Any = None) -> None:
    """Worker side: replace an ok ``response``'s ``result`` with
    ``(json.dumps(result), rows)``, the pipe form of :class:`EncodedResult`.

    In place, keeping the key's position, so the leader writes the keys
    in the order :meth:`QueryService.handle_request` produced them.
    With a ``tracer`` (the request records a trace) the encode is a
    ``serve.encode`` span carrying the text's ``bytes`` and the ``rows``.
    """
    if not response.get("ok") or "result" not in response:
        return
    result = response["result"]
    rows = len(result) if isinstance(result, list) else None
    if tracer is None:
        response["result"] = (json.dumps(result), rows)
        return
    with tracer.span("serve.encode", category="serve", rows=rows) as span:
        text = json.dumps(result)
        span.note(bytes=len(text))
    response["result"] = (text, rows)


def received_reply(reply: Any) -> Any:
    """Leader side: a pipe reply's ``(text, rows)`` result, wrapped in
    place as an :class:`EncodedResult`; anything else passes through."""
    if isinstance(reply, dict) and type(reply.get("result")) is tuple:
        reply["result"] = EncodedResult(*reply["result"])
    return reply


def decode_reply(reply: Any) -> Any:
    """A worker reply, as the pool returns it, with its result decoded
    back to JSON-able data.

    The leader never needs this (it splices the text); callers that
    read a worker's rows directly — tests, tools — go through it.
    Returns a shallow copy; non-dict replies and replies without an
    encoded result come back unchanged.
    """
    if isinstance(reply, dict) and isinstance(reply.get("result"), EncodedResult):
        reply = dict(reply)
        reply["result"] = json.loads(reply["result"].text)
    return reply


def catalog_snapshot(service: Any) -> Dict[str, Any]:
    """The read-only state a new worker needs, as plain picklable data.

    Tables ship as each :class:`~repro.service.catalog.TableInfo`'s
    cached :meth:`wire_payload` — column-oriented for columnar tables
    (one list per field), the classic row list otherwise.  The payload
    is built once per registration and shared *by reference* across
    every snapshot (copy-on-write: respawns after new registrations
    pick up the new tables' payloads, unchanged tables re-use theirs),
    so respawning a worker does not re-encode the whole catalog.
    Prepared queries ride along in creation order as ``handle``,
    ``language``, ``text`` and the plan's cached
    :meth:`~repro.service.prepared.CompiledPlan.artifact`, so warm-up
    installs identical handles without re-optimizing.
    """
    tables = {}
    for info in service.catalog.tables():
        tables[info.name] = info.wire_payload()
    prepared = [
        {"handle": p.handle, "language": p.language, "text": p.text, "plan": p.plan.artifact()}
        for p in service.prepared_queries()
    ]
    return {"tables": tables, "prepared": prepared}


def worker_resources(service: Any, catalog_bytes: int, started_at: float) -> Dict[str, Any]:
    """The resource document a worker reports on every heartbeat.

    RSS comes from ``resource.getrusage`` (``ru_maxrss`` is KiB on
    Linux, bytes on macOS); columnar-cache bytes from the catalog's
    :meth:`~repro.service.catalog.Catalog.columnar_bytes`; plan-cache
    size and hit rate from the worker's own
    :meth:`~repro.service.cache.PlanCache.stats`.  ``catalog_bytes`` is
    the pickled size of the warm-up snapshot — what this worker's copy
    of the catalog actually cost to ship.
    """
    doc: Dict[str, Any] = {
        "pid": os.getpid(),
        "catalog_bytes": catalog_bytes,
        "uptime_seconds": time.time() - started_at,
    }
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        scale = 1 if sys.platform == "darwin" else 1024
        doc["rss_bytes"] = usage.ru_maxrss * scale
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        pass
    try:
        doc["columnar_cache_bytes"] = service.catalog.columnar_bytes()
    except Exception:  # noqa: BLE001 - resources must never kill the loop
        pass
    stats = service.cache.stats()
    hits = stats.get("hits", 0)
    misses = stats.get("misses", 0)
    doc["plan_cache_entries"] = stats.get("size", 0)
    doc["plan_cache_hit_rate"] = (hits / (hits + misses)) if (hits + misses) else 0.0
    return doc


def worker_main(
    worker_id: int, conn: Any, snapshot: Dict[str, Any], options: Dict[str, Any]
) -> None:
    """The worker process entry point: rebuild state, answer requests.

    Runs a private :class:`~repro.service.service.QueryService` (own
    plan cache, own executor) and loops over the pipe: one request dict
    in, one response dict out, its ``result`` (when ok) already encoded
    by :func:`encode_result`.  The leader's ``_obs`` envelope rides
    along so the worker's internal spans, telemetry, and (leader-side)
    audit events all share the request's correlation id; when it asks
    for trace recording the worker records its spans into a private
    tracer and ships them back — wall-clock anchored — in the reply's
    ``_obs`` field, together with a mergeable metrics delta, for the
    leader to stitch into the request's single merged trace.
    ``{"op": "_heartbeat"}`` answers with the worker's resource gauges;
    ``{"op": "_shutdown"}`` ends the loop; fault injection (``_inject:
    "crash"``) is honored only when the pool opted in — it exists so
    tests can prove a worker crash surfaces as a structured error.
    """
    import pickle

    from repro.obs.context import QueryContext, query_context
    from repro.obs.metrics import delta_is_empty, snapshot_delta
    from repro.obs.trace import Tracer, spans_to_wire
    from repro.service.catalog import rows_from_wire
    from repro.service.errors import ServiceError
    from repro.service.service import QueryService

    service = QueryService(
        cache_capacity=int(options.get("cache_capacity", 128)),
        workers=1,
        queue_depth=2,
        default_timeout=options.get("default_timeout", 30.0),
        telemetry_capacity=16,
        trace_sample_rate=None,
        handle_prefix="w%dt" % worker_id,
    )
    try:
        for name, table in snapshot.get("tables", {}).items():
            # both wire forms are accepted: TableInfo.wire_payload ships
            # columns for gap-free columnar tables, row lists for the rest
            service.register_table(name, rows_from_wire(table), table.get("schema"))
        for entry in snapshot.get("prepared", []):
            service.prepare(
                entry["language"], entry["text"], handle=entry["handle"], plan=entry.get("plan")
            )
    except Exception as exc:  # noqa: BLE001 - report, then die visibly
        try:
            conn.send(
                {
                    "ok": False,
                    "error": {
                        "kind": "internal_error",
                        "message": "worker warm-up failed: %s" % exc,
                    },
                    "_worker": "w%d" % worker_id,
                }
            )
        except (BrokenPipeError, OSError):
            pass
        return
    fault_injection = bool(options.get("fault_injection"))
    started_at = time.time()
    try:
        catalog_bytes = len(pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - sizing is best-effort
        catalog_bytes = 0
    # Delta baseline: empty, so the first reply also ships what warm-up
    # recorded (table registrations, plan installs) and the leader's
    # fleet mirror shows how this worker got its plans.
    metrics_prev: Dict[str, Any] = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if not isinstance(msg, dict) or msg.get("op") == "_shutdown":
            try:
                conn.send({"ok": True, "_worker": "w%d" % worker_id})
            except (BrokenPipeError, OSError):
                pass
            break
        if msg.get("op") == "_heartbeat":
            metrics_cur = service.metrics.snapshot()
            delta = snapshot_delta(metrics_prev, metrics_cur)
            metrics_prev = metrics_cur
            beat: Dict[str, Any] = {
                "ok": True,
                "_worker": "w%d" % worker_id,
                "_obs": {
                    "resources": worker_resources(service, catalog_bytes, started_at),
                },
            }
            if not delta_is_empty(delta):
                beat["_obs"]["metrics"] = delta
            try:
                conn.send(beat)
            except (BrokenPipeError, OSError):
                break
            continue
        if fault_injection and msg.pop("_inject", None) == "crash":
            os._exit(23)
        obs_in = msg.pop("_obs", None) or {}
        forced_handle = msg.pop("_handle", None)
        plan = msg.pop("_plan", None)
        tracer = None
        try:
            if forced_handle is not None and msg.get("op") == "prepare":
                try:
                    prepared = service.prepare(
                        msg.get("language", "sql"),
                        msg["query"],
                        handle=forced_handle,
                        plan=plan,
                    )
                    response: Dict[str, Any] = {"ok": True, **prepared.describe()}
                except ServiceError as exc:
                    response = {"ok": False, "error": exc.to_payload()}
            else:
                if obs_in.get("record_trace"):
                    tracer = Tracer()
                context = QueryContext.from_wire(obs_in, tracer=tracer)
                with query_context(context):
                    response = service.handle_request(msg)
                encode_result(response, tracer)
        except Exception as exc:  # noqa: BLE001 - the worker loop must survive
            response = {
                "ok": False,
                "error": {
                    "kind": "internal_error",
                    "message": "%s: %s" % (type(exc).__name__, exc),
                },
            }
        response["_worker"] = "w%d" % worker_id
        obs_out: Dict[str, Any] = {}
        if tracer is not None and tracer.roots:
            obs_out["spans"] = spans_to_wire(tracer)
        metrics_cur = service.metrics.snapshot()
        delta = snapshot_delta(metrics_prev, metrics_cur)
        metrics_prev = metrics_cur
        if not delta_is_empty(delta):
            obs_out["metrics"] = delta
        if obs_out:
            response["_obs"] = obs_out
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):
            break
    service.close(wait=False)


class WorkerHandle:
    """The leader's end of one worker: a mailbox and an IO thread.

    :meth:`submit` is thread-safe and non-blocking — it enqueues the
    message and returns a future.  The IO thread serializes the pipe
    (one in-flight round trip per worker by construction), which is
    also what makes broadcast ordering trivial: per-worker FIFO.
    """

    def __init__(
        self,
        worker_id: int,
        process: Any,
        conn: Any,
        on_crash: Optional[Callable[["WorkerHandle"], None]] = None,
    ):
        self.worker_id = worker_id
        self.name = "w%d" % worker_id
        self.process = process
        self._conn = conn
        self._on_crash = on_crash
        self._outbox: "queue.Queue" = queue.Queue()
        self._crashed = False
        #: query id of the request currently on the pipe (None when
        #: idle) — what the crash audit event names as the casualty.
        self.in_flight_query_id: Optional[str] = None
        self._thread = threading.Thread(
            target=self._io_loop, name="repro-worker-io-%d" % worker_id, daemon=True
        )
        self._thread.start()

    @property
    def alive(self) -> bool:
        return not self._crashed and self.process.is_alive()

    def submit(self, msg: Dict[str, Any]) -> "Future":
        future: "Future" = Future()
        self._outbox.put((msg, future))
        return future

    def _io_loop(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:  # shutdown sentinel
                try:
                    self._conn.send({"op": "_shutdown"})
                    self._conn.recv()
                except (EOFError, OSError, BrokenPipeError):
                    pass
                self._conn.close()
                return
            msg, future = item
            self.in_flight_query_id = msg.get("_obs", {}).get("query_id")
            try:
                self._conn.send(msg)
                reply = received_reply(self._conn.recv())
            except (EOFError, OSError, BrokenPipeError) as exc:
                self._crashed = True
                crash = WorkerCrashed(
                    "worker %s crashed mid-query (%s)"
                    % (self.name, exc or type(exc).__name__)
                )
                self._safe_fail(future, crash)
                self._fail_pending(crash)
                try:
                    self._conn.close()
                except OSError:
                    pass
                if self._on_crash is not None:
                    self._on_crash(self)
                return
            self.in_flight_query_id = None
            self._safe_result(future, reply)

    def _fail_pending(self, crash: WorkerCrashed) -> None:
        while True:
            try:
                item = self._outbox.get_nowait()
            except queue.Empty:
                return
            if item is not None:
                self._safe_fail(item[1], crash)

    @staticmethod
    def _safe_result(future: "Future", value: Any) -> None:
        try:
            future.set_result(value)
        except Exception:  # noqa: BLE001 - cancelled concurrently; drop
            pass

    @staticmethod
    def _safe_fail(future: "Future", exc: Exception) -> None:
        try:
            future.set_exception(exc)
        except Exception:  # noqa: BLE001 - cancelled concurrently; drop
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate/kill if it won't."""
        if not self._crashed:
            self._outbox.put(None)
            self._thread.join(timeout=timeout)
        self.process.join(timeout=timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=timeout)


class WorkerPool:
    """N workers, an idle rotation, and crash-respawn supervision.

    ``snapshot_fn`` is called at every (re)spawn, so a replacement
    worker always warms up from the leader's *current* catalog and
    prepared handles — missed broadcasts are made up by construction.
    """

    def __init__(
        self,
        count: int,
        snapshot_fn: Callable[[], Dict[str, Any]],
        mp_start: str = "spawn",
        options: Optional[Dict[str, Any]] = None,
        metrics: Any = None,
        grace: float = 2.0,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ):
        import multiprocessing

        if count < 1:
            raise ValueError("worker pool needs at least one worker, got %d" % count)
        self.count = count
        self.grace = grace
        #: Audit hook: called with ``worker_crash`` / ``worker_respawn``
        #: event dicts (the serve layer routes them to the query log).
        #: Assignable after construction; exceptions are swallowed.
        self.on_event = on_event
        self._snapshot_fn = snapshot_fn
        self._options = dict(options or {})
        self._ctx = multiprocessing.get_context(mp_start)
        self._handles: List[WorkerHandle] = []
        self._ids = iter(range(10**9))
        self._closing = False
        self._loop: Optional[Any] = None
        self._idle: Optional["asyncio.Queue"] = None
        self._lock = threading.Lock()
        if metrics is not None:
            self._respawns = metrics.counter("service.worker.respawns")
            self._lagging = metrics.counter("service.worker.lagging")
        else:
            self._respawns = self._lagging = None

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "WorkerPool":
        """Spawn all workers (blocking: process start + warm-up install)."""
        self._handles = [self._spawn(next(self._ids)) for _ in range(self.count)]
        return self

    def _spawn(self, worker_id: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn, self._snapshot_fn(), self._options),
            name="repro-worker-%d" % worker_id,
            daemon=True,
        )
        process.start()
        child_conn.close()
        return WorkerHandle(worker_id, process, parent_conn, self._handle_crash)

    def bind(self, loop: Any) -> None:
        """Attach to the serving event loop; builds the idle rotation."""
        self._loop = loop
        self._idle = asyncio.Queue()
        for handle in self._handles:
            self._idle.put_nowait(handle)

    @property
    def workers(self) -> List[str]:
        with self._lock:
            return [handle.name for handle in self._handles]

    def describe(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "count": self.count,
                "workers": [
                    {"name": h.name, "alive": h.alive} for h in self._handles
                ],
            }

    def pending(self) -> Dict[str, int]:
        """Per-worker queued-message depth (the /workers pending column)."""
        with self._lock:
            return {h.name: h._outbox.qsize() for h in self._handles}

    def _emit(self, event: Dict[str, Any]) -> None:
        if self.on_event is None:
            return
        try:
            self.on_event(event)
        except Exception:  # noqa: BLE001 - audit must never break supervision
            pass

    # -- request path -----------------------------------------------------

    async def acquire(self, timeout: Optional[float] = None) -> WorkerHandle:
        """Wait for an idle worker; ``asyncio.TimeoutError`` on deadline."""
        assert self._idle is not None, "pool.bind(loop) was not called"
        if timeout is None:
            return await self._idle.get()
        return await asyncio.wait_for(self._idle.get(), max(0.001, timeout))

    def release(self, handle: WorkerHandle) -> None:
        if self._idle is not None and not self._closing and handle.alive:
            self._idle.put_nowait(handle)

    async def request(
        self,
        handle: WorkerHandle,
        msg: Dict[str, Any],
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One round trip on an *acquired* worker; returns it on success.

        The wait budget is ``timeout + grace``: the worker's own
        executor enforces ``timeout`` and answers with a structured
        ``timeout`` error, so the leader-side deadline only fires when
        the worker is truly wedged.  On that lagging path the worker is
        NOT released — a done-callback reclaims it whenever the late
        reply finally lands (or leaves it dead if the reply was a
        crash).  :class:`WorkerCrashed` propagates to the caller; the
        crash hook has already respawned a replacement.
        """
        future = handle.submit(msg)
        wrapped = asyncio.ensure_future(asyncio.wrap_future(future))
        budget = None if timeout is None else timeout + self.grace
        try:
            if budget is None:
                reply = await asyncio.shield(wrapped)
            else:
                reply = await asyncio.wait_for(
                    asyncio.shield(wrapped), max(0.001, budget)
                )
        except asyncio.TimeoutError:
            if self._lagging is not None:
                self._lagging.inc()
            wrapped.add_done_callback(lambda f: self._reclaim(handle, f))
            raise
        except WorkerCrashed:
            raise  # _handle_crash respawned; the dead handle stays out
        self.release(handle)
        return reply

    def _reclaim(self, handle: WorkerHandle, future: Any) -> None:
        """A lagging worker finally answered (or died): recycle or drop."""
        if future.cancelled() or future.exception() is not None:
            return  # crash path: _handle_crash already put a replacement in
        self.release(handle)

    async def broadcast(
        self, msg: Dict[str, Any], timeout: float = 60.0
    ) -> List[Any]:
        """Send ``msg`` to every worker; per-worker FIFO keeps ordering.

        Returns one entry per worker: the reply dict, or the exception
        that worker produced (crashed workers respawn from a snapshot
        taken *after* the leader applied the change, so they catch up).
        """
        with self._lock:
            handles = list(self._handles)
        futures = [
            asyncio.ensure_future(asyncio.wrap_future(h.submit(dict(msg))))
            for h in handles
        ]
        done = await asyncio.wait_for(
            asyncio.gather(*futures, return_exceptions=True), timeout
        )
        return list(done)

    # -- supervision ------------------------------------------------------

    def _handle_crash(self, dead: WorkerHandle) -> None:
        """IO-thread hook: replace a dead worker with a warm one."""
        if self._closing:
            return
        if self._respawns is not None:
            self._respawns.inc()
        crash_event: Dict[str, Any] = {"event": "worker_crash", "worker": dead.name}
        if dead.in_flight_query_id is not None:
            crash_event["query_id"] = dead.in_flight_query_id
        self._emit(crash_event)
        try:
            dead.process.join(timeout=1.0)
        except (OSError, ValueError):  # pragma: no cover - already reaped
            pass
        try:
            replacement = self._spawn(next(self._ids))
        except Exception:  # noqa: BLE001 - pragma: no cover - spawn failed
            return
        self._emit(
            {
                "event": "worker_respawn",
                "worker": replacement.name,
                "replaced": dead.name,
            }
        )
        with self._lock:
            for index, handle in enumerate(self._handles):
                if handle is dead:
                    self._handles[index] = replacement
                    break
        if self._loop is not None and self._idle is not None:
            try:
                self._loop.call_soon_threadsafe(self._idle.put_nowait, replacement)
            except RuntimeError:
                pass  # the loop is gone; the next bind() rebuilds the rotation

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (graceful ``_shutdown``, then escalate)."""
        self._closing = True
        with self._lock:
            handles = list(self._handles)
        for handle in handles:
            handle.shutdown(timeout=timeout)


__all__ = [
    "EncodedResult",
    "WorkerCrashed",
    "WorkerHandle",
    "WorkerPool",
    "catalog_snapshot",
    "decode_reply",
    "encode_result",
    "received_reply",
    "worker_main",
    "worker_resources",
]
