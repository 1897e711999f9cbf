"""Tests for the asyncio network front end (repro.service.net).

The serving contract under test:

- the HTTP and TCP transports speak the existing JSON wire protocol,
  status-mapped from the structured error taxonomy;
- every response — including sheds under overload and worker crashes
  mid-query — is exactly one of ``ok / overloaded / timeout /
  runtime_error / bad_request`` (or ``compile_error`` for bad query
  text) with a valid 16-hex ``query_id``; a client never hangs;
- control ops broadcast to every worker, so any worker can serve any
  prepared handle;
- graceful drain stops admission, finishes in-flight work, and writes
  the final ``shutdown`` audit event to the query log.

Worker processes are expensive to spawn, so the live server is
module-scoped; drain tests build their own throwaway servers.
"""

import http.client
import json
import re
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.log import read_events
from repro.service import QueryService, ServeNetServer, WorkerPool, catalog_snapshot
from repro.service.net import render
from repro.service.worker import EncodedResult, decode_reply, encode_result, received_reply

ROWS = [
    {"name": "ann", "age": 40},
    {"name": "bob", "age": 20},
    {"name": "cyd", "age": 31},
]

#: Kinds a work request may legally produce (hammer test; satellite 3).
WORK_KINDS = {"ok", "overloaded", "timeout", "runtime_error", "bad_request"}

_QUERY_ID = re.compile(r"^[0-9a-f]{16}$")


@pytest.fixture(scope="module")
def stack(tmp_path_factory):
    log_path = str(tmp_path_factory.mktemp("net") / "query_log.jsonl")
    service = QueryService(trace_sample_rate=None, query_log=log_path)
    service.register_table("people", ROWS)
    service.prepare("sql", "select name from people where age > $min")
    # A bulk table whose aggregate costs real CPU, so a tiny deadline
    # reliably trips the worker-side executor timeout.
    service.register_table(
        "bulk",
        [{"qty": i % 50, "price": float(i % 97)} for i in range(20000)],
    )
    service.prepare("sql", "select sum(price) as total from bulk where qty > $min")
    pool = WorkerPool(
        2,
        lambda: catalog_snapshot(service),
        options={"fault_injection": True},
        metrics=service.metrics,
    ).start()
    server = ServeNetServer(
        service, pool=pool, http_port=0, tcp_port=0, queue_depth=2
    ).start_background()
    yield service, server, log_path
    server.stop_background()


def post(server, payload, timeout=60.0):
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/", body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def get(server, path, timeout=30.0):
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        conn.close()


# -- HTTP transport --------------------------------------------------------


def test_execute_over_http(stack):
    _, server, _ = stack
    status, body = post(
        server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert status == 200
    assert body["ok"]
    assert sorted(row["name"] for row in body["result"]) == ["ann", "cyd"]
    assert _QUERY_ID.match(body["query_id"])


def test_bad_handle_is_400_bad_request(stack):
    _, server, _ = stack
    status, body = post(server, {"op": "execute", "handle": "nope"})
    assert status == 400
    assert body["error"]["kind"] == "bad_request"
    assert _QUERY_ID.match(body["query_id"])


def test_compile_error_is_400(stack):
    _, server, _ = stack
    status, body = post(server, {"op": "query", "query": "select from from"})
    assert status == 400
    assert body["error"]["kind"] == "compile_error"


def test_malformed_json_is_400(stack):
    _, server, _ = stack
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("POST", "/", body="{not json")
        response = conn.getresponse()
        assert response.status == 400
        body = json.loads(response.read().decode("utf-8"))
        assert body["error"]["kind"] == "bad_request"
    finally:
        conn.close()


def test_tiny_deadline_is_504_timeout(stack):
    _, server, _ = stack
    status, body = post(
        server,
        {"op": "execute", "handle": "q2", "params": {"min": 5}, "timeout": 1e-9},
    )
    assert status == 504
    assert body["error"]["kind"] == "timeout"
    assert _QUERY_ID.match(body["query_id"])


def test_keep_alive_reuses_one_connection(stack):
    _, server, _ = stack
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        for _ in range(3):
            conn.request(
                "POST",
                "/",
                body=json.dumps(
                    {"op": "execute", "handle": "q1", "params": {"min": 25}}
                ),
            )
            response = conn.getresponse()
            assert response.status == 200
            json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def test_obs_routes_on_the_query_port(stack):
    _, server, _ = stack
    status, body = get(server, "/healthz")
    assert (status, body.strip()) == (200, "ok")
    status, body = get(server, "/stats")
    assert status == 200
    stats = json.loads(body)
    assert "plan_cache" in stats and "metrics" in stats
    status, body = get(server, "/metrics")
    assert status == 200
    assert "repro_service_admitted_total" in body
    assert "repro_service_shed_total" in body
    status, _ = get(server, "/telemetry")
    assert status == 200
    status, _ = get(server, "/definitely-not-a-route")
    assert status == 404


def test_method_not_allowed(stack):
    _, server, _ = stack
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("PUT", "/", body="{}")
        assert conn.getresponse().status == 405
    finally:
        conn.close()


# -- control-op broadcast --------------------------------------------------


def test_register_and_prepare_broadcast_to_all_workers(stack):
    _, server, _ = stack
    status, body = post(
        server,
        {
            "op": "register",
            "table": "pets",
            "rows": [{"pet": "cat"}, {"pet": "dog"}],
        },
    )
    assert status == 200 and body["ok"]
    status, body = post(server, {"op": "prepare", "query": "select pet from pets"})
    assert status == 200 and body["ok"]
    handle = body["handle"]
    # Enough executions that (with two workers round-robining) both
    # must serve the new handle — a worker that missed the broadcast
    # would answer bad_request.
    for _ in range(6):
        status, body = post(server, {"op": "execute", "handle": handle})
        assert status == 200, body
        assert body["ok"], body
        assert sorted(row["pet"] for row in body["result"]) == ["cat", "dog"]


def test_per_worker_metrics_appear(stack):
    service, server, _ = stack
    for _ in range(4):
        post(server, {"op": "execute", "handle": "q1", "params": {"min": 25}})
    counters = service.metrics.snapshot()["counters"]
    worker_ok = {
        name: count
        for name, count in counters.items()
        if re.match(r"service\.worker\.w\d+\.ok$", name)
    }
    assert worker_ok, "no per-worker ok counters recorded"
    assert sum(worker_ok.values()) >= 4


def test_worker_label_lands_in_query_log(stack):
    service, server, log_path = stack
    status, body = post(
        server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert status == 200
    events = [
        e
        for e in read_events(log_path)
        if e["event"] == "query" and e["query_id"] == body["query_id"]
    ]
    assert len(events) == 1
    assert re.match(r"^w\d+$", events[0]["worker"])


# -- the taxonomy hammer (satellite 3) ------------------------------------


def test_hammer_past_admission_bound_taxonomy_holds(stack):
    """Overload the front end; every answer is structured, nobody hangs,
    and every shed a client saw is counted in the leader's service.shed."""
    service, server, _ = stack
    shed_before = service.metrics.counter("service.shed").value
    results = []
    lock = threading.Lock()

    def client(n):
        host, port = server.endpoints()["http"]
        conn = http.client.HTTPConnection(host, port, timeout=60.0)
        try:
            for _ in range(5):
                conn.request(
                    "POST",
                    "/",
                    body=json.dumps(
                        {"op": "execute", "handle": "q1", "params": {"min": 25}}
                    ),
                )
                response = conn.getresponse()
                body = json.loads(response.read().decode("utf-8"))
                with lock:
                    results.append((response.status, body))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert all(not t.is_alive() for t in threads), "a client hung"
    assert len(results) == 16 * 5
    kinds = []
    for status, body in results:
        if body.get("ok"):
            kinds.append("ok")
            assert status == 200
        else:
            kind = body["error"]["kind"]
            kinds.append(kind)
            assert kind in WORK_KINDS, body
            if kind == "overloaded":
                assert status == 503
        assert _QUERY_ID.match(str(body.get("query_id", ""))), body
    assert kinds.count("ok") > 0
    shed_seen = sum(1 for _, body in results if body.get("shed") is True)
    assert service.metrics.counter("service.shed").value - shed_before == shed_seen


def test_sheds_are_counted_in_service_shed(stack):
    service, server, _ = stack
    before = service.metrics.counter("service.shed").value
    # Fill every admission slot by hand, then drive one request through
    # the wire: it must shed, and the shed must land in service.shed.
    taken = 0
    while server.admission.try_admit():
        taken += 1
    try:
        status, body = post(
            server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
        )
    finally:
        for _ in range(taken):
            server.admission.release()
    assert status == 503
    assert body["error"]["kind"] == "overloaded"
    assert body.get("shed") is True
    assert _QUERY_ID.match(body["query_id"])
    assert service.metrics.counter("service.shed").value > before


# -- worker crash mid-query ------------------------------------------------


def test_worker_crash_is_structured_runtime_error(stack):
    _, server, _ = stack
    status, body = post(
        server,
        {"op": "execute", "handle": "q1", "params": {"min": 25}, "_inject": "crash"},
        timeout=60.0,
    )
    assert status == 500
    assert body["error"]["kind"] == "runtime_error"
    assert "crashed" in body["error"]["message"]
    assert _QUERY_ID.match(body["query_id"])
    # The pool respawned: the very next executes succeed on the same handle.
    for _ in range(4):
        status, body = post(
            server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
        )
        assert status == 200, body
        assert body["ok"], body


def test_crash_respawn_counter(stack):
    service, _, _ = stack
    assert service.metrics.counter("service.worker.respawns").value >= 1


# -- TCP JSON-lines transport ----------------------------------------------


def test_tcp_json_lines_roundtrip(stack):
    _, server, _ = stack
    host, port = server.endpoints()["tcp"]
    with socket.create_connection((host, port), timeout=30.0) as sock:
        stream = sock.makefile("rw", encoding="utf-8")
        for params, expect in (({"min": 25}, 2), ({"min": 0}, 3)):
            stream.write(
                json.dumps({"op": "execute", "handle": "q1", "params": params})
                + "\n"
            )
            stream.flush()
            reply = json.loads(stream.readline())
            assert reply["ok"], reply
            assert len(reply["result"]) == expect
        stream.write("not json\n")
        stream.flush()
        reply = json.loads(stream.readline())
        assert reply["error"]["kind"] == "bad_request"


# -- in-process mode (workers=0) ------------------------------------------


def test_in_process_mode_serves_without_a_pool():
    service = QueryService(trace_sample_rate=None, workers=2)
    service.register_table("people", ROWS)
    prepared = service.prepare("sql", "select name from people where age > $min")
    server = ServeNetServer(
        service, pool=None, http_port=0, queue_depth=2
    ).start_background()
    try:
        status, body = post(
            server, {"op": "execute", "handle": prepared.handle, "params": {"min": 25}}
        )
        assert status == 200
        assert body["ok"]
        assert len(body["result"]) == 2
    finally:
        server.stop_background()


def test_needs_at_least_one_transport():
    service = QueryService(trace_sample_rate=None)
    with pytest.raises(ValueError):
        ServeNetServer(service)
    service.close(wait=False)


# -- graceful drain --------------------------------------------------------


def test_shutdown_op_drains_and_audits(tmp_path):
    log_path = str(tmp_path / "log.jsonl")
    service = QueryService(trace_sample_rate=None, query_log=log_path)
    service.register_table("people", ROWS)
    server = ServeNetServer(service, http_port=0, queue_depth=2).start_background()
    status, body = post(server, {"op": "query", "query": "select name from people"})
    assert status == 200 and body["ok"]
    status, body = post(server, {"op": "shutdown"})
    assert status == 200 and body["ok"]
    assert body["served"] == 1
    server.stop_background()
    kinds = [event["event"] for event in read_events(log_path)]
    assert kinds.count("shutdown") == 1
    shutdown = [e for e in read_events(log_path) if e["event"] == "shutdown"][0]
    assert shutdown["reason"] == "shutdown_op"
    assert shutdown["served"] >= 1


def test_draining_server_sheds_new_work(tmp_path):
    service = QueryService(trace_sample_rate=None)
    service.register_table("people", ROWS)
    prepared = service.prepare("sql", "select name from people")
    server = ServeNetServer(service, http_port=0, queue_depth=2).start_background()
    # Flip admission into draining *without* tearing the listener down
    # yet: new work must come back as structured `overloaded`.
    server.admission.start_drain()
    status, body = post(server, {"op": "execute", "handle": prepared.handle})
    assert status == 503
    assert body["error"]["kind"] == "overloaded"
    assert "draining" in body["error"]["message"]
    assert _QUERY_ID.match(body["query_id"])
    server.stop_background()


def test_stop_background_is_idempotent(tmp_path):
    service = QueryService(trace_sample_rate=None)
    server = ServeNetServer(service, http_port=0).start_background()
    server.stop_background()
    server.stop_background()


# -- distributed tracing and fleet observability ---------------------------
#
# One query = one trace across processes: the leader ships QueryContext
# over the pipe, the worker spans under the same id and piggybacks its
# fragment on the reply, the leader stitches and tail-samples the merged
# trace.  These tests need head sampling at 1.0 and a fast heartbeat, so
# they run on their own module-scoped stack.


@pytest.fixture(scope="module")
def traced_stack(tmp_path_factory):
    log_path = str(tmp_path_factory.mktemp("traced") / "query_log.jsonl")
    service = QueryService(trace_sample_rate=1.0, query_log=log_path)
    service.register_table("people", ROWS)
    service.prepare("sql", "select name from people where age > $min")
    pool = WorkerPool(
        2,
        lambda: catalog_snapshot(service),
        options={"fault_injection": True},
        metrics=service.metrics,
    ).start()
    server = ServeNetServer(
        service, pool=pool, http_port=0, queue_depth=4, heartbeat_interval=0.2
    ).start_background()
    yield service, server, log_path
    server.stop_background()


def _wait_for(predicate, timeout=20.0, interval=0.1):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return predicate()


def test_merged_trace_has_leader_and_worker_lanes(traced_stack):
    _, server, _ = traced_stack
    status, body = post(
        server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert status == 200 and body["ok"]
    query_id = body["query_id"]
    status, text = get(server, "/trace/" + query_id)
    assert status == 200, text
    fragment = json.loads(text)
    assert fragment["query_id"] == query_id
    lanes = {p["process"]: p["spans"] for p in fragment["processes"]}
    assert "leader" in lanes
    worker_lanes = [name for name in lanes if re.match(r"^w\d+$", name)]
    assert worker_lanes, lanes.keys()
    leader_names = [span["name"] for span in lanes["leader"]]
    assert "serve.acquire" in leader_names
    assert "serve.dispatch" in leader_names
    assert lanes[worker_lanes[0]], "worker lane shipped no spans"
    # The pre-merged chrome events place each process in its own pid lane.
    metadata = [e for e in fragment["events"] if e["ph"] == "M"]
    assert {m["args"]["name"] for m in metadata} >= {"leader", worker_lanes[0]}
    pids = {e["pid"] for e in fragment["events"] if e["ph"] == "X"}
    assert len(pids) >= 2, "spans all landed in one lane"


def test_trace_available_over_wire_op_and_404_when_unknown(traced_stack):
    _, server, _ = traced_stack
    status, body = post(
        server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert status == 200
    status, reply = post(server, {"op": "trace", "query_id": body["query_id"]})
    assert status == 200 and reply["ok"]
    assert reply["trace"]["query_id"] == body["query_id"]
    status, text = get(server, "/trace/" + "f" * 16)
    assert status == 404
    assert "no kept trace" in json.loads(text)["error"]


def test_workers_route_reports_fleet_health_and_resources(traced_stack):
    _, server, _ = traced_stack

    def resourced_view():
        status, text = get(server, "/workers")
        assert status == 200
        view = json.loads(text)
        if all("resources" in w for w in view["workers"]):
            return view
        return None

    view = _wait_for(resourced_view)
    assert view is not None, "heartbeats never delivered resources"
    assert view["count"] == 2
    live = [w for w in view["workers"] if not w.get("retired")]
    assert len(live) == 2
    for worker in live:
        assert re.match(r"^w\d+$", worker["name"])
        assert worker["alive"] is True
        assert worker["heartbeat_age_seconds"] < 30.0
        resources = worker["resources"]
        assert resources["rss_bytes"] > 0
        assert resources["catalog_bytes"] > 0
        assert resources["uptime_seconds"] >= 0.0
        assert "plan_cache_entries" in resources


def test_worker_labeled_series_reach_metrics_exposition(traced_stack):
    from tests.promtext import parse_prometheus

    _, server, _ = traced_stack
    for _ in range(3):
        post(server, {"op": "execute", "handle": "q1", "params": {"min": 25}})

    def scraped():
        status, text = get(server, "/metrics")
        assert status == 200
        families = parse_prometheus(text)
        if "repro_worker_resource_rss_bytes" in families:
            return families
        return None

    families = _wait_for(scraped)
    assert families is not None, "no fleet families in /metrics"
    rss = families["repro_worker_resource_rss_bytes"]
    workers = {labels["worker"] for _, labels, _ in rss.samples}
    assert workers and all(re.match(r"^w\d+$", w) for w in workers)
    assert all(value > 0 for _, _, value in rss.samples)
    # Query work shipped as deltas: some repro_worker_* counter family
    # must carry per-worker execution counts.
    executed = [
        family
        for name, family in families.items()
        if name.startswith("repro_worker_") and family.kind == "counter"
        and any(value > 0 for _, _, value in family.samples)
    ]
    assert executed, "no non-zero per-worker counters"


def test_crash_audit_event_carries_in_flight_query_id(traced_stack):
    service, server, log_path = traced_stack
    status, body = post(
        server,
        {"op": "execute", "handle": "q1", "params": {"min": 25}, "_inject": "crash"},
        timeout=60.0,
    )
    assert status == 500
    assert body["error"]["kind"] == "runtime_error"
    query_id = body["query_id"]
    assert _QUERY_ID.match(query_id)

    def audited():
        crashes = [
            e for e in read_events(log_path) if e["event"] == "worker_crash"
        ]
        return crashes if crashes else None

    crashes = _wait_for(audited, timeout=30.0)
    assert crashes, "no worker_crash audit event in the query log"
    assert any(e.get("query_id") == query_id for e in crashes), crashes
    assert re.match(r"^w\d+$", crashes[-1]["worker"])
    respawns = _wait_for(
        lambda: [e for e in read_events(log_path) if e["event"] == "worker_respawn"]
        or None,
        timeout=30.0,
    )
    assert respawns, "no worker_respawn audit event in the query log"
    assert respawns[-1]["replaced"]
    counters = service.metrics.snapshot()["counters"]
    assert counters.get("service.worker.events.worker_crash", 0) >= 1
    assert counters.get("service.worker.events.worker_respawn", 0) >= 1


def test_repro_trace_cli_renders_the_merged_tree(traced_stack):
    from repro.cli import main

    _, server, _ = traced_stack
    status, body = post(
        server, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert status == 200 and body["ok"]
    host, port = server.endpoints()["http"]
    url = "http://%s:%d" % (host, port)
    import io

    out = io.StringIO()
    code = main(["trace", body["query_id"], "--url", url], out=out)
    assert code == 0, out.getvalue()
    rendered = out.getvalue()
    assert body["query_id"] in rendered
    assert "[leader]" in rendered
    assert re.search(r"\[w\d+\]", rendered)
    out = io.StringIO()
    code = main(["trace", "f" * 16, "--url", url], out=out)
    assert code != 0
    # --json mode emits the raw fragment
    out = io.StringIO()
    code = main(["trace", body["query_id"], "--url", url, "--json"], out=out)
    assert code == 0
    assert json.loads(out.getvalue())["query_id"] == body["query_id"]


# -- the worker-encoded reply ---------------------------------------------
#
# A worker encodes an ok reply's result once (EncodedResult); the leader
# splices that text into the body.  Every body must still be exactly
# json.dumps(response) + "\n" of the decoded response.


def _raw_http(server, request_bytes, timeout=30.0):
    """Send raw bytes; return (status, headers, body bytes) of one reply."""
    host, port = server.endpoints()["http"]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(request_bytes)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return int(lines[0].split()[1]), headers, body


def _post_raw(server, payload, timeout=60.0):
    """POST ``payload``; the reply's status and undecoded body bytes."""
    host, port = server.endpoints()["http"]
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("POST", "/", body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_bad_content_length_is_400_naming_the_header(stack, length):
    _, server, _ = stack
    status, headers, body = _raw_http(
        server,
        b"POST / HTTP/1.1\r\nHost: x\r\nContent-Length: %s\r\n\r\n{}"
        % length.encode("latin-1"),
    )
    assert status == 400
    assert headers["connection"] == "close"
    assert int(headers["content-length"]) == len(body)
    reply = json.loads(body.decode("utf-8"))
    assert reply["error"]["kind"] == "bad_request"
    assert "Content-Length" in reply["error"]["message"]
    assert repr(length) in reply["error"]["message"]


def test_telemetry_rows_equal_the_worker_reply_row_count(stack):
    _, server, _ = stack
    requests = [
        {"op": "execute", "handle": "q1", "params": {"min": 25}},
        {"op": "execute", "handle": "q1", "params": {"min": 100}},  # 0 rows
        {
            "op": "query",
            "language": "oql",
            "query": "sum(select p.age from p in people)",  # a scalar
        },
    ]
    replies = []
    for request in requests:
        status, body = post(server, request)
        assert status == 200 and body["ok"], body
        replies.append(body)
    assert [len(r["result"]) for r in replies[:2]] == [2, 0]
    assert replies[2]["result"] == 91
    status, text = get(server, "/telemetry?n=200")
    assert status == 200
    by_id = {q.get("query_id"): q for q in json.loads(text)["queries"]}
    for reply in replies:
        record = by_id[reply["query_id"]]
        assert re.match(r"^w\d+$", record["worker"]), record
        want = len(reply["result"]) if isinstance(reply["result"], list) else None
        assert record.get("rows") == want, (record, reply)


def test_traced_worker_request_has_an_encode_span_sized_as_the_result(traced_stack):
    _, server, _ = traced_stack
    status, raw = _post_raw(server, {"op": "execute", "handle": "q1", "params": {"min": 0}})
    assert status == 200
    body = json.loads(raw.decode("utf-8"))
    assert len(body["result"]) == 3
    segment = json.dumps(body["result"]).encode("utf-8")
    assert b'"result": ' + segment in raw
    status, text = get(server, "/trace/" + body["query_id"])
    assert status == 200, text
    lanes = {p["process"]: p["spans"] for p in json.loads(text)["processes"]}

    def walk(spans):
        for span in spans:
            yield span
            yield from walk(span.get("children", ()))

    encodes = [
        span
        for name, spans in lanes.items()
        if re.match(r"^w\d+$", name)
        for span in walk(spans)
        if span["name"] == "serve.encode"
    ]
    assert len(encodes) == 1, lanes
    assert encodes[0]["args"]["bytes"] == len(segment)
    assert encodes[0]["args"]["rows"] == 3
    assert not [s for s in walk(lanes["leader"]) if s["name"] == "serve.encode"]


DATED = [
    {
        "k": i,
        "d": {"$date": "1995-%02d-%02d" % (i % 12 + 1, i % 28 + 1)},
        "name": ["ann", "zoë", "李", "bob\n\"q\""][i % 4],
        "price": [1.5, 0.1, 1e300, -0.0, 3][i % 5],
    }
    for i in range(40)
]
DATED_SQL = "select k, d, name, price from dated where k >= $min"


def _dated_service(**kwargs):
    service = QueryService(trace_sample_rate=None, **kwargs)
    service.register_table("dated", DATED)
    service.prepare("sql", DATED_SQL)
    return service


@pytest.mark.parametrize("workers", [1, 0])
def test_http_and_tcp_bodies_match_in_process_json_dumps(workers):
    reference = _dated_service()
    request = {"op": "execute", "handle": "q1", "params": {"min": 3}}
    try:
        expected = reference.handle_request(dict(request))
        assert expected["ok"] and len(expected["result"]) == 37
        want = json.dumps(expected["result"]).encode("utf-8")
    finally:
        reference.close(wait=False)
    service = _dated_service()
    pool = None
    if workers:
        pool = WorkerPool(workers, lambda: catalog_snapshot(service)).start()
    server = ServeNetServer(
        service, pool=pool, http_port=0, tcp_port=0, heartbeat_interval=0
    ).start_background()
    try:
        status, http_body = _post_raw(server, request)
        assert status == 200
        host, port = server.endpoints()["tcp"]
        with socket.create_connection((host, port), timeout=30.0) as sock:
            stream = sock.makefile("rwb")
            stream.write((json.dumps(request) + "\n").encode("utf-8"))
            stream.flush()
            tcp_body = stream.readline()
        for body in (http_body, tcp_body):
            decoded = json.loads(body.decode("utf-8"))
            assert decoded["ok"], decoded
            assert body == (json.dumps(decoded) + "\n").encode("utf-8")
            assert list(decoded) == list(expected)
            assert json.dumps(decoded["result"]).encode("utf-8") == want
            assert b'"result": ' + want + b", " in body
    finally:
        server.stop_background()


# The byte-identity property of render: a response whose result is the
# worker's EncodedResult renders as json.dumps of the plain response.

_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    _texts,
)
_dates = st.dates().map(lambda d: {"$date": d.isoformat()})


def _containers(children):
    records = st.dictionaries(_texts, children, max_size=5)
    return st.one_of(
        st.lists(children, max_size=5),
        records,
        records.map(lambda r: {"$record": r}),
    )


_values = st.recursive(st.one_of(_scalars, _dates), _containers, max_leaves=30)
_results = st.one_of(
    st.just([]),
    _scalars,
    st.lists(st.dictionaries(_texts, _values, max_size=6), max_size=8),
    _values,
)


@st.composite
def _responses(draw):
    response = {"ok": True, "result": draw(_results), "seconds": draw(st.floats(0, 10))}
    if draw(st.booleans()):
        response["analysis"] = {"peak_rows": draw(st.integers(0, 99)), "hot": [draw(_texts)]}
    response["query_id"] = draw(st.text("0123456789abcdef", min_size=16, max_size=16))
    if draw(st.booleans()):
        response["handle"] = draw(_texts)
    return response


@settings(max_examples=300, deadline=None)
@given(_responses())
def test_render_of_the_worker_form_is_json_dumps(response):
    want = (json.dumps(response) + "\n").encode("utf-8")
    assert render(response) == want
    worker_form = dict(response)
    encode_result(worker_form)
    received_reply(worker_form)
    assert isinstance(worker_form["result"], EncodedResult)
    assert list(worker_form) == list(response)
    assert render(worker_form) == want
    rows = response["result"]
    assert worker_form["result"].rows == (len(rows) if isinstance(rows, list) else None)
    decoded = decode_reply(worker_form)
    assert json.dumps(decoded) == json.dumps(response)


def test_render_matches_json_dumps_on_fixed_replies():
    for response in (
        {"ok": False, "error": {"kind": "timeout", "message": "late"}, "query_id": "ab"},
        {"ok": True, "result": [{"a": 1}], "query_id": "cd"},
        {"ok": True, "handle": "q1", "params": ["min"]},
    ):
        worker_form = dict(response)
        encode_result(worker_form)
        received_reply(worker_form)
        assert render(worker_form) == (json.dumps(response) + "\n").encode("utf-8")
    with pytest.raises(TypeError):
        json.dumps({"result": EncodedResult("[]", 0)})
