"""Compile once per fleet: workers install the leader's optimized plan.

A ``prepare`` optimizes on the leader only.  The leader ships the plan
as :meth:`CompiledPlan.artifact` data (the optimized NRAe as an
S-expression) on the ``prepare`` broadcast and in every worker
snapshot, and a worker rebuilds the served callable from it by running
the lowering tail alone.  These tests pin that:

- the artifact survives JSON and rebuilds the same NRAe and the same
  generated Python, for every TPC-H template and benchmark statement;
- over a live two-worker server, one ``prepare`` optimizes once, and
  each worker's fleet mirror shows an install and no compile;
- a respawned worker answers existing handles from installed plans;
- an artifact whose key does not match the text is not trusted.
"""

import http.client
import json
import re
import time

import pytest

from repro.compiler import pipeline
from repro.service import QueryService, ServeNetServer, WorkerPool, catalog_snapshot
from repro.service.prepared import CompiledPlan, compile_plan, parse_query

ROWS = [
    {"name": "ann", "age": 40},
    {"name": "bob", "age": 20},
    {"name": "cyd", "age": 31},
]


def _statements():
    from bench.workloads import WORKLOADS
    from repro.tpch.queries import QUERIES, QUERY_NAMES

    named = [(name, QUERIES[name]) for name in QUERY_NAMES]
    named += [(w.name, w.sql) for w in WORKLOADS if w.sql is not None]
    return named


def _source(plan):
    """Generated source with the per-compile unique function name blanked."""
    return re.sub(r"\bserved__c\d+\b", "served", plan.callable.__source__)


def _pool(plan):
    return plan.callable.__globals__["_pool"]


@pytest.mark.parametrize("name,text", _statements(), ids=[n for n, _ in _statements()])
def test_artifact_round_trips_through_json(name, text):
    compiled = compile_plan("sql", parse_query("sql", text))
    artifact = json.loads(json.dumps(compiled.artifact()))
    installed = CompiledPlan.from_artifact(artifact)
    assert installed.key == compiled.key
    assert installed.params == compiled.params
    assert installed.nraenv == compiled.nraenv
    assert _source(installed) == _source(compiled)
    assert _pool(installed) == _pool(compiled)


def test_artifact_is_built_once():
    compiled = compile_plan("sql", parse_query("sql", "select a from t"))
    assert compiled.artifact() is compiled.artifact()


# -- installing on a service --------------------------------------------------


def _counting_optimizer(monkeypatch):
    calls = []
    real = pipeline.optimize_nraenv

    def counted(plan):
        calls.append(plan)
        return real(plan)

    monkeypatch.setattr(pipeline, "optimize_nraenv", counted)
    return calls


def _counter(service, name):
    return service.metrics.snapshot()["counters"].get(name, 0)


def _compiles(service):
    return service.metrics.histogram("service.compile_ms").count


def _names(service, handle, **params):
    response = service.handle_request({"op": "execute", "handle": handle, "params": params})
    assert response["ok"], response
    return sorted(row["name"] for row in response["result"])


def test_matching_artifact_installs_without_optimizing(monkeypatch):
    text = "select name from people where age > $min"
    leader = QueryService(trace_sample_rate=None)
    artifact = leader.prepare("sql", text).plan.artifact()
    calls = _counting_optimizer(monkeypatch)
    worker = QueryService(trace_sample_rate=None)
    worker.register_table("people", ROWS)
    try:
        prepared = worker.prepare("sql", text, handle="q1", plan=artifact)
        assert calls == []
        assert _counter(worker, "service.plan.installed") == 1
        assert _compiles(worker) == 0
        assert _names(worker, prepared.handle, min=25) == ["ann", "cyd"]
    finally:
        leader.close()
        worker.close()


def test_mismatched_artifact_compiles_the_text():
    leader = QueryService(trace_sample_rate=None)
    worker = QueryService(trace_sample_rate=None)
    worker.register_table("people", ROWS)
    try:
        wrong = leader.prepare("sql", "select age from people").plan.artifact()
        prepared = worker.prepare(
            "sql", "select name from people where age > $min", handle="q1", plan=wrong
        )
        assert _counter(worker, "service.plan.artifact_mismatch") == 1
        assert _counter(worker, "service.plan.installed") == 0
        assert _compiles(worker) == 1
        assert prepared.plan.key != wrong["key"]
        assert _names(worker, "q1", min=25) == ["ann", "cyd"]
    finally:
        leader.close()
        worker.close()


def test_undecodable_artifact_compiles_the_text():
    text = "select name from people"
    leader = QueryService(trace_sample_rate=None)
    worker = QueryService(trace_sample_rate=None)
    worker.register_table("people", ROWS)
    try:
        broken = dict(leader.prepare("sql", text).plan.artifact(), plan="(map (unop")
        worker.prepare("sql", text, handle="q1", plan=broken)
        assert _counter(worker, "service.plan.artifact_mismatch") == 1
        assert _compiles(worker) == 1
        assert _names(worker, "q1") == ["ann", "bob", "cyd"]
    finally:
        leader.close()
        worker.close()


def test_cache_hit_ignores_the_artifact():
    text = "select name from people"
    worker = QueryService(trace_sample_rate=None)
    try:
        artifact = worker.prepare("sql", text).plan.artifact()
        worker.prepare("sql", text, handle="q9", plan=artifact)
        assert _counter(worker, "service.plan.installed") == 0
        assert _compiles(worker) == 1
    finally:
        worker.close()


# -- over a live two-worker server ------------------------------------------


@pytest.fixture(scope="module")
def fleet_stack():
    service = QueryService(trace_sample_rate=None)
    service.register_table("people", ROWS)
    pool = WorkerPool(
        2,
        lambda: catalog_snapshot(service),
        options={"fault_injection": True},
        metrics=service.metrics,
    ).start()
    server = ServeNetServer(
        service, pool=pool, http_port=0, heartbeat_interval=60.0
    ).start_background()
    yield service, pool, server
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


def _mirror(service, worker):
    snapshot = service.fleet.registry(worker).snapshot()
    compiles = snapshot["histograms"].get("service.compile_ms", {}).get("count", 0)
    return snapshot["counters"], compiles


def test_prepare_optimizes_once_per_fleet(fleet_stack, monkeypatch):
    service, pool, server = fleet_stack
    calls = _counting_optimizer(monkeypatch)
    before = {w: _mirror(service, w)[0].get("service.plan.installed", 0) for w in pool.workers}
    status, body = post(server, {"op": "prepare", "query": "select name from people"})
    assert status == 200 and body["ok"], body
    handle = body["handle"]
    assert len(calls) == 1, "the leader alone optimizes a prepare"
    for worker in pool.workers:
        counters, compiles = _mirror(service, worker)
        assert counters.get("service.plan.installed", 0) - before[worker] == 1, worker
        assert compiles == 0, worker
    for _ in range(4):
        status, body = post(server, {"op": "execute", "handle": handle})
        assert status == 200 and body["ok"], body
        assert sorted(row["name"] for row in body["result"]) == ["ann", "bob", "cyd"]


def test_broadcast_replies_reach_the_fleet_mirror(fleet_stack):
    service, pool, server = fleet_stack
    before = {
        w: _mirror(service, w)[0].get("service.plan_cache.misses", 0) for w in pool.workers
    }
    status, body = post(server, {"op": "prepare", "query": "select age from people"})
    assert status == 200 and body["ok"], body
    # No heartbeat has run (60 s cadence): the prepare replies carried it.
    for worker in pool.workers:
        counters, _ = _mirror(service, worker)
        assert counters.get("service.plan_cache.misses", 0) - before[worker] == 1, worker


def test_respawned_worker_installs_existing_handles(fleet_stack):
    service, pool, server = fleet_stack
    status, body = post(
        server, {"op": "prepare", "query": "select name from people where age > $min"}
    )
    assert status == 200 and body["ok"], body
    handle = body["handle"]
    original = set(pool.workers)
    status, body = post(
        server, {"op": "execute", "handle": handle, "params": {"min": 25}, "_inject": "crash"}
    )
    assert status == 500 and body["error"]["kind"] == "runtime_error", body

    deadline = time.monotonic() + 30.0
    replacement = None
    while replacement is None and time.monotonic() < deadline:
        fresh = set(pool.workers) - original
        replacement = fresh.pop() if fresh else None
        time.sleep(0.05)
    assert replacement is not None, "the pool did not respawn the crashed worker"
    live_plans = len({p.plan.key for p in service.prepared_queries()})

    answered = "service.worker.%s.ok" % replacement
    for _ in range(40):
        status, body = post(server, {"op": "execute", "handle": handle, "params": {"min": 25}})
        assert status == 200 and body["ok"], body
        assert sorted(row["name"] for row in body["result"]) == ["ann", "cyd"]
        if _counter(service, answered) >= 1:
            break
    assert _counter(service, answered) >= 1, "the replacement never answered"
    counters, compiles = _mirror(service, replacement)
    assert counters.get("service.plan.installed", 0) == live_plans
    assert compiles == 0
