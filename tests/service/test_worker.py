"""Tests for the worker-process pool (repro.service.worker).

The contract: a worker warms up from the leader's catalog snapshot with
the leader's prepared handles intact, answers wire requests over its
pipe, reports structured errors (never a dead pipe with a live client),
and the pool replaces a crashed worker with a freshly-snapshotted one.

Worker processes cost real startup time (spawn + warm-up replay), so
the live pool is module-scoped and every test leaves it serviceable.
"""

import asyncio
import json
import time

import pytest

from repro.service import QueryService, WorkerCrashed, WorkerPool, catalog_snapshot
from repro.service.worker import EncodedResult, decode_reply

ROWS = [
    {"name": "ann", "age": 40},
    {"name": "bob", "age": 20},
    {"name": "cyd", "age": 31},
]


@pytest.fixture(scope="module")
def leader():
    service = QueryService(trace_sample_rate=None)
    service.register_table("people", ROWS)
    service.prepare("sql", "select name from people where age > $min")
    yield service
    service.close(wait=False)


@pytest.fixture(scope="module")
def pool(leader):
    pool = WorkerPool(
        2,
        lambda: catalog_snapshot(leader),
        options={"fault_injection": True},
    ).start()
    yield pool
    pool.close()


def run(coro):
    loop = asyncio.new_event_loop()
    try:
        return loop.run_until_complete(coro)
    finally:
        loop.close()


def raw_roundtrip(pool, msg, timeout=30.0):
    """acquire → request → (implicit release) on a fresh event loop."""

    async def go():
        pool.bind(asyncio.get_event_loop())
        worker = await pool.acquire(timeout)
        return await pool.request(worker, dict(msg), timeout=timeout)

    return run(go())


def roundtrip(pool, msg, timeout=30.0):
    """:func:`raw_roundtrip` with the reply's encoded result decoded."""
    return decode_reply(raw_roundtrip(pool, msg, timeout))


def test_snapshot_carries_tables_and_prepared(leader):
    snapshot = catalog_snapshot(leader)
    assert "people" in snapshot["tables"]
    assert snapshot["tables"]["people"]["rows"] == ROWS
    assert set(snapshot["tables"]["people"]["schema"]) == {"name", "age"}
    assert snapshot["prepared"][0]["handle"] == "q1"
    assert snapshot["prepared"][0]["language"] == "sql"
    assert snapshot["prepared"][0]["plan"] is leader.prepared("q1").plan.artifact()
    # The snapshot must be plain JSON-able data (picklable for spawn).
    json.dumps(snapshot)


def test_warmup_replay_makes_leader_handles_valid(pool):
    reply = roundtrip(
        pool, {"op": "execute", "handle": "q1", "params": {"min": 25}}
    )
    assert reply["ok"], reply
    assert sorted(row["name"] for row in reply["result"]) == ["ann", "cyd"]
    assert reply["_worker"] in ("w0", "w1")


def test_ok_reply_result_crosses_the_pipe_encoded(pool):
    raw = raw_roundtrip(pool, {"op": "execute", "handle": "q1", "params": {"min": 25}})
    assert raw["ok"], raw
    assert isinstance(raw["result"], EncodedResult)
    assert list(raw)[:3] == ["ok", "result", "seconds"]
    rows = json.loads(raw["result"].text)
    assert sorted(row["name"] for row in rows) == ["ann", "cyd"]
    assert raw["result"].text == json.dumps(rows)
    assert raw["result"].rows == 2
    error = raw_roundtrip(pool, {"op": "execute", "handle": "zz9"})
    assert error["ok"] is False and "result" not in error


def test_query_id_propagates_into_the_worker(pool):
    reply = roundtrip(
        pool,
        {
            "op": "execute",
            "handle": "q1",
            "params": {"min": 25},
            "_obs": {"query_id": "cafe0123cafe0123", "record_trace": False},
        },
    )
    assert reply["ok"]
    assert reply["query_id"] == "cafe0123cafe0123"


def test_worker_reports_structured_errors(pool):
    reply = roundtrip(pool, {"op": "execute", "handle": "zz9"})
    assert reply["ok"] is False
    assert reply["error"]["kind"] == "bad_request"


def test_worker_oneshot_handles_use_their_own_prefix(pool):
    reply = roundtrip(
        pool, {"op": "query", "query": "select age from people where age > 25"}
    )
    assert reply["ok"], reply
    # A one-shot query inside worker N allocates (and frees) a "wNt…"
    # handle; the leader-broadcast handle space ("q…") stays untouched.
    reply2 = roundtrip(pool, {"op": "execute", "handle": "q1", "params": {"min": 0}})
    assert reply2["ok"], reply2
    assert len(reply2["result"]) == 3


def test_forced_handle_prepare_mirrors_leader_handle(pool):
    reply = roundtrip(
        pool,
        {"op": "prepare", "query": "select age from people", "_handle": "q77"},
    )
    assert reply["ok"], reply
    assert reply["handle"] == "q77"
    reply2 = roundtrip(pool, {"op": "execute", "handle": "q77"})
    assert reply2["ok"], reply2


def test_broadcast_reaches_every_worker(pool):
    async def go():
        pool.bind(asyncio.get_event_loop())
        replies = await pool.broadcast(
            {"op": "prepare", "query": "select name from people", "_handle": "q88"}
        )
        return replies

    replies = run(go())
    assert len(replies) == 2
    workers = {reply["_worker"] for reply in replies}
    assert workers == {h.name for h in pool._handles}
    assert all(reply["ok"] for reply in replies)


def test_crash_surfaces_and_pool_respawns(pool):
    async def go():
        pool.bind(asyncio.get_event_loop())
        worker = await pool.acquire(30.0)
        crashed = None
        try:
            await pool.request(
                worker,
                {"op": "execute", "handle": "q1", "_inject": "crash"},
                timeout=30.0,
            )
        except WorkerCrashed as exc:
            crashed = exc
        assert crashed is not None, "crash injection did not surface"
        # The replacement warms up from a fresh snapshot and joins the
        # rotation; the pool keeps answering on the same leader handle.
        for _ in range(4):
            replacement = await pool.acquire(60.0)
            reply = await pool.request(
                replacement,
                {"op": "execute", "handle": "q1", "params": {"min": 25}},
                timeout=60.0,
            )
            assert reply["ok"], reply

    run(go())
    # The respawn happens on the dead worker's IO thread; give it a beat.
    deadline = time.time() + 30.0
    while time.time() < deadline:
        if all(handle.alive for handle in pool._handles):
            break
        time.sleep(0.05)
    assert all(handle.alive for handle in pool._handles)


def test_pool_requires_at_least_one_worker(leader):
    with pytest.raises(ValueError):
        WorkerPool(0, lambda: catalog_snapshot(leader))


def test_handle_submit_is_threadsafe_sync_api(pool):
    # submit() without the asyncio wrapper: plain concurrent futures.
    handle = pool._handles[0]
    futures = [
        handle.submit({"op": "execute", "handle": "q1", "params": {"min": 25}})
        for _ in range(3)
    ]
    for future in futures:
        reply = future.result(timeout=30.0)
        assert reply["ok"], reply


def test_worker_resources_document_shape(leader):
    from repro.service.worker import worker_resources

    doc = worker_resources(leader, catalog_bytes=4096, started_at=time.time() - 2.0)
    assert doc["pid"] > 0
    assert doc["catalog_bytes"] == 4096
    assert doc["uptime_seconds"] >= 2.0
    assert doc["rss_bytes"] > 0
    assert doc["columnar_cache_bytes"] >= 0
    assert doc["plan_cache_entries"] >= 0
    assert 0.0 <= doc["plan_cache_hit_rate"] <= 1.0
    # JSON-serializable: it ships on the heartbeat reply.
    json.dumps(doc)
