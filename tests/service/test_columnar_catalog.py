"""Columnar tables in the catalog and column-oriented worker snapshots.

Large registrations get a columnar twin built eagerly (the engine's
fused chains then find it cached); worker snapshots ship those tables
column-oriented through a payload that is built once and shared by
reference across snapshots; ``rows_from_wire`` inverts both wire forms
and preserves the columnar back-link on the receiving side.
"""

import asyncio
import json

import pytest

from repro.data.columnar import cached_columnar
from repro.data.model import Bag, Record, bag, rec
from repro.service import Catalog, QueryService, WorkerPool, catalog_snapshot
from repro.service.catalog import COLUMNAR_MIN_ROWS, rows_from_wire
from repro.service.worker import decode_reply

BIG = [{"g": i % 3, "v": i} for i in range(COLUMNAR_MIN_ROWS + 8)]


class TestColumnarRegistration:
    def test_large_table_stored_columnar(self):
        catalog = Catalog()
        info = catalog.register_table("big", BIG)
        assert info.columnar
        assert cached_columnar(info.rows) is not None
        assert info.describe()["columnar"] is True

    def test_small_table_stays_row_only(self):
        catalog = Catalog()
        info = catalog.register_table("small", [{"a": 1}])
        assert not info.columnar
        assert cached_columnar(info.rows) is None
        assert info.describe()["columnar"] is False


class TestWirePayload:
    def test_columnar_table_ships_columns(self):
        catalog = Catalog()
        info = catalog.register_table("big", BIG)
        payload = info.wire_payload()
        assert set(payload) == {"columns", "count", "schema"}
        assert payload["count"] == len(BIG)
        assert payload["columns"]["v"] == [row["v"] for row in BIG]
        json.dumps(payload)  # picklable/plain data for spawn

    def test_row_table_ships_rows(self):
        catalog = Catalog()
        info = catalog.register_table("small", [{"a": 1}])
        payload = info.wire_payload()
        assert set(payload) == {"rows", "schema"}

    def test_payload_cached_and_shared(self):
        catalog = Catalog()
        info = catalog.register_table("big", BIG)
        assert info.wire_payload() is info.wire_payload()

    def test_heterogeneous_columnar_table_falls_back_to_rows(self):
        rows = [{"a": i} for i in range(COLUMNAR_MIN_ROWS)] + [{"b": 1}]
        catalog = Catalog()
        info = catalog.register_table("ragged", rows)
        assert info.columnar
        payload = info.wire_payload()
        assert "rows" in payload and "columns" not in payload
        assert rows_from_wire(payload) == info.rows


class TestRowsFromWire:
    def test_columns_form_round_trips_with_backlink(self):
        catalog = Catalog()
        info = catalog.register_table("big", BIG)
        rebuilt = rows_from_wire(info.wire_payload())
        assert rebuilt == info.rows
        assert cached_columnar(rebuilt) is not None  # already columnar

    def test_rows_form_round_trips(self):
        payload = {"rows": [{"a": 1}, {"a": 2}], "schema": ["a"]}
        assert rows_from_wire(payload) == bag(rec(a=1), rec(a=2))

    def test_dates_survive_the_column_wire(self):
        from repro.data.foreign import DateValue

        rows = Bag(
            [
                Record({"d": DateValue(1995, 1, day % 28 + 1)})
                for day in range(COLUMNAR_MIN_ROWS)
            ]
        )
        catalog = Catalog()
        info = catalog.register_table("dated", rows)
        payload = info.wire_payload()
        assert payload["columns"]["d"][0] == {"$date": "1995-01-01"}
        assert rows_from_wire(payload) == info.rows


def test_snapshot_shares_payloads_across_calls():
    service = QueryService(trace_sample_rate=None)
    try:
        service.register_table("big", BIG)
        first = catalog_snapshot(service)
        second = catalog_snapshot(service)
        assert first["tables"]["big"] is second["tables"]["big"]
        assert "columns" in first["tables"]["big"]
    finally:
        service.close(wait=False)


def test_worker_executes_from_columnar_snapshot():
    leader = QueryService(trace_sample_rate=None)
    leader.register_table("big", BIG)
    leader.prepare("sql", "select g, sum(v) as total from big group by g")
    pool = WorkerPool(1, lambda: catalog_snapshot(leader))
    try:
        pool.start()

        async def go():
            pool.bind(asyncio.get_event_loop())
            worker = await pool.acquire(30.0)
            return await pool.request(
                worker, {"op": "execute", "handle": "q1"}, timeout=30.0
            )

        loop = asyncio.new_event_loop()
        try:
            reply = decode_reply(loop.run_until_complete(go()))
        finally:
            loop.close()
        assert reply["ok"], reply
        got = {(row["g"], row["total"]) for row in reply["result"]}
        want = {}
        for row in BIG:
            want[row["g"]] = want.get(row["g"], 0) + row["v"]
        assert got == set(want.items())
    finally:
        pool.close()
        leader.close(wait=False)
