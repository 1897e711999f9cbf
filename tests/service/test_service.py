"""QueryService: the facade and the JSON-lines wire protocol.

The acceptance-critical property: compile errors, runtime errors, and
timeouts all come back as structured error responses, and the serving
loop keeps answering afterwards.
"""

import io
import json
import threading

import pytest

from repro.obs.log import read_events
from repro.service import QueryService


@pytest.fixture
def service():
    svc = QueryService(cache_capacity=8, workers=2, queue_depth=4, default_timeout=10.0)
    svc.register_table(
        "people",
        [
            {"name": "ann", "age": 40},
            {"name": "bob", "age": 20},
            {"name": "cyd", "age": 31},
        ],
    )
    yield svc
    svc.close(wait=False)


class TestFacade:
    def test_prepare_execute_repeatedly(self, service):
        prepared = service.prepare("sql", "select name from people where age > $min")
        for expected_min, names in ((25, ["ann", "cyd"]), (35, ["ann"])):
            outcome = service.execute(prepared.handle, params={"min": expected_min})
            assert outcome.ok
            assert sorted(row["name"] for row in outcome.value.items) == names
        assert service.prepared(prepared.handle).executions == 2

    def test_structural_cache_hit(self, service):
        first = service.prepare("sql", "select name from people")
        second = service.prepare("sql", "SELECT  name\nFROM people  -- same plan")
        assert not first.cached and second.cached
        assert first.plan is second.plan
        assert service.stats()["plan_cache"]["hits"] == 1

    def test_lru_eviction_recompiles(self):
        svc = QueryService(cache_capacity=1, workers=1)
        try:
            svc.register_table("t", [{"a": 1}])
            svc.prepare("sql", "select a from t")
            svc.prepare("sql", "select a from t where a > 0")  # evicts the first
            again = svc.prepare("sql", "select a from t")
            assert not again.cached
            assert svc.stats()["plan_cache"]["evictions"] == 2
        finally:
            svc.close(wait=False)

    def test_compile_error_outcome(self, service):
        outcome = service.query("sql", "selec nonsense")
        assert not outcome.ok and outcome.error.kind == "compile_error"

    def test_runtime_error_outcome(self, service):
        outcome = service.query("sql", "select a from no_such_table")
        assert not outcome.ok and outcome.error.kind == "runtime_error"
        assert "no_such_table" in str(outcome.error)

    def test_timeout_outcome(self, service):
        service.register_table("n", [{"i": i} for i in range(15)])
        cross = "select a.i from n a, n b, n c, n d where a.i = 1"
        outcome = service.query("sql", cross, timeout=0.02)
        assert not outcome.ok and outcome.error.kind == "timeout"

    def test_unknown_handle(self, service):
        outcome = service.execute("q999")
        assert not outcome.ok and outcome.error.kind == "bad_request"

    def test_close_prepared(self, service):
        prepared = service.prepare("sql", "select name from people")
        service.close_prepared(prepared.handle)
        assert not service.execute(prepared.handle).ok

    def test_service_survives_all_error_classes(self, service):
        """One facade instance keeps serving after every failure mode."""
        service.query("sql", "selec nonsense")
        service.query("sql", "select a from missing")
        ok = service.query("sql", "select name from people where age > 30")
        assert ok.ok and len(ok.value.items) == 2

    def test_one_shot_handles_do_not_accumulate(self, service):
        for _ in range(5):
            assert service.query("sql", "select name from people").ok
        assert service.stats()["prepared"] == 0


class TestAnalyze:
    def test_execute_analyzed_attaches_analysis(self, service):
        prepared = service.prepare("sql", "select name from people where age > $min")
        outcome = service.execute(prepared.handle, params={"min": 25}, analyze=True)
        assert outcome.ok
        assert sorted(row["name"] for row in outcome.value.items) == ["ann", "cyd"]
        assert outcome.analysis["peak_rows"] >= 2
        assert outcome.analysis["nodes"] >= 1
        assert "tree" in outcome.analysis

    def test_analyzed_matches_plain(self, service):
        text = "select name from people where age > 25"
        plain = service.query("sql", text)
        analyzed = service.query("sql", text, analyze=True)
        assert plain.ok and analyzed.ok
        assert plain.value == analyzed.value
        assert plain.analysis is None
        assert analyzed.analysis is not None

    def test_concurrent_analyzed_requests_keep_their_own_stats(self, service):
        service.register_table("nums", [{"k": i % 7, "v": i} for i in range(2000)])
        handles = [
            service.prepare("sql", text).handle
            for text in (
                "select v from nums where k > 2",
                "select k, sum(v) as s from nums group by k",
            )
        ]

        def request(handle):
            return service.handle_request(
                {"op": "execute", "handle": handle, "analyze": True}
            )

        solo = [request(handle)["analysis"]["nodes"] for handle in handles]
        for _ in range(3):
            barrier = threading.Barrier(len(handles))
            responses = [None] * len(handles)

            def run(position):
                barrier.wait()
                responses[position] = request(handles[position])

            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(handles))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert all(response["ok"] for response in responses)
            assert [response["analysis"]["nodes"] for response in responses] == solo

    def test_runtime_error_still_structured(self, service):
        outcome = service.query("sql", "select a from missing", analyze=True)
        assert not outcome.ok and outcome.error.kind == "runtime_error"


class TestTelemetry:
    def test_every_execution_is_recorded(self, service):
        service.query("sql", "select name from people")
        service.query("sql", "select a from missing")  # errors are recorded too
        records = service.telemetry.recent()
        assert len(records) == 2
        assert records[0].ok and records[0].rows == 3
        assert not records[1].ok and records[1].error_kind == "runtime_error"
        assert service.stats()["telemetry"]["recorded"] == 2

    def test_cache_hit_and_compile_seconds(self, service):
        text = "select name from people"
        service.query("sql", text)
        service.query("sql", text)
        first, second = service.telemetry.recent()
        assert not first.cache_hit and first.compile_seconds > 0
        assert second.cache_hit and second.compile_seconds == 0.0

    def test_analyzed_record_carries_cardinality(self, service):
        service.query("sql", "select name from people where age > 25", analyze=True)
        (record,) = service.telemetry.recent()
        assert record.analyzed
        assert record.peak_rows >= 2
        assert record.hot_operators

    def test_slow_query_log(self):
        svc = QueryService(workers=1, slow_query_seconds=0.0)
        try:
            svc.register_table("t", [{"a": 1}])
            svc.query("sql", "select a from t")
            assert len(svc.telemetry.slow()) == 1
            assert svc.metrics.snapshot()["counters"]["service.slow_queries"] == 1
        finally:
            svc.close(wait=False)

    def test_telemetry_ring_capacity(self):
        svc = QueryService(workers=1, telemetry_capacity=2)
        try:
            svc.register_table("t", [{"a": 1}])
            for _ in range(5):
                svc.query("sql", "select a from t")
            described = svc.stats()["telemetry"]
            assert described["recorded"] == 5 and described["recent"] == 2
        finally:
            svc.close(wait=False)


class TestCorrelation:
    """The tentpole acceptance property: one request is one ``query_id``
    end to end — telemetry record, kept trace fragment, query-log audit
    event, and wire response all carry the same id."""

    def make_service(self, tmp_path, **kwargs):
        svc = QueryService(
            workers=1,
            trace_sample_rate=kwargs.pop("trace_sample_rate", 1.0),
            query_log=str(tmp_path / "query.log"),
            **kwargs
        )
        svc.register_table("t", [{"a": 1}, {"a": 2}])
        return svc

    def test_one_query_one_id_everywhere(self, tmp_path):
        svc = self.make_service(tmp_path)
        try:
            outcome = svc.query("sql", "select a from t where a > 1")
            assert outcome.ok
            (record,) = svc.telemetry.recent()
            query_id = record.query_id
            assert query_id

            fragment = svc.traces.get(query_id)
            assert fragment is not None
            assert fragment["query_id"] == query_id
            span_names = {e["name"] for e in fragment["events"]}
            assert "service.execute" in span_names
            assert "pipeline" in span_names
            assert "executor.run" in span_names

            assert record.trace is fragment

            events = read_events(svc.query_log.path)
            audits = [e for e in events if e["event"] == "query"]
            assert len(audits) == 1
            assert audits[0]["query_id"] == query_id
            assert audits[0]["outcome"] == "ok"
        finally:
            svc.close(wait=False)

    def test_wire_response_id_matches_telemetry(self, tmp_path):
        svc = self.make_service(tmp_path)
        try:
            response = svc.handle_request(
                {"op": "query", "query": "select a from t"}
            )
            assert response["ok"]
            (record,) = svc.telemetry.recent()
            assert response["query_id"] == record.query_id
        finally:
            svc.close(wait=False)

    def test_each_request_gets_a_fresh_id(self, tmp_path):
        svc = self.make_service(tmp_path)
        try:
            ids = set()
            for _ in range(5):
                response = svc.handle_request({"op": "query", "query": "select a from t"})
                ids.add(response["query_id"])
            assert len(ids) == 5
        finally:
            svc.close(wait=False)

    def test_non_query_ops_are_correlated_too(self, tmp_path):
        svc = self.make_service(tmp_path)
        try:
            response = svc.handle_request({"op": "stats"})
            assert response["ok"] and response["query_id"]
        finally:
            svc.close(wait=False)

    def test_error_event_shares_the_id(self, tmp_path):
        svc = self.make_service(tmp_path)
        try:
            outcome = svc.query("sql", "select a from missing")
            assert not outcome.ok
            (record,) = svc.telemetry.recent()
            events = read_events(svc.query_log.path)
            kinds = {e["event"] for e in events}
            assert kinds == {"query", "error"}
            for event in events:
                assert event["query_id"] == record.query_id
            error = next(e for e in events if e["event"] == "error")
            assert "missing" in error["message"]
        finally:
            svc.close(wait=False)

    def test_log_lines_up_with_telemetry_under_load(self, tmp_path):
        """Events written under concurrent load parse back and match the
        telemetry records one-to-one by query_id."""
        import threading

        svc = QueryService(
            workers=4,
            telemetry_capacity=256,
            trace_sample_rate=1.0,
            query_log=str(tmp_path / "query.log"),
        )
        svc.register_table("t", [{"a": i} for i in range(5)])
        try:
            def hammer():
                for _ in range(10):
                    assert svc.query("sql", "select a from t where a > 1").ok

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            telemetry_ids = {r.query_id for r in svc.telemetry.recent()}
            assert len(telemetry_ids) == 40
            audits = [
                e for e in read_events(svc.query_log.path) if e["event"] == "query"
            ]
            assert len(audits) == 40
            assert {e["query_id"] for e in audits} == telemetry_ids
        finally:
            svc.close(wait=False)

    def test_slow_query_event(self, tmp_path):
        svc = self.make_service(tmp_path, slow_query_seconds=0.0)
        try:
            svc.query("sql", "select a from t")
            events = read_events(svc.query_log.path)
            slow = [e for e in events if e["event"] == "slow_query"]
            assert len(slow) == 1
            assert slow[0]["threshold_seconds"] == 0.0
        finally:
            svc.close(wait=False)


class TestTailSampling:
    def make_service(self, **kwargs):
        svc = QueryService(workers=1, **kwargs)
        svc.register_table("t", [{"a": 1}])
        return svc

    def test_rate_one_keeps_every_trace(self):
        svc = self.make_service(trace_sample_rate=1.0)
        try:
            for _ in range(3):
                svc.query("sql", "select a from t")
            assert svc.traces.describe()["kept"] == 3
            assert svc.metrics.snapshot()["counters"]["obs.trace.kept"] == 3
        finally:
            svc.close(wait=False)

    def test_rate_zero_drops_fast_ok_queries(self):
        svc = self.make_service(trace_sample_rate=0.0)
        try:
            svc.query("sql", "select a from t")
            description = svc.traces.describe()
            assert description["kept"] == 0 and description["dropped"] == 1
            assert svc.metrics.snapshot()["counters"]["obs.trace.dropped"] == 1
        finally:
            svc.close(wait=False)

    def test_rate_zero_still_keeps_errors(self):
        svc = self.make_service(trace_sample_rate=0.0)
        try:
            svc.query("sql", "select a from missing")
            assert svc.traces.describe()["kept"] == 1
            (fragment,) = svc.traces.recent()
            assert fragment["events"]
        finally:
            svc.close(wait=False)

    def test_rate_zero_still_keeps_slow_queries(self):
        svc = self.make_service(trace_sample_rate=0.0, slow_query_seconds=0.0)
        try:
            svc.query("sql", "select a from t")
            assert svc.traces.describe()["kept"] == 1
        finally:
            svc.close(wait=False)

    def test_none_disables_tracing_entirely(self):
        svc = self.make_service(trace_sample_rate=None)
        try:
            svc.query("sql", "select a from t")
            description = svc.traces.describe()
            assert description["kept"] == 0 and description["dropped"] == 0
            assert "sampling" not in svc.stats()
            (record,) = svc.telemetry.recent()
            assert record.trace is None
        finally:
            svc.close(wait=False)

    def test_stats_surface_obs_state(self):
        svc = self.make_service(trace_sample_rate=1.0)
        try:
            svc.query("sql", "select a from t")
            stats = svc.stats()
            assert stats["sampling"]["rate"] == 1.0
            assert stats["traces"]["kept"] == 1
            assert stats["uptime_seconds"] >= 0
            assert stats["rates"]["last_60s"]["count"] == 1
        finally:
            svc.close(wait=False)


class TestMalformedTaggedValues:
    """Bad tagged wire values are client errors, never server faults."""

    def test_register_with_bad_date_is_a_catalog_error(self, service):
        response = service.handle_request(
            {"op": "register", "table": "d", "rows": [{"d": {"$date": "nope"}}]}
        )
        assert response["error"]["kind"] == "catalog_error", response

    @pytest.mark.parametrize("value", [{"$date": "nope"}, {"$record": 5}, {"$date": 5}])
    def test_bad_param_is_a_bad_request_naming_it(self, service, value):
        handle = service.prepare("sql", "select name from people where age < $q").handle
        response = service.handle_request(
            {"op": "execute", "handle": handle, "params": {"q": value}}
        )
        assert response["error"]["kind"] == "bad_request", response
        assert "$q" in response["error"]["message"]

    def test_model_values_bind_unchanged(self, service):
        from repro.data.foreign import DateValue
        from repro.data.model import Record

        service.register_table("d", [Record({"d": DateValue.parse("1995-01-02")})])
        handle = service.prepare("sql", "select d from d where d < $q").handle
        outcome = service.execute(handle, params={"q": DateValue.parse("1996-01-01")})
        assert outcome.ok and len(outcome.value) == 1


class TestWireProtocol:
    def run_lines(self, service, requests):
        stdin = io.StringIO("\n".join(json.dumps(r) if isinstance(r, dict) else r for r in requests) + "\n")
        stdout = io.StringIO()
        code = service.serve(stdin, stdout)
        assert code == 0
        return [json.loads(line) for line in stdout.getvalue().splitlines()]

    def test_full_session(self, service):
        responses = self.run_lines(
            service,
            [
                {"op": "register", "table": "t", "rows": [{"a": 1}, {"a": 5}]},
                {"op": "prepare", "query": "select a from t where a > $x"},
                {"op": "execute", "handle": "q1", "params": {"x": 2}},
                {"op": "query", "query": "select a from t where a > 0"},
                {"op": "stats"},
                {"op": "shutdown"},
            ],
        )
        register, prepare, execute, one_shot, stats, goodbye = responses
        assert register["ok"] and register["table"]["columns"] == ["a"]
        assert prepare["ok"] and prepare["params"] == ["x"]
        assert execute["ok"] and execute["result"] == [{"a": 5}]
        assert one_shot["ok"] and len(one_shot["result"]) == 2
        assert stats["stats"]["plan_cache"]["misses"] == 2
        assert goodbye["ok"] and goodbye["served"] == 5

    def test_loop_survives_error_classes(self, service):
        """Malformed JSON, compile errors, runtime errors, and timeouts are
        answered in place and the loop keeps going."""
        service.register_table("n", [{"i": i} for i in range(15)])
        responses = self.run_lines(
            service,
            [
                "this is not json",
                {"op": "query", "query": "selec nonsense"},
                {"op": "query", "query": "select a from missing"},
                {
                    "op": "query",
                    "query": "select a.i from n a, n b, n c, n d where a.i = 1",
                    "timeout": 0.02,
                },
                {"op": "execute", "handle": "q404"},
                {"nonsense": True},
                {"op": "query", "query": "select name from people where age = 20"},
            ],
        )
        kinds = [
            r["error"]["kind"] if not r["ok"] else "ok" for r in responses
        ]
        assert kinds == [
            "bad_request",       # malformed JSON
            "compile_error",
            "runtime_error",
            "timeout",
            "bad_request",       # unknown handle
            "bad_request",       # missing op
            "ok",                # ...and the loop still works
        ]
        assert responses[-1]["result"] == [{"name": "bob"}]

    def test_missing_fields_reported(self, service):
        responses = self.run_lines(service, [{"op": "prepare"}, {"op": "register"}])
        assert all(not r["ok"] and r["error"]["kind"] == "bad_request" for r in responses)
        assert "query" in responses[0]["error"]["message"]

    def test_analyze_flag_returns_analysis_over_the_wire(self, service):
        responses = self.run_lines(
            service,
            [
                {
                    "op": "query",
                    "query": "select name from people where age > 25",
                    "analyze": True,
                },
            ],
        )
        (response,) = responses
        assert response["ok"] and len(response["result"]) == 2
        analysis = response["analysis"]
        assert analysis["peak_rows"] >= 2
        assert isinstance(analysis["tree"], str)

    def test_metrics_op_returns_prometheus_text(self, service):
        responses = self.run_lines(
            service,
            [
                {"op": "query", "query": "select name from people"},
                {"op": "metrics"},
            ],
        )
        metrics = responses[1]
        assert metrics["ok"]
        assert "repro_service_execute_ok_total" in metrics["prometheus"]
        assert metrics["prometheus"].endswith("\n")
        assert metrics["metrics"]["counters"]["service.execute.ok"] >= 1

    def test_telemetry_op(self, service):
        responses = self.run_lines(
            service,
            [
                {"op": "query", "query": "select name from people"},
                {"op": "query", "query": "select age from people"},
                {"op": "telemetry", "n": 1},
                {"op": "telemetry", "slow": True},
            ],
        )
        recent = responses[2]
        assert recent["ok"]
        assert recent["telemetry"]["recorded"] == 2
        assert len(recent["queries"]) == 1
        assert recent["queries"][0]["ok"] is True
        slow = responses[3]
        assert slow["ok"] and slow["queries"] == []

    def test_telemetry_op_outcome_and_handle_filters(self, service):
        responses = self.run_lines(
            service,
            [
                {"op": "query", "query": "select name from people"},
                {"op": "query", "query": "select a from missing"},
                {"op": "telemetry", "outcome": "error"},
                {"op": "telemetry", "outcome": "ok"},
                {"op": "telemetry", "filter_handle": "q999"},
                {"op": "telemetry", "outcome": "weird"},
            ],
        )
        errors = responses[2]
        assert errors["ok"] and len(errors["queries"]) == 1
        assert errors["queries"][0]["error_kind"] == "runtime_error"
        oks = responses[3]
        assert len(oks["queries"]) == 1 and oks["queries"][0]["ok"]
        assert responses[4]["queries"] == []
        bad = responses[5]
        assert not bad["ok"] and bad["error"]["kind"] == "bad_request"

    def test_traces_op(self):
        svc = QueryService(workers=1, trace_sample_rate=1.0)
        try:
            svc.register_table("t", [{"a": 1}])
            responses = self.run_lines(
                svc,
                [
                    {"op": "query", "query": "select a from t"},
                    {"op": "query", "query": "select a from t where a > 0"},
                    {"op": "traces"},
                    {"op": "traces", "n": 1},
                ],
            )
            traces = responses[2]
            assert traces["ok"] and traces["kept"] == 2
            assert [f["query_id"] for f in traces["traces"]] == [
                responses[0]["query_id"],
                responses[1]["query_id"],
            ]
            assert any(
                e["name"] == "service.execute" for e in traces["traces"][0]["events"]
            )
            newest = responses[3]["traces"]
            assert len(newest) == 1
            assert newest[0]["query_id"] == responses[1]["query_id"]
        finally:
            svc.close(wait=False)

    def test_every_response_carries_a_query_id(self, service):
        responses = self.run_lines(
            service,
            [
                {"op": "query", "query": "select name from people"},
                {"op": "stats"},
                {"op": "nope"},  # even structured errors are correlated
            ],
        )
        assert all(r.get("query_id") for r in responses)

    def test_date_values_cross_the_wire(self, service):
        responses = self.run_lines(
            service,
            [
                {
                    "op": "register",
                    "table": "events",
                    "rows": [{"d": {"$date": "1995-06-01"}}],
                },
                {
                    "op": "query",
                    "query": "select d from events where d > date '1995-01-01'",
                },
            ],
        )
        assert responses[1]["ok"]
        assert responses[1]["result"] == [{"d": {"$date": "1995-06-01"}}]
