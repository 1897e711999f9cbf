"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest bench -q`` (outside the
tier-1 ``testpaths``: the smoke run at the end starts real servers and
takes about two minutes).
"""

from __future__ import annotations

import copy
import json
import os
import re

import pytest

import compare
import layers
import oracle
import run
import served
import spans
import workloads

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_same_seed_same_stream_and_fingerprint(name):
    workload = workloads.BY_NAME[name]
    assert workloads.workload_sha256(workload, 5, 10) == workloads.workload_sha256(workload, 5, 10)
    if workload.prepares:
        assert workloads.adhoc_stream(5, 2) == workloads.adhoc_stream(5, 2)
    else:
        assert workloads.execute_stream(workload, 5) == workloads.execute_stream(workload, 5)


@pytest.mark.parametrize("name", [w.name for w in workloads.WORKLOADS])
def test_other_seed_other_stream(name):
    workload = workloads.BY_NAME[name]
    assert workloads.workload_sha256(workload, 5, 10) != workloads.workload_sha256(workload, 6, 10)
    if workload.prepares:
        assert workloads.adhoc_stream(5, 2) != workloads.adhoc_stream(6, 2)
    else:
        assert workloads.execute_stream(workload, 5) != workloads.execute_stream(workload, 6)


def test_table_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        tables = workloads.generate_tables(seed)
        assert len(tables["lineitem"]) == workloads.LINEITEM_ROWS
        assert len(tables["customer"]) == workloads.SCALE["customers"]


def test_adhoc_stream_shape():
    from repro.service.plan_key import plan_key
    from repro.service.prepared import parse_query
    from repro.tpch.queries import QUERY_NAMES

    streams = workloads.adhoc_stream(9, 2)
    assert len(streams) == workloads.CLIENTS
    requests = [request for stream in streams for request in stream]
    assert len(requests) == 112
    assert sum(r["cached"] for r in requests) / len(requests) == 0.25
    for stream in streams:
        for previous, request in zip(stream, stream[1:]):
            assert request["cached"] == (request["query"] == previous["query"])
        assert [r["template"] for r in stream] == [r["template"] for r in streams[0]]
    misses = [r for r in requests if not r["cached"]]
    assert sorted(r["template"] for r in misses) == sorted(list(QUERY_NAMES) * 4)
    keys = {plan_key("sql", parse_query("sql", r["query"])) for r in misses}
    assert len(keys) == len(misses), "every miss must have a plan key of its own"


# -- arithmetic ------------------------------------------------------------------


def test_percentile_on_known_inputs():
    values = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert served.percentile(values, 0.0) == 1.0
    assert served.percentile(values, 0.5) == 3.0
    assert served.percentile(values, 1.0) == 5.0
    assert served.percentile(values, 0.95) == pytest.approx(4.8)
    assert served.percentile([1.0, 2.0], 0.5) == 1.5
    assert served.percentile(list(range(101)), 0.95) == 95.0
    with pytest.raises(ValueError):
        served.percentile([], 0.5)


def test_span_self_time_and_coverage():
    recorder = spans.Recorder()
    with recorder.span("request", request_id=1):
        with recorder.span("a"):
            with recorder.span("b"):
                pass
        with recorder.span("c"):
            pass
    # Fixed clock readings make the arithmetic exact.
    for span, (start, end) in zip(recorder.spans, [(0, 10), (1, 7), (2, 5), (7, 9)]):
        span.start, span.end = float(start), float(end)
    assert [span.parent for span in recorder.spans] == [None, 0, 1, 0]
    assert {span.request_id for span in recorder.spans} == {1}
    assert recorder.self_times() == [2.0, 3.0, 3.0, 2.0]
    assert sum(recorder.self_times()) == recorder.spans[0].duration
    assert recorder.coverage("request") == pytest.approx(0.8)
    assert recorder.self_durations("a") == [3.0]


def test_wrap_and_patched_restore():
    import types

    layer = types.SimpleNamespace()
    layer.call = lambda n: n if n == 0 else layer.call(n - 1)
    original = layer.call
    recorder = spans.Recorder()
    with spans.patched([(layer, "call", recorder.wrap(layer.call, "layer.call"))]):
        assert layer.call(3) == 0
        with recorder.disabled():
            assert layer.call(2) == 0
    assert layer.call is original
    assert [span.name for span in recorder.spans] == ["layer.call"], "recursion is one span"
    events = recorder.chrome_events()
    assert events[0]["ph"] == "X" and events[0]["args"]["span"] == 0


# -- the oracle ------------------------------------------------------------------

ROWS = [
    {"k": "a", "q": 3, "p": 1.5, "d": {"$date": "1995-01-02"}},
    {"k": "b", "q": 7, "p": 2.25, "d": {"$date": "1996-03-04"}},
    {"k": "a", "q": 9, "p": 0.1, "d": {"$date": "1997-05-06"}},
]
SQL = "select k, sum(p) as total, count(*) as n from t where q < $q and d >= date '1995-01-01' group by k"


def canned_response(q):
    want = {}
    for row in ROWS:
        if row["q"] < q:
            total, n = want.get(row["k"], (0.0, 0))
            want[row["k"]] = (total + row["p"], n + 1)
    return {"ok": True, "result": [{"k": k, "total": t, "n": n} for k, (t, n) in want.items()]}


def test_oracle_accepts_the_right_answer_in_any_order():
    checker = oracle.ExecuteChecker(oracle.Oracle({"t": ROWS}), SQL, [{"q": 10}, {"q": 5}])
    response = canned_response(10)
    assert checker.check({"q": 10}, response)
    response["result"].reverse()
    assert checker.check({"q": 10}, response)
    assert checker.check({"q": 5}, canned_response(5))
    assert not checker.check({"q": 5}, canned_response(10))
    assert not checker.check({"q": 10}, {"ok": False, "error": {"kind": "timeout"}})


def test_oracle_mutation_raises_failed_share():
    checker = oracle.ExecuteChecker(oracle.Oracle({"t": ROWS}), SQL, [{"q": 10}])
    good = canned_response(10)
    traffic = [({"q": 10}, good)] * 9
    assert oracle.failed_share(checker, traffic) == 0.0
    assert oracle.failed_share(checker, traffic + [({"q": 10}, oracle.mutate(good))]) == 0.1


def test_wide_replies_are_checked_by_count_and_checksum():
    rows = [{"l_orderkey": i, "l_extendedprice": i * 1.25, "c": "x%d" % i} for i in range(200)]
    sql = "select * from t where l_orderkey >= $q"
    checker = oracle.ExecuteChecker(oracle.Oracle({"t": rows}), sql, [{"q": 10}])
    good = {"ok": True, "result": rows[10:]}
    assert checker.check({"q": 10}, good)  # the full multiset, once
    assert checker.check({"q": 10}, good)  # then count + checksums
    assert not checker.check({"q": 10}, {"ok": True, "result": rows[11:]})
    wrong = copy.deepcopy(good)
    wrong["result"][5]["l_extendedprice"] += 0.5
    assert not checker.check({"q": 10}, wrong)


def test_sqlite_translation():
    assert oracle.to_sqlite_sql("a < $q and d >= date '1994-01-01'") == "a < :q and d >= '1994-01-01'"


# -- compare.py ------------------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.05 for x in steady], "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "higher", 0.1)[0] == "ok"
    noisy = [80.0, 130.0, 95.0, 140.0, 100.0]
    assert compare.verdict(steady, noisy, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict(noisy, [x * 0.5 for x in noisy], "lower", 0.1)[0] == "ok"


def test_compare_refuses_other_workloads(smoke_document, tmp_path, capsys):
    other = copy.deepcopy(smoke_document)
    other["fingerprint"]["sha256"]["scan_agg"] = "0" * 64
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(smoke_document))
    b.write_text(json.dumps(other))
    assert compare.main([str(a), str(b)]) == 2
    assert "sha256" in capsys.readouterr().err
    assert compare.main([str(a), str(a)]) == 0


# -- the whole thing, briefly ------------------------------------------------------


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "run.json"
    assert run.main(["--smoke", "--repeats", "2", "--seed", "3", "--out", str(out)]) == 0
    with open(out) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code(spec):
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in workloads.WORKLOADS]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert spec["paths"] == ["bench"] and spec["command"] == ["python3", "bench/run.py"]
    assert "setup_s" in [m["name"] for m in spec["end_to_end"]]


def test_every_declared_name_is_in_a_smoke_run(spec, smoke_document):
    assert set(smoke_document["workloads"]) == {w["name"] for w in spec["workloads"]}
    for name, entry in smoke_document["workloads"].items():
        assert NAME.match(name)
        for metric in spec["end_to_end"]:
            assert NAME.match(metric["name"])
            for one_run in entry["runs"]:
                assert one_run["metrics"][metric["name"]]["unit"] == metric["unit"]
                assert one_run["metrics"][metric["name"]]["value"] > 0
        for one_run in entry["runs"]:
            assert one_run["failed"] == 0 and one_run["metrics"]["failed_share"]["value"] == 0.0
        assert entry["traced_failed"] == 0
        for metric in spec["per_layer"]:
            assert NAME.match(metric["name"])
            assert entry["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_smoke_run_records_its_fingerprint(smoke_document):
    fingerprint = smoke_document["fingerprint"]
    assert fingerprint["seed"] == 3 and fingerprint["seconds"] == run.SMOKE_SECONDS
    assert fingerprint["scale"]["lineitem_rows"] == workloads.LINEITEM_ROWS
    for field in ("nproc", "python", "loadavg_start", "git_commit"):
        assert field in fingerprint
    assert all(re.match(r"^[0-9a-f]{64}$", digest) for digest in fingerprint["sha256"].values())


def test_smoke_run_wrote_a_span_file_per_workload(smoke_document):
    for name in smoke_document["workloads"]:
        with open(os.path.join(run.OUT_DIR, "trace_%s.json" % name)) as handle:
            events = json.load(handle)["traceEvents"]
        assert {"request", "service.service.wire"} <= {event["name"] for event in events}


def test_execute_workloads_are_covered_by_spans(smoke_document):
    for name, entry in smoke_document["workloads"].items():
        if not workloads.BY_NAME[name].prepares:
            assert entry["per_layer"]["bench.span_coverage"]["value"] >= layers.COVERAGE_FLOOR
