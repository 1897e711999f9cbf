"""Tests for EXPLAIN ANALYZE collection (repro.obs.analyze).

Two families: unit tests for the collector/renderers on hand-built
plans, and hypothesis properties pinning the two invariants that make
the numbers trustworthy — an analyzed execution returns the *same
multiset* as a plain one, and a parent's reported input cardinality
equals its input children's reported output cardinality.  Analysis is
a per-call argument, so concurrent calls must not see each other.
"""

import inspect
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.model import Bag, Record, bag, rec
from repro.nraenv import builders as b
from repro.nraenv.eval import EvalError
from repro.nraenv.exec import eval_fast
from repro.obs.analyze import (
    AnalyzeCollector,
    analysis_summary,
    calibration_report,
    node_label,
    render_analyze,
)
from repro.optim.verify import gen_plan, random_constants, random_datum, random_environment

DB = {
    "R": bag(rec(a=1, b=10), rec(a=2, b=20), rec(a=3, b=30)),
    "S": bag(rec(c=1, d="x"), rec(c=2, d="y"), rec(c=2, d="z")),
}


def analyzed(plan, env=None, datum=None, constants=DB):
    """Run ``plan`` on the engine with a fresh collector: (result, collector)."""
    collector = AnalyzeCollector()
    result = eval_fast(
        plan, env if env is not None else Record({}), datum, constants, analyzer=collector
    )
    return result, collector


def join_plan():
    return b.sigma(
        b.eq(b.dot(b.id_(), "a"), b.dot(b.id_(), "c")),
        b.product(b.table("R"), b.table("S")),
    )


class TestNodeLabel:
    def test_table_shows_constant_name(self):
        assert node_label(b.table("R")) == "table(R)"

    def test_ops_show_class_name(self):
        assert node_label(b.dot(b.id_(), "a")) == "OpDot"

    def test_const_shows_value(self):
        assert node_label(b.const(5)) == "$5"

    def test_combinators_show_symbols(self):
        assert node_label(b.sigma(b.const(True), b.table("R"))) == "σ"
        assert node_label(b.product(b.table("R"), b.table("S"))) == "×"


class TestCollector:
    def test_enter_exit_accumulates(self):
        node = b.table("R")
        collector = AnalyzeCollector()
        stats = collector.enter(node)
        collector.exit(stats, 0.5, DB["R"])
        stats = collector.enter(node)
        collector.exit(stats, 0.25, DB["R"])
        stats = collector.stats_for(node)
        assert stats.calls == 2
        assert stats.out_bags == 2
        assert stats.out_rows == 6
        assert stats.max_rows == 3
        assert abs(stats.seconds - 0.75) < 1e-9

    def test_non_bag_results_leave_out_stats_zero(self):
        node = b.const(5)
        collector = AnalyzeCollector()
        stats = collector.enter(node)
        collector.exit(stats, 0.1, 5)
        stats = collector.stats_for(node)
        assert stats.out_bags == 0 and stats.out_rows == 0 and stats.max_rows == 0

    def test_child_time_and_input_rows_attributed_to_parent(self):
        source = b.table("R")
        select = b.sigma(b.const(True), source)
        collector = AnalyzeCollector()
        outer = collector.enter(select)
        inner = collector.enter(source)
        collector.exit(inner, 0.2, DB["R"])
        collector.exit(outer, 0.5, DB["R"])
        stats = collector.stats_for(select)
        assert stats.in_rows == 3  # source is an input child: its bag is consumed
        assert abs(stats.child_seconds - 0.2) < 1e-9
        assert abs(stats.self_seconds - 0.3) < 1e-9

    def test_non_input_children_do_not_count_as_input(self):
        pred = b.const(True)
        select = b.sigma(pred, b.table("R"))
        collector = AnalyzeCollector()
        outer = collector.enter(select)
        inner = collector.enter(pred)
        collector.exit(inner, 0.0, DB["R"])  # a bag, but not from an input child
        collector.exit(outer, 0.0, DB["R"])
        assert collector.stats_for(select).in_rows == 0

    def test_exit_error_counts_and_unwinds(self):
        node = b.table("R")
        collector = AnalyzeCollector()
        stats = collector.enter(node)
        collector.exit_error(stats, 0.1)
        stats = collector.stats_for(node)
        assert stats.errors == 1
        assert stats.out_bags == 0
        assert collector._stack == []

    def test_on_join_and_add_input(self):
        select = join_plan()
        collector = AnalyzeCollector()
        collector.on_join(select, None)
        collector.on_join(select, "ambiguous_field")
        collector.add_input(select, 6)
        stats = collector.stats_for(select)
        assert stats.hash_joins == 1
        assert stats.fallbacks == {"ambiguous_field": 1}
        assert stats.in_rows == 6

    def test_peak_rows_and_hot_operators(self):
        small, big = b.table("R"), b.table("S")
        collector = AnalyzeCollector()
        stats = collector.enter(small)
        collector.exit(stats, 0.1, Bag([1]))
        stats = collector.enter(big)
        collector.exit(stats, 0.9, Bag([1, 2, 3, 4]))
        assert collector.peak_rows() == 4
        hot = collector.hot_operators(1)
        assert len(hot) == 1
        assert hot[0]["label"] == "table(S)"
        assert hot[0]["self_seconds"] > 0.5


class TestAnalyzedExecution:
    def test_hash_join_reported_inline(self):
        plan = join_plan()
        result, collector = analyzed(plan)
        assert len(result) == 3
        select = collector.stats_for(plan)
        assert select.hash_joins == 1
        assert select.in_rows == 6  # both factors, 3 rows each
        assert select.out_rows == 3
        rendering = render_analyze(plan, collector)
        assert "hash join x1" in rendering
        assert "(not executed)" in rendering  # the fused × never runs

    def test_fallback_reason_reported_inline(self):
        # ``b`` comes from R always but from H only sometimes — the
        # engine cannot attribute it, so it falls back (and still gets
        # the right answer through the reference semantics)
        constants = dict(DB, H=bag(rec(c=1, b=2), rec(c=2)))
        plan = b.sigma(
            b.gt(b.dot(b.id_(), "b"), b.const(1)),
            b.product(b.table("R"), b.table("H")),
        )
        result, collector = analyzed(plan, constants=constants)
        assert len(result) == 6
        stats = collector.stats_for(plan)
        assert stats.fallbacks == {"ambiguous_field": 1}
        assert stats.hash_joins == 0
        rendering = render_analyze(plan, collector)
        assert "fallback: 1x ambiguous field across factors" in rendering

    def test_map_body_runs_per_row(self):
        # a body the batch map cannot take, so it runs once per row
        plan = b.chi(b.add(b.dot(b.id_(), "a"), b.const(1)), b.table("R"))
        result, collector = analyzed(plan)
        assert result == Bag([2, 3, 4])
        stats = collector.stats_for(plan)
        assert stats.calls == 1
        assert stats.in_rows == 3
        assert stats.out_rows == 3
        assert collector.stats_for(plan.body).calls == 3

    def test_fused_chain_counts_direct_base_once(self):
        table = Bag([rec(a=i % 5, b=i) for i in range(40)])
        plan = b.sigma(b.lt(b.dot(b.id_(), "a"), b.const(3)), b.table("R"))
        result, collector = analyzed(plan, constants={"R": table})
        assert len(result) == 24
        stats = collector.stats_for(plan)
        assert stats.columnar == 1
        assert stats.in_rows == 40
        assert "in=40 " in render_analyze(plan, collector)

    def test_fused_chain_credits_indirect_base(self):
        # σ over the scan alias: the base runs under the σ frame, not
        # as its direct input, so the fused pass credits it explicitly
        table = Bag([rec(a=i % 5, b=i) for i in range(40)])
        alias = b.chi(b.concat(b.id_(), b.rec_field("t", b.id_())), b.table("R"))
        plan = b.sigma(b.lt(b.dots(b.id_(), "t", "a"), b.const(3)), alias)
        result, collector = analyzed(plan, constants={"R": table})
        assert len(result) == 24
        stats = collector.stats_for(plan)
        assert stats.columnar == 1
        assert stats.in_rows == 40

    def test_dispatchers_restored_after_error(self):
        plan = b.dot(b.const(5), "a")  # Dot over a non-record raises
        collector = AnalyzeCollector()
        with pytest.raises(EvalError):
            eval_fast(plan, Record({}), None, DB, analyzer=collector)
        assert collector.stats_for(plan).errors == 1
        assert collector._stack == []
        # the next, unanalyzed call reports nothing to that collector
        before = {key: stats.calls for key, stats in collector.stats.items()}
        eval_fast(join_plan(), Record({}), None, DB)
        assert {key: stats.calls for key, stats in collector.stats.items()} == before

    def test_disabled_by_default(self):
        # the four positional arguments stay; analysis is keyword-only
        params = inspect.signature(eval_fast).parameters
        assert list(params)[:4] == ["plan", "env", "datum", "constants"]
        assert params["analyzer"].kind is inspect.Parameter.KEYWORD_ONLY
        assert params["analyzer"].default is None


class TestConcurrency:
    def test_analyzed_call_ignores_concurrent_plain_calls(self):
        big = Bag([rec(a=i % 7, b=i) for i in range(400)])
        constants = dict(DB, B=big)
        plan_a = b.chi(b.add(b.dot(b.id_(), "b"), b.const(1)), b.table("B"))
        plan_b = b.sigma(
            b.eq(b.dot(b.id_(), "a"), b.dot(b.id_(), "c")),
            b.product(b.table("R"), b.table("S")),
        )
        expected_a = eval_fast(plan_a, Record({}), None, constants)
        expected_b = eval_fast(plan_b, Record({}), None, constants)
        started, done = threading.Event(), threading.Event()
        b_results = []

        def loop_b():
            while not done.is_set():
                b_results.append(eval_fast(plan_b, Record({}), None, constants))
                started.set()

        worker = threading.Thread(target=loop_b)
        worker.start()
        try:
            started.wait(10)
            collector = AnalyzeCollector()
            runs_before = len(b_results)
            for _ in range(20):
                result_a = eval_fast(
                    plan_a, Record({}), None, constants, analyzer=collector
                )
                assert result_a == expected_a
            runs_during = len(b_results) - runs_before
        finally:
            done.set()
            worker.join()
        assert runs_during > 0, "the plain loop never overlapped the analyzed runs"
        assert all(result == expected_b for result in b_results)
        b_ids = {id(node) for node in plan_b.walk()}
        assert not b_ids & set(collector.stats)
        assert collector.stats_for(plan_a).calls == 20


class TestRendering:
    def run_analyzed(self, plan):
        return analyzed(plan)[1]

    def test_render_covers_every_node(self):
        plan = join_plan()
        collector = self.run_analyzed(plan)
        rendering = render_analyze(plan, collector)
        assert rendering.count("\n") == len(list(plan.walk()))
        assert "table(R)" in rendering and "table(S)" in rendering
        assert "calls=" in rendering and "time=" in rendering and "self=" in rendering

    def test_calibration_report_table_and_rho(self):
        plan = join_plan()
        collector = self.run_analyzed(plan)
        report = calibration_report(plan, collector)
        assert "Cost-model calibration" in report
        assert "operator" in report and "cost" in report and "out_rows" in report
        assert "rank correlation" in report

    def test_calibration_report_without_execution(self):
        plan = join_plan()
        report = calibration_report(plan, AnalyzeCollector())
        assert "(no nodes executed)" in report

    def test_analysis_summary_shape(self):
        import json

        plan = join_plan()
        collector = self.run_analyzed(plan)
        summary = analysis_summary(collector, plan)
        assert summary["peak_rows"] == 3
        assert summary["nodes"] >= 1
        assert len(summary["hot"]) <= 3
        assert "σ" in summary["tree"]
        json.dumps(summary)  # must be wire-safe

    def test_analysis_summary_without_plan_has_no_tree(self):
        collector = self.run_analyzed(join_plan())
        assert "tree" not in analysis_summary(collector)


class TestProperties:
    """The two invariants that make EXPLAIN ANALYZE numbers trustworthy."""

    @given(st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=120, deadline=None)
    def test_analyzed_engine_matches_plain(self, seed):
        rng = random.Random(seed)
        plan = gen_plan(rng, "any", depth=3)
        env = random_environment(rng)
        datum = random_datum(rng)
        constants = random_constants(rng)
        try:
            expected = eval_fast(plan, env, datum, constants)
        except EvalError:
            with pytest.raises(EvalError):
                analyzed(plan, env, datum, constants)
            return
        result, collector = analyzed(plan, env, datum, constants)
        assert result == expected
        assert collector.stats_for(plan).calls >= 1

    @given(st.integers(min_value=0, max_value=1_000_000))
    @settings(max_examples=120, deadline=None)
    def test_parent_input_equals_child_output(self, seed):
        """in_rows a parent reports == out_rows its input children report.

        Checked on the engine.  Hash joins, physical group-bys and fused
        columnar chains consume their inputs outside the frame protocol
        and credit them with ``add_input``, so those nodes are exempt.
        """
        rng = random.Random(seed)
        plan = gen_plan(rng, "bag", depth=3)
        env = random_environment(rng)
        datum = random_datum(rng)
        constants = random_constants(rng)
        try:
            _, collector = analyzed(plan, env, datum, constants)
        except EvalError:
            return
        for stats in collector.stats.values():
            if not stats.input_ids:
                continue
            if stats.hash_joins or stats.group_bys or stats.columnar:
                continue
            reported = sum(
                collector.stats[child_id].out_rows
                for child_id in stats.input_ids
                if child_id in collector.stats
            )
            assert stats.in_rows == reported, node_label(stats.node)


class TestJsonViews:
    def run_collected(self):
        plan = join_plan()
        return plan, analyzed(plan)[1]

    def test_analyze_json_mirrors_plan_shape(self):
        import json

        from repro.obs.analyze import analyze_json

        plan, collector = self.run_collected()
        document = analyze_json(plan, collector)
        json.dumps(document)  # JSON-safe throughout
        assert document["label"] == "σ"
        assert document["stats"]["calls"] >= 1
        # a=1 matches c=1 once; a=2 matches c=2 twice
        assert document["stats"]["out_rows"] == 3

        def labels(node):
            return [node["label"]] + [l for c in node["children"] for l in labels(c)]

        rendered = render_analyze(plan, collector)
        for label in set(labels(document)):
            assert label in rendered

    def test_analyze_json_unexecuted_nodes_have_none_stats(self):
        from repro.obs.analyze import analyze_json

        # σ⟨false⟩ short-circuits nothing here, but an unexecuted branch
        # comes from a plan whose subtree never runs: default(table, const)
        plan = b.sigma(b.const(False), b.table("R"))
        _, collector = analyzed(plan)
        document = analyze_json(plan, collector)
        stats = [document["stats"]] + [child["stats"] for child in document["children"]]
        assert any(s is not None for s in stats)

    def test_calibration_data_rows_and_rho(self):
        import json

        from repro.obs.analyze import calibration_data

        plan, collector = self.run_collected()
        data = calibration_data(plan, collector)
        json.dumps(data)
        assert data["rows"], "executed nodes must appear"
        costs = [row["cost"] for row in data["rows"]]
        assert costs == sorted(costs, reverse=True)
        for row in data["rows"]:
            assert set(row) == {"operator", "cost", "out_rows", "self_seconds"}
        assert data["spearman_rho"] is None or -1.0 <= data["spearman_rho"] <= 1.0

    def test_calibration_data_agrees_with_report(self):
        from repro.obs.analyze import calibration_data

        plan, collector = self.run_collected()
        report = calibration_report(plan, collector)
        data = calibration_data(plan, collector)
        rho = data["spearman_rho"]
        if rho is not None:
            assert ("%+.3f" % rho) in report


class TestQueryIdCorrelation:
    def test_summary_carries_query_id_inside_a_request(self):
        from repro.obs.context import QueryContext, query_context

        plan, collector = TestJsonViews().run_collected()
        with query_context(QueryContext(query_id="deadbeefcafe0123")):
            summary = analysis_summary(collector)
        assert summary["query_id"] == "deadbeefcafe0123"

    def test_summary_has_no_query_id_outside_a_request(self):
        plan, collector = TestJsonViews().run_collected()
        summary = analysis_summary(collector)
        assert "query_id" not in summary
