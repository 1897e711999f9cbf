"""Tests for the compiler driver (pipelines, timings, metrics)."""

import pytest

from repro.compiler.metrics import describe, query_depth, query_size
from repro.compiler.pipeline import (
    CompilationResult,
    compile_camp,
    compile_camp_to_nra_via_nraenv,
    compile_camp_via_nra,
    compile_lnra,
    compile_oql,
    compile_sql,
    run_pipeline,
)
from repro.data.model import Record, bag, rec
from repro.nnrc.eval import eval_nnrc
from repro.nra import eval_nra, is_nra


class TestRunPipeline:
    def test_stages_executed_in_order(self):
        result = run_pipeline(1, [("inc", lambda x: x + 1), ("dbl", lambda x: x * 2)])
        assert result.final == 4
        assert [s.name for s in result.stages] == ["inc", "dbl"]

    def test_timings_recorded(self):
        result = run_pipeline(1, [("inc", lambda x: x + 1)])
        assert result.seconds("inc") >= 0.0
        assert result.total_seconds >= 0.0
        assert result.timings() == {"inc": result.seconds("inc")}

    def test_unknown_stage_raises(self):
        result = run_pipeline(1, [("inc", lambda x: x + 1)])
        with pytest.raises(KeyError):
            result.stage("nope")

    def test_traced_optimizer_stages_carry_their_facts(self):
        from repro.obs.trace import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            result = compile_sql("select a from t where a > 1 and 1 = 1")
        for name in ("nraenv_opt", "nnrc_opt"):
            optimized = result.optimize_result(name)
            args = tracer.find(name).args
            assert args["fired"] == sum(optimized.fire_counts.values())
            assert args["passes"] == optimized.passes
            assert args["size_out"] == optimized.plan.size()
        assert tracer.find("nraenv_opt").args["size_in"] == result.output("to_nraenv").size()
        assert tracer.find("nnrc_opt").args["size_in"] == result.output("to_nnrc").size()
        assert tracer.find("nnrc_opt").args["fired"] > 0
        # Stages that do not optimize carry no optimizer facts.
        assert "fired" not in tracer.find("to_nnrc").args


class TestCampPipelines:
    def test_compile_camp_end_to_end(self, camp_programs):
        program = camp_programs["p03"]
        result = compile_camp(program.pattern)
        nnrc = result.final
        got = eval_nnrc(
            nnrc,
            {"d0": program.world, "e0": Record({})},
            {"WORLD": program.world},
        )
        assert got == bag(program.run())

    def test_compile_camp_via_nra_agrees(self, camp_programs):
        program = camp_programs["p06"]
        direct = compile_camp(program.pattern)
        via_nra = compile_camp_via_nra(program.pattern)
        env = {"d0": program.world, "e0": Record({})}
        # The NRA path encodes the two inputs as one record.
        from repro.translate.camp_to_nra import encode_input

        nra_env = {"d0": encode_input(Record({}), program.world)}
        constants = {"WORLD": program.world}
        assert eval_nnrc(direct.final, env, constants) == eval_nnrc(
            via_nra.final, nra_env, constants
        )

    def test_camp_to_nra_via_nraenv_produces_pure_nra(self, camp_programs):
        program = camp_programs["p02"]
        result = compile_camp_to_nra_via_nraenv(program.pattern)
        assert is_nra(result.final)
        from repro.translate.camp_to_nra import encode_input

        got = eval_nra(
            result.final,
            encode_input(Record({}), program.world),
            {"WORLD": program.world},
        )
        assert got == bag(program.run())

    def test_figure9_size_gap(self, camp_programs):
        """Through-NRAe NRA plans are much smaller than direct ones."""
        program = camp_programs["p01"]
        direct = compile_camp_via_nra(program.pattern)
        through = compile_camp_to_nra_via_nraenv(program.pattern)
        assert through.output("nra_opt").size() < direct.output("nra_opt").size()


class TestFrontendPipelines:
    def test_compile_sql(self):
        result = compile_sql("select a from t where a > 1")
        assert [s.name for s in result.stages] == [
            "parse", "to_nraenv", "nraenv_opt", "to_nnrc", "nnrc_opt",
        ]
        got = eval_nnrc(
            result.final,
            {"d0": None, "e0": Record({})},
            {"t": bag(rec(a=1), rec(a=2))},
        )
        assert got == bag(rec(a=2))

    def test_compile_oql(self):
        result = compile_oql("select p.a from p in t where p.a > 1")
        got = eval_nnrc(
            result.final,
            {"d0": None, "e0": Record({})},
            {"t": bag(rec(a=1), rec(a=2))},
        )
        assert got == bag(2)

    def test_compile_lnra(self):
        from repro.data.operators import OpDot
        from repro.lambda_nra import Lambda, LMap, LTable, LUnop, LVar

        expr = LMap(Lambda("x", LUnop(OpDot("a"), LVar("x"))), LTable("t"))
        result = compile_lnra(expr)
        got = eval_nnrc(
            result.final,
            {"d0": None, "e0": Record({})},
            {"t": bag(rec(a=5))},
        )
        assert got == bag(5)


class TestMetrics:
    def test_uniform_accessors(self):
        result = compile_sql("select a from t")
        plan = result.output("to_nraenv")
        assert describe(plan) == {"size": plan.size(), "depth": plan.depth()}
        assert query_size(plan) == plan.size()
        assert query_depth(plan) == plan.depth()

    def test_repr(self):
        result = compile_sql("select a from t")
        assert "parse" in repr(result)
