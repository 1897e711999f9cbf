"""Tests for the S-expression interchange (paper §8's frontend format)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camp_suite.programs import all_programs
from repro.data.foreign import DateValue
from repro.data.model import Bag, bag, rec
from repro.nraenv import builders as b
from repro.optim.verify import gen_plan
from repro.sexp import (
    SexpError,
    dumps_camp,
    dumps_plan,
    loads_camp,
    loads_plan,
    parse_sexp,
    print_sexp,
    sexp_to_value,
    value_to_sexp,
)
from tests.strategies import values


class TestReader:
    def test_atoms(self):
        assert parse_sexp("42") == 42
        assert parse_sexp("-2.5") == -2.5
        assert parse_sexp("foo") == "foo"
        assert parse_sexp('"hi there"') == "hi there"

    def test_nesting(self):
        assert parse_sexp("(a (b 1) 2)") == ["a", ["b", 1], 2]

    def test_comments(self):
        assert parse_sexp("(a ; comment\n b)") == ["a", "b"]

    def test_string_escapes(self):
        assert parse_sexp(r'"say \"hi\""') == 'say "hi"'

    def test_errors(self):
        with pytest.raises(SexpError):
            parse_sexp("(a")
        with pytest.raises(SexpError):
            parse_sexp(")")
        with pytest.raises(SexpError):
            parse_sexp("a b")

    def test_print_round_trip(self):
        expr = ["map", ["unop", ["dot", "a"], "in"], ["table", "T"]]
        assert parse_sexp(print_sexp(expr)) == expr


class TestValues:
    def test_tagged_forms(self):
        value = rec(a=bag(1, DateValue(1994, 1, 2)), b=None, c=True)
        assert sexp_to_value(value_to_sexp(value)) == value

    def test_strings_that_spell_keywords(self):
        value = rec(a="null", b="true", c="false", d="str", e=None, f=True)
        assert sexp_to_value(parse_sexp(print_sexp(value_to_sexp(value)))) == value

    @given(values(max_leaves=8))
    @settings(max_examples=80)
    def test_value_round_trip(self, value):
        assert sexp_to_value(value_to_sexp(value)) == value


class TestPlans:
    def test_readable_output(self):
        plan = b.chi(b.dot(b.id_(), "a"), b.table("T"))
        assert dumps_plan(plan) == "(map (unop (dot a) in) (table T))"

    def test_hand_written_input(self):
        plan = loads_plan("(select (binop gt (unop (dot a) in) (const 2)) (table T))")
        from repro.nraenv.eval import eval_nraenv

        assert eval_nraenv(plan, rec(), None, {"T": bag(rec(a=1), rec(a=5))}) == bag(
            rec(a=5)
        )

    @given(st.integers(min_value=0, max_value=500_000))
    @settings(max_examples=120, deadline=None)
    def test_plan_round_trip(self, seed):
        rng = random.Random(seed)
        plan = gen_plan(rng, "any", depth=3)
        assert loads_plan(dumps_plan(plan)) == plan

    def test_sql_pipeline_plans_round_trip(self):
        from repro.sql.parser import parse_sql
        from repro.sql.to_nraenv import sql_to_nraenv
        from repro.tpch.queries import QUERIES

        for name in ("q1", "q6", "q15"):
            plan = sql_to_nraenv(parse_sql(QUERIES[name]))
            assert loads_plan(dumps_plan(plan)) == plan

    def test_unknown_head_rejected(self):
        with pytest.raises(SexpError):
            loads_plan("(frobnicate 1 2)")


class TestCampPatterns:
    def test_round_trip_whole_suite(self, camp_programs):
        for name, program in camp_programs.items():
            text = dumps_camp(program.pattern)
            assert loads_camp(text) == program.pattern, name

    def test_external_frontend_shape(self):
        # what a JRules-style external parser would hand the compiler:
        text = """
        (pmap
          (let-env (unop (rec x) it)
            (binop eq it (unop (dot x) env))))
        """
        pattern = loads_camp(text)
        from repro.camp.eval import eval_camp
        from repro.data.model import Record

        assert eval_camp(pattern, bag(1, 2), Record({})) == bag(True, True)
