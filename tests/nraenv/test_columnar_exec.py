"""Fused columnar chains in the execution engine.

Every fused path must agree (multiset-equal) with the reference
semantics wherever the reference succeeds; fallbacks are counted under
``engine.fallback.columnar_shape`` / ``columnar_fallback`` and fused
passes under ``engine.columnar`` (chains) / ``engine.columnar_filter``
(the join executor's residual masks).  The hypothesis property at the
bottom drives random σ/χ chains over bags with nested values (records,
bags, dates, ``1`` vs ``1.0`` keys) against ``eval_nraenv``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import operators as ops
from repro.data.columnar import cached_columnar, ensure_columnar
from repro.data.foreign import DateValue
from repro.data.model import Bag, Record, bag, rec
from repro.nraenv import ast
from repro.nraenv import builders as b
from repro.nraenv.eval import EvalError, eval_nraenv
from repro.nraenv.exec import eval_fast
from repro.obs.metrics import MetricsRegistry, use_metrics

from tests.strategies import values

DB = {
    "R": bag(rec(a=1, b=10), rec(a=2, b=20), rec(a=3, b=30), rec(a=1.0, b=40)),
    "S": bag(rec(c=1, d=5), rec(c=2, d=50), rec(c=2, d=500)),
    "H": bag(rec(c=1, b=2), rec(c=2)),  # heterogeneous: b sometimes absent
    "NR": bag(1, 2, 3),  # not records
    "D": bag(
        rec(k=1, when=DateValue(1995, 3, 1)),
        rec(k=2, when=DateValue(1996, 7, 4)),
    ),
    "T": bag(rec(name="promo x"), rec(name="standard y"), rec(name="promo z")),
}


def counters(registry):
    return registry.snapshot()["counters"]


def run_counted(plan, env=None, constants=DB):
    env = env if env is not None else Record({})
    registry = MetricsRegistry()
    with use_metrics(registry):
        result = eval_fast(plan, env, None, constants)
    assert result == eval_nraenv(plan, env, None, constants)
    return result, counters(registry)


def env_mode_pred(inner):
    """The SQL translator's row shape: ``inner ∘e (Env ⊕ In)``."""
    return b.appenv(inner, b.concat(b.env(), b.id_()))


class TestFusedChains:
    def test_simple_filter(self):
        plan = b.sigma(b.lt(b.dot(b.id_(), "a"), b.const(3)), b.table("R"))
        result, counts = run_counted(plan)
        assert len(result) == 3  # 1, 2, and 1.0
        assert counts.get("engine.columnar") == 1
        assert not any(name.startswith("engine.fallback.") for name in counts)

    def test_equality_collapses_int_float(self):
        plan = b.sigma(b.eq(b.dot(b.id_(), "a"), b.const(1)), b.table("R"))
        result, counts = run_counted(plan)
        assert result == bag(rec(a=1, b=10), rec(a=1.0, b=40))
        assert counts.get("engine.columnar") == 1

    def test_membership_against_constant_bag(self):
        plan = b.sigma(
            b.member(b.dot(b.id_(), "a"), b.const(bag(1, 3))), b.table("R")
        )
        result, counts = run_counted(plan)
        assert len(result) == 3
        assert counts.get("engine.columnar") == 1

    def test_conjunction_and_arithmetic(self):
        pred = b.and_(
            b.gt(b.add(b.dot(b.id_(), "a"), b.const(1)), b.const(2)),
            b.lt(b.dot(b.id_(), "b"), b.const(40)),
        )
        plan = b.sigma(pred, b.table("R"))
        result, counts = run_counted(plan)
        assert result == bag(rec(a=2, b=20), rec(a=3, b=30))
        assert counts.get("engine.columnar") == 1

    def test_date_unop_mask(self):
        pred = b.eq(
            b.unop(ops.OpDateYear(), b.dot(b.id_(), "when")), b.const(1995)
        )
        plan = b.sigma(pred, b.table("D"))
        result, counts = run_counted(plan)
        assert result == bag(rec(k=1, when=DateValue(1995, 3, 1)))
        assert counts.get("engine.columnar") == 1

    def test_like_mask(self):
        pred = b.unop(ops.OpLike("promo%"), b.dot(b.id_(), "name"))
        plan = b.sigma(pred, b.table("T"))
        result, counts = run_counted(plan)
        assert len(result) == 2
        assert counts.get("engine.columnar") == 1

    def test_stacked_filters_fuse_once(self):
        inner = b.sigma(b.gt(b.dot(b.id_(), "b"), b.const(10)), b.table("R"))
        plan = b.sigma(b.lt(b.dot(b.id_(), "a"), b.const(3)), inner)
        result, counts = run_counted(plan)
        assert result == bag(rec(a=2, b=20), rec(a=1.0, b=40))
        assert counts.get("engine.columnar") == 1

    def test_projection_over_filter(self):
        plan = b.chi(
            b.record({"x": b.dot(b.id_(), "b")}),
            b.sigma(b.gt(b.dot(b.id_(), "a"), b.const(1)), b.table("R")),
        )
        result, counts = run_counted(plan)
        assert result == bag(rec(x=20), rec(x=30))
        assert counts.get("engine.columnar") == 1

    def test_filter_over_projection(self):
        plan = b.sigma(
            b.eq(b.dot(b.id_(), "x"), b.const(20)),
            b.chi(b.record({"x": b.dot(b.id_(), "b")}), b.table("R")),
        )
        result, counts = run_counted(plan)
        assert result == bag(rec(x=20))
        assert counts.get("engine.columnar") == 1

    def test_scan_alias_and_qualified_access(self):
        # the SQL translator's scan shape: χ⟨In ⊕ [t: In]⟩($R)
        alias = b.chi(
            b.concat(b.id_(), b.rec_field("t", b.id_())), b.table("R")
        )
        plan = b.sigma(b.gt(b.dots(b.id_(), "t", "b"), b.const(20)), alias)
        result, counts = run_counted(plan)
        assert len(result) == 2
        assert counts.get("engine.columnar") == 1

    def test_env_mode_outer_read_is_row_free(self):
        pred = env_mode_pred(b.lt(b.dot(b.env(), "a"), b.dot(b.env(), "lim")))
        plan = b.sigma(pred, b.table("R"))
        env = Record({"lim": 3})
        result, counts = run_counted(plan, env=env)
        assert len(result) == 3
        assert counts.get("engine.columnar") == 1

    def test_const_base_bag(self):
        table = bag(rec(a=1), rec(a=2))
        plan = b.sigma(b.eq(b.dot(b.id_(), "a"), b.const(2)), b.const(table))
        result, counts = run_counted(plan)
        assert result == bag(rec(a=2))
        assert counts.get("engine.columnar") == 1

    def test_base_bag_columnar_cache_reused(self):
        table = DB["R"]
        plan = b.sigma(b.lt(b.dot(b.id_(), "a"), b.const(3)), b.table("R"))
        eval_fast(plan, Record({}), None, DB)
        assert cached_columnar(table) is not None
        assert cached_columnar(table) is ensure_columnar(table)

    def test_large_output_gets_derived_columnar(self):
        table = Bag([rec(a=i, b=i * 2) for i in range(64)])
        plan = b.sigma(
            b.lt(b.dot(b.id_(), "a"), b.const(50)), b.const(table)
        )
        result = eval_fast(plan, Record({}), None, {})
        assert len(result) == 50
        assert cached_columnar(result) is not None
        assert cached_columnar(result).column("a") == list(range(50))


class TestFallbacks:
    def test_columnar_shape_on_non_record_base(self):
        plan = b.sigma(b.const(True), b.table("NR"))
        result, counts = run_counted(plan)
        assert result == DB["NR"]
        assert counts.get("engine.fallback.columnar_shape") == 1
        assert "engine.columnar" not in counts

    def test_columnar_shape_on_env_mode_without_record_env(self):
        pred = env_mode_pred(b.const(True))
        plan = b.sigma(pred, b.table("R"))
        registry = MetricsRegistry()
        with use_metrics(registry):
            # reference raises too (Env ⊕ In needs a record env)
            with pytest.raises(EvalError):
                eval_fast(plan, bag(1), None, DB)
        assert counters(registry).get("engine.fallback.columnar_shape") == 1

    def test_columnar_fallback_when_nothing_compiles(self):
        # ``In ∈ bag``: a whole-row read no mask can express
        plan = b.sigma(
            b.member(b.id_(), b.const(bag(rec(a=1, b=10)))), b.table("R")
        )
        result, counts = run_counted(plan)
        assert result == bag(rec(a=1, b=10))
        assert counts.get("engine.fallback.columnar_fallback") == 1
        assert "engine.columnar" not in counts

    def test_missing_column_conjunct_stays_residual(self):
        # H's ``b`` is sometimes absent: the conjunct must not compile
        # to a mask (per-row exactness), but the ``c`` conjunct does —
        # and its mask runs first, so the engine may legitimately skip
        # the row whose missing ``b`` makes the *reference* raise.
        pred = b.and_(
            b.eq(b.dot(b.id_(), "c"), b.const(1)),
            b.eq(b.dot(b.id_(), "b"), b.const(2)),
        )
        plan = b.sigma(pred, b.table("H"))
        registry = MetricsRegistry()
        with use_metrics(registry):
            result = eval_fast(plan, Record({}), None, DB)
        assert result == bag(rec(c=1, b=2))
        assert counters(registry).get("engine.columnar") == 1
        with pytest.raises(EvalError):
            eval_nraenv(plan, Record({}), None, DB)


class TestJoinResidualMasks:
    def test_non_equi_residual_compiles_to_mask(self):
        pred = b.and_(
            b.eq(b.dot(b.id_(), "a"), b.dot(b.id_(), "c")),
            b.gt(b.dot(b.id_(), "d"), b.dot(b.id_(), "b")),
        )
        plan = b.sigma(pred, b.product(b.table("R"), b.table("S")))
        result, counts = run_counted(plan)
        assert counts.get("engine.join") == 1
        assert counts.get("engine.columnar_filter", 0) >= 1
        # cross-check contents: a=c joins, then d>b keeps the c=2 pairs
        expected = eval_nraenv(plan, Record({}), None, DB)
        assert result == expected and len(result) == 2


class TestGroupByColumnar:
    def test_group_by_over_columnar_source(self):
        table = Bag([rec(g=i % 3, v=i) for i in range(40)])
        ensure_columnar(table)
        constants = {"G": table}
        plan = b.group_by(["g"], b.table("G"), partition_field="part")
        result, counts = run_counted(plan, constants=constants)
        assert counts.get("engine.group_by") == 1
        assert len(result) == 3


# ---------------------------------------------------------------------------
# Property: fused chains agree with the reference over nested values
# ---------------------------------------------------------------------------

_pool = st.one_of(
    st.sampled_from([1, 1.0, 2, "x", None, True, DateValue(1995, 1, 1)]),
    values(4),
)

_rows = st.lists(
    st.builds(lambda a, b_: Record({"a": a, "b": b_}), _pool, _pool),
    max_size=8,
)


@st.composite
def _chains(draw):
    """A fused-shape plan over ``$t``: filters and projections, ≥1 filter."""
    node = ast.GetConstant("t")
    stages = draw(st.integers(min_value=1, max_value=3))
    fields = ["a", "b"]
    has_filter = False
    for position in range(stages):
        kind = draw(st.sampled_from(["filter", "filter", "project"]))
        if kind == "project" and fields:
            name = draw(st.sampled_from(["a", "b", "p"]))
            src = draw(st.sampled_from(fields))
            node = b.chi(b.record({name: b.dot(b.id_(), src)}), node)
            fields = [name]
        else:
            src = draw(st.sampled_from(fields))
            constant = draw(_pool)
            pred = draw(
                st.sampled_from(
                    [
                        b.eq(b.dot(b.id_(), src), b.const(constant)),
                        b.member(
                            b.dot(b.id_(), src),
                            b.const(Bag([constant, draw(_pool)])),
                        ),
                    ]
                )
            )
            node = b.sigma(pred, node)
            has_filter = True
    if not has_filter:
        node = b.sigma(b.eq(b.dot(b.id_(), fields[0]), b.const(1)), node)
    return node


@settings(max_examples=80, deadline=None)
@given(rows=_rows, plan=_chains())
def test_fused_chain_matches_reference(rows, plan):
    constants = {"t": Bag(rows)}
    env = Record({})
    try:
        expected = eval_nraenv(plan, env, None, constants)
    except EvalError:
        return  # partial reference semantics: nothing to compare
    got = eval_fast(plan, env, None, constants)
    assert got == expected
