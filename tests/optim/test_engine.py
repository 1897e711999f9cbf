"""Unit tests for the rewrite engine (paper §8)."""

import operator
import random
from typing import Any, Dict, List, NamedTuple, Sequence

import pytest

from repro.camp_suite.programs import all_programs
from repro.data.model import bag, rec
from repro.lambda_nra.parser import parse_lnra
from repro.nraenv import ast, builders as b
from repro.obs.trace import Tracer, use_tracer
from repro.optim.cost import depth_cost, size_cost, size_depth_cost
from repro.optim.defaults import (
    default_nnrc_rules,
    default_nra_rules,
    default_nraenv_rules,
    optimize_nnrc,
    optimize_nra,
    optimize_nraenv,
)
from repro.optim.engine import (
    _MAX_LOCAL_STEPS,
    _MAX_PASSES,
    _MAX_STALLED,
    OptimizeResult,
    ProvenanceLog,
    Rewrite,
    optimize,
    rewrite_once,
)
from repro.optim.verify import gen_plan
from repro.oql.parser import parse_oql
from repro.oql.to_nraenv import oql_to_nraenv
from repro.sql.parser import parse_sql
from repro.sql.to_nraenv import sql_to_nraenv
from repro.tpch.queries import QUERIES, QUERY_NAMES
from repro.translate.camp_to_nra import camp_to_nra
from repro.translate.camp_to_nraenv import camp_to_nraenv
from repro.translate.lambda_nra_to_nraenv import lnra_to_nraenv
from repro.translate.nraenv_to_nnrc import nraenv_to_nnrc


def make_map_id_rule():
    def fn(plan):
        if isinstance(plan, ast.Map) and isinstance(plan.body, ast.ID):
            return plan.input
        return None

    return Rewrite("test_map_id", fn, typed=True, description="χ⟨In⟩(q) ⇒ q")


class TestRewrite:
    def test_apply_returns_none_when_no_change(self):
        rule = make_map_id_rule()
        assert rule.apply(b.table("T")) is None

    def test_apply_returns_rewritten_plan(self):
        rule = make_map_id_rule()
        assert rule.apply(b.chi(b.id_(), b.table("T"))) == b.table("T")

    def test_identity_result_counts_as_no_fire(self):
        rule = Rewrite("noop", lambda plan: plan)
        assert rule.apply(b.id_()) is None


class TestRewriteOnce:
    def test_applies_everywhere(self):
        rule = make_map_id_rule()
        plan = b.union(b.chi(b.id_(), b.table("T")), b.chi(b.id_(), b.table("U")))
        assert rewrite_once(plan, [rule]) == b.union(b.table("T"), b.table("U"))

    def test_fires_on_redexes_created_by_children(self):
        rule = make_map_id_rule()
        plan = b.chi(b.id_(), b.chi(b.id_(), b.table("T")))
        assert rewrite_once(plan, [rule]) == b.table("T")

    def test_counts_fires(self):
        rule = make_map_id_rule()
        counts = {}
        rewrite_once(b.chi(b.id_(), b.chi(b.id_(), b.table("T"))), [rule], counts)
        assert counts == {"test_map_id": 2}


class TestOptimize:
    def test_reaches_fixpoint(self):
        rule = make_map_id_rule()
        plan = b.chi(b.id_(), b.chi(b.id_(), b.table("T")))
        result = optimize(plan, [rule])
        assert result.plan == b.table("T")
        assert result.final_cost < result.initial_cost

    def test_no_rules_is_identity(self):
        plan = b.chi(b.id_(), b.table("T"))
        result = optimize(plan, [])
        assert result.plan == plan
        assert result.passes == 1

    def test_keeps_best_plan_under_oscillation(self):
        # Two rules that flip a plan back and forth; the engine must
        # terminate and return a no-worse plan.
        def grow(plan):
            if plan == b.table("T"):
                return b.chi(b.id_(), b.table("T"))
            return None

        def shrink(plan):
            if isinstance(plan, ast.Map) and isinstance(plan.body, ast.ID):
                return plan.input
            return None

        rules = [Rewrite("grow", grow), Rewrite("shrink", shrink)]
        result = optimize(b.chi(b.id_(), b.table("T")), rules)
        assert result.final_cost <= result.initial_cost

    def test_fired_accessor(self):
        rule = make_map_id_rule()
        result = optimize(b.chi(b.id_(), b.table("T")), [rule])
        assert result.fired("test_map_id") == 1
        assert result.fired("unknown") == 0

    def test_repr(self):
        result = OptimizeResult(b.id_(), 10, 5, 3, {})
        assert "10 → 5" in repr(result)


def make_rename_rule(src, dst):
    def fn(plan):
        if isinstance(plan, ast.GetConstant) and plan.cname == src:
            return b.table(dst)
        return None

    return Rewrite("rename_%s_%s" % (src, dst), fn)


def make_grow_rule():
    """Wraps every table in χ⟨In⟩(·): cost strictly increases each pass."""

    def fn(plan):
        if isinstance(plan, ast.GetConstant):
            return b.chi(b.id_(), plan)
        return None

    return Rewrite("grow", fn)


class TestTerminationPaths:
    """The three ways an optimization run stops (plus the provenance log)."""

    def test_fixpoint(self):
        provenance = ProvenanceLog()
        plan = b.chi(b.id_(), b.chi(b.id_(), b.table("T")))
        result = optimize(plan, [make_map_id_rule()], provenance=provenance)
        assert result.plan == b.table("T")
        # Pass 1 collapses both redexes, pass 2 confirms the fixpoint.
        assert result.passes == 2
        assert provenance.termination == "fixpoint"
        assert result.fire_counts == {"test_map_id": 2}
        assert provenance.rule_counts() == result.fire_counts
        # Cost trajectory: initial, after pass 1, repeated on the
        # no-change pass.
        assert provenance.costs == [result.initial_cost, result.final_cost, result.final_cost]
        assert [e.pass_index for e in provenance.events] == [1, 1]
        assert all(e.size_after < e.size_before for e in provenance.events)

    def test_revisit_breaks_rename_cycle(self):
        # T → U → V → T keeps firing at one node, so every pass burns the
        # whole local-step budget; 64 ≡ 1 (mod 3) advances the plan one
        # rename per pass, and pass 3 lands back on the original plan —
        # the `seen` set must catch the cycle.
        assert _MAX_LOCAL_STEPS % 3 == 1
        rules = [
            make_rename_rule("T", "U"),
            make_rename_rule("U", "V"),
            make_rename_rule("V", "T"),
        ]
        provenance = ProvenanceLog()
        result = optimize(b.table("T"), rules, provenance=provenance)
        assert provenance.termination == "revisit"
        assert result.passes == 3
        assert result.plan == b.table("T")  # best plan: cost never improved
        assert provenance.rule_counts() == result.fire_counts
        assert sum(result.fire_counts.values()) == 3 * _MAX_LOCAL_STEPS

    def test_stall_after_eight_non_improving_passes(self):
        provenance = ProvenanceLog()
        result = optimize(b.table("T"), [make_grow_rule()], provenance=provenance)
        assert provenance.termination == "stall"
        assert result.passes == _MAX_STALLED
        # The engine returns the best plan seen, which is the original.
        assert result.plan == b.table("T")
        assert result.final_cost == result.initial_cost
        assert result.fire_counts == {"grow": _MAX_STALLED}
        assert provenance.rule_counts() == result.fire_counts
        # One fire per pass, each strictly worsening the cost.
        costs = provenance.costs
        assert len(costs) == _MAX_STALLED + 1
        assert all(later > earlier for earlier, later in zip(costs, costs[1:]))

    def test_oscillation_terminates_via_revisit(self):
        def grow(plan):
            if plan == b.table("T"):
                return b.chi(b.id_(), b.table("T"))
            return None

        provenance = ProvenanceLog()
        rules = [Rewrite("grow", grow), make_map_id_rule()]
        optimize(b.chi(b.id_(), b.table("T")), rules, provenance=provenance)
        assert provenance.termination in ("revisit", "stall", "fixpoint")
        assert provenance.termination != ""


class TestProvenance:
    def test_untraced_runs_carry_no_provenance(self):
        result = optimize(b.chi(b.id_(), b.table("T")), [make_map_id_rule()])
        assert result.provenance is None

    def test_enabled_tracer_collects_provenance_with_timing(self):
        tracer = Tracer()
        with use_tracer(tracer):
            result = optimize(b.chi(b.id_(), b.table("T")), [make_map_id_rule()])
        provenance = result.provenance
        assert provenance is not None and provenance.timing
        assert provenance.termination == "fixpoint"
        assert provenance.rule_counts() == result.fire_counts
        assert provenance.rule_attempts["test_map_id"] >= 1
        assert provenance.rule_seconds["test_map_id"] >= 0.0
        # The optimizer also left spans: one per run, one per pass.
        optimize_span = tracer.find("optimize")
        assert optimize_span is not None
        assert [c.name for c in optimize_span.children] == ["pass 1", "pass 2"]

    def test_rewrite_once_records_events(self):
        provenance = ProvenanceLog()
        plan = b.chi(b.id_(), b.chi(b.id_(), b.table("T")))
        rewrite_once(plan, [make_map_id_rule()], provenance=provenance, pass_index=7)
        assert [e.pass_index for e in provenance.events] == [7, 7]
        assert provenance.rule_counts() == {"test_map_id": 2}

    def test_repr(self):
        provenance = ProvenanceLog()
        assert "running" in repr(provenance)


class TestCostFunctions:
    def test_size_cost(self):
        assert size_cost(b.chi(b.id_(), b.table("T"))) == 3

    def test_depth_cost(self):
        assert depth_cost(b.chi(b.id_(), b.table("T"))) == 1

    def test_size_depth_cost_is_sum(self):
        plan = b.chi(b.id_(), b.table("T"))
        assert size_depth_cost(plan) == size_cost(plan) + depth_cost(plan)

    def test_node_costs_covers_every_subtree(self):
        from repro.optim.cost import node_costs

        plan = b.sigma(b.const(True), b.chi(b.id_(), b.table("T")))
        costs = node_costs(plan)
        nodes = list(plan.walk())
        assert set(costs) == {id(node) for node in nodes}
        assert costs[id(plan)] == size_depth_cost(plan)
        # a subtree's cost never exceeds its parent's
        assert costs[id(plan.input)] < costs[id(plan)]


class TestSpearman:
    def test_perfect_agreement(self):
        from repro.optim.cost import spearman_rank_correlation

        assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == 1.0

    def test_perfect_disagreement(self):
        from repro.optim.cost import spearman_rank_correlation

        assert spearman_rank_correlation([1, 2, 3], [30, 20, 10]) == -1.0

    def test_ties_get_average_ranks(self):
        from repro.optim.cost import spearman_rank_correlation

        # monotone up to a tie: still strongly positive, not 1.0 exactly
        rho = spearman_rank_correlation([1, 2, 2, 4], [5, 6, 7, 8])
        assert 0.9 < rho < 1.0

    def test_degenerate_inputs_return_none(self):
        from repro.optim.cost import spearman_rank_correlation

        assert spearman_rank_correlation([], []) is None
        assert spearman_rank_correlation([1], [2]) is None
        assert spearman_rank_correlation([1, 1, 1], [1, 2, 3]) is None

    def test_length_mismatch_rejected(self):
        import pytest

        from repro.optim.cost import spearman_rank_correlation

        with pytest.raises(ValueError):
            spearman_rank_correlation([1, 2], [1])


# ---------------------------------------------------------------------------
# Head dispatch and settled subtrees: the same search, less work
# ---------------------------------------------------------------------------


class Reference(NamedTuple):
    plan: Any
    fire_counts: Dict[str, int]
    passes: int
    termination: str
    costs: List[int]
    attempts: int


def reference_optimize(plan, rules: Sequence[Rewrite], cost=size_depth_cost) -> Reference:
    """The engine before head dispatch and settled subtrees, kept as an oracle.

    Every rule is tried at every node, and every pass re-walks the whole
    plan.
    """
    counts: Dict[str, int] = {}
    attempts = [0]

    def bottom_up(node):
        children = node.children()
        new_children = tuple(bottom_up(child) for child in children)
        if not all(map(operator.is_, new_children, children)):
            node = node.rebuild(new_children)
        return at_node(node)

    def at_node(node):
        for _ in range(_MAX_LOCAL_STEPS):
            for rule in rules:
                attempts[0] += 1
                result = rule.apply(node)
                if result is not None:
                    counts[rule.name] = counts.get(rule.name, 0) + 1
                    node = result
                    break
            else:
                return node
        return node

    costs = [cost(plan)]
    current, best, best_cost = plan, plan, costs[0]
    passes, stalled, seen, termination = 0, 0, {plan}, "pass-limit"
    for _ in range(_MAX_PASSES):
        candidate = bottom_up(current)
        passes += 1
        if candidate is current or candidate == current:
            termination = "fixpoint"
            costs.append(costs[-1])
            break
        candidate_cost = cost(candidate)
        costs.append(candidate_cost)
        if candidate_cost < best_cost:
            best, best_cost, stalled = candidate, candidate_cost, 0
        else:
            stalled += 1
            if stalled >= _MAX_STALLED:
                termination = "stall"
                break
        if candidate in seen:
            termination = "revisit"
            break
        seen.add(candidate)
        current = candidate
    return Reference(best, counts, passes, termination, costs, attempts[0])


OQL_QUERIES = [
    "select p.name from p in persons where p.age > 30",
    "select struct(n: p.name, k: count(p.kids)) from p in persons",
    "select k.name from p in persons, k in p.kids",
    "select struct(n: p.name, young: (select k from k in p.kids where k.age < 10)) "
    "from p in persons where p.age > 35",
    "avg(select k.age from p in persons, k in p.kids)",
    "exists p in persons : p.age > 35",
    "select distinct count(p.kids) from p in persons",
    "flatten(select p.kids from p in persons where p.age > 35)",
    "define adults as select p from p in persons where p.age >= 21; "
    "define names as select a.name from a in adults; names",
    "select (select p.age from p in p.kids) from p in persons where p.name = 'ann'",
]

LNRA_QUERIES = [
    r"map(\p -> p.name)(filter(\p -> p.age < 30)(persons))",
    r"map(\x -> map(\x -> x.name)(x.kids))(persons)",
    r"djoin(\p -> map(\k -> struct(kid: k.name))(p.kids))(persons)",
    "product(bag(struct(a: 1)), bag(struct(b: 2)))",
    r"sum(map(\p -> p.age)(persons))",
    "bag(1) union bag(2)",
]

#: Generated plans in the corpus (the issue's floor is 200).
GENERATED = 200


def nraenv_corpus() -> List[Any]:
    """TPC-H and CAMP translator outputs, OQL and NRAλ plans, generated plans."""
    plans = [sql_to_nraenv(parse_sql(QUERIES[name])) for name in QUERY_NAMES]
    programs = all_programs()
    plans += [camp_to_nraenv(programs[name].pattern) for name in sorted(programs)]
    plans += [oql_to_nraenv(parse_oql(text)) for text in OQL_QUERIES]
    plans += [lnra_to_nraenv(parse_lnra(text)) for text in LNRA_QUERIES]
    rng = random.Random(39)
    plans += [gen_plan(rng, "any", depth=3) for _ in range(GENERATED)]
    return plans


@pytest.fixture(scope="module")
def corpus_cases():
    """(plan, rules) for the three default optimizers over the corpus."""
    nraenv_plans = nraenv_corpus()
    programs = all_programs()
    cases = [(plan, default_nraenv_rules()) for plan in nraenv_plans]
    cases += [
        (camp_to_nra(programs[name].pattern), default_nra_rules()) for name in sorted(programs)
    ]
    cases += [
        (nraenv_to_nnrc(plan), default_nnrc_rules())
        for plan in nraenv_plans[: len(nraenv_plans) - GENERATED]
    ]
    return [(plan, rules, reference_optimize(plan, rules)) for plan, rules in cases]


class TestHeadDispatch:
    def test_every_default_rule_declares_heads(self):
        for rules in (default_nraenv_rules(), default_nra_rules(), default_nnrc_rules()):
            for rule in rules:
                assert rule.heads, "%s declares no heads" % rule.name

    def test_rules_do_not_fire_outside_their_heads(self, corpus_cases):
        for plan, rules, reference in corpus_cases:
            for root in (plan, reference.plan):
                for node in root.walk():
                    for rule in rules:
                        if type(node) in rule.heads:
                            continue
                        result = rule.fn(node)
                        assert result is None or result is node, (rule.name, node)

    def test_rules_are_relooked_up_after_a_fire_changes_the_class(self):
        # App → Map by the first rule; only the Map rule can finish.
        def app_to_map(plan):
            if isinstance(plan, ast.App):
                return b.chi(b.id_(), plan.before)
            return None

        rules = [
            Rewrite("app_to_map", app_to_map, heads=(ast.App,)),
            Rewrite("map_id", make_map_id_rule().fn, heads=(ast.Map,)),
        ]
        counts = {}
        plan = b.comp(b.id_(), b.table("T"))
        assert rewrite_once(plan, rules, counts) == b.table("T")
        assert counts == {"app_to_map": 1, "map_id": 1}


class TestSameSearchAsTheReference:
    def test_corpus_matches_the_reference_loop(self, corpus_cases):
        assert len(corpus_cases) >= 21 + 14 + GENERATED
        for plan, rules, reference in corpus_cases:
            provenance = ProvenanceLog()
            result = optimize(plan, rules, provenance=provenance)
            assert result.plan == reference.plan, plan
            assert result.fire_counts == reference.fire_counts, plan
            assert result.passes == reference.passes, plan
            assert provenance.termination == reference.termination, plan
            assert provenance.costs == reference.costs, plan

    def test_fewer_attempts_same_fires_on_q7(self):
        plan = sql_to_nraenv(parse_sql(QUERIES["q7"]))
        rules = default_nraenv_rules()
        reference = reference_optimize(plan, rules)
        provenance = ProvenanceLog(timing=True)
        optimize(plan, rules, provenance=provenance)
        assert provenance.rule_counts() == reference.fire_counts
        assert sum(provenance.rule_attempts.values()) < reference.attempts


class TestEmptyRuleList:
    def test_empty_list_is_the_identity(self):
        programs = all_programs()
        plan = camp_to_nraenv(programs["p01"].pattern)
        for optimizer in (optimize_nraenv, optimize_nra):
            result = optimizer(plan, [])
            assert result.plan is plan
            assert result.fire_counts == {}
        expr = nraenv_to_nnrc(plan)
        result = optimize_nnrc(expr, [])
        assert result.plan is expr
        assert result.fire_counts == {}
