"""Typed specialisation of served plans: the trigger, the guard, the cache.

From a plan's second execute in a process on, ``CompiledPlan.run``
answers from a callable lowered from the plan after the typed rewrites,
one per type signature (the tables' and the bound parameters' types).
These tests pin that the typed callable answers exactly like the
untyped one, that plans run once never pay for the typed optimizer,
and that a changed catalog or parameter type never reuses a callable
specialised for other types.
"""

import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.optim.typed_rules as typed_rules
from repro.data.foreign import DateValue
from repro.data.model import Bag, Record
from repro.obs.metrics import MetricsRegistry
from repro.service import QueryService, compile_plan, parse_query
from repro.service.catalog import Catalog
from repro.service.prepared import MAX_SIGNATURES, TYPED, UNTYPED
from repro.tpch.datagen import MICRO, generate
from repro.tpch.queries import QUERIES
from repro.typing.op_typing import TypingError

SCAN = (
    "select sum(l_extendedprice * l_discount) as revenue from lineitem "
    "where l_shipdate >= date '1994-01-01' and l_quantity < $q"
)


GROUP = (
    "select l_returnflag, sum(l_quantity) as qty, count(*) as n from lineitem "
    "where l_quantity < $q group by l_returnflag"
)


def plan_for(text):
    return compile_plan("sql", parse_query("sql", text))


def counter(metrics, name):
    return metrics.counter("service.typed." + name).value


@pytest.fixture
def typed_calls(monkeypatch):
    """Count calls of the typed optimizer (looked up at call time)."""
    calls = []
    real = typed_rules.optimize_nraenv_typed

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(typed_rules, "optimize_nraenv_typed", counting)
    return calls


@pytest.fixture(scope="module")
def tpch():
    return generate(MICRO, seed=7)


def scan_reference(rows, q):
    """The ``SCAN`` statement in straight Python."""
    start = DateValue.parse("1994-01-01")
    return sum(
        row["l_extendedprice"] * row["l_discount"]
        for row in rows
        if row["l_shipdate"] >= start and row["l_quantity"] < q
    )


def revenue(result):
    (row,) = list(result)
    return row["revenue"]


# -- the property: typed ≡ untyped ---------------------------------------------

KINDS = {
    "nat": st.integers(min_value=-3, max_value=3),
    "float": st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False),
    "string": st.sampled_from(["", "a", "b", "ab"]),
    "date": st.builds(
        DateValue,
        st.just(1995),
        st.integers(min_value=1, max_value=2),
        st.integers(min_value=1, max_value=3),
    ),
}

STATEMENTS = (
    "select a, b from t where a < $p",
    "select b from t where a = $p and b = b",
    "select count(*) as n from t where a >= $p",
    "select a from t where b = $p",
)


@st.composite
def tables_and_param(draw):
    """A table ``t`` (homogeneous, heterogeneous or empty) and ``$p``."""
    kind = draw(st.sampled_from(sorted(KINDS)))
    values = KINDS[kind]
    row = st.builds(lambda a, b: {"a": a, "b": b}, values, values)
    odd = st.one_of(
        st.builds(lambda a: {"a": a}, values),  # missing column: record type ⊤
        st.builds(lambda a, b: {"a": a, "b": b}, KINDS["nat"], KINDS["string"]),
    )
    shape = draw(st.sampled_from(["homogeneous", "heterogeneous", "empty"]))
    if shape == "empty":
        rows = []
    elif shape == "homogeneous":
        rows = draw(st.lists(row, min_size=1, max_size=6))
    else:
        rows = draw(st.lists(st.one_of(row, odd), min_size=2, max_size=6))
    return rows, draw(values)


def outcome(fn, constants):
    try:
        return "ok", fn(constants)
    except Exception as exc:  # noqa: BLE001 - both sides must fail alike
        return "error", type(exc).__name__


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables_and_param(), statement=st.sampled_from(STATEMENTS))
def test_specialised_callable_equals_untyped(case, statement):
    rows, param = case
    catalog = Catalog()
    catalog.register_table("t", [Record(row) for row in rows])
    plan = plan_for(statement)
    constants = catalog.constants()
    bound = plan.bind(constants, {"p": param})
    signature = plan._signature(bound, catalog)
    typed = plan._specialise(signature, None)
    assert plan._typed[signature] is typed
    # multiset-exact: Bag equality is multiset equality
    assert outcome(typed, bound) == outcome(plan.callable, bound)


def test_property_reaches_typed_callables():
    """The property above compares two different callables, not one twice."""
    catalog = Catalog()
    catalog.register_table("t", [{"a": 1, "b": 2}])
    plan = plan_for(STATEMENTS[0])
    bound = plan.bind(catalog.constants(), {"p": 3})
    assert plan._specialise(plan._signature(bound, catalog), None) is not plan.callable


# -- the trigger ---------------------------------------------------------------


def test_first_execute_never_specialises(typed_calls):
    with QueryService() as svc:
        svc.register_table("t", [{"a": 1}, {"a": 5}])
        handle = svc.prepare("sql", "select a from t where a > $min").handle
        assert svc.execute(handle, params={"min": 2}).ok
        assert typed_calls == []
        assert svc.telemetry.recent(1)[0].plan == UNTYPED
        assert svc.execute(handle, params={"min": 2}).ok
        assert len(typed_calls) == 1
        assert svc.telemetry.recent(1)[0].plan == TYPED
        assert svc.execute(handle, params={"min": 3}).ok
        assert len(typed_calls) == 1  # same signature: the cached callable


def test_prepare_execute_close_never_specialises(typed_calls):
    with QueryService() as svc:
        svc.register_table("t", [{"a": 1}, {"a": 5}])
        for _ in range(3):  # each handle is a plan-cache hit on one plan...
            handle = svc.prepare("sql", "select a from t where a > 0").handle
            svc.close_prepared(handle)
        # ...but only executes count toward the trigger
        handle = svc.prepare("sql", "select a from t where a > 0").handle
        assert svc.execute(handle).ok
        svc.close_prepared(handle)
        assert typed_calls == []
        assert svc.metrics.counter("service.typed.specialized").value == 0


def test_count_is_shared_by_handles_and_one_shot_queries(typed_calls):
    text = "select a from t where a > 0"
    with QueryService() as svc:
        svc.register_table("t", [{"a": 1}])
        assert svc.query("sql", text).ok
        assert typed_calls == []
        assert svc.execute(svc.prepare("sql", text).handle).ok
        assert len(typed_calls) == 1


# -- the guard -----------------------------------------------------------------


def test_new_table_type_and_new_param_type_respecialise(tpch):
    rows = [dict(row.fields) for row in tpch["lineitem"]]
    with QueryService() as svc:
        svc.register_table("lineitem", tpch["lineitem"])
        handle = svc.prepare("sql", SCAN).handle
        for _ in range(2):
            outcome = svc.execute(handle, params={"q": 45})
            assert revenue(outcome.value) == pytest.approx(scan_reference(rows, 45))
        assert counter(svc.metrics, "specialized") == 1

        # A float parameter where a nat was bound: a new signature.
        outcome = svc.execute(handle, params={"q": 45.5})
        assert revenue(outcome.value) == pytest.approx(scan_reference(rows, 45.5))
        assert counter(svc.metrics, "specialized") == 2
        assert svc.telemetry.recent(1)[0].plan == TYPED

        # Re-registering with a float l_quantity column: another one.
        floats = [dict(row, l_quantity=row["l_quantity"] + 0.25) for row in rows]
        svc.register_table("lineitem", [Record(row) for row in floats])
        outcome = svc.execute(handle, params={"q": 45})
        assert revenue(outcome.value) == pytest.approx(scan_reference(floats, 45))
        assert counter(svc.metrics, "specialized") == 3
        assert len(svc.prepared(handle).plan._typed) == 3


def test_stale_snapshot_runs_untyped():
    """Rows that are not the catalog's current table never get its type."""
    metrics = MetricsRegistry()
    catalog = Catalog()
    catalog.register_table("t", [{"a": 1}, {"a": 5}])
    plan = plan_for("select a from t where a > 0")
    stale = catalog.constants()
    plan.run(stale, None, catalog, metrics)
    catalog.register_table("t", [{"a": "x"}])
    value, variant = plan.run(stale, None, catalog, metrics)
    assert variant == UNTYPED
    assert value == Bag([Record({"a": 1}), Record({"a": 5})])
    assert counter(metrics, "guard_miss") == 1
    assert plan._typed == {}


def test_dropped_table_keeps_the_error_kind():
    with QueryService() as svc:
        svc.register_table("t", [{"a": 1}, {"a": 5}])
        handle = svc.prepare("sql", "select a from t where a > $min").handle
        for _ in range(2):
            assert svc.execute(handle, params={"min": 2}).ok
        svc.catalog.drop_table("t")
        outcome = svc.execute(handle, params={"min": 2})
        assert outcome.error.kind == "runtime_error"
        assert "unknown database constant 't'" in str(outcome.error)
        assert counter(svc.metrics, "guard_miss") == 1


def test_signature_cap_runs_untyped_beyond_it():
    metrics = MetricsRegistry()
    catalog = Catalog()
    catalog.register_table("t", [{"a": 1}, {"a": 5}])
    plan = plan_for("select a from t where a = $p or $p = $p")
    params = [1, 1.5, "x", None, True, DateValue.parse("1995-01-01")]
    plan.run(catalog.constants(), {"p": 1}, catalog, metrics)  # the first run
    variants = [plan.run(catalog.constants(), {"p": p}, catalog, metrics)[1] for p in params]
    assert len(plan._typed) == MAX_SIGNATURES
    assert variants[MAX_SIGNATURES:] == [UNTYPED] * (len(params) - MAX_SIGNATURES)
    assert counter(metrics, "guard_miss") == len(params) - MAX_SIGNATURES


# -- cheap when it buys nothing ------------------------------------------------


def test_unchanged_plan_keeps_the_untyped_callable(monkeypatch, tpch):
    def must_not_lower(nraenv):
        raise AssertionError("an unchanged plan was lowered again")

    metrics = MetricsRegistry()
    catalog = Catalog()
    catalog.register_table("lineitem", tpch["lineitem"])
    plan = plan_for(GROUP)  # its typed plan is its untyped plan
    monkeypatch.setattr("repro.service.prepared._lower", must_not_lower)
    for _ in range(2):
        value, variant = plan.run(catalog.constants(), {"q": 30}, catalog, metrics)
    assert variant == UNTYPED
    assert value == plan.execute(catalog.constants(), {"q": 30})
    assert counter(metrics, "unchanged") == 1
    assert list(plan._typed.values()) == [plan.callable]
    assert metrics.histogram("service.typed.specialize_ms").count == 1


def test_typing_failure_is_cached_as_untyped(monkeypatch):
    def fails(*args):
        raise TypingError("no derivation")

    metrics = MetricsRegistry()
    catalog = Catalog()
    catalog.register_table("t", [{"a": 1}])
    plan = plan_for("select a from t")
    monkeypatch.setattr(typed_rules, "optimize_nraenv_typed", fails)
    results = [plan.run(catalog.constants(), None, catalog, metrics) for _ in range(3)]
    assert [variant for _, variant in results] == [UNTYPED] * 3
    assert all(value == Bag([Record({"a": 1})]) for value, _ in results)
    assert counter(metrics, "failed") == 1  # cached: tried once, not per call


# -- concurrency ---------------------------------------------------------------


def test_concurrent_executes_while_specialising(monkeypatch):
    started, release = threading.Event(), threading.Event()
    real = typed_rules.optimize_nraenv_typed

    def slow(*args):
        started.set()
        assert release.wait(10)
        return real(*args)

    monkeypatch.setattr(typed_rules, "optimize_nraenv_typed", slow)
    expected = Bag([Record({"a": 5})])
    with QueryService(workers=4) as svc:
        svc.register_table("t", [{"a": 1}, {"a": 5}])
        handle = svc.prepare("sql", "select a from t where a > $min").handle
        assert svc.execute(handle, params={"min": 2}).value == expected
        specialising = []
        thread = threading.Thread(
            target=lambda: specialising.append(svc.execute(handle, params={"min": 2}))
        )
        thread.start()
        assert started.wait(10)
        # While the signature is being specialised, both paths answer untyped.
        plain = [svc.execute(handle, params={"min": 2}) for _ in range(3)]
        analyzed = svc.execute(handle, params={"min": 2}, analyze=True)
        assert all(o.value == expected for o in plain + [analyzed])
        assert analyzed.analysis["plan"] == UNTYPED
        assert [r.plan for r in svc.telemetry.recent(4)] == [UNTYPED] * 4
        release.set()
        thread.join(10)
        assert specialising[0].value == expected
        assert svc.telemetry.recent(1)[0].plan in (TYPED, UNTYPED)
        analyzed = svc.execute(handle, params={"min": 2}, analyze=True)
        assert analyzed.analysis["plan"] == TYPED
        assert svc.telemetry.recent(1)[0].plan == TYPED
        assert svc.execute(handle, params={"min": 2}).value == expected
        assert counter(svc.metrics, "specialized") == 1


def test_threads_specialise_each_signature_once():
    """No lost update: every call counted, every signature lowered once."""
    metrics = MetricsRegistry()
    catalog = Catalog()
    catalog.register_table("t", [{"a": 1}, {"a": 5}])
    plan = plan_for("select a from t where a > $min")
    params = [2, 2.5, 3, 3.5]  # two signatures: nat and float
    results, threads, calls = [], [], 25
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in range(8):
            def work(offset=worker):
                for i in range(calls):
                    p = params[(offset + i) % len(params)]
                    value, _ = plan.run(catalog.constants(), {"min": p}, catalog, metrics)
                    results.append(value == Bag([Record({"a": 5})]))

            threads.append(threading.Thread(target=work))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 8 * calls and all(results)
    assert plan._runs == 8 * calls
    assert counter(metrics, "specialized") == 2
    assert len(plan._typed) == 2
    assert all(fn is not plan.callable for fn in plan._typed.values())


# -- TPC-H ---------------------------------------------------------------------


@pytest.mark.parametrize("name", ["q1", "q4", "q6", "q12", "q14", "q15", "q22"])
def test_tpch_typed_callable_equals_untyped(name, tpch):
    catalog = Catalog()
    for table, rows in tpch.items():
        catalog.register_table(table, rows)
    plan = plan_for(QUERIES[name])
    constants = catalog.constants()
    typed = plan._specialise(plan._signature(constants, catalog), None)
    assert typed(constants) == plan.callable(constants)
