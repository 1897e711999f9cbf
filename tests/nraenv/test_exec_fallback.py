"""The engine's fallbacks are counted, per reason (`repro.obs` metrics).

`_execute_join` used to bail out to the reference semantics silently;
now every bail-out increments ``engine.fallback.<reason>`` and every
completed join increments ``engine.join``.  One test per reason in
:data:`repro.nraenv.exec.FALLBACK_REASONS`, each also asserting the
*answer* is still right — a fallback is a slow path, never a wrong one.
"""

import pytest

from repro.data.model import Bag, Record, bag, rec
from repro.nraenv import builders as b
from repro.nraenv.eval import eval_nraenv
from repro.nraenv.exec import FALLBACK_REASONS, _execute_join, _Run, eval_fast
from repro.obs.metrics import MetricsRegistry, use_metrics

DB = {
    "R": bag(rec(a=1, b=10), rec(a=2, b=20), rec(a=3, b=30)),
    "S": bag(rec(c=1, d="x"), rec(c=2, d="y"), rec(c=2, d="z")),
    # heterogeneous rows: some provide ``b``, some don't
    "H": bag(rec(c=1, b=2), rec(c=2)),
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


class TestFallbackCounters:
    def test_join_success_counts_no_fallback(self):
        plan = b.sigma(
            b.eq(b.dot(b.id_(), "a"), b.dot(b.id_(), "c")),
            b.product(b.table("R"), b.table("S")),
        )
        result, counts = run_counted(plan)
        assert len(result) == 3
        assert counts.get("engine.join") == 1
        assert not any(name.startswith("engine.fallback.") for name in counts)

    def test_single_factor(self):
        # unreachable through _eval (guarded on Product inputs), so hit
        # _execute_join directly: a Select over a plain table
        plan = b.sigma(b.gt(b.dot(b.id_(), "a"), b.const(1)), b.table("R"))
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert _execute_join(plan, Record({}), None, _Run(DB)) is None
        assert counters(registry) == {"engine.fallback.single_factor": 1}

    def test_env_not_record(self):
        pred = env_mode_pred(b.eq(b.dot(b.env(), "a"), b.dot(b.env(), "c")))
        plan = b.sigma(pred, b.product(b.table("R"), b.table("S")))
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert _execute_join(plan, bag(1), None, _Run(DB)) is None
        assert counters(registry) == {"engine.fallback.env_not_record": 1}

    def test_ambiguous_field(self):
        # the predicate reads ``b``, which R always provides but H only
        # sometimes does — the engine cannot tell whose ``b`` wins
        plan = b.sigma(
            b.gt(b.dot(b.id_(), "b"), b.const(1)),
            b.product(b.table("R"), b.table("H")),
        )
        result, counts = run_counted(plan)
        assert counts.get("engine.fallback.ambiguous_field") == 1
        assert "engine.join" not in counts
        assert len(result) == 6  # every ⊕-winning b (2, or R's ≥10) is > 1

    def test_unresolved_field(self):
        plan = b.sigma(
            b.eq(b.dot(b.id_(), "nope"), b.const(1)),
            b.product(b.table("R"), b.table("S")),
        )
        registry = MetricsRegistry()
        with use_metrics(registry):
            assert _execute_join(plan, Record({}), None, _Run(DB)) is None
        assert counters(registry) == {"engine.fallback.unresolved_field": 1}

    def test_reasons_enumeration_is_exact(self):
        # keep FALLBACK_REASONS in sync with the _fallback call sites:
        # join reasons fire in _execute_join, group reasons in the
        # physical group-by path (_eval_plain / _execute_group_by), and
        # columnar reasons in the fused chain executor (_execute_fused)
        import inspect

        from repro.nraenv import exec as engine

        source = inspect.getsource(engine)
        called = set()
        for reason in FALLBACK_REASONS:
            if (
                '_fallback(select, "%s", run)' % reason in source
                or '_group_fallback(plan, "%s", run)' % reason in source
                or '_columnar_fallback(plan, "%s", run)' % reason in source
            ):
                called.add(reason)
        assert called == set(FALLBACK_REASONS)
        join_source = inspect.getsource(engine._execute_join)
        for reason in ("group_pattern", "group_shape"):
            assert '_fallback(select, "%s", run)' % reason not in join_source

    def test_labels_cover_all_reasons(self):
        from repro.nraenv.exec import FALLBACK_LABELS

        assert set(FALLBACK_LABELS) == set(FALLBACK_REASONS)

    def test_no_registry_means_no_op(self):
        plan = b.sigma(
            b.eq(b.dot(b.id_(), "a"), b.dot(b.id_(), "c")),
            b.product(b.table("R"), b.table("S")),
        )
        # must not raise without an installed registry
        assert isinstance(eval_fast(plan, Record({}), None, DB), Bag)
