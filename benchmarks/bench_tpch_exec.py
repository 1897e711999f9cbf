"""TPC-H execution bench: the join engine vs the Figure-2 interpreter.

Not a paper figure (the paper measures its compiler, executing via
generated JS); this bench records the execution side of this repository:
all 20 engine-executable TPC-H queries run end to end at micro scale,
and the hash-join engine beats the nested-loop interpreter by orders of
magnitude on the join-heavy queries.

The ``--gate`` mode is wired into the CI bench-smoke job with *hard*
thresholds pinned against the recorded seed numbers (the sweep before
the physical group-by and batch operators landed): q18 — once a 6.6s
outlier, the derived group-by re-evaluating its source per distinct
key — must finish under 0.5s, the full sweep must be at least 2x
faster than the seed total, and every query must still match its
independent reference implementation.  Since the fused columnar chains
landed the gate also pins q19 and q20 (the two queries the columnar
pass speeds up most) at 5x their pre-columnar times.

Run with::

    pytest benchmarks/bench_tpch_exec.py --benchmark-only -s
    PYTHONPATH=src python benchmarks/bench_tpch_exec.py --gate
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.data.foreign import DateValue
from repro.data.model import Record, to_python
from repro.nraenv.eval import eval_nraenv
from repro.nraenv.exec import eval_fast
from repro.sql.parser import parse_sql
from repro.sql.to_nraenv import sql_to_nraenv
from repro.tpch.datagen import MICRO, generate
from repro.tpch.queries import ENGINE_EXECUTABLE, QUERIES
from repro.tpch.reference import REFERENCES

from tables import emit, format_table

#: The recorded seed sweep (benchmarks/output/tpch_exec.txt before the
#: physical group-by): q18 alone took 6.6277s of a 7.3841s total.
SEED_TOTAL_SECONDS = 7.3841
SEED_Q18_SECONDS = 6.6277

#: The recorded sweep before the fused columnar chains landed: q19's
#: disjunctive predicate stack and q20's correlated membership filters
#: were the two slowest row-at-a-time queries left.
SEED_Q19_SECONDS = 0.1238
SEED_Q20_SECONDS = 0.0796

#: Hard gates for CI (``--gate``).
Q18_BUDGET_SECONDS = 0.5
REQUIRED_SWEEP_SPEEDUP = 2.0
REQUIRED_Q19_SPEEDUP = 5.0
REQUIRED_Q20_SPEEDUP = 5.0


def _normalise(rows):
    def convert(value):
        if isinstance(value, DateValue):
            return value.isoformat()
        if isinstance(value, float):
            return round(value, 4)
        return value

    return sorted(
        tuple(sorted((key, convert(value)) for key, value in row.items()))
        for row in rows
    )


def run_sweep(db, check=False):
    """Time all 20 queries; with ``check``, compare each to its reference."""
    table = []
    for name in ENGINE_EXECUTABLE:
        plan = sql_to_nraenv(parse_sql(QUERIES[name]))
        start = time.perf_counter()
        rows = eval_fast(plan, Record({}), None, db)
        elapsed = time.perf_counter() - start
        if check:
            expected = _normalise(REFERENCES[name](db))
            assert _normalise(to_python(rows)) == expected, (
                "%s diverged from its reference" % name
            )
        table.append((name, len(rows), elapsed))
    return table


def emit_table(table):
    emit(
        "tpch_exec",
        format_table(
            "TPC-H execution — join engine, micro database",
            ["query", "rows", "seconds"],
            table,
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="TPC-H execution sweep")
    parser.add_argument(
        "--gate",
        action="store_true",
        help="enforce the CI thresholds (q18 < %.1fs, sweep >= %.0fx vs seed, "
        "q19/q20 >= %.0fx vs the pre-columnar sweep)"
        % (Q18_BUDGET_SECONDS, REQUIRED_SWEEP_SPEEDUP, REQUIRED_Q19_SPEEDUP),
    )
    args = parser.parse_args(argv)

    db = generate(MICRO, seed=7)
    table = run_sweep(db, check=True)
    emit_table(table)
    total = sum(elapsed for _, _, elapsed in table)
    per_query = dict((name, elapsed) for name, _, elapsed in table)
    q18 = per_query["q18"]
    speedup = SEED_TOTAL_SECONDS / total
    q19_speedup = SEED_Q19_SECONDS / per_query["q19"]
    q20_speedup = SEED_Q20_SECONDS / per_query["q20"]
    print(
        "sweep: %.4fs over %d queries (seed %.4fs, %.1fx); q18 %.4fs (seed %.4fs)"
        % (total, len(table), SEED_TOTAL_SECONDS, speedup, q18, SEED_Q18_SECONDS)
    )
    print(
        "q19 %.4fs (%.1fx vs row-at-a-time %.4fs); q20 %.4fs (%.1fx vs %.4fs)"
        % (
            per_query["q19"],
            q19_speedup,
            SEED_Q19_SECONDS,
            per_query["q20"],
            q20_speedup,
            SEED_Q20_SECONDS,
        )
    )
    print("all 20 queries match their reference implementations")
    if args.gate:
        failures = []
        if q18 >= Q18_BUDGET_SECONDS:
            failures.append(
                "q18 took %.4fs, budget is %.4fs" % (q18, Q18_BUDGET_SECONDS)
            )
        if speedup < REQUIRED_SWEEP_SPEEDUP:
            failures.append(
                "sweep speedup %.2fx vs seed, need >= %.1fx"
                % (speedup, REQUIRED_SWEEP_SPEEDUP)
            )
        if q19_speedup < REQUIRED_Q19_SPEEDUP:
            failures.append(
                "q19 speedup %.2fx vs pre-columnar seed, need >= %.1fx"
                % (q19_speedup, REQUIRED_Q19_SPEEDUP)
            )
        if q20_speedup < REQUIRED_Q20_SPEEDUP:
            failures.append(
                "q20 speedup %.2fx vs pre-columnar seed, need >= %.1fx"
                % (q20_speedup, REQUIRED_Q20_SPEEDUP)
            )
        if failures:
            for failure in failures:
                print("GATE FAILED: %s" % failure)
            return 1
        print(
            "gate passed: q18 < %.1fs, sweep %.1fx >= %.1fx, "
            "q19 %.1fx / q20 %.1fx >= %.1fx"
            % (
                Q18_BUDGET_SECONDS,
                speedup,
                REQUIRED_SWEEP_SPEEDUP,
                q19_speedup,
                q20_speedup,
                REQUIRED_Q19_SPEEDUP,
            )
        )
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover — standalone --gate runs
    pytest = None

if pytest is not None:

    @pytest.fixture(scope="module")
    def db():
        return generate(MICRO, seed=7)

    def test_engine_executes_all_queries(benchmark, db):
        def sweep():
            table = run_sweep(db)
            emit_table(table)
            return table

        table = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert len(table) == 20
        for name, rows, elapsed in table:
            assert rows > 0, name
            assert elapsed < 60, name

    @pytest.mark.parametrize("name", ("q3", "q10"))
    def test_join_engine_vs_interpreter(benchmark, db, name):
        """The engine must beat the nested-loop interpreter on joins."""
        plan = sql_to_nraenv(parse_sql(QUERIES[name]))
        expected = eval_fast(plan, Record({}), None, db)

        engine_start = time.perf_counter()
        eval_fast(plan, Record({}), None, db)
        engine_time = time.perf_counter() - engine_start

        interp_start = time.perf_counter()
        interp_result = eval_nraenv(plan, Record({}), None, db)
        interp_time = time.perf_counter() - interp_start

        assert interp_result == expected
        assert engine_time < interp_time, (name, engine_time, interp_time)

        result = benchmark(eval_fast, plan, Record({}), None, db)
        assert result == expected


if __name__ == "__main__":
    sys.exit(main())
