"""TPC-H execution bench: the join engine vs the Figure-2 interpreter.

Not a paper figure (the paper measures its compiler, executing via
generated JS); this bench records the execution side of this repository:
all 20 engine-executable TPC-H queries run end to end at micro scale,
and the hash-join engine beats the nested-loop interpreter by orders of
magnitude on the join-heavy queries.

Run as a script, the sweep checks every query against its independent
reference implementation and exits non-zero on a divergence; its
timings are recorded in ``output/tpch_exec.txt``, not gated.

Run with::

    pytest benchmarks/bench_tpch_exec.py --benchmark-only -s
    PYTHONPATH=src python benchmarks/bench_tpch_exec.py
"""

from __future__ import annotations

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


def main() -> int:
    db = generate(MICRO, seed=7)
    table = run_sweep(db, check=True)
    emit_table(table)
    total = sum(elapsed for _, _, elapsed in table)
    print("sweep: %.4fs over %d queries" % (total, len(table)))
    print("all %d queries match their reference implementations" % len(table))
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

try:
    import pytest
except ImportError:  # pragma: no cover — standalone runs
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
