"""The correctness oracle: stdlib ``sqlite3`` over the same generated rows.

Every response the benchmark counts as ``ok`` has been compared with
what SQLite answers for the same SQL text and parameters — never with
another ``repro`` executor, so a bug shared by the callable and the
engine cannot pass.  Rows compare as multisets, floats to 1e-9
relative.

``wide_result`` replies are ~500 rows; comparing the full multiset on
every response would make the client the bottleneck on a 2-core box, so
every response is checked by row count plus two order-independent
checksums, and the first response for each distinct parameter by the
full multiset.
"""

from __future__ import annotations

import math
import re
import sqlite3
from typing import Any, Dict, List, Optional, Sequence, Tuple

REL_TOL = 1e-9

Row = Tuple[Tuple[str, Any], ...]


def to_sqlite_sql(sql: str) -> str:
    """``$p`` → ``:p`` and ``date '…'`` → ``'…'`` (dates are ISO text)."""
    sql = re.sub(r"\$([A-Za-z_][A-Za-z0-9_]*)", r":\1", sql)
    return re.sub(r"\bdate\s+'", "'", sql)


def _plain(value: Any) -> Any:
    """A wire value as SQLite would hold it (``{"$date": d}`` → ``d``)."""
    if isinstance(value, dict) and set(value) == {"$date"}:
        return value["$date"]
    return value


def canonical_rows(rows: Sequence[Dict[str, Any]]) -> List[Row]:
    """Rows as sorted tuples of ``(column, value)`` in a stable order.

    The sort key rounds floats so that two results equal to within the
    tolerance line up row for row before :func:`rows_equal` compares
    them with ``math.isclose``.
    """

    def sort_key(row: Row) -> Tuple[Any, ...]:
        return tuple(
            (name, "%.6g" % value if isinstance(value, float) else repr(value))
            for name, value in row
        )

    canonical = [
        tuple(sorted((name, _plain(value)) for name, value in row.items()))
        for row in rows
    ]
    return sorted(canonical, key=sort_key)


def _value_equal(got: Any, want: Any) -> bool:
    if isinstance(got, bool) or isinstance(want, bool):
        return got is want
    if isinstance(got, (int, float)) and isinstance(want, (int, float)):
        if isinstance(got, float) or isinstance(want, float):
            return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        return got == want
    return type(got) is type(want) and got == want


def rows_equal(got: Sequence[Row], want: Sequence[Row]) -> bool:
    """Multiset equality of two :func:`canonical_rows` lists."""
    if len(got) != len(want):
        return False
    for got_row, want_row in zip(got, want):
        if len(got_row) != len(want_row):
            return False
        for (got_name, got_value), (want_name, want_value) in zip(got_row, want_row):
            if got_name != want_name or not _value_equal(got_value, want_value):
                return False
    return True


class Oracle:
    """An in-memory SQLite database holding the benchmark's tables."""

    def __init__(self, tables: Dict[str, List[Dict[str, Any]]]):
        self._db = sqlite3.connect(":memory:")
        for name, rows in tables.items():
            columns = sorted(rows[0])
            self._db.execute("create table %s (%s)" % (name, ", ".join(columns)))
            self._db.executemany(
                "insert into %s values (%s)" % (name, ", ".join("?" * len(columns))),
                [[_plain(row[column]) for column in columns] for row in rows],
            )

    def query(self, sql: str, params: Optional[Dict[str, Any]] = None) -> List[Row]:
        cursor = self._db.execute(to_sqlite_sql(sql), params or {})
        names = [column[0] for column in cursor.description]
        return canonical_rows([dict(zip(names, row)) for row in cursor.fetchall()])

    def close(self) -> None:
        self._db.close()


class Expected:
    """SQLite's answer for one parameter binding, in the form a check needs."""

    __slots__ = ("rows", "checksums", "fully_checked")

    def __init__(self, rows: List[Row], checksum_columns: Sequence[str]):
        self.rows = rows
        self.checksums = (
            {column: _column_sum(rows, column) for column in checksum_columns}
            if checksum_columns
            else None
        )
        self.fully_checked = False


def _column_sum(rows: Sequence[Row], column: str) -> float:
    return math.fsum(value for row in rows for name, value in row if name == column)


#: Checksum columns for replies too large to compare in full every time.
WIDE_CHECKSUMS = ("l_extendedprice", "l_orderkey")
#: Replies with more rows than this use checksums after the first check.
FULL_CHECK_ROWS = 64


class ExecuteChecker:
    """Checks ``execute`` responses of one workload against the oracle."""

    def __init__(self, oracle: Oracle, sql: str, bindings: Sequence[Dict[str, Any]]):
        self._expected: Dict[Tuple[Tuple[str, Any], ...], Expected] = {}
        for params in bindings:
            key = tuple(sorted(params.items()))
            if key in self._expected:
                continue
            rows = oracle.query(sql, params)
            wide = len(rows) > FULL_CHECK_ROWS
            self._expected[key] = Expected(rows, WIDE_CHECKSUMS if wide else ())

    def check(self, params: Dict[str, Any], response: Any) -> bool:
        """True when ``response`` is ``ok`` and equals SQLite's answer."""
        if not isinstance(response, dict) or response.get("ok") is not True:
            return False
        result = response.get("result")
        if not isinstance(result, list):
            return False
        expected = self._expected[tuple(sorted(params.items()))]
        if expected.checksums is not None and expected.fully_checked:
            if len(result) != len(expected.rows):
                return False
            try:
                return all(
                    math.isclose(
                        math.fsum(row[column] for row in result), want, rel_tol=REL_TOL
                    )
                    for column, want in expected.checksums.items()
                )
            except (KeyError, TypeError):
                return False
        try:
            matches = rows_equal(canonical_rows(result), expected.rows)
        except (AttributeError, TypeError):
            return False
        expected.fully_checked = expected.fully_checked or matches
        return matches


def check_prepare(request: Dict[str, Any], response: Any) -> bool:
    """An ``adhoc_prepare`` reply: ok, no declared params, expected ``cached``."""
    return (
        isinstance(response, dict)
        and response.get("ok") is True
        and response.get("params") == []
        and response.get("cached") is request["cached"]
        and isinstance(response.get("handle"), str)
    )


def reference_rows(name: str, tables: Dict[str, Any]) -> List[Row]:
    """``repro.tpch.reference``'s straight-Python answer for a template."""
    from repro.data.foreign import DateValue
    from repro.tpch.reference import REFERENCES

    def plain(value: Any) -> Any:
        return value.isoformat() if isinstance(value, DateValue) else value

    return canonical_rows(
        [
            {key: plain(value) for key, value in row.items()}
            for row in REFERENCES[name](tables)
        ]
    )


# -- mutation self-test --------------------------------------------------------


def mutate(response: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of an ``ok`` response with one result value flipped."""
    result = [dict(row) for row in response["result"]]
    column = sorted(result[0])[0]
    value = _plain(result[0][column])
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        result[0][column] = value + 1
    else:
        result[0][column] = "%s?" % (value,)
    return dict(response, result=result)


def failed_share(checker: ExecuteChecker, traffic: Sequence[Tuple[Dict[str, Any], Any]]) -> float:
    """(responses that fail the oracle) ÷ attempted, as the run counts it."""
    failed = sum(1 for params, response in traffic if not checker.check(params, response))
    return failed / len(traffic)
