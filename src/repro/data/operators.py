"""Unary and binary operators over the data model (paper section 3.1).

The paper lists a small core (ident, ¬, ``{d}``, flatten, record
construction/access/removal/projection; =, ∈, ∪, ⊕, ⊗) and notes the
set "can be easily extended (e.g, for arithmetic or aggregation)".
This module implements the core plus the extensions the SQL/OQL/TPC-H
workloads require: arithmetic, comparisons, boolean connectives,
aggregates, bag utilities, string and date operators.

Operators are small immutable objects with an ``apply`` method; they are
shared by every language in the compiler (NRA, NRAe, NNRC, NRAλ, CAMP)
and by the generated-code runtime, so each operator's semantics is
defined in exactly one place.
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Tuple

from repro.data import kernel
from repro.data.foreign import DateValue
from repro.data.model import (
    Bag,
    DataError,
    Record,
    canonical_key,
    flatten as flatten_bag,
    values_equal,
)


def _require_bag(value: Any, op: str) -> Bag:
    if not isinstance(value, Bag):
        raise DataError("%s expects a bag, got %r" % (op, value))
    return value


def _require_record(value: Any, op: str) -> Record:
    if not isinstance(value, Record):
        raise DataError("%s expects a record, got %r" % (op, value))
    return value


def _require_bool(value: Any, op: str) -> bool:
    if not isinstance(value, bool):
        raise DataError("%s expects a boolean, got %r" % (op, value))
    return value


def _require_number(value: Any, op: str) -> Any:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DataError("%s expects a number, got %r" % (op, value))
    return value


class UnaryOp:
    """Base class for unary operators ``⊙ d``."""

    #: short name used in pretty-printing and codegen dispatch
    name: str = "unary"

    def apply(self, value: Any) -> Any:
        raise NotImplementedError

    def _params(self) -> Tuple[Any, ...]:
        return ()

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._params())

    def __repr__(self) -> str:
        params = self._params()
        if params:
            return "%s(%s)" % (type(self).__name__, ", ".join(repr(p) for p in params))
        return "%s()" % type(self).__name__


class BinaryOp:
    """Base class for binary operators ``d1 ⊙ d2``."""

    name: str = "binary"

    def apply(self, left: Any, right: Any) -> Any:
        raise NotImplementedError

    def _params(self) -> Tuple[Any, ...]:
        return ()

    def __eq__(self, other: Any) -> bool:
        return type(self) is type(other) and self._params() == other._params()

    def __ne__(self, other: Any) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash((type(self).__name__,) + self._params())

    def __repr__(self) -> str:
        params = self._params()
        if params:
            return "%s(%s)" % (type(self).__name__, ", ".join(repr(p) for p in params))
        return "%s()" % type(self).__name__


# ---------------------------------------------------------------------------
# Core unary operators (paper section 3.1)
# ---------------------------------------------------------------------------


class OpIdentity(UnaryOp):
    """``ident d``: returns ``d``."""

    name = "ident"

    def apply(self, value: Any) -> Any:
        return value


class OpNeg(UnaryOp):
    """``¬ d``: boolean negation."""

    name = "neg"

    def apply(self, value: Any) -> Any:
        return not _require_bool(value, "¬")


class OpBag(UnaryOp):
    """``{d}``: the singleton bag containing ``d``."""

    name = "coll"

    def apply(self, value: Any) -> Any:
        return Bag([value])


class OpFlatten(UnaryOp):
    """``flatten d``: flattens one level of a bag of bags."""

    name = "flatten"

    def apply(self, value: Any) -> Any:
        return flatten_bag(value)


class OpRec(UnaryOp):
    """``[A: d]``: the one-field record with attribute ``A`` of value ``d``."""

    name = "rec"

    def __init__(self, field: str):
        self.field = field

    def _params(self) -> Tuple[Any, ...]:
        return (self.field,)

    def apply(self, value: Any) -> Any:
        return Record._of_sorted({self.field: value})


class OpDot(UnaryOp):
    """``d.A``: the value of attribute ``A`` in record ``d``."""

    name = "dot"

    def __init__(self, field: str):
        self.field = field

    def _params(self) -> Tuple[Any, ...]:
        return (self.field,)

    def apply(self, value: Any) -> Any:
        return _require_record(value, ".%s" % self.field)[self.field]


class OpRemove(UnaryOp):
    """``d − A``: record ``d`` without attribute ``A``."""

    name = "remove"

    def __init__(self, field: str):
        self.field = field

    def _params(self) -> Tuple[Any, ...]:
        return (self.field,)

    def apply(self, value: Any) -> Any:
        return _require_record(value, "−%s" % self.field).remove(self.field)


class OpProject(UnaryOp):
    """``π_{A1..An}(d)``: projection of record ``d`` over given attributes."""

    name = "project"

    def __init__(self, fields: Iterable[str]):
        self.fields: Tuple[str, ...] = tuple(sorted(fields))

    def _params(self) -> Tuple[Any, ...]:
        return (self.fields,)

    def apply(self, value: Any) -> Any:
        return _require_record(value, "π").project(self.fields)


# ---------------------------------------------------------------------------
# Extended unary operators (aggregates, bags, strings, numbers, dates)
# ---------------------------------------------------------------------------


class OpDistinct(UnaryOp):
    """``distinct d``: duplicate elimination on a bag."""

    name = "distinct"

    def apply(self, value: Any) -> Any:
        return kernel.distinct(_require_bag(value, "distinct"))


class OpCount(UnaryOp):
    """``count d``: number of elements in a bag."""

    name = "count"

    def apply(self, value: Any) -> Any:
        return len(_require_bag(value, "count"))


class OpSum(UnaryOp):
    """``sum d``: sum of a bag of numbers (0 on the empty bag)."""

    name = "sum"

    def apply(self, value: Any) -> Any:
        items = _require_bag(value, "sum")
        total: Any = 0
        for item in items:
            total = total + _require_number(item, "sum")
        return total


class OpAvg(UnaryOp):
    """``avg d``: arithmetic mean of a non-empty bag of numbers."""

    name = "avg"

    def apply(self, value: Any) -> Any:
        items = _require_bag(value, "avg")
        if not items:
            raise DataError("avg of empty bag")
        total = 0.0
        for item in items:
            total += _require_number(item, "avg")
        return total / len(items)


class OpMin(UnaryOp):
    """``min d``: least element of a non-empty bag (canonical order)."""

    name = "min"

    def apply(self, value: Any) -> Any:
        items = _require_bag(value, "min")
        if not items:
            raise DataError("min of empty bag")
        return min(items, key=canonical_key)


class OpMax(UnaryOp):
    """``max d``: greatest element of a non-empty bag (canonical order)."""

    name = "max"

    def apply(self, value: Any) -> Any:
        items = _require_bag(value, "max")
        if not items:
            raise DataError("max of empty bag")
        return max(items, key=canonical_key)


class OpSingleton(UnaryOp):
    """``elem d``: the sole element of a singleton bag.

    Partial: fails on bags of any other size.  Used to encode SQL scalar
    subqueries and CASE expressions in the algebra (Q*cert's
    ``ASingleton`` plays the same role).
    """

    name = "singleton"

    def apply(self, value: Any) -> Any:
        items = _require_bag(value, "elem")
        if len(items) != 1:
            raise DataError("elem expects a singleton bag, got %d elements" % len(items))
        return items.items[0]


class OpToString(UnaryOp):
    """``tostring d``: canonical string rendering of any value."""

    name = "tostring"

    def apply(self, value: Any) -> Any:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, DateValue):
            return value.isoformat()
        return repr(value)


class OpNumNeg(UnaryOp):
    """``- d``: arithmetic negation."""

    name = "numneg"

    def apply(self, value: Any) -> Any:
        return -_require_number(value, "negate")


class OpSortBy(UnaryOp):
    """``sort_{A1..An} d``: order a bag of records by the given keys.

    Bags carry an operational item order (they are list-backed), which
    this operator normalises; ``descending`` flags are per-key.  This is
    the foreign "sort" operator the SQL ORDER BY clause compiles to.
    """

    name = "sort_by"

    def __init__(self, keys: Iterable[Tuple[str, bool]]):
        # keys: sequence of (field, descending)
        self.keys: Tuple[Tuple[str, bool], ...] = tuple(
            (field, bool(desc)) for field, desc in keys
        )

    def _params(self) -> Tuple[Any, ...]:
        return (self.keys,)

    def apply(self, value: Any) -> Any:
        items = list(_require_bag(value, "sort_by").items)
        # Stable sort from the last key to the first implements
        # lexicographic multi-key ordering with per-key direction.
        for field, descending in reversed(self.keys):
            items.sort(
                key=lambda r, f=field: canonical_key(_require_record(r, "sort_by")[f]),
                reverse=descending,
            )
        return Bag(items)


class OpLike(UnaryOp):
    """``d like pattern``: SQL LIKE matching with % and _ wildcards.

    The pattern is compiled once, to a regular expression that matches
    in O(|pattern|·|text|) steps whatever the pattern (see
    :func:`_like_regex`).
    """

    name = "like"

    def __init__(self, pattern: str):
        self.pattern = pattern
        self._regex = _like_regex(pattern)

    def _params(self) -> Tuple[Any, ...]:
        return (self.pattern,)

    def apply(self, value: Any) -> Any:
        if not isinstance(value, str):
            raise DataError("like expects a string, got %r" % (value,))
        return self._regex.fullmatch(value) is not None


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled regular expression equivalent to a SQL LIKE ``pattern``.

    Runs of ``%`` split the pattern into fixed-width segments, in which
    literals are escaped and ``_`` is ``.`` (``DOTALL``: both wildcards
    match newlines).  The first segment is anchored at the start and the
    last, after a ``.*``, at the end.  Each segment in between is taken
    at its leftmost match and never retried: ``re`` does not backtrack
    into a lookahead, and the backreference consumes exactly what the
    lookahead found (the construction :mod:`fnmatch` uses).  Leftmost is
    always right for a fixed-width segment, as it leaves the most text
    for the rest; a plain ``.*`` per ``%`` would backtrack O(|text|^k)
    times for k of them.
    """

    def segment(text: str) -> str:
        return "".join("." if ch == "_" else re.escape(ch) for ch in text)

    first, *rest = re.split("%+", pattern)
    parts = [segment(first)]
    if rest:
        *middle, last = rest
        for index, text in enumerate(middle):
            parts.append("(?=(?P<g%d>.*?%s))(?P=g%d)" % (index, segment(text), index))
        parts.append(".*" + segment(last))
    return re.compile("".join(parts), re.DOTALL)


class OpSubstring(UnaryOp):
    """``substring(d, start, length)`` with 1-based SQL indexing.

    SQL semantics, not Python slicing: the window is the character
    positions ``[start, start + length)`` on the 1-based axis, so a
    non-positive ``start`` shifts the window left off the string rather
    than clamping (``substring('abc' from -1 for 3)`` covers positions
    -1..1 and yields ``'a'``), and a negative ``length`` is an error.
    """

    name = "substring"

    def __init__(self, start: int, length: Any = None):
        self.start = start
        self.length = length

    def _params(self) -> Tuple[Any, ...]:
        return (self.start, self.length)

    def apply(self, value: Any) -> Any:
        if not isinstance(value, str):
            raise DataError("substring expects a string, got %r" % (value,))
        if self.length is None:
            return value[max(self.start - 1, 0):]
        if self.length < 0:
            raise DataError(
                "substring length must be non-negative, got %r" % (self.length,)
            )
        end = self.start + self.length  # one past the window, 1-based
        begin = max(self.start, 1)
        if end <= begin:
            return ""
        return value[begin - 1 : end - 1]


class OpLimit(UnaryOp):
    """``limit n``: the first ``n`` elements of a bag (in item order).

    Meaningful after :class:`OpSortBy`; implements SQL's LIMIT / the
    TPC-H "top N" result convention.  A negative ``n`` yields the empty
    bag (Python's negative slicing would silently drop from the end).
    """

    name = "limit"

    def __init__(self, n: int):
        self.n = n

    def _params(self) -> Tuple[Any, ...]:
        return (self.n,)

    def apply(self, value: Any) -> Any:
        return Bag(_require_bag(value, "limit").items[: max(self.n, 0)])


class OpDateYear(UnaryOp):
    """``extract(year from d)``."""

    name = "date_year"

    def apply(self, value: Any) -> Any:
        if not isinstance(value, DateValue):
            raise DataError("date_year expects a date, got %r" % (value,))
        return value.year


class OpDateMonth(UnaryOp):
    """``extract(month from d)``."""

    name = "date_month"

    def apply(self, value: Any) -> Any:
        if not isinstance(value, DateValue):
            raise DataError("date_month expects a date, got %r" % (value,))
        return value.month


class OpDateDay(UnaryOp):
    """``extract(day from d)``."""

    name = "date_day"

    def apply(self, value: Any) -> Any:
        if not isinstance(value, DateValue):
            raise DataError("date_day expects a date, got %r" % (value,))
        return value.day


# ---------------------------------------------------------------------------
# Core binary operators (paper section 3.1)
# ---------------------------------------------------------------------------


class OpEq(BinaryOp):
    """``d1 = d2``: data-model equality."""

    name = "eq"

    def apply(self, left: Any, right: Any) -> Any:
        return values_equal(left, right)


class OpIn(BinaryOp):
    """``d1 ∈ d2``: bag membership."""

    name = "in"

    def apply(self, left: Any, right: Any) -> Any:
        return kernel.contains(_require_bag(right, "∈"), left)


class OpUnion(BinaryOp):
    """``d1 ∪ d2``: additive bag union."""

    name = "union"

    def apply(self, left: Any, right: Any) -> Any:
        return kernel.union(_require_bag(left, "∪"), _require_bag(right, "∪"))


class OpBagDiff(BinaryOp):
    """``d1 \\ d2``: multiset difference (needed for SQL EXCEPT)."""

    name = "bag_diff"

    def apply(self, left: Any, right: Any) -> Any:
        return kernel.minus(_require_bag(left, "\\"), _require_bag(right, "\\"))


class OpBagInter(BinaryOp):
    """``d1 ∩ d2``: multiset intersection (needed for SQL INTERSECT)."""

    name = "bag_inter"

    def apply(self, left: Any, right: Any) -> Any:
        return kernel.intersection(_require_bag(left, "∩"), _require_bag(right, "∩"))


class OpConcat(BinaryOp):
    """``d1 ⊕ d2``: record concatenation, favoring ``d2`` on overlap."""

    name = "concat"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_record(left, "⊕").concat(_require_record(right, "⊕"))


class OpMergeConcat(BinaryOp):
    """``d1 ⊗ d2``: compatibility-based concatenation.

    A singleton bag with the concatenation when the records agree on
    their common attributes, the empty bag otherwise (paper §3.1).
    """

    name = "merge_concat"

    def apply(self, left: Any, right: Any) -> Any:
        return kernel.merge_concat(_require_record(left, "⊗"), _require_record(right, "⊗"))


# ---------------------------------------------------------------------------
# Extended binary operators (comparisons, boolean, arithmetic, strings, dates)
# ---------------------------------------------------------------------------


def _comparable_pair(left: Any, right: Any, op: str) -> Tuple[Any, Any]:
    if isinstance(left, DateValue) and isinstance(right, DateValue):
        return left, right
    if isinstance(left, str) and isinstance(right, str):
        return left, right
    return _require_number(left, op), _require_number(right, op)


class OpLt(BinaryOp):
    name = "lt"

    def apply(self, left: Any, right: Any) -> Any:
        left, right = _comparable_pair(left, right, "<")
        return left < right


class OpLe(BinaryOp):
    name = "le"

    def apply(self, left: Any, right: Any) -> Any:
        left, right = _comparable_pair(left, right, "<=")
        return left <= right


class OpGt(BinaryOp):
    name = "gt"

    def apply(self, left: Any, right: Any) -> Any:
        left, right = _comparable_pair(left, right, ">")
        return right < left


class OpGe(BinaryOp):
    name = "ge"

    def apply(self, left: Any, right: Any) -> Any:
        left, right = _comparable_pair(left, right, ">=")
        return right <= left


class OpAnd(BinaryOp):
    name = "and"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_bool(left, "and") and _require_bool(right, "and")


class OpOr(BinaryOp):
    name = "or"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_bool(left, "or") or _require_bool(right, "or")


class OpAdd(BinaryOp):
    name = "add"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_number(left, "+") + _require_number(right, "+")


class OpSub(BinaryOp):
    name = "sub"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_number(left, "-") - _require_number(right, "-")


class OpMult(BinaryOp):
    name = "mult"

    def apply(self, left: Any, right: Any) -> Any:
        return _require_number(left, "*") * _require_number(right, "*")


class OpDiv(BinaryOp):
    name = "div"

    def apply(self, left: Any, right: Any) -> Any:
        divisor = _require_number(right, "/")
        if divisor == 0:
            raise DataError("division by zero")
        return _require_number(left, "/") / divisor


class OpStrConcat(BinaryOp):
    name = "str_concat"

    def apply(self, left: Any, right: Any) -> Any:
        if not isinstance(left, str) or not isinstance(right, str):
            raise DataError("|| expects strings, got %r and %r" % (left, right))
        return left + right


def _date_shift_args(left: Any, right: Any, op: str) -> Tuple[DateValue, int]:
    if not isinstance(left, DateValue):
        raise DataError("%s expects a date, got %r" % (op, left))
    if isinstance(right, bool) or not isinstance(right, int):
        raise DataError("%s expects an int amount, got %r" % (op, right))
    return left, right


class OpDatePlusDays(BinaryOp):
    """``d1 + interval 'd2' day``."""

    name = "date_plus_days"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_plus_days")
        return date.plus_days(amount)


class OpDateMinusDays(BinaryOp):
    """``d1 - interval 'd2' day``."""

    name = "date_minus_days"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_minus_days")
        return date.minus_days(amount)


class OpDatePlusMonths(BinaryOp):
    """``d1 + interval 'd2' month`` (calendar arithmetic)."""

    name = "date_plus_months"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_plus_months")
        return date.plus_months(amount)


class OpDateMinusMonths(BinaryOp):
    """``d1 - interval 'd2' month``."""

    name = "date_minus_months"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_minus_months")
        return date.minus_months(amount)


class OpDatePlusYears(BinaryOp):
    """``d1 + interval 'd2' year``."""

    name = "date_plus_years"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_plus_years")
        return date.plus_years(amount)


class OpDateMinusYears(BinaryOp):
    """``d1 - interval 'd2' year``."""

    name = "date_minus_years"

    def apply(self, left: Any, right: Any) -> Any:
        date, amount = _date_shift_args(left, right, "date_minus_years")
        return date.minus_years(amount)


#: Every operator class, for registries (codegen dispatch, random plan
#: generation in the property-test harness).
UNARY_OPS = (
    OpIdentity,
    OpNeg,
    OpBag,
    OpFlatten,
    OpRec,
    OpDot,
    OpRemove,
    OpProject,
    OpDistinct,
    OpCount,
    OpSum,
    OpAvg,
    OpMin,
    OpMax,
    OpSingleton,
    OpToString,
    OpNumNeg,
    OpSortBy,
    OpLike,
    OpSubstring,
    OpLimit,
    OpDateYear,
    OpDateMonth,
    OpDateDay,
)

BINARY_OPS = (
    OpEq,
    OpIn,
    OpUnion,
    OpBagDiff,
    OpBagInter,
    OpConcat,
    OpMergeConcat,
    OpLt,
    OpLe,
    OpGt,
    OpGe,
    OpAnd,
    OpOr,
    OpAdd,
    OpSub,
    OpMult,
    OpDiv,
    OpStrConcat,
    OpDatePlusDays,
    OpDateMinusDays,
    OpDatePlusMonths,
    OpDateMinusMonths,
    OpDatePlusYears,
    OpDateMinusYears,
)
