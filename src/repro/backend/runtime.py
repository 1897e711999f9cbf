"""Runtime library for generated code (paper §8).

"The emitted code has to be linked with a small runtime library which
implements core operations over the data model (e.g., record
construction/access, collection operations such as flatten, distinct,
etc.)" — this is that library for the Python backend.  Generated code
calls these functions by name; multiset operations go straight to the
keyed kernel (:mod:`repro.data.kernel`) — the same one every evaluator
runs on — and everything else delegates to operators from
:mod:`repro.data.operators`, so each operation has one definition.

Generated code calls most of these functions once or more per row, so
those allocate no operator object per call.  Parameterless operators
are module singletons; the per-row parameterised ones (``like``,
``substring``) are cached per parameter, while ``sort_by`` and
``limit``, which run once per collection, build theirs.  The record
operations (``dot``, ``concat``, ``brec``, ``remove``, ``project``)
check their argument and act on the record directly; only a failing
check goes through the operator, so the :class:`DataError` texts are
the operators' own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterable, List, Sequence, Tuple

from repro.data import kernel
from repro.data import operators as ops
from repro.data.model import Bag, DataError, Record, values_equal


def _bag_arg(value: Any, op: str) -> Bag:
    if not isinstance(value, Bag):
        raise DataError("%s expects a bag, got %r" % (op, value))
    return value


def _record_arg(value: Any, op: str) -> Record:
    if not isinstance(value, Record):
        raise DataError("%s expects a record, got %r" % (op, value))
    return value


# Parameterless operators are singletons here: generated code calls these
# functions millions of times, so no per-call operator allocation.
_FLATTEN = ops.OpFlatten()
_NEG = ops.OpNeg()
_COUNT = ops.OpCount()
_SUM = ops.OpSum()
_AVG = ops.OpAvg()
_MIN = ops.OpMin()
_MAX = ops.OpMax()
_SINGLETON = ops.OpSingleton()
_TOSTRING = ops.OpToString()
_NUMNEG = ops.OpNumNeg()
_DATE_YEAR = ops.OpDateYear()
_DATE_MONTH = ops.OpDateMonth()
_DATE_DAY = ops.OpDateDay()
_CONCAT = ops.OpConcat()
_LT = ops.OpLt()
_LE = ops.OpLe()
_GT = ops.OpGt()
_GE = ops.OpGe()
_AND = ops.OpAnd()
_OR = ops.OpOr()
_ADD = ops.OpAdd()
_SUB = ops.OpSub()
_MULT = ops.OpMult()
_DIV = ops.OpDiv()
_STR_CONCAT = ops.OpStrConcat()
_DATE_PLUS_DAYS = ops.OpDatePlusDays()
_DATE_MINUS_DAYS = ops.OpDateMinusDays()
_DATE_PLUS_MONTHS = ops.OpDatePlusMonths()
_DATE_MINUS_MONTHS = ops.OpDateMinusMonths()
_DATE_PLUS_YEARS = ops.OpDatePlusYears()
_DATE_MINUS_YEARS = ops.OpDateMinusYears()


#: Default value for the generated functions' environment parameter.
EMPTY_RECORD = Record({})


#: Parameterised operators, one instance per parameter: generated code
#: passes the same literals on every row.
_like_op = lru_cache(maxsize=256)(ops.OpLike)
_substring_op = lru_cache(maxsize=256)(ops.OpSubstring)


def brec(field: str, value: Any) -> Record:
    """``[field: value]``."""
    return Record._of_sorted({field: value})


def dot(value: Any, field: str) -> Any:
    if isinstance(value, Record):
        try:
            return value._data[field]
        except KeyError:
            pass
    return ops.OpDot(field).apply(value)  # raises the operator's DataError


def remove(value: Any, field: str) -> Any:
    if isinstance(value, Record):
        return value.remove(field)
    return ops.OpRemove(field).apply(value)  # raises the operator's DataError


def project(value: Any, fields: Sequence[str]) -> Any:
    if isinstance(value, Record):
        return value.project(fields)
    return ops.OpProject(fields).apply(value)  # raises the operator's DataError


def coll(value: Any) -> Bag:
    return Bag([value])


def flatten(value: Any) -> Bag:
    return _FLATTEN.apply(value)


def distinct(value: Any) -> Bag:
    return kernel.distinct(_bag_arg(value, "distinct"))


def neg(value: Any) -> bool:
    return _NEG.apply(value)


def count(value: Any) -> int:
    return _COUNT.apply(value)


def agg_sum(value: Any) -> Any:
    return _SUM.apply(value)


def agg_avg(value: Any) -> Any:
    return _AVG.apply(value)


def agg_min(value: Any) -> Any:
    return _MIN.apply(value)


def agg_max(value: Any) -> Any:
    return _MAX.apply(value)


def singleton(value: Any) -> Any:
    return _SINGLETON.apply(value)


def tostring(value: Any) -> str:
    return _TOSTRING.apply(value)


def numneg(value: Any) -> Any:
    return _NUMNEG.apply(value)


def sort_by(value: Any, keys: Sequence[Tuple[str, bool]]) -> Any:
    return ops.OpSortBy(keys).apply(value)


def like(value: Any, pattern: str) -> bool:
    return _like_op(pattern).apply(value)


def substring(value: Any, start: int, length: Any) -> str:
    return _substring_op(start, length).apply(value)


def date_year(value: Any) -> int:
    return _DATE_YEAR.apply(value)


def date_month(value: Any) -> int:
    return _DATE_MONTH.apply(value)


def date_day(value: Any) -> int:
    return _DATE_DAY.apply(value)


# -- binary -------------------------------------------------------------------


def eq(left: Any, right: Any) -> bool:
    return values_equal(left, right)


def member(left: Any, right: Any) -> bool:
    return kernel.contains(_bag_arg(right, "member"), left)


def union(left: Any, right: Any) -> Bag:
    return kernel.union(_bag_arg(left, "union"), _bag_arg(right, "union"))


def bag_diff(left: Any, right: Any) -> Bag:
    return kernel.minus(_bag_arg(left, "bag_diff"), _bag_arg(right, "bag_diff"))


def bag_inter(left: Any, right: Any) -> Bag:
    return kernel.intersection(_bag_arg(left, "bag_inter"), _bag_arg(right, "bag_inter"))


def concat(left: Any, right: Any) -> Record:
    if isinstance(left, Record) and isinstance(right, Record):
        return left.concat(right)
    return _CONCAT.apply(left, right)  # raises the operator's DataError


def merge_concat(left: Any, right: Any) -> Bag:
    return kernel.merge_concat(
        _record_arg(left, "merge_concat"), _record_arg(right, "merge_concat")
    )


def lt(left: Any, right: Any) -> bool:
    return _LT.apply(left, right)


def le(left: Any, right: Any) -> bool:
    return _LE.apply(left, right)


def gt(left: Any, right: Any) -> bool:
    return _GT.apply(left, right)


def ge(left: Any, right: Any) -> bool:
    return _GE.apply(left, right)


def and_(left: Any, right: Any) -> bool:
    return _AND.apply(left, right)


def or_(left: Any, right: Any) -> bool:
    return _OR.apply(left, right)


def add(left: Any, right: Any) -> Any:
    return _ADD.apply(left, right)


def sub(left: Any, right: Any) -> Any:
    return _SUB.apply(left, right)


def mult(left: Any, right: Any) -> Any:
    return _MULT.apply(left, right)


def div(left: Any, right: Any) -> Any:
    return _DIV.apply(left, right)


def str_concat(left: Any, right: Any) -> str:
    return _STR_CONCAT.apply(left, right)


def date_plus_days(left: Any, right: Any) -> Any:
    return _DATE_PLUS_DAYS.apply(left, right)


def date_minus_days(left: Any, right: Any) -> Any:
    return _DATE_MINUS_DAYS.apply(left, right)


def date_plus_months(left: Any, right: Any) -> Any:
    return _DATE_PLUS_MONTHS.apply(left, right)


def date_minus_months(left: Any, right: Any) -> Any:
    return _DATE_MINUS_MONTHS.apply(left, right)


def date_plus_years(left: Any, right: Any) -> Any:
    return _DATE_PLUS_YEARS.apply(left, right)


def date_minus_years(left: Any, right: Any) -> Any:
    return _DATE_MINUS_YEARS.apply(left, right)


def limit(value: Any, n: int) -> Any:
    return ops.OpLimit(n).apply(value)


# -- control helpers used by generated code ----------------------------------


def bag_items(value: Any) -> Tuple[Any, ...]:
    """Iteration source for comprehensions; enforces bagness."""
    if not isinstance(value, Bag):
        raise DataError("comprehension source must be a bag, got %r" % (value,))
    return value.items


def mk_bag(items: Iterable[Any]) -> Bag:
    return Bag(items)


def bool_(value: Any) -> bool:
    if not isinstance(value, bool):
        raise DataError("condition must be a boolean, got %r" % (value,))
    return value


def get_constant(constants: Any, name: str) -> Any:
    try:
        return constants[name]
    except KeyError:
        raise DataError("unknown database constant %r" % (name,))


# -- observability (see repro.obs) --------------------------------------------
#
# Generated code resolves these functions through the module object
# (``_rt.dot(...)``) at call time, so observation is implemented by
# *swapping the module globals* for counting wrappers while an observer
# is installed: the default path runs the original functions with zero
# added work.

#: name → original function, non-empty only while an observer is installed.
_WRAPPED = {}


def install_observer(metrics) -> None:
    """Wrap every runtime operation to count applications into ``metrics``.

    Counters are named ``runtime.calls.<fn>``; :func:`bag_items`
    additionally feeds the ``runtime.bag_size`` histogram with the size
    of every comprehension source the generated code iterates.
    """
    if _WRAPPED:
        uninstall_observer()
    module_globals = globals()
    bag_hist = metrics.histogram("runtime.bag_size")
    for name, fn in sorted(module_globals.items()):
        if name.startswith("_") or not callable(fn):
            continue
        if getattr(fn, "__module__", None) != __name__:
            continue
        if name in ("install_observer", "uninstall_observer"):
            continue
        counter = metrics.counter("runtime.calls." + name)
        if name == "bag_items":

            def wrapped(value, _fn=fn, _counter=counter, _hist=bag_hist):
                _counter.inc()
                items = _fn(value)
                _hist.record(len(items))
                return items

        else:

            def wrapped(*args, _fn=fn, _counter=counter, **kwargs):
                _counter.inc()
                return _fn(*args, **kwargs)

        _WRAPPED[name] = fn
        module_globals[name] = wrapped


def uninstall_observer() -> None:
    """Restore the bare runtime functions."""
    module_globals = globals()
    for name, fn in _WRAPPED.items():
        module_globals[name] = fn
    _WRAPPED.clear()
