"""Unit tests for the operator catalog (paper §3.1)."""

import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import runtime
from repro.data import operators as ops
from repro.data.foreign import DateValue
from repro.data.model import Bag, DataError, bag, rec

from tests.kernel_oracles import like_match

#: LIKE's wildcards, regular-expression metacharacters, a newline, and
#: plain letters.
_LIKE_ALPHABET = "%_ab.*+?()[]{}^$|\\\n"

#: Patterns with many, and repeated, ``%`` against texts long enough
#: to hold several matches of each segment.
_LIKE_SEGMENTED = st.lists(
    st.one_of(st.sampled_from(["%", "%%", "_"]), st.text(alphabet="ab", min_size=1, max_size=3)),
    max_size=8,
).map("".join)

#: ``%a`` twelve times then ``%b``, against 2000 ``a``: no match, and a
#: backtracking matcher would try O(2000**12) splits before saying so.
_LIKE_PATHOLOGICAL = """
import time
from repro.data.operators import OpLike
started = time.perf_counter()
assert OpLike("%a" * 12 + "%b").apply("a" * 2000) is False
assert OpLike("%%%%%%%%%%x").apply("a" * 2000) is False
assert OpLike("%a_%a_%a_%a_%a_%a_%b").apply("a" * 2000) is False
print(time.perf_counter() - started)
"""


class TestCoreUnary:
    def test_identity(self):
        assert ops.OpIdentity().apply(rec(a=1)) == rec(a=1)

    def test_neg(self):
        assert ops.OpNeg().apply(True) is False

    def test_neg_requires_boolean(self):
        with pytest.raises(DataError):
            ops.OpNeg().apply(1)

    def test_coll(self):
        assert ops.OpBag().apply(5) == bag(5)

    def test_flatten(self):
        assert ops.OpFlatten().apply(bag(bag(1), bag(2, 3))) == bag(1, 2, 3)

    def test_rec(self):
        assert ops.OpRec("a").apply(7) == rec(a=7)

    def test_dot(self):
        assert ops.OpDot("a").apply(rec(a=7, b=8)) == 7

    def test_dot_on_non_record(self):
        with pytest.raises(DataError):
            ops.OpDot("a").apply(5)

    def test_remove(self):
        assert ops.OpRemove("a").apply(rec(a=1, b=2)) == rec(b=2)

    def test_project(self):
        assert ops.OpProject(["a", "c"]).apply(rec(a=1, b=2, c=3)) == rec(a=1, c=3)

    def test_project_field_order_irrelevant(self):
        assert ops.OpProject(["c", "a"]) == ops.OpProject(["a", "c"])


class TestAggregates:
    def test_distinct(self):
        assert ops.OpDistinct().apply(bag(1, 2, 1)) == bag(1, 2)

    def test_count(self):
        assert ops.OpCount().apply(bag(1, 1, 1)) == 3
        assert ops.OpCount().apply(Bag([])) == 0

    def test_sum(self):
        assert ops.OpSum().apply(bag(1, 2, 3)) == 6

    def test_sum_empty_is_zero(self):
        assert ops.OpSum().apply(Bag([])) == 0

    def test_sum_non_number_raises(self):
        with pytest.raises(DataError):
            ops.OpSum().apply(bag(1, "x"))

    def test_avg(self):
        assert ops.OpAvg().apply(bag(1, 2, 3)) == 2.0

    def test_avg_empty_raises(self):
        with pytest.raises(DataError):
            ops.OpAvg().apply(Bag([]))

    def test_min_max(self):
        assert ops.OpMin().apply(bag(3, 1, 2)) == 1
        assert ops.OpMax().apply(bag(3, 1, 2)) == 3

    def test_min_on_strings(self):
        assert ops.OpMin().apply(bag("b", "a")) == "a"

    def test_singleton(self):
        assert ops.OpSingleton().apply(bag(42)) == 42

    def test_singleton_wrong_cardinality(self):
        with pytest.raises(DataError):
            ops.OpSingleton().apply(bag(1, 2))
        with pytest.raises(DataError):
            ops.OpSingleton().apply(Bag([]))

    def test_limit(self):
        assert ops.OpLimit(2).apply(Bag([3, 1, 2])) == bag(3, 1)
        assert ops.OpLimit(9).apply(bag(1)) == bag(1)

    def test_limit_negative_is_empty(self):
        # regression: Python's negative slicing returned all-but-last
        assert ops.OpLimit(-1).apply(Bag([3, 1, 2])) == Bag([])
        assert ops.OpLimit(-9).apply(Bag([3, 1, 2])) == Bag([])
        assert ops.OpLimit(0).apply(Bag([3, 1, 2])) == Bag([])


class TestStringsAndSort:
    def test_tostring(self):
        assert ops.OpToString().apply(True) == "true"
        assert ops.OpToString().apply("x") == "x"
        assert ops.OpToString().apply(DateValue(2020, 1, 2)) == "2020-01-02"

    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("abc", "abc", True),
            ("abc", "abd", False),
            ("a%", "abcdef", True),
            ("%BRASS", "PROMO BRASS", True),
            ("%BRASS", "BRASS PROMO", False),
            ("a_c", "abc", True),
            ("a_c", "ac", False),
            ("%x%y%", "axzzy", True),
            ("%x%y%", "ayzzx", False),
            ("%", "", True),
            ("_", "", False),
            ("%green%", "dark green metal", True),
        ],
    )
    def test_like(self, pattern, text, expected):
        assert ops.OpLike(pattern).apply(text) is expected
        assert like_match(pattern, text) is expected

    @given(
        st.text(alphabet=_LIKE_ALPHABET, max_size=8),
        st.text(alphabet=_LIKE_ALPHABET, max_size=10),
    )
    @settings(max_examples=400)
    def test_like_agrees_with_the_dynamic_program(self, pattern, text):
        expected = like_match(pattern, text)
        assert ops.OpLike(pattern).apply(text) is expected
        assert runtime.like(text, pattern) is expected
        # a pattern matches itself once its wildcards are read literally
        assert ops.OpLike(pattern).apply(pattern) is True

    @given(_LIKE_SEGMENTED, st.text(alphabet="ab", max_size=40))
    @settings(max_examples=300)
    def test_like_with_many_wildcards_agrees_with_the_dynamic_program(self, pattern, text):
        assert ops.OpLike(pattern).apply(text) is like_match(pattern, text)

    def test_like_is_linear_in_the_text(self):
        # In a child process, so that a backtracking matcher (which holds
        # the GIL for the whole match) fails on the timeout, not by hanging.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        done = subprocess.run(
            [sys.executable, "-c", _LIKE_PATHOLOGICAL],
            env=dict(os.environ, PYTHONPATH=os.path.abspath(src)),
            capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr.decode()
        assert float(done.stdout) < 1.0

    def test_like_survives_pickling(self):
        op = pickle.loads(pickle.dumps(ops.OpLike("a_%.")))
        assert op == ops.OpLike("a_%.")
        assert op.apply("ab..") and not op.apply("ab")

    def test_substring_sql_indexing(self):
        assert ops.OpSubstring(1, 2).apply("12345") == "12"
        assert ops.OpSubstring(3, None).apply("12345") == "345"
        assert ops.OpSubstring(2, 2).apply("12345") == "23"

    def test_substring_negative_start_shifts_window(self):
        # regression: the window covers 1-based positions
        # [start, start+length), so a non-positive start eats into the
        # length instead of clamping to the string head
        assert ops.OpSubstring(-1, 3).apply("abc") == "a"
        assert ops.OpSubstring(0, 2).apply("abc") == "a"
        assert ops.OpSubstring(-5, 3).apply("abc") == ""
        assert ops.OpSubstring(-2, None).apply("abc") == "abc"

    def test_substring_degenerate_windows(self):
        assert ops.OpSubstring(2, 0).apply("abc") == ""
        assert ops.OpSubstring(5, 2).apply("abc") == ""
        assert ops.OpSubstring(3, 9).apply("abc") == "c"

    def test_substring_negative_length_raises(self):
        # regression: Python slicing silently returned 'ab'
        with pytest.raises(DataError):
            ops.OpSubstring(1, -1).apply("abc")
        with pytest.raises(DataError):
            ops.OpSubstring(-1, -2).apply("abc")

    def test_sort_by_multi_key_directions(self):
        rows = bag(rec(a=1, b=2), rec(a=1, b=1), rec(a=0, b=9))
        result = ops.OpSortBy([("a", False), ("b", True)]).apply(rows)
        assert result.items == (rec(a=0, b=9), rec(a=1, b=2), rec(a=1, b=1))


class TestCoreBinary:
    def test_eq(self):
        assert ops.OpEq().apply(bag(1, 2), bag(2, 1)) is True
        assert ops.OpEq().apply(1, True) is False

    def test_in(self):
        assert ops.OpIn().apply(2, bag(1, 2)) is True
        assert ops.OpIn().apply(3, bag(1, 2)) is False

    def test_union(self):
        assert ops.OpUnion().apply(bag(1), bag(1, 2)) == bag(1, 1, 2)

    def test_bag_diff_and_inter(self):
        assert ops.OpBagDiff().apply(bag(1, 1, 2), bag(1)) == bag(1, 2)
        assert ops.OpBagInter().apply(bag(1, 2), bag(2, 3)) == bag(2)

    def test_concat(self):
        assert ops.OpConcat().apply(rec(a=1), rec(a=2, b=3)) == rec(a=2, b=3)

    def test_merge_concat(self):
        assert ops.OpMergeConcat().apply(rec(a=1), rec(b=2)) == bag(rec(a=1, b=2))
        assert ops.OpMergeConcat().apply(rec(a=1), rec(a=2)) == Bag([])


class TestExtendedBinary:
    def test_comparisons_on_numbers(self):
        assert ops.OpLt().apply(1, 2) is True
        assert ops.OpLe().apply(2, 2) is True
        assert ops.OpGt().apply(1, 2) is False
        assert ops.OpGe().apply(2, 2) is True

    def test_comparisons_on_strings(self):
        assert ops.OpLt().apply("a", "b") is True

    def test_comparisons_on_dates(self):
        assert ops.OpLt().apply(DateValue(2020, 1, 1), DateValue(2020, 6, 1)) is True

    def test_mixed_comparison_raises(self):
        with pytest.raises(DataError):
            ops.OpLt().apply("a", 1)

    def test_boolean_connectives(self):
        assert ops.OpAnd().apply(True, False) is False
        assert ops.OpOr().apply(True, False) is True
        with pytest.raises(DataError):
            ops.OpAnd().apply(1, True)

    def test_arithmetic(self):
        assert ops.OpAdd().apply(1, 2) == 3
        assert ops.OpSub().apply(1, 2) == -1
        assert ops.OpMult().apply(3, 4) == 12
        assert ops.OpDiv().apply(3, 2) == 1.5

    def test_division_by_zero(self):
        with pytest.raises(DataError):
            ops.OpDiv().apply(1, 0)

    def test_booleans_are_not_numbers(self):
        with pytest.raises(DataError):
            ops.OpAdd().apply(True, 1)

    def test_str_concat(self):
        assert ops.OpStrConcat().apply("a", "b") == "ab"

    def test_date_shifts(self):
        start = DateValue(1994, 1, 31)
        assert ops.OpDatePlusDays().apply(start, 1) == DateValue(1994, 2, 1)
        assert ops.OpDateMinusDays().apply(start, 31) == DateValue(1993, 12, 31)
        assert ops.OpDatePlusMonths().apply(start, 1) == DateValue(1994, 2, 28)
        assert ops.OpDatePlusYears().apply(start, 1) == DateValue(1995, 1, 31)
        assert ops.OpDateMinusMonths().apply(start, 1) == DateValue(1993, 12, 31)
        assert ops.OpDateMinusYears().apply(start, 2) == DateValue(1992, 1, 31)


class TestOperatorIdentity:
    def test_parameterised_ops_compare_by_params(self):
        assert ops.OpDot("a") == ops.OpDot("a")
        assert ops.OpDot("a") != ops.OpDot("b")
        assert ops.OpDot("a") != ops.OpRec("a")
        assert hash(ops.OpDot("a")) == hash(ops.OpDot("a"))

    def test_parameterless_ops_are_equal(self):
        assert ops.OpEq() == ops.OpEq()
        assert ops.OpEq() != ops.OpIn()

    def test_repr_shows_params(self):
        assert "a" in repr(ops.OpDot("a"))
