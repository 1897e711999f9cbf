"""The dict-backed record against its sorted-pairs specification.

:class:`~repro.data.model.Record` holds one dict in sorted-key order
and builds results through a trusted constructor that skips the sort.
These tests pin down that nothing observable moved:

- a model-based property: every operation agrees with
  :class:`tests.kernel_oracles.PairsRecord`, the representation the
  record had before;
- the invariant the trusted constructor relies on: every record any
  operation, operator, row builder or executor produces has its keys in
  sorted order;
- ``values_equal``'s same-type fast path agrees with canonical keys;
- the ``DataError`` texts of the runtime's record operations;
- records and bags pickled in one process are found in sets by another.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import runtime
from repro.backend.python_gen import compile_nnrc_to_callable
from repro.data import batch, json_io
from repro.data import operators as ops
from repro.data.columnar import ColumnarBag
from repro.data.model import Bag, DataError, Record, bag, canonical_key, rec, values_equal
from repro.nraenv import builders as b
from repro.nraenv.exec import eval_fast
from repro.sql.parser import parse_sql
from repro.sql.to_nraenv import sql_to_nraenv
from repro.translate.nraenv_to_nnrc import nraenv_to_nnrc

from tests.kernel_oracles import PairsRecord
from tests.strategies import values

#: Names that sort in every interesting way: the translator's ``__t_``
#: aliases before lower case, upper case before both, and the JSON tags.
NAMES = ["a", "b", "c", "A", "Z", "__t_x", "_k", "$date", "$record", "l_b", "l_a"]

field_maps = st.dictionaries(st.sampled_from(NAMES), values(max_leaves=4), max_size=5)


def assert_sorted(value):
    """Every record inside ``value`` keeps its keys in sorted order."""
    if isinstance(value, Record):
        keys = list(value._data)
        assert keys == sorted(keys), keys
        for inner in value._data.values():
            assert_sorted(inner)
    elif isinstance(value, Bag):
        for inner in value:
            assert_sorted(inner)


def same(record, ref):
    """``record`` and the reference agree on everything observable."""
    assert_sorted(record)
    assert record.fields == ref.fields
    assert record.domain() == ref.domain()
    assert list(record) == list(ref.domain())
    assert len(record) == len(ref.fields)
    assert canonical_key(record) == ref.canonical_key()
    assert repr(record) == ref.repr()
    assert record == ref.to_record()
    assert hash(record) == hash(ref.to_record()) == hash(ref.canonical_key())


class TestAgainstPairs:
    @given(field_maps)
    @settings(max_examples=150)
    def test_construction_and_access(self, fields):
        record, ref = Record(fields), PairsRecord(fields)
        same(record, ref)
        for name in NAMES:
            assert (name in record) == ref.contains(name)
            assert record.get(name, "?") == ref.get(name, "?")
            if ref.contains(name):
                assert record[name] is ref.getitem(name)
            else:
                with pytest.raises(DataError) as got:
                    record[name]
                with pytest.raises(DataError) as want:
                    ref.getitem(name)
                assert str(got.value) == str(want.value)

    @given(field_maps, field_maps)
    @settings(max_examples=200)
    def test_concat_is_right_biased(self, left, right):
        got = Record(left).concat(Record(right))
        same(got, PairsRecord(left).concat(PairsRecord(right)))
        for name in right:
            assert got[name] is right[name]

    @given(field_maps)
    def test_empty_operand_is_the_identity(self, fields):
        record, empty = Record(fields), Record({})
        assert record.concat(empty) is record
        assert empty.concat(record) is (record if fields else empty)
        same(runtime.concat(runtime.EMPTY_RECORD, record), PairsRecord(fields))

    @given(field_maps, st.sampled_from(NAMES))
    def test_remove(self, fields, name):
        same(Record(fields).remove(name), PairsRecord(fields).remove(name))
        same(runtime.remove(Record(fields), name), PairsRecord(fields).remove(name))

    @given(field_maps, st.lists(st.sampled_from(NAMES), max_size=4))
    def test_project(self, fields, names):
        same(Record(fields).project(names), PairsRecord(fields).project(names))
        same(
            runtime.project(Record(fields), tuple(sorted(names))),
            PairsRecord(fields).project(names),
        )

    @given(field_maps)
    def test_to_jsonable_and_pickle_round_trip(self, fields):
        record = Record(fields)
        encoded = json_io.to_jsonable(record)
        assert json_io.from_jsonable(encoded) == record
        if len(fields) == 1 and next(iter(fields)) in ("$date", "$record"):
            assert list(encoded) == ["$record"]
        else:
            assert list(encoded) == list(PairsRecord(fields).domain())
        copy = pickle.loads(pickle.dumps(record))
        same(copy, PairsRecord(fields))

    @given(field_maps, field_maps)
    def test_equality_and_hash_follow_canonical_keys(self, left, right):
        x, y = Record(left), Record(right)
        equal = PairsRecord(left).canonical_key() == PairsRecord(right).canonical_key()
        assert (x == y) == equal
        if equal:
            assert hash(x) == hash(y)


class TestSortedInvariant:
    def test_constructors_and_operators(self):
        assert_sorted(Record({"b": 1, "a": 2, "__t": 3}))
        assert_sorted(Record({"b": 1}, a=2))
        assert_sorted(Record([("z", 1), ("a", 2)]))
        assert_sorted(runtime.brec("x", 1))
        assert_sorted(ops.OpRec("x").apply(rec(b=1)))
        assert_sorted(ops.OpConcat().apply(rec(z=1, b=2), rec(a=3, c=4)))
        assert_sorted(ops.OpRemove("b").apply(rec(c=1, b=2, a=3)))
        assert_sorted(ops.OpProject(["c", "a"]).apply(rec(c=1, b=2, a=3)))

    @pytest.mark.parametrize(
        "left, right",
        [
            ({"b": 1, "c": 2}, {"__t": 0}),  # every new key first
            ({"a": 1, "b": 2}, {"c": 3, "d": 4}),  # every new key last
            ({"a": 1, "b": 2}, {"b": 3, "c": 4}),  # overlap at the seam
            ({"a": 1, "c": 2}, {"b": 3}),  # interleaved
            ({"a": 1, "c": 2}, {"c": 3, "a": 4}),  # no new key
            ({"b": 1}, {"a": 2, "c": 3}),  # new keys on both sides
        ],
    )
    def test_every_concat_case(self, left, right):
        got = Record(left).concat(Record(right))
        assert_sorted(got)
        assert got.fields == PairsRecord(left).concat(PairsRecord(right)).fields

    def test_columnar_rows(self):
        cb = ColumnarBag.from_columns({"z": [1, 2], "a": [3, 4], "m": [5, 6]}, 2)
        rows = cb.rows()
        assert_sorted(Bag(rows))
        assert rows[0] == rec(z=1, a=3, m=5)
        assert_sorted(Bag(ColumnarBag.from_bag(bag(rec(b=1, a=2))).rows()))

    def test_batch_projection(self):
        rows = [rec(a=1, b=2, c=3), rec(a=4, b=5, c=6)]
        pairs = [("z", "a"), ("b", "c"), ("a", "b")]
        for source in (rows, ColumnarBag.from_bag(Bag(rows))):
            out = batch.project_records(source, pairs)
            assert_sorted(Bag(out))
            assert out[0] == rec(z=1, b=3, a=2)
        repeated = batch.project_records(rows, [("z", "a"), ("y", "b"), ("z", "c")])
        assert_sorted(Bag(repeated))
        assert repeated[0] == rec(z=3, y=2)

    def test_engine_fused_rows(self):
        table = {"R": bag(rec(b=1, a=10), rec(b=2, a=20), rec(b=3, a=30))}
        alias = b.chi(b.concat(b.id_(), b.rec_field("__t_r", b.id_())), b.table("R"))
        filtered = b.sigma(b.gt(b.dot(b.id_(), "b"), b.const(1)), alias)
        assert_sorted(eval_fast(filtered, Record({}), None, table))
        projected = b.chi(
            b.record({"z": b.dot(b.id_(), "a"), "m": b.dot(b.id_(), "b")}),
            b.sigma(b.gt(b.dot(b.id_(), "b"), b.const(1)), b.table("R")),
        )
        result = eval_fast(projected, Record({}), None, table)
        assert_sorted(result)
        assert result == bag(rec(z=20, m=2), rec(z=30, m=3))

    @pytest.mark.parametrize(
        "sql",
        [
            "select * from lineitem where l_quantity < 20",
            "select l_returnflag, sum(l_quantity) as qty, count(*) as n "
            "from lineitem where l_quantity < 40 group by l_returnflag",
            "select n_name, r_name from nation, region where n_regionkey = r_regionkey",
        ],
    )
    def test_executors(self, sql, tpch_db):
        plan = sql_to_nraenv(parse_sql(sql))
        engine = eval_fast(plan, Record({}), None, tpch_db)
        assert_sorted(engine)
        fn = compile_nnrc_to_callable(nraenv_to_nnrc(plan))
        served = fn(tpch_db)
        assert_sorted(served)
        assert served == engine


class TestValuesEqual:
    NAN = float("nan")

    @pytest.mark.parametrize(
        "left, right",
        [
            (1, 1), (1, 2), (1, 1.0), (1.0, 1), (1, True), (True, 1), (True, True),
            (0, False), (2 ** 53, 2 ** 53 + 1), (2 ** 53 + 1, float(2 ** 53)),
            (2 ** 53 + 1, 2 ** 53 + 1), (10 ** 30, 10 ** 30), ("a", "a"), ("a", "b"),
            ("1", 1), (None, None), (None, 0), (1.5, 1.5), (-0.0, 0.0),
            (NAN, NAN), (NAN, float("nan")), (NAN, 1.0), (math.inf, math.inf),
        ],
    )
    def test_agrees_with_canonical_keys(self, left, right):
        expected = canonical_key(left) == canonical_key(right)
        assert values_equal(left, right) is expected
        assert runtime.eq(left, right) is expected

    def test_nan_equals_itself_only_as_the_same_object(self):
        assert values_equal(self.NAN, self.NAN)
        assert not values_equal(self.NAN, float("nan"))


class TestErrorTexts:
    """The runtime's fast paths raise the operators' messages unchanged."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: runtime.dot(5, "a"), ".a expects a record, got 5"),
            (lambda: runtime.dot(None, "a"), ".a expects a record, got None"),
            (
                lambda: runtime.dot(rec(b=1, c=2), "a"),
                "record has no attribute 'a' (has ('b', 'c'))",
            ),
            (lambda: runtime.concat(5, rec()), "⊕ expects a record, got 5"),
            (lambda: runtime.concat(rec(), "x"), "⊕ expects a record, got 'x'"),
            (lambda: runtime.concat(1, 2), "⊕ expects a record, got 1"),
            (lambda: ops.OpDot("a").apply(None), ".a expects a record, got None"),
            (
                lambda: ops.OpDot("a").apply(rec(b=1)),
                "record has no attribute 'a' (has ('b',))",
            ),
            (lambda: runtime.remove(3, "a"), "−a expects a record, got 3"),
            (lambda: runtime.project([1], ("a",)), "π expects a record, got [1]"),
        ],
    )
    def test_message(self, call, message):
        with pytest.raises(DataError) as raised:
            call()
        assert str(raised.value) == message


_DUMP = (
    "import pickle, sys\n"
    "from repro.data.model import Bag, Record\n"
    "row = Record({'a': 'x', 'b': 'y'})\n"
    "inner = Bag([row, 'z'])\n"
    "hash(row); hash(inner)\n"
    "sys.stdout.buffer.write(pickle.dumps(({row}, {inner}, row, inner)))\n"
)

_LOAD = (
    "import pickle, sys\n"
    "from repro.data.model import Bag, Record\n"
    "rows, bags, row, inner = pickle.loads(sys.stdin.buffer.read())\n"
    "assert Record({'b': 'y', 'a': 'x'}) in rows\n"
    "assert Bag(['z', Record({'a': 'x', 'b': 'y'})]) in bags\n"
    "assert hash(row) == hash(Record({'a': 'x', 'b': 'y'}))\n"
    "assert hash(inner) == hash(Bag([Record({'a': 'x', 'b': 'y'}), 'z']))\n"
    "print('ok')\n"
)


def test_pickled_values_hash_in_another_process():
    """String hashes are seeded per process: a pickle must not carry them."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    dumped = subprocess.run(
        [sys.executable, "-c", _DUMP],
        env=dict(env, PYTHONHASHSEED="1"), capture_output=True, check=True,
    ).stdout
    loaded = subprocess.run(
        [sys.executable, "-c", _LOAD], input=dumped,
        env=dict(env, PYTHONHASHSEED="2"), capture_output=True,
    )
    assert loaded.returncode == 0, loaded.stderr.decode()
    assert loaded.stdout.strip() == b"ok"
