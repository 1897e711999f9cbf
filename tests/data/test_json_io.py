"""Unit tests for JSON round-tripping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.foreign import DateValue
from repro.data.json_io import dumps, from_jsonable, loads, to_jsonable
from repro.data.model import Bag, DataError, Record, bag, rec


class js:
    """Strategies biased toward the wire format's reserved shapes."""

    _atoms = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-50, max_value=50),
        st.text(alphabet="ab$-19", max_size=8),
        st.builds(
            DateValue,
            st.integers(min_value=1992, max_value=1998),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=28),
        ),
    )

    @staticmethod
    def values():
        keys = st.sampled_from(["a", "b", "$date", "$record"])
        return st.recursive(
            js._atoms,
            lambda children: st.one_of(
                st.lists(children, max_size=3).map(Bag),
                st.dictionaries(keys, children, max_size=3).map(Record),
            ),
            max_leaves=10,
        )


class TestJsonIo:
    def test_round_trip_nested(self):
        value = rec(xs=bag(1, rec(d=DateValue(1994, 5, 6)), "s"), ok=True)
        assert loads(dumps(value)) == value

    def test_dates_are_tagged(self):
        assert to_jsonable(DateValue(1994, 5, 6)) == {"$date": "1994-05-06"}
        assert from_jsonable({"$date": "1994-05-06"}) == DateValue(1994, 5, 6)

    def test_bags_to_arrays(self):
        assert to_jsonable(bag(1, 2)) == [1, 2]

    def test_plain_object_is_record(self):
        assert from_jsonable({"a": 1}) == rec(a=1)

    def test_dumps_deterministic(self):
        assert dumps(rec(b=2, a=1)) == dumps(rec(a=1, b=2))

    def test_unserialisable_raises(self):
        with pytest.raises(DataError):
            to_jsonable(object())


class TestTagEscaping:
    """Records whose fields collide with wire tags must round-trip (PR 3)."""

    def test_literal_date_field_round_trips(self):
        value = Record({"$date": "1995-01-01"})
        assert loads(dumps(value)) == value

    def test_non_string_date_field_round_trips(self):
        value = Record({"$date": 5})
        assert loads(dumps(value)) == value

    def test_literal_record_field_round_trips(self):
        value = Record({"$record": rec(a=1)})
        assert loads(dumps(value)) == value

    def test_bad_date_payload_rejected(self):
        with pytest.raises(DataError):
            from_jsonable({"$date": 5})

    def test_unparsable_date_string_is_a_data_error(self):
        with pytest.raises(DataError, match="nope"):
            from_jsonable({"$date": "nope"})


@given(js.values())
@settings(max_examples=150, deadline=None)
def test_round_trip_property(value):
    """dumps → loads is the identity on every data-model value, including
    ``{"$date": ...}`` shapes nested inside bags and records."""
    assert loads(dumps(value)) == value
