"""JSON (de)serialisation of data-model values.

Bags become JSON arrays, records become JSON objects, and foreign date
values are tagged as ``{"$date": "YYYY-MM-DD"}`` so round-tripping is
loss-free.  This is the wire format used by the examples, the query
service, and the generated-code runtime when exchanging data with the
outside world.

Records whose field set collides with a tag (a record that literally has
a single ``$date`` or ``$record`` field) are escaped as ``{"$record":
{...}}`` so that *every* data-model value round-trips exactly — found by
the round-trip property test in ``tests/data/test_json_io.py``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.data.foreign import DateValue
from repro.data.model import Bag, DataError, Record


#: Record shapes that would be misread as a tag on the way back in.
_AMBIGUOUS_DOMAINS = (("$date",), ("$record",))


def to_jsonable(value: Any) -> Any:
    """Convert a data-model value to JSON-encodable Python data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, DateValue):
        return {"$date": value.isoformat()}
    if isinstance(value, Bag):
        return [to_jsonable(v) for v in value]
    if isinstance(value, Record):
        fields = {k: to_jsonable(v) for k, v in value._data.items()}
        if len(value) == 1 and value.domain() in _AMBIGUOUS_DOMAINS:
            return {"$record": fields}
        return fields
    raise DataError("cannot serialise %r" % (value,))


def from_jsonable(value: Any) -> Any:
    """Convert JSON-decoded Python data into a data-model value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return Bag(from_jsonable(v) for v in value)
    if isinstance(value, dict):
        if set(value) == {"$date"}:
            tagged = value["$date"]
            if not isinstance(tagged, str):
                raise DataError("$date payload must be a string, got %r" % (tagged,))
            try:
                return DateValue.parse(tagged)
            except ValueError as exc:
                raise DataError("bad $date payload %r: %s" % (tagged, exc))
        if set(value) == {"$record"}:
            escaped = value["$record"]
            if not isinstance(escaped, dict):
                raise DataError("$record payload must be an object, got %r" % (escaped,))
            return Record({k: from_jsonable(v) for k, v in escaped.items()})
        return Record({k: from_jsonable(v) for k, v in value.items()})
    raise DataError("cannot deserialise %r" % (value,))


def dumps(value: Any, indent: Any = None) -> str:
    """Serialise a data-model value to a JSON string."""
    return json.dumps(to_jsonable(value), indent=indent, sort_keys=True)


def loads(text: str) -> Any:
    """Deserialise a JSON string into a data-model value."""
    return from_jsonable(json.loads(text))
