"""The keyed multiset kernel: one executable definition of bag semantics.

Every language in this compiler — the NRAe/NRA/NNRC/CAMP/OQL/NRAλ
evaluators, the hash-join engine, and the generated-code runtime —
bottoms out in the same §3.1 bag semantics.  This module is the single
place where those multiset operations are implemented; everything else
(including the :class:`~repro.data.model.Bag` and
:class:`~repro.data.model.Record` methods) delegates here.

The kernel is *keyed*: every operation works on the
:func:`~repro.data.model.canonical_key` of a value rather than on the
value itself, and the keys are cached on the immutable wrappers:

- ``Bag`` lazily caches the per-element key tuple (:func:`elem_keys`),
  a ``Counter`` index keyed by canonical key (:func:`key_index`), its
  own canonical key, and its hash;
- ``Record`` lazily caches its canonical key (which embeds the keys of
  every field value) and its hash.

Because the wrappers are immutable, the caches never need invalidation:
a key, once computed, is valid for the lifetime of the value.  (A
*hash* is valid only in the process that computed it — string hashes
are seeded per process — which is why pickling ships no cache.)  With the
index in hand, ``minus`` / ``intersection`` / ``contains`` /
``distinct`` / multiset equality are expected O(n + m) dict operations
instead of the O(n·m) / O(n²) nested ``values_equal`` loops a naive
implementation needs.  See DESIGN.md §8 for the complexity table.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, List, Sequence, Tuple

from repro.data.model import (
    Bag,
    DataError,
    Record,
    canonical_key,
    elem_keys,
)

__all__ = [
    "elem_keys",
    "key_index",
    "union",
    "minus",
    "intersection",
    "contains",
    "distinct",
    "multiset_equal",
    "sort",
    "product",
    "compatible",
    "merge_concat",
    "field_key",
    "path_key",
]


def key_index(bag: Bag) -> Counter:
    """The bag's cached ``canonical_key → multiplicity`` index."""
    index = bag._index
    if index is None:
        index = Counter(elem_keys(bag))
        bag._index = index
    return index


def _with_keys(items: List[Any], keys: List[tuple]) -> Bag:
    """A bag whose per-element key cache is pre-seeded."""
    out = Bag(items)
    out._elem_keys = tuple(keys)
    return out


# ---------------------------------------------------------------------------
# Multiset operations (paper §3.1: ∪, \, ∩, ∈, distinct, multiset equality)
# ---------------------------------------------------------------------------


def union(left: Bag, right: Bag) -> Bag:
    """Additive union ``left ∪ right``; propagates both operands' caches."""
    out = Bag(left._items + right._items)
    if left._elem_keys is not None and right._elem_keys is not None:
        out._elem_keys = left._elem_keys + right._elem_keys
        if left._index is not None and right._index is not None:
            out._index = left._index + right._index
    return out


def minus(left: Bag, right: Bag) -> Bag:
    """Multiset difference: removes one occurrence per match in ``right``."""
    if not right._items or not left._items:
        return left
    budget = dict(key_index(right))
    kept: List[Any] = []
    kept_keys: List[tuple] = []
    for item, key in zip(left._items, elem_keys(left)):
        count = budget.get(key, 0)
        if count:
            budget[key] = count - 1
        else:
            kept.append(item)
            kept_keys.append(key)
    return _with_keys(kept, kept_keys)


def intersection(left: Bag, right: Bag) -> Bag:
    """Multiset intersection: minimum of multiplicities, items from ``left``."""
    if not right._items or not left._items:
        return Bag([])
    budget = dict(key_index(right))
    kept: List[Any] = []
    kept_keys: List[tuple] = []
    for item, key in zip(left._items, elem_keys(left)):
        count = budget.get(key, 0)
        if count:
            budget[key] = count - 1
            kept.append(item)
            kept_keys.append(key)
    return _with_keys(kept, kept_keys)


def contains(bag: Bag, value: Any) -> bool:
    """``value ∈ bag`` via the key index (expected O(1) after indexing)."""
    return canonical_key(value) in key_index(bag)


def distinct(bag: Bag) -> Bag:
    """Duplicate elimination; keeps the first occurrence of each value."""
    seen = set()
    kept: List[Any] = []
    kept_keys: List[tuple] = []
    for item, key in zip(bag._items, elem_keys(bag)):
        if key not in seen:
            seen.add(key)
            kept.append(item)
            kept_keys.append(key)
    if len(kept) == len(bag._items):
        return bag
    return _with_keys(kept, kept_keys)


def multiset_equal(left: Bag, right: Bag) -> bool:
    """Order-insensitive bag equality, via cached keys or indexes."""
    if left is right:
        return True
    if len(left._items) != len(right._items):
        return False
    if left._key is not None and right._key is not None:
        return left._key == right._key
    return key_index(left) == key_index(right)


def sort(bag: Bag) -> Bag:
    """The same contents in canonical-key order (a stable sort)."""
    keys = elem_keys(bag)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return _with_keys(
        [bag._items[i] for i in order], [keys[i] for i in order]
    )


# ---------------------------------------------------------------------------
# Record operations shared by the evaluators (×, ⊗ and the join engine)
# ---------------------------------------------------------------------------


def product(left: Bag, right: Bag) -> Bag:
    """``left × right``: pairwise ⊕ over two bags of records.

    The one cartesian-product loop shared by every evaluator; raises
    :class:`DataError` when an element is not a record (the evaluators
    re-raise it as their own error type).
    """
    out: List[Any] = []
    for a in left._items:
        if not isinstance(a, Record):
            raise DataError("× expects bags of records, got %r" % (a,))
        for b in right._items:
            if not isinstance(b, Record):
                raise DataError("× expects bags of records, got %r" % (b,))
            out.append(a.concat(b))
    return Bag(out)


def compatible(left: Record, right: Record) -> bool:
    """True iff common attributes agree (by canonical key)."""
    mine = left._data
    for name, value in right._data.items():
        if name in mine and canonical_key(mine[name]) != canonical_key(value):
            return False
    return True


def merge_concat(left: Record, right: Record) -> Bag:
    """``left ⊗ right``: ``{left ⊕ right}`` if compatible, else ∅."""
    if compatible(left, right):
        return Bag([left.concat(right)])
    return Bag([])


# ---------------------------------------------------------------------------
# Key access for engines (hash joins reuse cached keys)
# ---------------------------------------------------------------------------


def field_key(record: Record, field: str) -> tuple:
    """The canonical key of ``record[field]``.

    When the record's own key is already cached the field key is read
    out of it (the record key embeds every field's key); otherwise only
    the accessed value is keyed, without forcing the whole record.
    """
    cached = record._key
    if cached is not None:
        for name, value_key in cached[1]:
            if name == field:
                return value_key
        raise DataError(
            "record has no attribute %r (has %r)" % (field, record.domain())
        )
    return canonical_key(record[field])


def path_key(record: Record, path: Sequence[str]) -> tuple:
    """The canonical key of the value at a field path (``r.a`` or ``r.a.b``)."""
    value: Any = record
    for step in path[:-1]:
        if not isinstance(value, Record):
            raise DataError("path %r is not a record chain" % (tuple(path),))
        value = value[step]
    if not isinstance(value, Record):
        raise DataError("path %r is not a record chain" % (tuple(path),))
    return field_key(value, path[-1])
