"""Data model for the NRAe family of languages (paper section 3.1).

Values ``d`` are::

    d ::= c | {} | {d1, ..., dn} | [] | [A1: d1, ..., An: dn]

Constants ``c`` are null, booleans, integers, floats, strings, and
"foreign" values (dates; see :mod:`repro.data.foreign`).  Bags are
multisets of values, records map attribute names to values.

Atoms are represented by the corresponding Python values (``None``,
``bool``, ``int``, ``float``, ``str``); bags and records get dedicated
immutable wrapper classes so that multiset equality and right-favoring
record concatenation have one well-defined meaning across the whole
compiler.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class DataError(Exception):
    """Raised when a data-model operation is applied to ill-shaped values.

    The paper's operational semantics (Figure 2) is partial: a judgment
    ``γ ⊢ q @ d ⇓ d'`` may simply not hold (e.g. record access on an
    integer).  In this implementation "the judgment does not hold" is
    modelled by raising :class:`DataError` (or its subclass
    :class:`repro.nraenv.eval.EvalError`).
    """


class Bag:
    """An immutable multiset of values.

    The internal item order is preserved for reproducibility of printing
    and iteration, but equality is *multiset* equality: two bags are
    equal iff they contain the same values with the same multiplicities,
    regardless of order.

    All multiset operations delegate to :mod:`repro.data.kernel`, which
    lazily builds and caches (immutability makes the caches permanent):

    - ``_elem_keys`` — per-element canonical keys, aligned with ``_items``;
    - ``_index`` — a ``Counter`` mapping canonical key → multiplicity;
    - ``_key`` / ``_hash`` — the bag's own canonical key and hash;
    - ``_columnar`` — the bag's column-wise twin, when someone has built
      it (see :mod:`repro.data.columnar`).

    Pickling ships the items alone (``__reduce__``): the caches are
    rebuilt on demand, and ``_hash`` must be, because string hashes are
    seeded per process.
    """

    __slots__ = ("_items", "_key", "_hash", "_elem_keys", "_index", "_columnar")

    def __init__(self, items: Iterable[Any] = ()):
        self._items: Tuple[Any, ...] = tuple(items)
        self._key: Optional[tuple] = None
        self._hash: Optional[int] = None
        self._elem_keys: Optional[Tuple[tuple, ...]] = None
        self._index = None  # lazily a collections.Counter (see kernel)
        self._columnar = None  # lazily a columnar.ColumnarBag

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Bag, (self._items,))

    @property
    def items(self) -> Tuple[Any, ...]:
        return self._items

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Bag):
            return NotImplemented
        return _kernel.multiset_equal(self, other)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(canonical_key(self))
            self._hash = value
        return value

    def __repr__(self) -> str:
        return "Bag([%s])" % ", ".join(repr(v) for v in self._items)

    def union(self, other: "Bag") -> "Bag":
        """Multiset (additive) union: ``{1} ∪ {1}`` is ``{1, 1}``."""
        return _kernel.union(self, other)

    def minus(self, other: "Bag") -> "Bag":
        """Multiset difference: removes one occurrence per match."""
        return _kernel.minus(self, other)

    def intersection(self, other: "Bag") -> "Bag":
        """Multiset intersection (minimum of multiplicities)."""
        return _kernel.intersection(self, other)

    def contains(self, value: Any) -> bool:
        return _kernel.contains(self, value)

    def distinct(self) -> "Bag":
        """Duplicate elimination; keeps the first occurrence of each value."""
        return _kernel.distinct(self)

    def sorted(self) -> "Bag":
        """A bag with the same contents in canonical order."""
        return _kernel.sort(self)


class Record:
    """An immutable record: a finite mapping from attribute names to values.

    A record holds one dict whose keys are in sorted order, so that two
    records with the same field/value pairs are interchangeable
    everywhere: :attr:`fields`, :meth:`domain`, iteration and ``repr``
    all read the pairs sorted by name, and ``[]``, :meth:`get` and
    ``in`` are single dict lookups.

    Every constructor keeps the sorted-key invariant.  The public
    ``Record(...)`` sorts its input once; :meth:`_of_sorted` adopts a
    dict whose keys the caller guarantees are already sorted (the
    order-preserving operations below, one-field records, and
    ``ColumnarBag.rows()``).  ``⊕`` with an empty operand returns the other
    operand: records are immutable, so sharing one is safe.

    Like :class:`Bag`, a record caches its canonical key (``_key``,
    which embeds every field value's key — the join engine reads field
    keys out of it, see :func:`repro.data.kernel.field_key`) and its
    hash (``_hash``).  Immutability makes the key permanent; the hash
    is permanent only within one process (string hashes are seeded per
    process), so pickling ships the fields alone (``__reduce__``).
    """

    __slots__ = ("_data", "_key", "_hash")

    def __init__(self, fields: Optional[Mapping[str, Any]] = None, **kwargs: Any):
        if kwargs or not isinstance(fields, dict):
            fields = dict(fields or (), **kwargs)
        # Keys are unique, so ``sorted`` never compares two values.
        self._data: Dict[str, Any] = dict(sorted(fields.items()))
        self._key: Optional[tuple] = None
        self._hash: Optional[int] = None

    @classmethod
    def _of_sorted(cls, data: Dict[str, Any]) -> "Record":
        """Adopt ``data`` as a record's dict, trusting its keys to be sorted.

        The caller must not mutate ``data`` afterwards.
        """
        record = object.__new__(cls)
        record._data = data
        record._key = None
        record._hash = None
        return record

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Record, (self._data,))

    @property
    def fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The ``(name, value)`` pairs, sorted by name."""
        return tuple(self._data.items())

    def domain(self) -> Tuple[str, ...]:
        """``dom(r)``: the attribute names, sorted."""
        return tuple(self._data)

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __getitem__(self, name: str) -> Any:
        try:
            return self._data[name]
        except KeyError:
            raise DataError(
                "record has no attribute %r (has %r)" % (name, self.domain())
            ) from None

    def get(self, name: str, default: Any = None) -> Any:
        return self._data.get(name, default)

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        if self is other:
            return True
        return canonical_key(self) == canonical_key(other)

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(canonical_key(self))
            self._hash = value
        return value

    def __repr__(self) -> str:
        body = ", ".join("%s: %r" % (k, v) for k, v in self._data.items())
        return "[%s]" % body

    def concat(self, other: "Record") -> "Record":
        """Record concatenation ``⊕``, favoring ``other`` on overlap.

        ``∅ ⊕ r = r ⊕ ∅ = r``.  The merged dict is sorted by
        construction when every key of ``other`` sorts before this
        record's first key (``In ⊕ [t: In]`` in the SQL translator's
        output), when ``other`` adds no new key, or when its first key
        sorts at or after this record's last key; otherwise it is sorted
        once.
        """
        theirs = other._data
        if not theirs:
            return self
        mine = self._data
        if not mine:
            return other
        if next(reversed(theirs)) < next(iter(mine)):
            merged = {**theirs, **mine}
        else:
            merged = {**mine, **theirs}
            if len(merged) != len(mine) and next(iter(theirs)) < next(reversed(mine)):
                merged = dict(sorted(merged.items()))
        return Record._of_sorted(merged)

    def remove(self, name: str) -> "Record":
        """``d − A``: the record without attribute ``name``.

        Removing an absent attribute is a no-op, matching Q*cert's
        ``rremove``.
        """
        if name not in self._data:
            return self
        return Record._of_sorted({k: v for k, v in self._data.items() if k != name})

    def project(self, names: Iterable[str]) -> "Record":
        """``π_{Ai}(d)``: restriction to the given attribute names.

        Projection on absent attributes silently drops them (Q*cert's
        ``rproject`` behaviour over the untyped model).
        """
        wanted = set(names)
        return Record._of_sorted({k: v for k, v in self._data.items() if k in wanted})

    def compatible_with(self, other: "Record") -> bool:
        """True iff common attributes agree (natural-join compatibility)."""
        return _kernel.compatible(self, other)

    def merge_concat(self, other: "Record") -> Bag:
        """``⊗``: singleton bag of the concatenation if compatible, else ∅."""
        return _kernel.merge_concat(self, other)


# Type ranks used to build a total order across heterogeneous values.
_RANK_NULL = 0
_RANK_BOOL = 1
_RANK_NUMBER = 2
_RANK_STRING = 3
_RANK_FOREIGN = 4
_RANK_BAG = 5
_RANK_RECORD = 6


def canonical_key(value: Any) -> tuple:
    """A total-order key for any data-model value.

    Used to canonicalise bags for multiset equality and for the
    ``distinct``/``sort`` operators.  The key embeds a type rank so that
    values of different kinds never compare equal (in particular
    ``True`` is distinct from ``1``, unlike plain Python equality).
    Ints and floats share a rank, and the number itself is the key —
    Python's cross-type numeric equality, hashing, and ordering are
    exact, so ``1`` and ``1.0`` denote the same number while big
    integers beyond 2**53 are *not* collapsed onto the nearest float.

    Keys of bags and records are cached on the value (see
    :mod:`repro.data.kernel` for the caching contract).
    """
    if value is None:
        return (_RANK_NULL,)
    if isinstance(value, bool):
        return (_RANK_BOOL, value)
    if isinstance(value, (int, float)):
        return (_RANK_NUMBER, value)
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, Bag):
        key = value._key
        if key is None:
            key = (_RANK_BAG, tuple(sorted(elem_keys(value))))
            value._key = key
        return key
    if isinstance(value, Record):
        key = value._key
        if key is None:
            key = (
                _RANK_RECORD,
                tuple((name, canonical_key(v)) for name, v in value._data.items()),
            )
            value._key = key
        return key
    foreign_key = _foreign_canonical_key(value)
    if foreign_key is not None:
        return (_RANK_FOREIGN,) + foreign_key
    raise DataError("not a data-model value: %r" % (value,))


def elem_keys(bag: "Bag") -> Tuple[tuple, ...]:
    """The bag's per-element canonical keys, cached and aligned with items."""
    keys = bag._elem_keys
    if keys is None:
        keys = tuple(canonical_key(v) for v in bag._items)
        bag._elem_keys = keys
    return keys


def _foreign_canonical_key(value: Any) -> Optional[tuple]:
    # Imported lazily to avoid a circular import at module load time.
    from repro.data import foreign

    return foreign.canonical_key_or_none(value)


def values_equal(a: Any, b: Any) -> bool:
    """Data-model equality (the ``=`` binary operator).

    Two ints, two floats or two strs compare as their canonical keys
    would, without building the keys: ``a is b or a == b`` is exactly
    the tuple comparison's element test (a NaN equals itself only as
    the same object).  ``bool`` and mixed types take the key path.
    """
    kind = type(a)
    if kind is type(b) and (kind is int or kind is float or kind is str):
        return a is b or a == b
    return canonical_key(a) == canonical_key(b)


def is_value(value: Any) -> bool:
    """True iff ``value`` is a well-formed data-model value."""
    try:
        canonical_key(value)
    except DataError:
        return False
    return True


def bag(*items: Any) -> Bag:
    """Convenience constructor: ``bag(1, 2, 3)``."""
    return Bag(items)


def rec(**fields: Any) -> Record:
    """Convenience constructor: ``rec(name="x", age=3)``."""
    return Record(fields)


def flatten(value: Any) -> Bag:
    """Flatten one level of a bag of bags."""
    if not isinstance(value, Bag):
        raise DataError("flatten expects a bag, got %r" % (value,))
    out: List[Any] = []
    for inner in value:
        if not isinstance(inner, Bag):
            raise DataError("flatten expects a bag of bags, got element %r" % (inner,))
        out.extend(inner.items)
    return Bag(out)


def from_python(value: Any) -> Any:
    """Convert plain Python lists/dicts into data-model values.

    Lists become bags and dicts become records, recursively.  Atoms and
    already-converted values pass through.
    """
    if isinstance(value, (list, tuple)):
        return Bag(from_python(v) for v in value)
    if isinstance(value, dict):
        return Record({k: from_python(v) for k, v in value.items()})
    return value


def to_python(value: Any) -> Any:
    """Convert data-model values back into plain Python lists/dicts."""
    if isinstance(value, Bag):
        return [to_python(v) for v in value]
    if isinstance(value, Record):
        return {k: to_python(v) for k, v in value._data.items()}
    return value


# The kernel holds every multiset algorithm; the Bag/Record methods above
# delegate to it.  Imported last so the classes it needs already exist
# (kernel imports this module; the cycle is safe in this order).
from repro.data import kernel as _kernel  # noqa: E402
