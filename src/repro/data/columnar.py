"""Columnar bags: per-field value columns behind the row data model.

A :class:`ColumnarBag` stores a bag of records as one Python list per
field, aligned by row position, plus lazily-built *canonical-key
columns* (:func:`repro.data.model.canonical_key` per value — the same
keys the kernel caches on rows, so ``1`` and ``1.0`` share a key and
nested records/bags compare structurally).  It is interconvertible with
the row representation — :meth:`from_bag` / :meth:`to_bag` round-trip
to a multiset-equal bag — and the execution engine
(:mod:`repro.nraenv.exec`) uses it to run recognised σ/χ chains as
fused column passes with no per-row :class:`Record` dispatch.

Heterogeneous bags are representable: a field absent from some rows
holds the :data:`MISSING` sentinel at those positions, and
:meth:`has_missing` is how the engine's shape analysis refuses to
compile predicates over such columns (a per-row ``In.f`` would raise
``DataError`` on exactly the missing rows, so those paths stay on the
reference row path for exactness).

Columns may be *pending*: a derived view (the output of a fused filter)
registers thunks that slice the base bag's columns only when a column
is first read.  Everything here is immutable-by-convention — columns
are never mutated after they are realised, which is what lets the
catalog share them by reference across snapshots and worker processes.

The attachment point is ``Bag._columnar``: :func:`ensure_columnar`
builds (and caches) the columnar form of a bag of records;
:func:`cached_columnar` only reads the cache.  See DESIGN.md §13 for
the layout and the fusion contract built on top of it.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.data.model import Bag, DataError, Record, canonical_key


class _Missing:
    """Sentinel for "this row has no such field" positions in a column."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISSING"


#: The unique missing-field sentinel.  Never a data-model value, so it
#: can share columns with any real value without ambiguity.
MISSING = _Missing()


class ColumnarBag:
    """A bag of records stored column-wise, aligned by row position.

    Construct via :meth:`from_bag` (decompose an existing bag of
    records), :meth:`from_columns` (adopt prebuilt columns, e.g. from a
    worker snapshot), or :meth:`derived` (a lazily-sliced view of
    another columnar bag — what fused filters produce).
    """

    __slots__ = (
        "_length",
        "_columns",
        "_pending",
        "_missing",
        "_key_columns",
        "_rows",
        "_bag",
    )

    def __init__(
        self,
        length: int,
        columns: Optional[Dict[str, List[Any]]] = None,
        pending: Optional[Dict[str, Callable[[], List[Any]]]] = None,
        rows: Optional[Tuple[Record, ...]] = None,
        bag: Optional[Bag] = None,
    ):
        self._length = length
        self._columns: Dict[str, List[Any]] = columns if columns is not None else {}
        self._pending: Dict[str, Callable[[], List[Any]]] = pending or {}
        self._missing: Dict[str, bool] = {}
        self._key_columns: Dict[str, List[tuple]] = {}
        self._rows = rows
        self._bag = bag

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bag(cls, bag: Bag) -> "ColumnarBag":
        """Decompose a bag of records into columns (two passes).

        Raises :class:`DataError` if any element is not a record — only
        homogeneous bags-of-records have a columnar form.
        """
        rows = bag.items
        names: set = set()
        for row in rows:
            if not isinstance(row, Record):
                raise DataError(
                    "columnar bags hold records, got %r" % (row,)
                )
            names.update(row.domain())
        length = len(rows)
        columns: Dict[str, List[Any]] = {name: [MISSING] * length for name in sorted(names)}
        for position, row in enumerate(rows):
            for name, value in row._data.items():
                columns[name][position] = value
        return cls(length, columns=columns, rows=rows, bag=bag)

    @classmethod
    def from_columns(cls, columns: Dict[str, List[Any]], length: int) -> "ColumnarBag":
        """Adopt prebuilt columns (each of ``length``, :data:`MISSING`-padded)."""
        for name, column in columns.items():
            if len(column) != length:
                raise DataError(
                    "column %r has %d values, expected %d"
                    % (name, len(column), length)
                )
        return cls(length, columns=dict(columns))

    @classmethod
    def derived(
        cls,
        base: "ColumnarBag",
        selection: Sequence[int],
        colmap: Dict[str, Any],
        rows: Tuple[Record, ...],
    ) -> "ColumnarBag":
        """A lazy view: ``colmap`` maps visible field → base field (a
        ``str``) or the whole base row (any non-string marker), sliced
        by ``selection``.  ``rows`` are the already-materialised visible
        records (aligned with ``selection``)."""
        pending: Dict[str, Callable[[], List[Any]]] = {}
        base_rows = None
        for name, src in colmap.items():
            if isinstance(src, str):
                pending[name] = _slice_thunk(base, src, selection)
            else:
                if base_rows is None:
                    base_rows = base.rows()
                pending[name] = _row_thunk(base_rows, selection)
        return cls(len(selection), pending=pending, rows=tuple(rows))

    # -- shape -------------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    def fields(self) -> Tuple[str, ...]:
        """The visible field names, sorted."""
        return tuple(sorted(set(self._columns) | set(self._pending)))

    def has_field(self, name: str) -> bool:
        return name in self._columns or name in self._pending

    def column(self, name: str) -> List[Any]:
        """The value column for ``name`` (realising a pending thunk).

        Positions where the row lacks the field hold :data:`MISSING`.
        Raises :class:`DataError` for an unknown field.
        """
        column = self._columns.get(name)
        if column is not None:
            return column
        thunk = self._pending.pop(name, None)
        if thunk is None:
            raise DataError(
                "columnar bag has no column %r (has %r)" % (name, self.fields())
            )
        column = thunk()
        self._columns[name] = column
        return column

    def has_missing(self, name: str) -> bool:
        """True iff some row lacks ``name`` (its column holds MISSING)."""
        cached = self._missing.get(name)
        if cached is None:
            cached = any(value is MISSING for value in self.column(name))
            self._missing[name] = cached
        return cached

    def key_column(self, name: str) -> List[tuple]:
        """The canonical-key column for ``name``, cached.

        Raises :class:`DataError` if any row lacks the field — exactly
        where per-row ``kernel.field_key`` would.
        """
        keys = self._key_columns.get(name)
        if keys is None:
            keys = []
            for value in self.column(name):
                if value is MISSING:
                    raise DataError(
                        "record has no attribute %r (columnar)" % (name,)
                    )
                keys.append(canonical_key(value))
            self._key_columns[name] = keys
        return keys

    def approx_bytes(self) -> int:
        """Rough resident size of the *realised* columns, in bytes.

        Counts list headers plus a shallow ``sys.getsizeof`` per value
        (sampled: at most 64 values per column, scaled by length), so a
        fleet heartbeat can report cache pressure without walking every
        cell of every table.  Pending (un-realised) columns cost nothing
        and are counted as nothing — this measures what is resident.
        """
        total = 0
        for column in self._columns.values():
            total += sys.getsizeof(column)
            n = len(column)
            if n == 0:
                continue
            sample = column if n <= 64 else column[:: max(1, n // 64)][:64]
            per_value = sum(sys.getsizeof(v) for v in sample) / len(sample)
            total += int(per_value * n)
        for keys in self._key_columns.values():
            total += sys.getsizeof(keys) + 64 * len(keys)
        return total

    # -- row interop -------------------------------------------------------

    def rows(self) -> Tuple[Record, ...]:
        """The rows as records, rebuilt from columns when not retained."""
        rows = self._rows
        if rows is None:
            realised = [(name, self.column(name)) for name in self.fields()]
            built: List[Record] = []
            for position in range(self._length):
                data = {}
                for name, column in realised:
                    value = column[position]
                    if value is not MISSING:
                        data[name] = value
                # ``realised`` walks the sorted field names
                built.append(Record._of_sorted(data))
            rows = tuple(built)
            self._rows = rows
        return rows

    def to_bag(self) -> Bag:
        """The row-representation bag, cached and cross-linked.

        The returned bag's ``_columnar`` cache points back here, so the
        engine finds the columns again without rebuilding them.
        """
        bag = self._bag
        if bag is None:
            bag = Bag(self.rows())
            self._bag = bag
        if bag._columnar is None:
            bag._columnar = self
        return bag


def _slice_thunk(
    base: ColumnarBag, field: str, selection: Sequence[int]
) -> Callable[[], List[Any]]:
    def realise() -> List[Any]:
        column = base.column(field)
        return [column[index] for index in selection]

    return realise


def _row_thunk(
    base_rows: Tuple[Record, ...], selection: Sequence[int]
) -> Callable[[], List[Any]]:
    def realise() -> List[Any]:
        return [base_rows[index] for index in selection]

    return realise


def ensure_columnar(bag: Bag) -> ColumnarBag:
    """The columnar form of ``bag``, built once and cached on the bag.

    Raises :class:`DataError` if the bag is not a bag of records.
    """
    columnar = bag._columnar
    if columnar is None:
        columnar = ColumnarBag.from_bag(bag)
        bag._columnar = columnar
    return columnar


def cached_columnar(value: Any) -> Optional[ColumnarBag]:
    """The bag's cached columnar form, or None (never builds)."""
    if isinstance(value, Bag):
        return value._columnar
    return None


__all__ = ["MISSING", "ColumnarBag", "ensure_columnar", "cached_columnar"]
