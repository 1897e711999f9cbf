"""The dataset catalog: named tables with schemas and loaded data.

The catalog is the service's persistent "database side": it owns the
constant environment that compiled plans read tables from
(``GetConstant`` in NRAe / ``_rt.get_constant`` in generated code).
Registration accepts data-model bags, plain Python rows, or the JSON
wire format of :mod:`repro.data.json_io`; each table records a light
schema (sorted union of column names) that is inferred when not given
and validated when it is.

Thread safety: registrations take a lock and replace the snapshot dict,
so executing queries keep reading the constants snapshot they started
with — a query never sees a half-registered catalog.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.data import json_io
from repro.data.columnar import MISSING, ColumnarBag, cached_columnar, ensure_columnar
from repro.data.model import Bag, DataError, Record
from repro.data.types import QType, type_of_value
from repro.service.errors import CatalogError

#: Tables at or above this row count are stored columnar at
#: registration: the engine's fused chains then find the column cache
#: already built, and worker snapshots ship columns instead of
#: re-encoding rows.  Smaller tables aren't worth the decomposition.
COLUMNAR_MIN_ROWS = 32


class TableInfo:
    """One registered table: its data plus the inferred/declared schema.

    ``columnar`` is True when the table's bag carries its column-wise
    twin (built at registration for large tables); ``wire_payload``
    lazily builds — and caches, so every snapshot shares it — the
    picklable form workers rebuild the table from.  ``qtype`` lazily
    infers and caches the table's data-model type the same way.
    """

    __slots__ = ("name", "rows", "columns", "columnar", "_wire", "_qtype")

    def __init__(self, name: str, rows: Bag, columns: Sequence[str]):
        self.name = name
        self.rows = rows
        self.columns = tuple(columns)
        self.columnar = cached_columnar(rows) is not None
        self._wire: Optional[Dict[str, Any]] = None
        self._qtype: Optional[QType] = None

    def qtype(self) -> QType:
        """The most precise type of the table's rows, inferred once."""
        qtype = self._qtype
        if qtype is None:
            qtype = self._qtype = type_of_value(self.rows)
        return qtype

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "rows": len(self.rows.items),
            "columns": list(self.columns),
            "columnar": self.columnar,
        }

    def wire_payload(self) -> Dict[str, Any]:
        """The table as JSON-wire data for worker snapshots, cached.

        Columnar tables whose columns have no missing positions ship
        column-oriented (``{"columns": {...}, "count": n}``) — one
        encode per registration, shared by reference across every
        snapshot since the payload is never mutated.  Everything else
        ships the classic row list.  :func:`rows_from_wire` inverts
        both forms.
        """
        payload = self._wire
        if payload is not None:
            return payload
        columnar = cached_columnar(self.rows)
        if columnar is not None and not any(
            columnar.has_missing(field) for field in columnar.fields()
        ):
            payload = {
                "columns": {
                    field: [
                        json_io.to_jsonable(value)
                        for value in columnar.column(field)
                    ]
                    for field in columnar.fields()
                },
                "count": len(columnar),
                "schema": list(self.columns),
            }
        else:
            payload = {
                "rows": json_io.to_jsonable(self.rows),
                "schema": list(self.columns),
            }
        self._wire = payload
        return payload


def rows_from_wire(payload: Dict[str, Any]) -> Bag:
    """Rebuild a table bag from a :meth:`TableInfo.wire_payload` dict.

    The column-oriented form rebuilds a :class:`ColumnarBag` first and
    returns its row bag — which keeps the back-link, so the receiving
    catalog registers a table that is *already* columnar.
    """
    if "columns" in payload:
        columns = {
            name: [json_io.from_jsonable(value) for value in column]
            for name, column in payload["columns"].items()
        }
        return ColumnarBag.from_columns(columns, int(payload["count"])).to_bag()
    return Bag(
        row if isinstance(row, Record) else json_io.from_jsonable(row)
        for row in payload["rows"]
    )


def _coerce_rows(name: str, rows: Any) -> Bag:
    """Accept a Bag, an iterable of rows, or JSON-decoded data.

    Plain Python rows are read as the JSON wire format, so tagged values
    (``{"$date": "YYYY-MM-DD"}``) decode to their foreign types.
    """
    if isinstance(rows, Bag):
        return rows
    if isinstance(rows, (list, tuple)):
        try:
            converted = [
                row if isinstance(row, Record) else json_io.from_jsonable(row)
                for row in rows
            ]
        except (DataError, TypeError) as exc:
            raise CatalogError("table %r: cannot convert rows: %s" % (name, exc))
        return Bag(converted)
    raise CatalogError(
        "table %r: rows must be a Bag or a list of records, got %s"
        % (name, type(rows).__name__)
    )


def _infer_columns(name: str, rows: Bag) -> List[str]:
    columns: set = set()
    for row in rows.items:
        if not isinstance(row, Record):
            raise CatalogError(
                "table %r: rows must be records, found %s" % (name, type(row).__name__)
            )
        columns.update(row.domain())
    return sorted(columns)


class Catalog:
    """Named datasets backing the service's constant environment."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableInfo] = {}
        self._constants: Dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- registration -----------------------------------------------------

    def register_table(
        self, name: str, rows: Any, schema: Optional[Sequence[str]] = None
    ) -> TableInfo:
        """Register (or replace) table ``name`` with ``rows``.

        ``schema`` optionally declares the column list; rows containing
        columns outside it are rejected.  Without it the schema is the
        sorted union of the rows' columns.
        """
        if not name or name.startswith("$"):
            raise CatalogError("invalid table name %r" % (name,))
        bag_rows = _coerce_rows(name, rows)
        columns = _infer_columns(name, bag_rows)
        if len(bag_rows.items) >= COLUMNAR_MIN_ROWS:
            # store large datasets columnar: the engine's fused chains
            # (and repeat queries) find the cache already on the bag
            ensure_columnar(bag_rows)
        if schema is not None:
            declared = sorted(schema)
            extra = sorted(set(columns) - set(declared))
            if extra:
                raise CatalogError(
                    "table %r: rows have columns %s outside the declared schema %s"
                    % (name, extra, declared)
                )
            columns = declared
        info = TableInfo(name, bag_rows, columns)
        with self._lock:
            self._tables[name] = info
            constants = dict(self._constants)
            constants[name] = bag_rows
            self._constants = constants
        return info

    def load_json(self, path: str) -> List[TableInfo]:
        """Register every table in a JSON file (``{"table": [rows...]}``)."""
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise CatalogError("cannot read %s: %s" % (path, exc.strerror or exc))
        return self.loads_json(text, source=path)

    def loads_json(self, text: str, source: str = "<string>") -> List[TableInfo]:
        """Register every table in a JSON string mapping names to rows."""
        try:
            value = json_io.loads(text)
        except (ValueError, DataError) as exc:
            raise CatalogError("malformed JSON in %s: %s" % (source, exc))
        if not isinstance(value, Record):
            raise CatalogError(
                "%s: expected a JSON object mapping table names to row arrays"
                % (source,)
            )
        return [self.register_table(name, value[name]) for name in value.domain()]

    def drop_table(self, name: str) -> None:
        with self._lock:
            if name not in self._tables:
                raise CatalogError("unknown table %r" % (name,))
            del self._tables[name]
            constants = dict(self._constants)
            del constants[name]
            self._constants = constants

    # -- lookup -----------------------------------------------------------

    def constants(self) -> Dict[str, Any]:
        """The current constant environment (a stable snapshot)."""
        return self._constants

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError("unknown table %r" % (name,))

    def table_type(self, name: str, rows: Any) -> Optional[QType]:
        """The type of table ``name`` if ``rows`` is its registered data.

        ``None`` when the table is unknown or ``rows`` is not the bag
        registered under ``name`` now, so a caller holding an older
        constants snapshot never gets a type that describes other data.
        """
        info = self._tables.get(name)
        if info is None or info.rows is not rows:
            return None
        return info.qtype()

    def tables(self) -> List[TableInfo]:
        with self._lock:
            return list(self._tables.values())

    def describe(self) -> List[Dict[str, Any]]:
        return [info.describe() for info in self.tables()]

    def columnar_bytes(self) -> int:
        """Approximate resident bytes of every table's columnar cache.

        Sums :meth:`~repro.data.columnar.ColumnarBag.approx_bytes` over
        the tables that carry a columnar twin — the number a worker
        heartbeat reports as ``columnar_cache_bytes``.
        """
        total = 0
        for info in self.tables():
            columnar = cached_columnar(info.rows)
            if columnar is not None:
                total += columnar.approx_bytes()
        return total

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __len__(self) -> int:
        return len(self._tables)
