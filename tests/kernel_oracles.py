"""Simple, slow reference implementations, kept as *test-only* oracles.

- The naive multiset loops: the O(n·m) / O(n²) implementations the
  repository shipped with before :mod:`repro.data.kernel` replaced them
  with keyed dict operations — a bag-semantics specification by nested
  ``values_equal`` loops.  The hypothesis law suite checks the kernel
  against them, and ``benchmarks/bench_kernel.py`` times the kernel's
  asymptotic win over them.
- :class:`PairsRecord`: a record as a sorted tuple of ``(name, value)``
  pairs with linear-scan access — the representation
  :class:`~repro.data.model.Record` had before it became dict-backed.
- :func:`like_match`: SQL ``LIKE`` by dynamic programming, the
  definition :class:`~repro.data.operators.OpLike`'s compiled regular
  expression is checked against.

They live under ``tests/`` only.  Nothing in ``src/`` may import this
module.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Tuple

from repro.data.model import (
    Bag,
    DataError,
    Record,
    canonical_key,
    values_equal,
)


def naive_union(left: Bag, right: Bag) -> Bag:
    return Bag(left.items + right.items)


def naive_minus(left: Bag, right: Bag) -> Bag:
    """Multiset difference by one-at-a-time linear matching."""
    remaining = list(right.items)
    kept: List[Any] = []
    for item in left.items:
        for i, candidate in enumerate(remaining):
            if values_equal(item, candidate):
                del remaining[i]
                break
        else:
            kept.append(item)
    return Bag(kept)


def naive_intersection(left: Bag, right: Bag) -> Bag:
    """Multiset intersection by one-at-a-time linear matching."""
    remaining = list(right.items)
    kept: List[Any] = []
    for item in left.items:
        for i, candidate in enumerate(remaining):
            if values_equal(item, candidate):
                del remaining[i]
                kept.append(item)
                break
    return Bag(kept)


def naive_contains(bag: Bag, value: Any) -> bool:
    return any(values_equal(value, item) for item in bag.items)


def naive_distinct(bag: Bag) -> Bag:
    """Duplicate elimination with a *list* of seen keys (O(n²))."""
    seen: List[tuple] = []
    kept: List[Any] = []
    for item in bag.items:
        key = canonical_key(item)
        if key not in seen:
            seen.append(key)
            kept.append(item)
    return Bag(kept)


def naive_equal(left: Bag, right: Bag) -> bool:
    """Multiset equality by sorted canonical-key comparison."""
    if len(left.items) != len(right.items):
        return False
    left_keys = sorted(canonical_key(v) for v in left.items)
    right_keys = sorted(canonical_key(v) for v in right.items)
    return left_keys == right_keys


def naive_compatible(left: Record, right: Record) -> bool:
    mine = dict(left.fields)
    for name, value in right.fields:
        if name in mine and not values_equal(mine[name], value):
            return False
    return True


def naive_merge_concat(left: Record, right: Record) -> Bag:
    if naive_compatible(left, right):
        return Bag([left.concat(right)])
    return Bag([])


# ---------------------------------------------------------------------------
# Records as sorted pairs
# ---------------------------------------------------------------------------


class PairsRecord:
    """A record as a sorted tuple of ``(name, value)`` pairs.

    Every operation is the straightforward one on that tuple: access is
    a linear scan, ``⊕`` merges two dicts and sorts by name.  Values are
    ordinary data-model values; only the record wrapper is replaced.
    """

    def __init__(self, fields: Mapping[str, Any]):
        self.fields: Tuple[Tuple[str, Any], ...] = tuple(
            sorted(dict(fields).items(), key=lambda kv: kv[0])
        )

    def domain(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def contains(self, name: str) -> bool:
        return any(field == name for field, _ in self.fields)

    def getitem(self, name: str) -> Any:
        for field, value in self.fields:
            if field == name:
                return value
        raise DataError("record has no attribute %r (has %r)" % (name, self.domain()))

    def get(self, name: str, default: Any = None) -> Any:
        for field, value in self.fields:
            if field == name:
                return value
        return default

    def concat(self, other: "PairsRecord") -> "PairsRecord":
        merged = dict(self.fields)
        merged.update(dict(other.fields))
        return PairsRecord(merged)

    def remove(self, name: str) -> "PairsRecord":
        return PairsRecord({k: v for k, v in self.fields if k != name})

    def project(self, names: Iterable[str]) -> "PairsRecord":
        wanted = set(names)
        return PairsRecord({k: v for k, v in self.fields if k in wanted})

    def canonical_key(self) -> tuple:
        return (6, tuple((name, canonical_key(v)) for name, v in self.fields))

    def repr(self) -> str:
        return "[%s]" % ", ".join("%s: %r" % (k, v) for k, v in self.fields)

    def to_record(self) -> Record:
        return Record(dict(self.fields))


# ---------------------------------------------------------------------------
# SQL LIKE
# ---------------------------------------------------------------------------


def like_match(pattern: str, text: str) -> bool:
    """Match a SQL LIKE pattern (``%`` any run, ``_`` any one char)."""
    plen, tlen = len(pattern), len(text)
    # reachable[j] == True iff pattern[:i] can match text[:j]
    reachable = [True] + [False] * tlen
    for i in range(1, plen + 1):
        ch = pattern[i - 1]
        if ch == "%":
            new = list(reachable)
            for j in range(1, tlen + 1):
                new[j] = new[j] or new[j - 1]
        else:
            new = [False] * (tlen + 1)
            for j in range(1, tlen + 1):
                if reachable[j - 1] and (ch == "_" or ch == text[j - 1]):
                    new[j] = True
        reachable = new
    return reachable[tlen]
