"""The plan cache: structural key → compiled plan, with LRU eviction.

Sits between ``prepare`` and the compiler: a hit skips optimization and
codegen entirely (the dominant cost of a ``prepare`` — the ``adhoc_prepare``
workload of ``bench/`` measures it, 3 in 4 of its prepares a cache miss).
Keys come from :mod:`repro.service.plan_key`, so textually different but
structurally identical queries share an entry.

Counters are exported through the :mod:`repro.obs` metrics registry
(``service.plan_cache.hits`` / ``.misses`` / ``.evictions`` and a
``service.plan_cache.size`` gauge); pass the service's registry to make
them visible in ``stats`` / ``--profile`` output.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Optional

from repro.obs.metrics import get_metrics


class PlanCache:
    """A thread-safe LRU mapping of plan keys to compiled artifacts."""

    def __init__(self, capacity: int = 128, metrics: Any = None) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else get_metrics()
        self._hits = metrics.counter("service.plan_cache.hits")
        self._misses = metrics.counter("service.plan_cache.misses")
        self._evictions = metrics.counter("service.plan_cache.evictions")
        self._size = metrics.gauge("service.plan_cache.size")

    def get(self, key: str) -> Optional[Any]:
        """The cached plan for ``key`` (refreshing recency), or ``None``."""
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return value

    def put(self, key: str, value: Any) -> None:
        """Insert ``key``; evicts the least-recently-used entry when full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._entries[key] = value
            else:
                if len(self._entries) >= self.capacity:
                    self._entries.popitem(last=False)
                    self._evictions.inc()
                self._entries[key] = value
            self._size.set(len(self._entries))

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._size.set(0)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self._hits.value,
            "misses": self._misses.value,
            "evictions": self._evictions.value,
        }
