"""Benchmark-owned spans around calls into the program's layers.

The traced pass does not use the program's own tracer: it wraps each
layer's public function from here (:func:`patched` + :meth:`Recorder.wrap`), so that
what is measured is where the program really makes the call, and so
that nothing outside ``bench/`` changes.  Spans stay in memory and are
written out once, at the end, as Chrome ``trace_event`` JSON.

One request is replayed at a time.  The service hands execution to a
pool thread and blocks for the result, so only one thread is ever
inside a span and a single stack suffices to find a span's parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    """One timed call: name, start, end, parent and request id."""

    __slots__ = ("name", "start", "end", "parent", "request_id", "args")

    def __init__(self, name: str, start: float, parent: Optional[int], request_id: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request_id = request_id
        self.args: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


@contextmanager
def patched(replacements: Sequence[Tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each ``owner.attribute = value`` for the block, then restore."""
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


class Recorder:
    """An in-memory span log with parent links."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.enabled = True

    @contextmanager
    def span(self, name: str, request_id: Any = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request_id is None and parent is not None:
            request_id = self.spans[parent].request_id
        span = Span(name, time.perf_counter(), parent, request_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def disabled(self) -> Iterator[None]:
        """Wrapped functions run bare inside the block: the untraced baseline."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        annotate: Optional[Callable[[Span, Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``annotate`` sees the span and the result.

        A recursive call (the name is already open) runs bare, so a
        layer entered through a recursive function is one span; so does
        every call while the recorder is disabled.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled or any(self.spans[i].name == name for i in self._stack):
                return fn(*args, **kwargs)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    annotate(span, result)
                return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- reading ---------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per span: its duration minus what its direct children cover."""
        selfs = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                selfs[span.parent] -= span.duration
        return selfs

    def durations(self, name: str, first: int = 0) -> List[float]:
        """Durations of the ``name`` spans, from span index ``first`` on."""
        return [span.duration for span in self.spans[first:] if span.name == name]

    def self_durations(self, name: str) -> List[float]:
        selfs = self.self_times()
        return [selfs[i] for i, span in enumerate(self.spans) if span.name == name]

    def args(self, name: str, key: str) -> List[Any]:
        return [
            span.args[key]
            for span in self.spans
            if span.name == name and key in span.args
        ]

    def coverage(self, root: str) -> float:
        """Σ self time of the spans below ``root`` ÷ Σ ``root`` durations.

        What is missing from 1.0 is time inside a request that no layer
        span accounts for: an uninstrumented gap.
        """
        selfs = self.self_times()
        total = sum(span.duration for span in self.spans if span.name == root)
        gap = sum(selfs[i] for i, span in enumerate(self.spans) if span.name == root)
        return (total - gap) / total if total > 0 else 0.0

    def chrome_events(self) -> List[Dict[str, Any]]:
        """Complete (``ph: X``) events, microseconds from the first span."""
        if not self.spans:
            return []
        origin = self.spans[0].start
        events = []
        for index, span in enumerate(self.spans):
            args = dict(span.args, span=index, request=span.request_id)
            if span.parent is not None:
                args["parent"] = span.parent
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.rsplit(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.duration * 1e6,
                    "args": args,
                }
            )
        return events

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"traceEvents": self.chrome_events(), "displayTimeUnit": "ms"}, handle)
