"""Service observability overhead bench: the obs layer must stay cheap.

PR 7 put an always-on observability spine under every service execute —
a per-request ``QueryContext`` (contextvars), tail-sampled per-query
tracing, the rate ring, and the JSON-lines query log.  Unlike the
analyze layer (opt-in per query, allowed to be slow), these run on
*every* request of a production service, so the acceptance criterion is
a hard gate: the fully-instrumented configuration must stay within
``MAX_OVERHEAD`` (5%) of a service with tracing and logging disabled.

Two ``QueryService`` instances hold the same TPC-H micro database and
the same prepared handles:

- **off** — ``trace_sample_rate=None`` (no per-query tracer at all) and
  no query log: the correlation context alone;
- **on**  — the serve defaults: 5% head sampling with slow/error keep,
  plus a rotating query log on disk.

Paired ABBA sampling: each round times off-on-on-off, contributes one
ratio, and the *median* ratio over rounds is gated — linear drift
cancels within a round, and a noisy neighbour spoils one ratio instead
of a side's minimum.

Run with::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tables import emit, format_table

from repro.service import QueryService
from repro.tpch.datagen import MICRO, generate
from repro.tpch.queries import QUERIES

#: The CI gate from ISSUE.md: instrumented execute within 5% of plain.
MAX_OVERHEAD = 0.05

#: Full remeasurements allowed before declaring the gap real.
MAX_ATTEMPTS = 3

# Queries whose *compiled* (NNRC → Python) form runs sub-second on the
# micro database — the service's execute path, unlike the join engine,
# does not get the hash-join fast paths, so the nested-loop-heavy
# queries are excluded here.
QUICK_QUERIES = ("q1", "q6", "q14", "q15")
FULL_QUERIES = ("q1", "q4", "q6", "q12", "q14", "q15", "q19", "q22")


def build_service(constants, observed: bool, log_path=None) -> QueryService:
    service = QueryService(
        workers=2,
        slow_query_seconds=30.0 if observed else None,
        trace_sample_rate=0.05 if observed else None,
        query_log=log_path if observed else None,
    )
    for name, rows in constants.items():
        service.register_table(name, rows)
    return service


def prepare_handles(service: QueryService, names):
    handles = []
    for name in names:
        prepared = service.prepare("sql", QUERIES[name])
        outcome = service.execute(prepared.handle)
        assert outcome.ok, "%s failed: %s" % (name, outcome.error)
        handles.append(prepared.handle)
    return handles


def sweep(service: QueryService, handles, passes: int = 2) -> float:
    """Time ``passes`` back-to-back service executes of every handle."""
    start = time.perf_counter()
    for _ in range(passes):
        for handle in handles:
            service.execute(handle)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI mode: subset + fewer repeats")
    parser.add_argument("--repeats", type=int, default=None, help="paired rounds")
    args = parser.parse_args(argv)

    names = QUICK_QUERIES if args.quick else FULL_QUERIES
    repeats = args.repeats or (5 if args.quick else 7)
    constants = generate(MICRO, seed=7)

    log_dir = tempfile.mkdtemp(prefix="repro-obs-bench-")
    log_path = os.path.join(log_dir, "query-log.jsonl")
    off = build_service(constants, observed=False)
    on = build_service(constants, observed=True, log_path=log_path)
    try:
        off_handles = prepare_handles(off, names)
        on_handles = prepare_handles(on, names)

        # warm both paths (plan caches, record-key caches) before timing
        sweep(off, off_handles)
        sweep(on, on_handles)

        def measure():
            off_samples, on_samples, ratios = [], [], []
            gc.disable()
            try:
                for _ in range(repeats):
                    gc.collect()
                    off1 = sweep(off, off_handles)
                    on1 = sweep(on, on_handles)
                    on2 = sweep(on, on_handles)
                    off2 = sweep(off, off_handles)
                    off_samples.extend((off1, off2))
                    on_samples.extend((on1, on2))
                    ratios.append((on1 + on2) / (off1 + off2))
            finally:
                gc.enable()
            return (
                min(off_samples),
                min(on_samples),
                sorted(ratios)[len(ratios) // 2],
            )

        # A real regression fails every attempt; noise has to strike
        # MAX_ATTEMPTS times in a row to produce a false failure.
        for attempt in range(MAX_ATTEMPTS):
            baseline, observed, median_ratio = measure()
            if median_ratio - 1.0 < MAX_OVERHEAD:
                break
            print(
                "attempt %d/%d: median ratio %+.2f%% over the gate, remeasuring"
                % (attempt + 1, MAX_ATTEMPTS, (median_ratio - 1.0) * 100)
            )

        overhead = median_ratio - 1.0
        kept = on.traces.describe()
        logged = on.query_log.describe() if on.query_log is not None else {}
        rows = [
            ("obs off (best sweep)", "%.4f s" % baseline, "-"),
            ("obs on (best sweep)", "%.4f s" % observed,
             "%+.2f%%" % (observed / baseline * 100 - 100)),
            ("median paired ratio (gated)", "-", "%+.2f%%" % (overhead * 100)),
            ("traces kept / dropped", "%d / %d" % (kept["kept"], kept["dropped"]), "-"),
            ("query-log events", "%d" % logged.get("emitted", 0), "-"),
        ]
        table = format_table(
            "Service observability overhead — TPC-H micro (%d queries, %d rounds)"
            % (len(names), repeats),
            ("configuration", "value", "vs obs off"),
            rows,
        )
        emit("bench_obs_overhead", table)

        if overhead >= MAX_OVERHEAD:
            print(
                "FAIL: observability overhead %.2f%% exceeds the %.0f%% gate"
                % (overhead * 100, MAX_OVERHEAD * 100)
            )
            return 1
        print(
            "OK: observability overhead %.2f%% is within the %.0f%% gate"
            % (overhead * 100, MAX_OVERHEAD * 100)
        )
        return 0
    finally:
        off.close(wait=False)
        on.close(wait=False)


if __name__ == "__main__":
    sys.exit(main())
