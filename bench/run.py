"""The served-path benchmark: one command, six workloads, every metric.

Two ways in, one code path (:func:`run_workload`):

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    The contract in ``BENCHMARK.json``: one workload, one fresh server
    set-up, one measured window.  ``--trace 0`` prints the end-to-end
    metrics a client sees (tracing off everywhere); ``--trace 1`` prints
    the per-layer metrics of a separate traced pass.  The last line of
    stdout is one JSON object.

``python3 bench/run.py --seed N --out bench/out/run.json [--repeats R] [--sets 2] [--smoke]``
    The whole suite: every workload ``R`` times end to end plus one
    traced pass each, written as ``run.json`` with the workload
    fingerprint; ``--sets 2`` does it twice and hands the pair to
    ``compare.py`` (the A/A check).  ``--smoke`` shortens the windows
    to 2 s and applies no sample floor.

The server is a real ``python -m repro serve --http 0 --workers 2
--trace-sample -1`` subprocess, loaded by 2 closed-loop keep-alive
connections from this process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# Siblings import ``repro`` only inside functions, after use_source_tree().
import compare
import layers
import oracle
import served
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: Server set-ups per end-to-end run; ``setup_s`` is their median and
#: the last server is the one the window loads.
SETUP_REPEATS = 5
#: Warm-up before the window, as a share of it (3 s before 26 s).
WARMUP_SHARE = 3.0 / 26.0
#: A timed workload that ends a full-length run with fewer ok samples
#: than this cannot support its p95 and fails the run.
MIN_OK_SAMPLES = 200
SMOKE_SECONDS = 2.0
DEFAULT_SEED = 20170514
DEFAULT_REPEATS = 5


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def use_source_tree() -> None:
    """Measure the checkout this file sits in, never an installed copy."""
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        raise SystemExit("bench/run.py: no src/repro beside bench/: nothing to measure")
    sys.path.insert(0, SRC_DIR)


# -- one workload's context ---------------------------------------------------


class Context:
    """Everything one workload needs, built once from the seed."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.workload = workloads.BY_NAME[name]
        self.seed = seed
        self.seconds = seconds
        if self.workload.prepares:
            self.tables = workloads.micro_tables()
            self.streams = workloads.adhoc_stream(seed, workloads.adhoc_passes(seconds))
            self.references = {
                template: oracle.reference_rows(template, self.tables)
                for template in workloads.ADHOC_EXECUTED
            }
        else:
            db = workloads.generate_tables(seed)
            self.tables = {table: db[table] for table in self.workload.tables}
            self.stream = workloads.execute_stream(self.workload, seed)
        self.wire = {
            table: workloads.wire_rows(bag) for table, bag in self.tables.items()
        }
        if not self.workload.prepares:
            self.checker = oracle.ExecuteChecker(
                oracle.Oracle(self.wire), self.workload.sql, self.stream
            )

    # -- set-up: spawn → tables → statements → first verified reply -------

    def start(self) -> Tuple[Any, Dict[str, Any]]:
        """A warm, verified server and the ``prepare`` reply (if one)."""
        server = served.Server(SRC_DIR, workloads.WORKERS)
        try:
            # ``register`` is broadcast: it returns once both workers took it.
            for table, rows in self.wire.items():
                server.post({"op": "register", "table": table, "rows": rows})
            if self.workload.prepares:
                prepared = self._verify_templates(server)
            else:
                prepared = server.post({"op": "prepare", "query": self.workload.sql})
                first = self.stream[0]
                reply = server.post(
                    {"op": "execute", "handle": prepared["handle"], "params": first}
                )
                if not self.checker.check(first, reply):
                    raise RuntimeError("first reply fails the oracle: %s" % str(reply)[:300])
        except BaseException:
            server.stop()
            raise
        return server, prepared

    def _verify_templates(self, server: Any) -> Dict[str, Any]:
        """Execute the templates micro can afford; compare with the reference."""
        from repro.tpch.queries import QUERIES

        for template, want in self.references.items():
            handle = server.post({"op": "prepare", "query": QUERIES[template]})["handle"]
            reply = server.post({"op": "execute", "handle": handle})
            if not oracle.rows_equal(oracle.canonical_rows(reply["result"]), want):
                raise RuntimeError("%s differs from repro.tpch.reference" % template)
            server.post({"op": "close", "handle": handle})
        return {}

    # -- the load ----------------------------------------------------------

    def client_streams(self, prepared: Dict[str, Any]) -> List[Iterator[Any]]:
        """One request iterator per connection."""
        if self.workload.prepares:
            return [
                iter([({"op": "prepare", "query": r["query"]}, r) for r in stream])
                for stream in self.streams
            ]
        handle = prepared["handle"]
        return [
            (
                ({"op": "execute", "handle": handle, "params": params}, params)
                for params in itertools.cycle(self.stream[client :: workloads.CLIENTS])
            )
            for client in range(workloads.CLIENTS)
        ]

    def check(self, context: Any, response: Any) -> bool:

        if self.workload.prepares:
            return oracle.check_prepare(context, response)
        return self.checker.check(context, response)

    @property
    def after(self) -> Optional[Callable[[Any, Any], bool]]:
        """``adhoc_prepare`` closes each handle, off the clock."""
        return self._close_handle if self.workload.prepares else None

    @staticmethod
    def _close_handle(conn: Any, response: Dict[str, Any]) -> bool:
        _, reply = served.exchange(conn, {"op": "close", "handle": response["handle"]})
        return reply.get("ok") is True


# -- the two passes -------------------------------------------------------------


def end_to_end(ctx: Context, floor: int) -> Dict[str, Any]:
    """Tracing off: what a client of the service sees."""
    setups: List[float] = []
    server = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = None
            started = time.perf_counter()
            server, prepared = ctx.start()
            setups.append(time.perf_counter() - started)
        timed = not ctx.workload.prepares
        if timed:
            served.run_clients(
                server, ctx.client_streams(prepared), ctx.check,
                ctx.seconds * WARMUP_SHARE,
            )
        tally, elapsed = served.run_clients(
            server, ctx.client_streams(prepared), ctx.check,
            ctx.seconds if timed else None, ctx.after,
        )
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    ok = len(tally.latencies)
    needed = floor if timed else tally.attempted
    if ok < max(1, needed) and tally.failed == 0:
        raise RuntimeError(
            "%s ended with %d ok samples, needs %d" % (ctx.workload.name, ok, needed)
        )
    metrics = {}
    if ok:
        metrics = {
            "setup_s": served.median(setups),
            "latency_p50_ms": served.percentile(tally.latencies, 0.50) * 1e3,
            "latency_p95_ms": served.percentile(tally.latencies, 0.95) * 1e3,
            "ok_qps": ok / elapsed,
            "peak_rss_mb": rss,
        }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "ok_samples": ok,
        "failed_share": tally.failed / max(1, tally.attempted),
        "metrics": metrics,
    }


def traced(ctx: Context) -> Dict[str, Any]:
    """The per-layer pass; writes ``out/trace_<workload>.json``."""
    calibration = layers.calibration_ms()
    prepares: List[Dict[str, Any]] = []

    def start() -> Tuple[Any, Dict[str, Any]]:
        server, prepared = ctx.start()
        if prepared:
            prepares.append(prepared)
        return server, prepared

    def check(context: Any, response: Any) -> bool:
        if ctx.workload.prepares:
            prepares.append(response)
        return ctx.check(context, response)

    live = layers.live_pass(
        start, lambda prepared: ctx.client_streams(prepared)[0], check, ctx.after
    )
    hits = [reply.get("cached") is True for reply in prepares]
    if ctx.workload.prepares:
        script = layers.adhoc_script(ctx.streams[0])
        compile_sql = None
    else:
        script = layers.execute_script(ctx.workload, ctx.stream)
        compile_sql = ctx.workload.sql
    replay = layers.Replay(ctx.tables)
    replay.run(script, ctx.seconds, compile_sql)
    os.makedirs(OUT_DIR, exist_ok=True)
    replay.recorder.write(os.path.join(OUT_DIR, "trace_%s.json" % ctx.workload.name))
    tally = live["tally"]
    return {
        "attempted": tally.attempted + replay.attempted,
        "failed": tally.failed + replay.failed,
        "first_failure": tally.first_failure
        or ("the engine's result differs from the callable's" if replay.failed else None),
        "metrics": layers.per_layer_metrics(
            live, replay, sum(hits) / max(1, len(hits)), calibration
        ),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, floor: int) -> Dict[str, Any]:
    ctx = Context(name, seed, seconds)
    return traced(ctx) if trace else end_to_end(ctx, floor)


# -- reporting ------------------------------------------------------------------


def with_units(spec: Dict[str, Any], section: str, values: Dict[str, float]) -> Dict[str, Any]:
    """``{name: {"value", "unit"}}`` for every metric the section declares."""
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in spec[section]
    }


def print_metrics(name: str, metrics: Dict[str, Any]) -> None:

    for metric, entry in metrics.items():
        print("%-14s %-34s %14.6g %s" % (name, metric, entry["value"], entry["unit"]))
    coverage = metrics.get("bench.span_coverage")
    if coverage is not None and coverage["value"] < layers.COVERAGE_FLOOR:
        print(
            "%-14s uninstrumented gap: spans cover %.1f%% of the request"
            % (name, coverage["value"] * 100)
        )


def contract_line(spec: Dict[str, Any], trace: bool, result: Dict[str, Any]) -> Dict[str, Any]:
    section = "per_layer" if trace else "end_to_end"
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": with_units(spec, section, result["metrics"]),
    }


# -- the suite -------------------------------------------------------------------


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def fingerprint(spec: Dict[str, Any], seed: int, seconds: float) -> Dict[str, Any]:
    """What two runs must share to be comparable, plus where they ran."""
    return {
        "seed": seed,
        "seconds": seconds,
        "scale": dict(workloads.SCALE, lineitem_rows=workloads.LINEITEM_ROWS),
        "clients": workloads.CLIENTS,
        "workers": workloads.WORKERS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sha256": {
            w["name"]: workloads.workload_sha256(workloads.BY_NAME[w["name"]], seed, seconds)
            for w in spec["workloads"]
        },
        # Recorded, not compared: where and when the run was made.
        "loadavg_start": os.getloadavg()[0],
        "git_commit": git_commit(),
    }


def run_suite(spec: Dict[str, Any], seed: int, seconds: float, repeats: int, floor: int) -> Dict[str, Any]:
    document: Dict[str, Any] = {
        "fingerprint": fingerprint(spec, seed, seconds),
        "repeats": repeats,
        "workloads": {},
    }
    for entry in spec["workloads"]:
        name = entry["name"]
        runs = []
        for repeat in range(repeats):
            result = run_workload(name, seed, seconds, False, floor)
            if not result["metrics"]:
                raise RuntimeError("%s: no ok reply: %s" % (name, result["first_failure"]))
            metrics = with_units(spec, "end_to_end", result["metrics"])
            metrics["failed_share"] = {"value": result["failed_share"], "unit": "ratio"}
            print_metrics("%s#%d" % (name, repeat + 1), metrics)
            runs.append(
                {
                    "metrics": metrics,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "ok_samples": result["ok_samples"],
                }
            )
        layer_result = run_workload(name, seed, seconds, True, floor)
        per_layer = with_units(spec, "per_layer", layer_result["metrics"])
        print_metrics(name, per_layer)
        document["workloads"][name] = {
            "runs": runs,
            "per_layer": per_layer,
            "traced_failed": layer_result["failed"],
        }
    return document


def write_json(path: str, document: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload under the BENCHMARK.json contract")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "run.json"))
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    use_source_tree()
    spec = load_spec()
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke else float(spec["run_seconds"]))
    # The floor guards a full-length run; shorter windows are for trying things.
    floor = MIN_OK_SAMPLES if seconds >= spec["run_seconds"] else 0

    if args.workload is not None:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error("unknown workload %r" % args.workload)
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), floor)
        if not result["metrics"]:
            raise SystemExit("%s: no ok reply: %s" % (args.workload, result["first_failure"]))
        line = contract_line(spec, bool(args.trace), result)
        print_metrics(args.workload, line["metrics"])
        if result["failed"]:
            print("first failure: %s" % result["first_failure"])
        print(json.dumps(line))
        return 0

    paths = [args.out]
    if args.sets == 2:
        stem, ext = os.path.splitext(args.out)
        paths = [stem + ".set1" + ext, stem + ".set2" + ext]
    for path in paths:
        write_json(path, run_suite(spec, args.seed, seconds, args.repeats, floor))
        print("wrote %s" % path)
    if args.sets == 2:

        return compare.main(paths)
    return 0


if __name__ == "__main__":
    sys.exit(main())
