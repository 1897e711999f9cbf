"""Command-line interface: compile, inspect, run, and explain queries.

::

    python -m repro compile --language sql --query "select a from t" --show all
    python -m repro compile --language oql --file q.oql --run --data db.json
    python -m repro compile --query "select a from t" --trace out.json --profile
    python -m repro tpch q6 --run
    python -m repro explain --query "select a from t where a > 1"
    python -m repro serve --data db.json --workers 4

``--data`` takes a JSON file mapping table names to rows (arrays of
objects; dates as ``{"$date": "YYYY-MM-DD"}`` — see
:mod:`repro.data.json_io`).  ``--trace`` writes a Chrome
``trace_event`` JSON file (load it at ``chrome://tracing`` or
https://ui.perfetto.dev); ``--profile`` prints the span tree and the
evaluator/runtime metrics; ``explain`` prints the optimizer derivation
— which rules fired, in what order, with the cost trajectory.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Any, List, Optional

from repro.backend.js_gen import generate_javascript
from repro.backend.python_gen import compile_nnrc_to_callable, generate_python
from repro.compiler.pipeline import (
    CompilationResult,
    compile_lnra,
    compile_oql,
    compile_sql,
)
from repro.data import json_io


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="qcert-py: a query compiler built around NRAe (SIGMOD 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_cmd = sub.add_parser("compile", help="compile a query")
    compile_cmd.add_argument(
        "--language",
        choices=("sql", "oql", "lnra"),
        default="sql",
        help="source language (lnra = the lambda algebra, e.g. map(\\x -> x.a)(t))",
    )
    source = compile_cmd.add_mutually_exclusive_group(required=True)
    source.add_argument("--query", help="query text")
    source.add_argument("--file", help="file containing the query")
    compile_cmd.add_argument(
        "--show",
        choices=("plan", "opt", "nnrc", "python", "js", "metrics", "all"),
        default="metrics",
        help="what to print",
    )
    compile_cmd.add_argument("--run", action="store_true", help="execute the query")
    compile_cmd.add_argument("--data", help="JSON file with the database constants")
    _add_obs_flags(compile_cmd)

    tpch_cmd = sub.add_parser("tpch", help="compile/run a bundled TPC-H query")
    tpch_cmd.add_argument("name", help="query name, e.g. q6")
    tpch_cmd.add_argument("--run", action="store_true", help="run on the mini database")
    tpch_cmd.add_argument(
        "--show",
        choices=("plan", "opt", "nnrc", "python", "js", "metrics", "all"),
        default="metrics",
    )
    _add_obs_flags(tpch_cmd)

    explain_cmd = sub.add_parser(
        "explain", help="show the optimizer derivation (rules fired, cost timeline)"
    )
    explain_cmd.add_argument(
        "--language",
        choices=("sql", "oql", "lnra"),
        default="sql",
        help="source language of --query/--file",
    )
    explain_source = explain_cmd.add_mutually_exclusive_group(required=True)
    explain_source.add_argument("--query", help="query text")
    explain_source.add_argument("--file", help="file containing the query")
    explain_source.add_argument("--tpch", help="bundled TPC-H query name, e.g. q6")
    explain_cmd.add_argument(
        "--stage",
        choices=("nraenv", "nnrc", "all"),
        default="all",
        help="which optimizer stage to explain",
    )
    explain_cmd.add_argument(
        "--verbose", action="store_true", help="also list per-rule attempt counts and time"
    )
    explain_cmd.add_argument(
        "--data",
        help="JSON data file; when given (or with --tpch, where it names a "
        "generated scale: micro or small, default micro), explain also runs "
        "the join engine and reports hash joins vs fallbacks to the "
        "reference semantics",
    )
    explain_cmd.add_argument(
        "--analyze",
        action="store_true",
        help="EXPLAIN ANALYZE: execute the optimized plan with per-node "
        "statistics and print the annotated tree plus the cost-model "
        "calibration report (needs data: --data, or --tpch's generated scale)",
    )
    explain_cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; json (requires --analyze) emits one machine-"
        "readable document: the annotated plan tree, the analyze summary, "
        "the cost-model calibration data, and the join-engine counters",
    )
    _add_obs_flags(explain_cmd)

    serve_cmd = sub.add_parser(
        "serve",
        help="run the query service: one JSON request per stdin line, "
        "one JSON response per stdout line (see DESIGN.md for the protocol); "
        "--http/--tcp serve the same protocol over the network with "
        "multi-process scale-out and admission control",
    )
    serve_cmd.add_argument("--data", help="JSON file of tables to preload into the catalog")
    serve_cmd.add_argument(
        "--workers",
        type=int,
        default=4,
        help="network mode (--http/--tcp): worker *processes*, each with its "
        "own catalog snapshot and plan cache (0 = run in-process on the "
        "leader's thread pool); stdin mode: executor threads",
    )
    serve_cmd.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve the wire protocol over HTTP on this port (POST / with a "
        "JSON request body; GET serves /metrics /healthz /stats /telemetry "
        "/slow /workers /trace/<query_id> on the same port; 0 = ephemeral, "
        "announced on stderr)",
    )
    serve_cmd.add_argument(
        "--tcp",
        type=int,
        default=None,
        metavar="PORT",
        help="serve persistent JSON-lines connections on this TCP port "
        "(the stdin protocol verbatim; 0 = ephemeral)",
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address for --http/--tcp"
    )
    serve_cmd.add_argument(
        "--mp-start",
        choices=("spawn", "fork", "forkserver"),
        default="spawn",
        help="multiprocessing start method for worker processes",
    )
    serve_cmd.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="graceful-shutdown budget for in-flight requests (SIGTERM/"
        "SIGINT/shutdown op stop admission, then wait up to this long)",
    )
    serve_cmd.add_argument(
        "--queue-depth", type=int, default=16, help="bounded admission queue depth"
    )
    serve_cmd.add_argument(
        "--cache-size", type=int, default=128, help="plan cache capacity (LRU)"
    )
    serve_cmd.add_argument(
        "--timeout", type=float, default=30.0, help="default per-query timeout (seconds)"
    )
    serve_cmd.add_argument(
        "--slow-query",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log queries whose execute phase takes at least this long "
        "(kept in the telemetry ring; see the 'telemetry' op)",
    )
    serve_cmd.add_argument(
        "--telemetry-capacity",
        type=int,
        default=256,
        help="per-query telemetry ring-buffer capacity",
    )
    serve_cmd.add_argument(
        "--obs-port",
        type=int,
        default=None,
        metavar="PORT",
        help="start the HTTP observability sidecar on this port "
        "(/metrics /healthz /stats /telemetry /slow; 0 = ephemeral). "
        "The bound address is announced on stderr (stdout is the wire)",
    )
    serve_cmd.add_argument(
        "--query-log",
        metavar="PATH",
        help="append one JSON-lines audit event per query to this file "
        "(size-bounded rotation; see repro.obs.log)",
    )
    serve_cmd.add_argument(
        "--query-log-max-bytes",
        type=int,
        default=10_000_000,
        metavar="BYTES",
        help="rotate the query log when it exceeds this size",
    )
    serve_cmd.add_argument(
        "--trace-sample",
        type=float,
        default=0.05,
        metavar="RATE",
        help="tail-sampling head rate in [0, 1] for per-query traces "
        "(slow and errored queries are always kept; a negative rate "
        "disables per-query tracing entirely)",
    )
    serve_cmd.add_argument(
        "--heartbeat-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="worker resource-heartbeat cadence in network mode "
        "(feeds /workers and the per-worker gauges on /metrics; "
        "0 disables heartbeats)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="fetch one kept merged trace from a running service "
        "(GET /trace/<query_id> on a --http port or the obs sidecar) "
        "and render it as a per-process span tree",
    )
    trace_cmd.add_argument("query_id", help="the query id to look up (16 hex chars)")
    trace_cmd.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the service's --http port or --obs-port sidecar",
    )
    trace_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace fragment JSON (per-process span trees "
        "plus chrome events) instead of the rendered tree",
    )
    return parser


def _add_obs_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome trace_event JSON file of the compilation (and --run)",
    )
    cmd.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree and collected metrics after the command",
    )


def _load_query(args: argparse.Namespace) -> str:
    if args.query is not None:
        return args.query
    with open(args.file) as handle:
        return handle.read()


class _DataFileError(Exception):
    """A --data file problem, reported as one actionable line (exit 2)."""


def _load_data(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise _DataFileError(
            "cannot read --data file %r: %s" % (path, exc.strerror or exc)
        )
    from repro.data.model import DataError, Record

    try:
        value = json_io.loads(text)
    except (ValueError, DataError) as exc:
        raise _DataFileError("malformed JSON in --data file %r: %s" % (path, exc))
    if not isinstance(value, Record):
        raise _DataFileError(
            "--data file %r must be a JSON object mapping table names to row arrays"
            % (path,)
        )
    return {name: value[name] for name in value.domain()}


def _print_result(result: CompilationResult, show: str, out) -> None:
    plan = result.output("to_nraenv")
    optimized = result.output("nraenv_opt")
    nnrc = result.final
    if show in ("plan", "all"):
        print("NRAe:", plan, file=out)
    if show in ("opt", "all"):
        print("NRAe optimized:", optimized, file=out)
    if show in ("nnrc", "all"):
        print("NNRC:", nnrc, file=out)
    if show in ("python", "all"):
        source, _ = generate_python(nnrc)
        print(source, file=out)
    if show in ("js", "all"):
        print(generate_javascript(nnrc), file=out)
    if show in ("metrics", "all"):
        print(
            "sizes: NRAe %d → optimized %d → NNRC %d"
            % (plan.size(), optimized.size(), nnrc.size()),
            file=out,
        )
        print(
            "depths: NRAe %d → optimized %d" % (plan.depth(), optimized.depth()),
            file=out,
        )
        print(
            "times: " + "  ".join("%s %.4fs" % (k, v) for k, v in result.timings().items()),
            file=out,
        )


def _run_query(result: CompilationResult, constants: dict, out) -> None:
    query = compile_nnrc_to_callable(result.final)
    value = query(constants)
    print(json_io.dumps(value, indent=2), file=out)


#: (stage name, human label) for the optimizer stages ``explain`` covers.
_EXPLAIN_STAGES = {
    "nraenv": [("nraenv_opt", "NRAe optimizer")],
    "nnrc": [("nnrc_opt", "NNRC optimizer")],
    "all": [("nraenv_opt", "NRAe optimizer"), ("nnrc_opt", "NNRC optimizer")],
}


def _print_explain(result: CompilationResult, stage_choice: str, verbose: bool, out) -> None:
    """Render the provenance logs: the optimizer derivation per stage."""
    for stage_name, label in _EXPLAIN_STAGES[stage_choice]:
        try:
            opt = result.optimize_result(stage_name)
        except KeyError:
            continue
        if opt is None or opt.provenance is None:
            continue
        prov = opt.provenance
        print("== %s (stage %s) ==" % (label, stage_name), file=out)
        print(
            "cost %d → %d in %d passes (%s)"
            % (opt.initial_cost, opt.final_cost, opt.passes, prov.termination),
            file=out,
        )
        print("cost trajectory: " + " → ".join(str(c) for c in prov.costs), file=out)
        if prov.events:
            print("derivation (%d rewrites):" % len(prov.events), file=out)
            for index, event in enumerate(prov.events, 1):
                print(
                    "  %3d. pass %-2d %-40s size %d → %d"
                    % (index, event.pass_index, event.rule, event.size_before, event.size_after),
                    file=out,
                )
            print("rule totals:", file=out)
            for name, count in sorted(prov.rule_counts().items(), key=lambda kv: (-kv[1], kv[0])):
                print("  %4dx %s" % (count, name), file=out)
        else:
            print("derivation: no rule fired (plan already normal)", file=out)
        if verbose and prov.rule_attempts:
            print("rule attempts (time):", file=out)
            ranked = sorted(prov.rule_seconds.items(), key=lambda kv: -kv[1])
            for name, seconds in ranked[:15]:
                print(
                    "  %-40s %8d attempts  %8.3f ms"
                    % (name, prov.rule_attempts.get(name, 0), seconds * 1e3),
                    file=out,
                )
        print("", file=out)


def _explain_constants(args: argparse.Namespace) -> Optional[dict]:
    """The database ``explain`` should execute against, or None.

    With ``--tpch``, ``--data`` names a generated scale (``micro``, the
    default, or ``small``); otherwise it is a JSON file path.
    """
    if args.tpch is not None:
        from repro.tpch.datagen import MICRO, SMALL, generate

        scales = {"micro": MICRO, "small": SMALL}
        name = args.data or "micro"
        if name not in scales:
            raise _DataFileError(
                "--data with --tpch names a generated scale: micro or small "
                "(got %r)" % (name,)
            )
        return generate(scales[name], seed=7)
    if args.data:
        return _load_data(args.data)
    return None


def _print_analyze(result: CompilationResult, constants: dict, out) -> Optional[int]:
    """EXPLAIN ANALYZE: run the optimized plan instrumented; print the tree.

    Returns the result cardinality (so the join-engine section can skip
    re-executing), or None when execution failed.
    """
    from repro.data.model import Bag, Record
    from repro.nraenv.eval import EvalError
    from repro.nraenv.exec import eval_fast
    from repro.obs.analyze import AnalyzeCollector, calibration_report, render_analyze

    plan = result.output("nraenv_opt")
    print("== EXPLAIN ANALYZE (optimized NRAe, join engine) ==", file=out)
    collector = AnalyzeCollector()
    try:
        value = eval_fast(plan, Record({}), None, constants, analyzer=collector)
    except EvalError as exc:
        print("execution failed: %s" % exc, file=out)
        print("", file=out)
        return None
    print(render_analyze(plan, collector), file=out, end="")
    print("", file=out)
    print(calibration_report(plan, collector), file=out, end="")
    print("", file=out)
    return len(value) if isinstance(value, Bag) else 0


def _print_engine(
    result: CompilationResult, constants: Optional[dict], out, rows: Optional[int] = None
) -> None:
    """Report the join engine's decisions on the optimized plan.

    The engine's shape analysis is data-dependent, so the report is only
    produced when data is available: a generated TPC-H scale for
    ``--tpch``, or a ``--data`` file.  Counters come from the active
    :mod:`repro.obs` session (``engine.join`` / ``engine.fallback.*`` —
    the formerly *silent* fallbacks to the reference semantics).  When
    ``rows`` is given the plan already ran (EXPLAIN ANALYZE) and is not
    re-executed — the counters reflect that single run.
    """
    from repro.obs.metrics import get_metrics

    print("== Join engine ==", file=out)
    if constants is None:
        print(
            "not exercised (pass --data, or use --tpch for the micro database)",
            file=out,
        )
        print("", file=out)
        return
    if rows is None:
        from repro.data.model import Record
        from repro.nraenv.eval import EvalError
        from repro.nraenv.exec import eval_fast

        plan = result.output("nraenv_opt")
        try:
            value = eval_fast(plan, Record({}), None, constants)
        except EvalError as exc:
            print("execution failed: %s" % exc, file=out)
        else:
            print("executed optimized NRAe plan: %d rows" % len(value), file=out)
    else:
        print("executed optimized NRAe plan: %d rows" % rows, file=out)
    counters = get_metrics().snapshot()["counters"]
    print("hash joins executed: %d" % counters.get("engine.join", 0), file=out)
    print(
        "physical group-bys executed: %d" % counters.get("engine.group_by", 0),
        file=out,
    )
    fused = counters.get("engine.columnar", 0) + counters.get(
        "engine.columnar_filter", 0
    )
    print("fused columnar passes: %d" % fused, file=out)
    hoisted = counters.get("engine.hoisted_in", 0)
    if hoisted:
        print("uncorrelated IN subqueries hoisted: %d" % hoisted, file=out)
    prefix = "engine.fallback."
    fallbacks = sorted(
        (name[len(prefix):], count)
        for name, count in counters.items()
        if name.startswith(prefix)
    )
    if fallbacks:
        print("fallbacks to reference semantics:", file=out)
        for reason, count in fallbacks:
            print("  %4dx %s" % (count, reason), file=out)
    else:
        print("fallbacks to reference semantics: none", file=out)
    shed = counters.get("service.shed", 0)
    if shed:
        print("load-shed requests (service.shed): %d" % shed, file=out)
    print("", file=out)


def _engine_counters() -> dict:
    """The join-engine counters of the active obs session, as JSON."""
    from repro.obs.metrics import get_metrics

    counters = get_metrics().snapshot()["counters"]
    prefix = "engine.fallback."
    return {
        "joins": counters.get("engine.join", 0),
        "group_bys": counters.get("engine.group_by", 0),
        "columnar": counters.get("engine.columnar", 0)
        + counters.get("engine.columnar_filter", 0),
        "hoisted_in": counters.get("engine.hoisted_in", 0),
        "shed": counters.get("service.shed", 0),
        "fallbacks": {
            name[len(prefix):]: count
            for name, count in counters.items()
            if name.startswith(prefix)
        },
    }


def _explain_json(result: CompilationResult, constants: dict, language: str, text: str, out) -> int:
    """``explain --analyze --format json``: one machine-readable document.

    Executes the optimized plan once under the analyze collector and
    emits the annotated plan tree (:func:`repro.obs.analyze.analyze_json`),
    the summary digest, the cost-model calibration data, and the
    join-engine counters for that run.
    """
    import json as _json

    from repro.data.model import Bag, Record
    from repro.nraenv.eval import EvalError
    from repro.nraenv.exec import eval_fast
    from repro.obs.analyze import (
        AnalyzeCollector,
        analysis_summary,
        analyze_json,
        calibration_data,
    )

    plan = result.output("nraenv_opt")
    doc: dict = {"language": language, "query": text}
    collector = AnalyzeCollector()
    try:
        value = eval_fast(plan, Record({}), None, constants, analyzer=collector)
    except EvalError as exc:
        doc["ok"] = False
        doc["error"] = str(exc)
        print(_json.dumps(doc, indent=2), file=out)
        return 1
    doc["ok"] = True
    doc["rows"] = len(value) if isinstance(value, Bag) else 0
    doc["analyze"] = analysis_summary(collector)
    doc["plan"] = analyze_json(plan, collector)
    doc["calibration"] = calibration_data(plan, collector)
    doc["engine"] = _engine_counters()
    print(_json.dumps(doc, indent=2), file=out)
    return 0


def _tpch_query(name: str, out) -> Optional[str]:
    from repro.tpch.queries import QUERIES

    if name not in QUERIES:
        print("unknown TPC-H query %r (have %s)" % (name, sorted(QUERIES)), file=out)
        return None
    return QUERIES[name]


class _GracefulExit(Exception):
    """A termination signal arrived; carries the drain reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _serve_stdin(
    args: argparse.Namespace, service: Any, obs_server: Any, out: Any
) -> int:
    """The stdin/stdout JSON-lines loop with graceful signal handling.

    SIGTERM and SIGINT go through the same shutdown path as the network
    mode and the wire ``shutdown`` op: stop reading, drain the executor
    (in-flight queries finish), flush the final ``shutdown`` audit event,
    close the query log and the obs sidecar.
    """
    import signal
    import threading

    installed = []
    if threading.current_thread() is threading.main_thread():

        def _on_signal(signum: int, frame: Any) -> None:
            raise _GracefulExit(
                "sigterm" if signum == getattr(signal, "SIGTERM", None) else "sigint"
            )

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                installed.append((signum, signal.signal(signum, _on_signal)))
            except (ValueError, OSError):  # pragma: no cover - exotic platform
                pass
    try:
        code = service.serve(sys.stdin, out)
    except _GracefulExit as exc:
        service.drain(reason=exc.reason, wait=True)
        code = 0
    except KeyboardInterrupt:  # pragma: no cover - ^C without our handler
        service.drain(reason="sigint", wait=False)
        code = 0
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)
        # Idempotent: only closes the sidecar if serve() already drained.
        service.drain(reason="shutdown", wait=False, obs_server=obs_server)
    return code


def _cmd_trace(args: argparse.Namespace, out: Any) -> int:
    """``repro trace <query_id>``: fetch and render a merged trace."""
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obs.export import render_trace_tree

    url = args.url.rstrip("/") + "/trace/" + args.query_id
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            body = response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        detail = ""
        try:
            detail = _json.loads(exc.read().decode("utf-8")).get("error", "")
        except Exception:  # noqa: BLE001 - non-JSON error body
            pass
        print("repro: %s" % (detail or exc), file=out)
        return 1
    except (urllib.error.URLError, OSError) as exc:
        print("repro: cannot reach %s: %s" % (url, exc), file=out)
        return 1
    try:
        fragment = _json.loads(body)
    except ValueError as exc:
        print("repro: malformed trace document from %s: %s" % (url, exc), file=out)
        return 1
    if args.json:
        print(_json.dumps(fragment, indent=1), file=out)
    else:
        print(render_trace_tree(fragment), file=out, end="")
    return 0


def _serve_net(args: argparse.Namespace, service: Any, obs_server: Any) -> int:
    """The asyncio network front end behind ``serve --http/--tcp``."""
    import asyncio

    from repro.service import ServeNetServer, WorkerPool, catalog_snapshot

    pool = None
    if args.workers > 0:
        print(
            "repro: starting %d worker process%s (%s)"
            % (args.workers, "" if args.workers == 1 else "es", args.mp_start),
            file=sys.stderr,
        )
        sys.stderr.flush()
        pool = WorkerPool(
            args.workers,
            lambda: catalog_snapshot(service),
            mp_start=args.mp_start,
            options={
                "cache_capacity": args.cache_size,
                "default_timeout": args.timeout,
            },
            metrics=service.metrics,
        ).start()
    server = ServeNetServer(
        service,
        pool=pool,
        http_port=args.http,
        tcp_port=args.tcp,
        host=args.host,
        queue_depth=args.queue_depth,
        default_timeout=args.timeout,
        drain_timeout=args.drain_timeout,
        obs_server=obs_server,
        heartbeat_interval=getattr(args, "heartbeat_interval", 2.0),
    )

    async def _run() -> int:
        await server.start()
        # Announced on stderr in a stable format: the concurrent-load
        # benchmark and the CI smoke step parse these lines.
        endpoints = server.endpoints()
        if "http" in endpoints:
            print(
                "repro: http endpoint on http://%s:%d "
                "(POST / with a JSON request; GET /metrics /healthz /stats "
                "/telemetry /slow /workers /trace/<query_id>)" % endpoints["http"],
                file=sys.stderr,
            )
        if "tcp" in endpoints:
            print(
                "repro: tcp endpoint on %s:%d (JSON lines)" % endpoints["tcp"],
                file=sys.stderr,
            )
        sys.stderr.flush()
        return await server.run()

    return asyncio.run(_run())


def main(argv: Optional[List[str]] = None, out: Any = None) -> int:
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)

    # explain always needs the provenance machinery; compile/tpch only
    # pay for it when --trace/--profile asks.
    observing = args.command == "explain" or getattr(args, "trace", None) or getattr(
        args, "profile", False
    )
    if observing:
        from repro.obs import observe

        session_cm = observe()
    else:
        session_cm = contextlib.nullcontext(None)

    with session_cm as session:
        if args.command == "compile":
            text = _load_query(args)
            compilers = {"sql": compile_sql, "oql": compile_oql, "lnra": compile_lnra}
            result = compilers[args.language](text)
            _print_result(result, args.show, out)
            if args.run:
                try:
                    constants = _load_data(args.data)
                except _DataFileError as exc:
                    print("repro: %s" % exc, file=out)
                    return 2
                _run_query(result, constants, out)
            code = 0

        elif args.command == "serve":
            from repro.obs.log import QueryLog
            from repro.service import CatalogError, ObsHttpServer, QueryService

            net_mode = args.http is not None or args.tcp is not None
            # In network mode with worker processes the leader's thread
            # pool only runs control ops and obs requests — keep it small.
            # Everywhere else `--workers` sizes the executor itself.
            if net_mode and args.workers > 0:
                service_workers = 2
            else:
                service_workers = args.workers if args.workers > 0 else 4
            query_log = None
            if args.query_log:
                query_log = QueryLog(args.query_log, max_bytes=args.query_log_max_bytes)
            service = QueryService(
                cache_capacity=args.cache_size,
                workers=service_workers,
                queue_depth=args.queue_depth,
                default_timeout=args.timeout,
                telemetry_capacity=args.telemetry_capacity,
                slow_query_seconds=args.slow_query,
                trace_sample_rate=None if args.trace_sample < 0 else args.trace_sample,
                query_log=query_log,
            )
            if args.data:
                try:
                    service.load_json(args.data)
                except CatalogError as exc:
                    print("repro: %s" % exc, file=out)
                    return 2
            obs_server = None
            if args.obs_port is not None:
                # Announcements go to stderr: stdout is the JSON-lines wire.
                obs_server = ObsHttpServer(service, port=args.obs_port).start()
                print(
                    "repro: obs endpoint on http://%s:%d "
                    "(/metrics /healthz /stats /telemetry /slow /workers "
                    "/trace/<query_id>)" % (obs_server.host, obs_server.port),
                    file=sys.stderr,
                )
                sys.stderr.flush()
            if net_mode:
                code = _serve_net(args, service, obs_server)
            else:
                code = _serve_stdin(args, service, obs_server, out)

        elif args.command == "trace":
            code = _cmd_trace(args, out)

        elif args.command == "tpch":
            from repro.tpch.datagen import MICRO, generate

            query_text = _tpch_query(args.name, out)
            if query_text is None:
                return 2
            result = compile_sql(query_text)
            _print_result(result, args.show, out)
            if args.run:
                _run_query(result, generate(MICRO, seed=7), out)
            code = 0

        elif args.command == "explain":
            if args.format == "json" and not args.analyze:
                print("repro: --format json requires --analyze", file=out)
                return 2
            if args.tpch is not None:
                text = _tpch_query(args.tpch, out)
                if text is None:
                    return 2
                language = "sql"
                result = compile_sql(text)
            else:
                text = _load_query(args)
                language = args.language
                compilers = {"sql": compile_sql, "oql": compile_oql, "lnra": compile_lnra}
                result = compilers[language](text)
            try:
                constants = _explain_constants(args)
            except _DataFileError as exc:
                print("repro: %s" % exc, file=out)
                return 2
            if args.analyze and constants is None:
                print(
                    "repro: --analyze needs data to execute against "
                    "(pass --data, or use --tpch for a generated scale)",
                    file=out,
                )
                return 2
            if args.format == "json":
                code = _explain_json(result, constants, language, text, out)
            else:
                _print_explain(result, args.stage, args.verbose, out)
                rows = None
                if args.analyze:
                    rows = _print_analyze(result, constants, out)
                _print_engine(result, constants, out, rows=rows)
                code = 0

        else:  # pragma: no cover - argparse enforces subcommands
            return 2

    if observing:
        from repro.obs.export import text_report, write_chrome_trace

        if args.trace:
            try:
                write_chrome_trace(args.trace, session.tracer, session.metrics)
            except OSError as exc:
                print("cannot write trace file %s: %s" % (args.trace, exc), file=out)
                return 1
            print("trace written to %s" % args.trace, file=out)
        if args.profile:
            print(text_report(session.tracer, session.metrics), file=out, end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
