"""Prepared queries: compile once, execute many times.

``compile_plan`` runs the full pipeline (frontend AST → NRAe → optimize
→ NNRC → optimize → Python codegen) exactly once and wraps the result in
a :class:`CompiledPlan` — an immutable artifact that is safe to share
across threads and across :class:`~repro.service.prepared.PreparedQuery`
handles (the generated callable is a pure function of ``constants``).

Parameters: ``$name`` placeholders in SQL compile to constant-environment
reads under the key ``"$name"`` (see :class:`repro.sql.ast.Param`), so
binding happens at execute time by merging ``{"$name": value}`` into the
constants snapshot — the plan itself never changes, which is what makes
it cacheable.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from repro.compiler.pipeline import compile_parsed, parse_source
from repro.data import json_io
from repro.data.model import DataError
from repro.service.errors import BadRequest, CompileError
from repro.service.plan_key import plan_key
from repro.sql import ast as sql_ast


def collect_params(node: Any) -> Tuple[str, ...]:
    """The sorted ``$param`` names appearing in a frontend AST."""
    names = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, sql_ast.Param):
            names.add(current.name)
        if isinstance(current, sql_ast.SqlNode):
            stack.extend(current.children())
    return tuple(sorted(names))


class CompiledPlan:
    """The shareable compiled artifact for one structural plan key."""

    __slots__ = (
        "language",
        "key",
        "nnrc",
        "nraenv",
        "callable",
        "params",
        "compile_seconds",
        "timings",
    )

    def __init__(
        self,
        language: str,
        key: str,
        nnrc: Any,
        fn: Any,
        params: Tuple[str, ...],
        compile_seconds: float,
        timings: Dict[str, float],
        nraenv: Any = None,
    ):
        self.language = language
        self.key = key
        self.nnrc = nnrc
        self.nraenv = nraenv
        self.callable = fn
        self.params = params
        self.compile_seconds = compile_seconds
        self.timings = timings

    def bind(self, constants: Dict[str, Any], params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        """Merge parameter bindings into a constants snapshot."""
        params = params or {}
        missing = [name for name in self.params if name not in params]
        if missing:
            raise BadRequest(
                "unbound parameters: %s (query declares %s)"
                % (", ".join("$" + m for m in missing), ", ".join("$" + p for p in self.params))
            )
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise BadRequest(
                "unknown parameters: %s (query declares %s)"
                % (
                    ", ".join("$" + u for u in unknown),
                    ", ".join("$" + p for p in self.params) or "none",
                )
            )
        if not params:
            return constants
        bound = dict(constants)
        for name, value in params.items():
            # Parameters arrive in the JSON wire format, so tagged values
            # ({"$date": ...}) decode to their foreign types; data-model
            # values pass through unchanged.
            try:
                bound["$" + name] = json_io.from_jsonable(value)
            except DataError:
                bound["$" + name] = value
        return bound

    def execute(self, constants: Dict[str, Any], params: Optional[Dict[str, Any]] = None) -> Any:
        """Run the compiled callable against a constants snapshot."""
        return self.callable(self.bind(constants, params))

    def execute_analyzed(
        self, constants: Dict[str, Any], params: Optional[Dict[str, Any]] = None
    ) -> Tuple[Any, Dict[str, Any]]:
        """Run with EXPLAIN ANALYZE: (result, analysis summary).

        Executes the *optimized NRAe plan* through the join engine with
        per-node statistics collection — slower than the compiled
        callable, so strictly an opt-in diagnostic path.  The collector
        belongs to this call alone, so concurrent analyzed requests do
        not interfere.  The summary includes the annotated plan tree.
        """
        from repro.data.model import Record
        from repro.nraenv.exec import eval_fast
        from repro.obs.analyze import AnalyzeCollector, analysis_summary

        if self.nraenv is None:
            raise BadRequest("plan was compiled without its NRAe stage; cannot analyze")
        bound = self.bind(constants, params)
        collector = AnalyzeCollector()
        value = eval_fast(self.nraenv, Record({}), None, bound, analyzer=collector)
        return value, analysis_summary(collector, self.nraenv)


def parse_query(language: str, text: str) -> Any:
    """Parse, mapping all frontend failures to :class:`CompileError`."""
    try:
        return parse_source(language, text)
    except ValueError as exc:  # syntax errors and unknown languages
        raise CompileError(str(exc))


def compile_plan(language: str, ast: Any, key: Optional[str] = None) -> CompiledPlan:
    """Compile a parsed AST into a :class:`CompiledPlan` (the slow path)."""
    from repro.backend.python_gen import compile_nnrc_to_callable
    from repro.compiler.pipeline import NRAENV_OPT

    if key is None:
        key = plan_key(language, ast)
    start = time.perf_counter()
    try:
        result = compile_parsed(language, ast)
        fn = compile_nnrc_to_callable(result.final, name="served")
    except (ValueError, TypeError, DataError) as exc:
        raise CompileError(str(exc))
    elapsed = time.perf_counter() - start
    try:
        nraenv = result.output(NRAENV_OPT)
    except (KeyError, ValueError):
        nraenv = None  # pipelines without an NRAe stage cannot be analyzed
    return CompiledPlan(
        language,
        key,
        result.final,
        fn,
        collect_params(ast),
        elapsed,
        result.timings(),
        nraenv=nraenv,
    )


class PreparedQuery:
    """A client-facing handle to a compiled plan."""

    __slots__ = ("handle", "language", "text", "plan", "cached", "executions")

    def __init__(self, handle: str, language: str, text: str, plan: CompiledPlan, cached: bool):
        self.handle = handle
        self.language = language
        self.text = text
        self.plan = plan
        self.cached = cached
        self.executions = 0

    @property
    def params(self) -> List[str]:
        return list(self.plan.params)

    def describe(self) -> Dict[str, Any]:
        return {
            "handle": self.handle,
            "language": self.language,
            "params": self.params,
            "cached": self.cached,
            "compile_seconds": self.plan.compile_seconds,
            "executions": self.executions,
        }
