"""Prepared queries: compile once, execute many times.

``compile_plan`` runs the full pipeline (frontend AST → NRAe → optimize
→ NNRC → optimize → Python codegen) exactly once and wraps the result in
a :class:`CompiledPlan` — an immutable artifact that is safe to share
across threads and across :class:`~repro.service.prepared.PreparedQuery`
handles (the generated callable is a pure function of ``constants``).

The pipeline splits at the optimized NRAe.  :meth:`CompiledPlan.artifact`
serialises that plan as a JSON-able dict (the NRAe as its paper §8
S-expression), and :meth:`CompiledPlan.from_artifact` rebuilds the plan
in another process by running only the lowering tail (NRAe → NNRC →
NNRC-opt → codegen), the same tail ``compile_plan`` ends with.  That is
how a worker process installs a plan its leader already optimized.

Parameters: ``$name`` placeholders in SQL compile to constant-environment
reads under the key ``"$name"`` (see :class:`repro.sql.ast.Param`), so
binding happens at execute time by merging ``{"$name": value}`` into the
constants snapshot — the plan itself never changes, which is what makes
it cacheable.

Typed specialisation: from a plan's second execute in a process on,
:meth:`CompiledPlan.run` also keeps callables lowered from the plan
after the paper's typed rewrites (:func:`repro.optim.typed_rules.
optimize_nraenv_typed`), one per *type signature* — the types of the
tables the plan reads and of the bound parameter values.  The first
call with a new signature specialises it (up to
:data:`MAX_SIGNATURES` per plan); a call whose tables are not the
catalog's registered snapshot, and any call beyond the cap, runs the
untyped callable.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.compiler.pipeline import front_stages, lowering_stages, parse_source, run_pipeline
from repro.data import json_io
from repro.data.foreign import DateValue
from repro.data.model import Bag, DataError, Record
from repro.data.types import QType, TRecord, TUnit, type_of_value
from repro.nraenv import ast as nraenv_ast
from repro.service.errors import BadRequest, CompileError
from repro.service.plan_key import plan_key
from repro.sexp import dumps_plan, loads_plan
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


#: Type signatures one plan keeps a lowered variant for; a call whose
#: signature is not among them runs the untyped callable.
MAX_SIGNATURES = 4

TYPED = "typed"
UNTYPED = "untyped"

#: The types a typed variant is specialised on: ``(constant, type)``
#: for every table the plan reads, then every ``$param``.
Signature = Tuple[Tuple[str, QType], ...]


def _tables_read(nraenv: Any) -> Tuple[str, ...]:
    """The sorted catalog tables (non-``$`` constants) a plan reads."""
    names = set()
    stack = [nraenv]
    while stack:
        node = stack.pop()
        if isinstance(node, nraenv_ast.GetConstant) and not node.cname.startswith("$"):
            names.add(node.cname)
        stack.extend(node.children())
    return tuple(sorted(names))


class CompiledPlan:
    """The shareable compiled artifact for one structural plan key.

    ``nraenv`` is the optimized NRAe plan: EXPLAIN ANALYZE runs it, and
    :meth:`artifact` ships it.  ``callable`` is the Python lowered from it.
    ``_typed`` maps type signatures to the callable that serves them
    (see :meth:`run`); ``_runs`` counts the plan's executes through
    :meth:`run` in this process.
    """

    __slots__ = (
        "language",
        "key",
        "nraenv",
        "callable",
        "params",
        "compile_seconds",
        "timings",
        "_artifact",
        "_tables",
        "_runs",
        "_typed",
        "_lock",
    )

    def __init__(
        self,
        language: str,
        key: str,
        nraenv: Any,
        fn: Any,
        params: Tuple[str, ...],
        compile_seconds: float,
        timings: Dict[str, float],
    ):
        self.language = language
        self.key = key
        self.nraenv = nraenv
        self.callable = fn
        self.params = params
        self.compile_seconds = compile_seconds
        self.timings = timings
        self._artifact: Optional[Dict[str, Any]] = None
        self._tables = _tables_read(nraenv)
        self._runs = 0
        self._typed: Dict[Signature, Callable[..., Any]] = {}
        self._lock = threading.Lock()

    def artifact(self) -> Dict[str, Any]:
        """The plan as JSON-able interchange data, built once and cached.

        ``{"language", "key", "params", "plan"}``, with ``plan`` the
        optimized NRAe as :func:`repro.sexp.dumps_plan` text.  The dict
        is never mutated, so every broadcast and snapshot shares it.
        """
        artifact = self._artifact
        if artifact is None:
            artifact = self._artifact = {
                "language": self.language,
                "key": self.key,
                "params": list(self.params),
                "plan": dumps_plan(self.nraenv),
            }
        return artifact

    @classmethod
    def from_artifact(cls, artifact: Dict[str, Any]) -> "CompiledPlan":
        """Install a plan from :meth:`artifact` data without re-optimizing.

        Decodes the NRAe and runs the lowering tail only.  The caller
        checks ``artifact["key"]`` against the query it is preparing;
        an artifact that does not decode raises :class:`CompileError`.
        """
        started = time.perf_counter()
        try:
            nraenv = loads_plan(artifact["plan"])
            language, key = artifact["language"], artifact["key"]
            params = tuple(artifact["params"])
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CompileError("malformed plan artifact: %s" % (exc,))
        fn, timings = _lower(nraenv)
        return cls(
            language, key, nraenv, fn, params, time.perf_counter() - started, timings
        )

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
            if not isinstance(value, (Bag, Record, DateValue)):
                try:
                    value = json_io.from_jsonable(value)
                except DataError as exc:
                    raise BadRequest("parameter $%s: %s" % (name, exc))
            bound["$" + name] = value
        return bound

    def execute(self, constants: Dict[str, Any], params: Optional[Dict[str, Any]] = None) -> Any:
        """Run the untyped callable against a constants snapshot."""
        return self.callable(self.bind(constants, params))

    def run(
        self,
        constants: Dict[str, Any],
        params: Optional[Dict[str, Any]],
        catalog: Any,
        metrics: Any = None,
    ) -> Tuple[Any, str]:
        """Execute against ``catalog``'s snapshot ``constants``: (result, variant).

        ``variant`` names the callable that answered, ``"typed"`` or
        ``"untyped"``.  The plan's first run in this process is always
        untyped.  Every later run computes its type signature and, the
        first time a signature is seen (up to :data:`MAX_SIGNATURES`),
        specialises the plan for it before running; ``metrics``, when
        given, counts the outcomes under ``service.typed.*``.
        """
        bound = self.bind(constants, params)
        with self._lock:
            self._runs += 1
            reused = self._runs > 1
        fn = self._callable_for(bound, catalog, metrics) if reused else self.callable
        return fn(bound), (UNTYPED if fn is self.callable else TYPED)

    def _signature(self, bound: Dict[str, Any], catalog: Any) -> Optional[Signature]:
        """The (constant, type) pairs a typed variant is specialised on.

        ``None`` when a table the plan reads is not the catalog's
        registered snapshot (dropped or re-registered since ``bound``
        was taken): its cached type would not describe ``bound``.
        """
        signature = []
        for name in self._tables:
            qtype = catalog.table_type(name, bound.get(name))
            if qtype is None:
                return None
            signature.append((name, qtype))
        for name in self.params:
            signature.append(("$" + name, type_of_value(bound["$" + name])))
        return tuple(signature)

    def _callable_for(
        self, bound: Dict[str, Any], catalog: Any, metrics: Any
    ) -> Callable[..., Any]:
        """The cached callable for ``bound``'s signature, specialising a new one.

        A failed guard or a full cache answers with the untyped callable
        (``service.typed.guard_miss``).  So do other calls with a
        signature while it is being specialised.
        """
        signature = self._signature(bound, catalog)
        with self._lock:
            fn = self._typed.get(signature)
            if fn is not None:
                return fn
            miss = signature is None or len(self._typed) >= MAX_SIGNATURES
            if not miss:
                self._typed[signature] = self.callable  # until specialised
        if miss:
            if metrics is not None:
                metrics.counter("service.typed.guard_miss").inc()
            return self.callable
        return self._specialise(signature, metrics)

    def _specialise(self, signature: Signature, metrics: Any) -> Callable[..., Any]:
        """Lower the plan after the typed rewrites for ``signature``; cache it.

        The signature keeps the untyped callable when the typed plan is
        the untyped one (``unchanged``) or does not type or lower
        (``failed``).
        """
        from repro.optim.typed_rules import optimize_nraenv_typed
        from repro.typing.op_typing import TypingError

        started = time.perf_counter()
        fn = self.callable
        try:
            typed = optimize_nraenv_typed(self.nraenv, TRecord({}), TUnit(), dict(signature))
            if typed.plan == self.nraenv:
                outcome = "unchanged"
            else:
                fn, _ = _lower(typed.plan)
                outcome = "specialized"
        except (CompileError, TypingError):
            outcome = "failed"
        self._typed[signature] = fn
        if metrics is not None:
            metrics.counter("service.typed." + outcome).inc()
            metrics.histogram("service.typed.specialize_ms").record(
                (time.perf_counter() - started) * 1e3
            )
        return fn

    def execute_analyzed(
        self,
        constants: Dict[str, Any],
        params: Optional[Dict[str, Any]] = None,
        catalog: Any = None,
    ) -> Tuple[Any, Dict[str, Any]]:
        """Run with EXPLAIN ANALYZE: (result, analysis summary).

        Executes the *optimized NRAe plan* through the join engine with
        per-node statistics collection — slower than the compiled
        callable, so strictly an opt-in diagnostic path.  The collector
        belongs to this call alone, so concurrent analyzed requests do
        not interfere.  The summary includes the annotated plan tree
        and, given the ``catalog``, the ``plan`` variant a plain execute
        would run for these parameters.  The engine always profiles the
        untyped plan: typed plans hit its recogniser cliffs.
        """
        from repro.nraenv.exec import eval_fast
        from repro.obs.analyze import AnalyzeCollector, analysis_summary

        bound = self.bind(constants, params)
        collector = AnalyzeCollector()
        value = eval_fast(self.nraenv, Record({}), None, bound, analyzer=collector)
        summary = analysis_summary(collector, self.nraenv)
        if catalog is not None:
            fn = self._typed.get(self._signature(bound, catalog), self.callable)
            summary["plan"] = UNTYPED if fn is self.callable else TYPED
        return value, summary


def parse_query(language: str, text: str) -> Any:
    """Parse, mapping all frontend failures to :class:`CompileError`."""
    try:
        return parse_source(language, text)
    except ValueError as exc:  # syntax errors and unknown languages
        raise CompileError(str(exc))


def compile_plan(language: str, ast: Any, key: Optional[str] = None) -> CompiledPlan:
    """Compile a parsed AST into a :class:`CompiledPlan` (the slow path)."""
    if key is None:
        key = plan_key(language, ast)
    started = time.perf_counter()
    try:
        front = run_pipeline(ast, front_stages(language))
    except (ValueError, TypeError, DataError) as exc:
        raise CompileError(str(exc))
    fn, timings = _lower(front.final)
    return CompiledPlan(
        language,
        key,
        front.final,
        fn,
        collect_params(ast),
        time.perf_counter() - started,
        {**front.timings(), **timings},
    )


def _lower(nraenv: Any) -> Tuple[Callable[..., Any], Dict[str, float]]:
    """The lowering tail: optimized NRAe → NNRC → NNRC-opt → Python.

    Returns the callable and the tail's stage timings.  Compile, plan
    install and typed specialisation all lower through here.
    """
    from repro.backend.python_gen import compile_nnrc_to_callable

    try:
        tail = run_pipeline(nraenv, lowering_stages())
        fn = compile_nnrc_to_callable(tail.final, name="served")
    except (ValueError, TypeError, DataError) as exc:
        raise CompileError(str(exc))
    return fn, tail.timings()


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
