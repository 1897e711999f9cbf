"""Compilation pipelines with per-stage timing (paper §8, Figures 7c/8c).

A pipeline is a sequence of named stages; the driver records each
stage's wall-clock time and output, which is exactly the data Figures
7c and 8c plot (SQL→NRAe, NRAe→NRAe-opt, NRAe-opt→NNRC, NNRC→NNRC-opt).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.context import current_query_id
from repro.obs.trace import get_tracer
from repro.optim.defaults import optimize_nnrc, optimize_nra, optimize_nraenv
from repro.optim.engine import OptimizeResult, ProvenanceLog
from repro.translate.camp_to_nra import camp_to_nra
from repro.translate.camp_to_nraenv import camp_to_nraenv
from repro.translate.lambda_nra_to_nraenv import lnra_to_nraenv
from repro.translate.nraenv_to_nnrc import nra_to_nnrc, nraenv_to_nnrc
from repro.translate.nraenv_to_nra import nraenv_to_nra


class StageValue:
    """A stage function's return carrying extra metadata.

    ``run_pipeline`` unwraps it: ``value`` becomes the stage output (and
    the next stage's input), ``meta`` lands on :attr:`Stage.meta` — how
    optimizer stages expose their full :class:`OptimizeResult` without
    changing the plan-in/plan-out stage contract.
    """

    __slots__ = ("value", "meta")

    def __init__(self, value: Any, meta: Dict[str, Any]):
        self.value = value
        self.meta = meta


class Stage:
    """One executed pipeline stage."""

    def __init__(self, name: str, output: Any, seconds: float, meta: Optional[Dict[str, Any]] = None):
        self.name = name
        self.output = output
        self.seconds = seconds
        self.meta = meta or {}

    def __repr__(self) -> str:
        return "Stage(%s, %.4fs)" % (self.name, self.seconds)


class CompilationResult:
    """The outcome of running a pipeline: stage outputs and timings."""

    def __init__(self, source: Any, stages: List[Stage]):
        self.source = source
        self.stages = stages

    def stage(self, name: str) -> Stage:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError("no stage named %r (have %s)" % (name, [s.name for s in self.stages]))

    def output(self, name: str) -> Any:
        return self.stage(name).output

    def seconds(self, name: str) -> float:
        return self.stage(name).seconds

    def optimize_result(self, name: str) -> Optional[OptimizeResult]:
        """The full :class:`OptimizeResult` of an optimizer stage."""
        return self.stage(name).meta.get("optimize_result")

    def provenance(self, name: str) -> Optional[ProvenanceLog]:
        """The rewrite provenance log of an optimizer stage (when traced)."""
        result = self.optimize_result(name)
        return result.provenance if result is not None else None

    @property
    def final(self) -> Any:
        return self.stages[-1].output

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def timings(self) -> Dict[str, float]:
        return {stage.name: stage.seconds for stage in self.stages}

    def __repr__(self) -> str:
        return "CompilationResult(%s)" % " → ".join(s.name for s in self.stages)


def run_pipeline(
    source: Any, stages: Sequence[Tuple[str, Callable[[Any], Any]]]
) -> CompilationResult:
    """Run ``stages`` in order, timing each (and tracing, when enabled)."""
    tracer = get_tracer()
    executed: List[Stage] = []
    current = source
    span_args: Dict[str, Any] = {"stages": len(stages)}
    query_id = current_query_id()
    if query_id is not None:
        span_args["query_id"] = query_id
    with tracer.span("pipeline", category="pipeline", **span_args):
        for name, fn in stages:
            with tracer.span(name, category="stage"):
                start = time.perf_counter()
                value = fn(current)
                elapsed = time.perf_counter() - start
            meta = None
            if isinstance(value, StageValue):
                meta = value.meta
                value = value.value
            executed.append(Stage(name, value, elapsed, meta))
            current = value
    return CompilationResult(source, executed)


def _opt_plan(optimizer: Callable[[Any], Any]) -> Callable[[Any], Any]:
    def run(plan: Any) -> StageValue:
        result = optimizer(plan)
        return StageValue(result.plan, {"optimize_result": result})

    return run


#: Canonical stage names (shared with the benchmarks).
TO_NRAENV = "to_nraenv"
NRAENV_OPT = "nraenv_opt"
TO_NNRC = "to_nnrc"
NNRC_OPT = "nnrc_opt"
TO_NRA = "to_nra"
NRA_OPT = "nra_opt"


def compile_camp(pattern) -> CompilationResult:
    """CAMP → NRAe → NRAe-opt → NNRC → NNRC-opt (the paper's main path)."""
    return run_pipeline(
        pattern,
        [
            (TO_NRAENV, camp_to_nraenv),
            (NRAENV_OPT, _opt_plan(optimize_nraenv)),
            (TO_NNRC, nraenv_to_nnrc),
            (NNRC_OPT, _opt_plan(optimize_nnrc)),
        ],
    )


def compile_camp_via_nra(pattern) -> CompilationResult:
    """CAMP → NRA → NRA-opt → NNRC → NNRC-opt (the Figure 9 baseline)."""
    return run_pipeline(
        pattern,
        [
            (TO_NRA, camp_to_nra),
            (NRA_OPT, _opt_plan(optimize_nra)),
            (TO_NNRC, nra_to_nnrc),
            (NNRC_OPT, _opt_plan(optimize_nnrc)),
        ],
    )


def compile_camp_to_nra_via_nraenv(pattern) -> CompilationResult:
    """CAMP → NRAe → opt → NRA → opt (Figure 9's "through NRAe" path)."""
    return run_pipeline(
        pattern,
        [
            (TO_NRAENV, camp_to_nraenv),
            (NRAENV_OPT, _opt_plan(optimize_nraenv)),
            (TO_NRA, nraenv_to_nra),
            (NRA_OPT, _opt_plan(optimize_nra)),
        ],
    )


def compile_lnra(expr) -> CompilationResult:
    """NRAλ → NRAe → NRAe-opt → NNRC → NNRC-opt.

    Accepts either an NRAλ AST or concrete syntax (a string), e.g.
    ``compile_lnra(r"map(\\p -> p.name)(Persons)")``.
    """
    stages = [
        (TO_NRAENV, lnra_to_nraenv),
        (NRAENV_OPT, _opt_plan(optimize_nraenv)),
        (TO_NNRC, nraenv_to_nnrc),
        (NNRC_OPT, _opt_plan(optimize_nnrc)),
    ]
    if isinstance(expr, str):
        from repro.lambda_nra.parser import parse_lnra

        stages = [("parse", parse_lnra)] + stages
    return run_pipeline(expr, stages)


def compile_sql(text: str) -> CompilationResult:
    """SQL text → AST → NRAe → NRAe-opt → NNRC → NNRC-opt."""
    from repro.sql.parser import parse_sql
    from repro.sql.to_nraenv import sql_to_nraenv

    return run_pipeline(
        text,
        [
            ("parse", parse_sql),
            (TO_NRAENV, sql_to_nraenv),
            (NRAENV_OPT, _opt_plan(optimize_nraenv)),
            (TO_NNRC, nraenv_to_nnrc),
            (NNRC_OPT, _opt_plan(optimize_nnrc)),
        ],
    )


def compile_oql(text: str) -> CompilationResult:
    """OQL text → AST → NRAe → NRAe-opt → NNRC → NNRC-opt."""
    from repro.oql.parser import parse_oql
    from repro.oql.to_nraenv import oql_to_nraenv

    return run_pipeline(
        text,
        [
            ("parse", parse_oql),
            (TO_NRAENV, oql_to_nraenv),
            (NRAENV_OPT, _opt_plan(optimize_nraenv)),
            (TO_NNRC, nraenv_to_nnrc),
            (NNRC_OPT, _opt_plan(optimize_nnrc)),
        ],
    )


def compile_to_python(nnrc_expr, name: str = "query"):
    """NNRC → executable Python (the paper's JS backend, in Python)."""
    from repro.backend.python_gen import compile_nnrc_to_callable

    return compile_nnrc_to_callable(nnrc_expr, name)


# -- cacheable entry points (used by the query service) ------------------------
#
# ``parse_source`` and ``compile_parsed`` split the textual pipelines at
# the parse boundary: the service parses once, fingerprints the AST for
# its plan cache (see :mod:`repro.service.plan_key`), and only pays for
# optimization + codegen on a cache miss.  ``front_stages`` and
# ``lowering_stages`` split them once more at the optimized NRAe, the
# plan a service can ship to another process instead of its source text.

#: Languages the textual pipelines accept.
LANGUAGES = ("sql", "oql", "lnra")


def parse_source(language: str, text: str) -> Any:
    """Parse query ``text`` in ``language`` to its frontend AST."""
    if language == "sql":
        from repro.sql.parser import parse_sql

        return parse_sql(text)
    if language == "oql":
        from repro.oql.parser import parse_oql

        return parse_oql(text)
    if language == "lnra":
        from repro.lambda_nra.parser import parse_lnra

        return parse_lnra(text)
    raise ValueError("unknown source language %r (have %s)" % (language, LANGUAGES))


def front_stages(language: str) -> List[Tuple[str, Callable[[Any], Any]]]:
    """The front end of a textual pipeline: frontend AST → NRAe → NRAe-opt."""
    if language == "sql":
        from repro.sql.to_nraenv import sql_to_nraenv

        to_nraenv: Callable[[Any], Any] = sql_to_nraenv
    elif language == "oql":
        from repro.oql.to_nraenv import oql_to_nraenv

        to_nraenv = oql_to_nraenv
    elif language == "lnra":
        to_nraenv = lnra_to_nraenv
    else:
        raise ValueError("unknown source language %r (have %s)" % (language, LANGUAGES))
    return [(TO_NRAENV, to_nraenv), (NRAENV_OPT, _opt_plan(optimize_nraenv))]


def lowering_stages() -> List[Tuple[str, Callable[[Any], Any]]]:
    """The lowering tail every served plan runs: NRAe-opt → NNRC → NNRC-opt.

    Built per call, so the stage functions are looked up at call time.
    """
    return [(TO_NNRC, nraenv_to_nnrc), (NNRC_OPT, _opt_plan(optimize_nnrc))]


def compile_parsed(language: str, ast: Any) -> CompilationResult:
    """Compile an already-parsed frontend AST down to optimized NNRC."""
    return run_pipeline(ast, front_stages(language) + lowering_stages())


def compile_source(language: str, text: str) -> CompilationResult:
    """Parse + compile: the one-shot textual entry point for any language."""
    return compile_parsed(language, parse_source(language, text))
