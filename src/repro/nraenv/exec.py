"""An execution engine for NRAe plans: hash joins over σ-×-chains.

:mod:`repro.nraenv.eval` is the *semantics* — a direct transcription of
Figure 2, where ``σ⟨p⟩(q1 × q2)`` materialises the full Cartesian
product.  This module is the *engine*: same language, same answers, but
``Select`` over a (nested) ``Product`` is executed as a multi-way join:

1. the product tree is flattened into factors and the predicate into
   conjuncts;
2. each conjunct is analysed for the input fields it reads (sound,
   syntactic: every ``In`` must occur as ``In.f``);
3. factors are joined greedily — hash joins on available equality
   conjuncts, smallest-first Cartesian products otherwise — applying
   each residual conjunct as soon as its fields are available.

When the shape analysis fails (a conjunct reads ``In`` whole, a factor
is not a bag of records, …) the engine falls back to the reference
semantics for that node, so the engine is *total* on whatever the
semantics accepts.

On top of the join executor this module carries three batch fast paths
(DESIGN.md §10), all under the same fallback contract:

- **physical group-by** — the derived group-by of paper §3.2
  (``χ⟨(In ⊕ [partition: σ⟨key(In)=Env.k⟩(q)]) ∘e (Env ⊕ [k: In])⟩
  (♯distinct(χ⟨key(In)⟩(q)))``, what :func:`repro.nraenv.builders.group_by`
  and the SQL translator emit) re-evaluates ``q`` and re-scans it with
  a fresh σ once per distinct key — O(groups·n) plan evaluations.
  :func:`_execute_group_by` recognises the shape and runs it as one
  hash-bucketing pass over a single evaluation of ``q``;
- **uncorrelated-subquery hoisting** — an ``x ∈ (subquery)`` conjunct
  whose right side provably cannot read the row (:func:`_analyse_dependence`)
  is evaluated once and replaced by its constant value, so the IN list
  is built once instead of once per candidate row (and the kernel's
  key index makes each remaining membership probe O(1));
- **batch select/project** — filters of the shape ``row.path ∈ constant``
  / ``row.path = constant`` and maps whose body is a pure field
  projection run as one-pass column operations
  (:mod:`repro.data.batch`) instead of per-row AST dispatch;
- **fused columnar chains** — a chain of σ/χ stages over a registered
  dataset (``GetConstant``/constant-bag base) compiles into one pass
  over the base's columns (:mod:`repro.data.columnar`): predicate
  conjuncts become column-at-a-time masks, alias/projection stages
  become column selection, and rows materialise only where results
  escape the fused region (or a conjunct resists compilation and runs
  per-row on the survivors).  The same mask compiler accelerates the
  join executor's residual (non-equi) conjuncts.  Counted
  ``columnar_shape``/``columnar_fallback`` fallbacks return the node to
  the reference row path.

EXPLAIN ANALYZE is an argument, not a mode: ``eval_fast(...,
analyzer=collector)`` routes that one call through a timing dispatcher
(:func:`_eval_analyzed`), carried with the constants in a per-call
:class:`_Run`.  Nothing at module level changes, so concurrent calls —
analyzed or not — never observe each other.

Correctness contract (property-tested): on any plan and inputs where
the reference evaluator succeeds, the engine returns the same bag.  On
ill-typed inputs the engine may fail where the semantics succeeds or
vice versa (it reorders and skips predicate evaluations, as any real
executor does); the typed-plans caveat is the same one Definition 4
makes for rewrites.
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.data import batch, columnar, kernel
from repro.data import operators as ops
from repro.data.columnar import MISSING, ColumnarBag
from repro.data.model import Bag, DataError, Record, canonical_key
from repro.nraenv import ast
from repro.nraenv.eval import EvalError, eval_nraenv
from repro.obs.context import current_query_id
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer


#: Fallback reasons the engine can report (see :func:`_fallback`); kept
#: as a tuple so tests and ``repro explain`` can enumerate them.  The
#: first four belong to the join executor, the next two to the physical
#: group-by (:func:`_execute_group_by`), and the last two to the fused
#: columnar chain executor (:func:`_execute_fused`).
FALLBACK_REASONS = (
    "single_factor",
    "env_not_record",
    "ambiguous_field",
    "unresolved_field",
    "group_pattern",
    "group_shape",
    "columnar_shape",
    "columnar_fallback",
)

#: Human-readable fallback reasons, for the EXPLAIN ANALYZE tree.
FALLBACK_LABELS = {
    "single_factor": "single factor (no product to join)",
    "env_not_record": "environment is not a record",
    "ambiguous_field": "ambiguous field across factors",
    "unresolved_field": "unresolved field in predicate",
    "group_pattern": "group-by candidate did not match the derived pattern",
    "group_shape": "group-by source failed shape analysis",
    "columnar_shape": "columnar chain failed shape analysis",
    "columnar_fallback": "no predicate conjunct compiled to column masks",
}


def _fallback(select: ast.Select, reason: str, run: _Run) -> None:
    """Record one engine→reference fallback under ``engine.fallback.<reason>``.

    The engine used to fall back *silently*; now every ``return None``
    out of :func:`_execute_join` is counted (with its reason) in the
    active :mod:`repro.obs` metrics registry, and ``repro explain``
    surfaces the totals.  With no registry installed this is a no-op.
    When the run carries an EXPLAIN ANALYZE collector, the reason is also
    pinned to the ``select`` node so the annotated tree can show *why*
    that node fell back, inline.
    """
    get_metrics().counter("engine.fallback." + reason).inc()
    analyzer = run.analyzer
    if analyzer is not None:
        analyzer.on_join(select, reason)
    return None


def _group_fallback(plan: ast.Map, reason: str, run: _Run) -> None:
    """The group-by twin of :func:`_fallback`, pinned to the χ node."""
    get_metrics().counter("engine.fallback." + reason).inc()
    analyzer = run.analyzer
    if analyzer is not None:
        analyzer.on_group(plan, reason)
    return None


def _columnar_fallback(plan: ast.NraeNode, reason: str, run: _Run) -> None:
    """The fused-chain twin of :func:`_fallback`, pinned to the chain root."""
    get_metrics().counter("engine.fallback." + reason).inc()
    analyzer = run.analyzer
    if analyzer is not None:
        analyzer.on_columnar(plan, reason)
    return None


#: Fused outputs at or above this cardinality get a derived columnar
#: view attached (lazy column slices), so a downstream group-by or
#: chain can keep working column-wise; smaller outputs are not worth
#: the bookkeeping.
_COLUMNAR_ATTACH_MIN = 32


def eval_fast(
    plan: ast.NraeNode,
    env: Any = None,
    datum: Any = None,
    constants: Optional[Mapping[str, Any]] = None,
    *,
    analyzer=None,
) -> Any:
    """Evaluate like :func:`~repro.nraenv.eval.eval_nraenv`, with joins.

    ``analyzer`` — an :class:`~repro.obs.analyze.AnalyzeCollector` —
    receives per-node statistics for this call only (EXPLAIN ANALYZE).
    """
    if env is None:
        env = Record({})
    run = (_Run if analyzer is None else _AnalyzedRun)(constants or {}, analyzer)
    tracer = get_tracer()
    if not tracer.enabled:
        return run.eval(plan, env, datum)
    span_args: Dict[str, Any] = {}
    query_id = current_query_id()
    if query_id is not None:
        span_args["query_id"] = query_id
    with tracer.span("engine.execute", category="engine", **span_args):
        return run.eval(plan, env, datum)


# ---------------------------------------------------------------------------
# Predicate analysis
# ---------------------------------------------------------------------------


def _conjuncts(pred: ast.NraeNode) -> List[ast.NraeNode]:
    if isinstance(pred, ast.Binop) and isinstance(pred.op, ops.OpAnd):
        return _conjuncts(pred.left) + _conjuncts(pred.right)
    return [pred]


def _analyse_conjunct(
    pred: ast.NraeNode, env_mode: bool = False
) -> Tuple[FrozenSet[str], bool]:
    """(row fields read, reads-whole-row?) for a conjunct.

    Tracks two visibilities while walking: whether ``In`` still denotes
    the product row (rebound by χ/σ/⋈d bodies and by ∘'s left operand)
    and — in env-mode, where the row is also in the environment as
    ``γ ⊕ row`` — whether ``Env`` still denotes it (rebound by ∘e's left
    operand and by χe bodies).  A bare ``In``/``Env`` occurrence while
    visible means the conjunct depends on the row as a whole: it is
    still executable, but only on fully assembled rows (no pushdown).
    """
    fields: set = set()
    whole_row = False

    def walk(node: ast.NraeNode, in_visible: bool, env_visible: bool) -> None:
        nonlocal whole_row
        if isinstance(node, ast.ID):
            if in_visible:
                whole_row = True
            return
        if isinstance(node, ast.Env):
            if env_visible:
                whole_row = True
            return
        if isinstance(node, ast.Unop) and isinstance(node.op, ops.OpDot):
            if in_visible and isinstance(node.arg, ast.ID):
                fields.add(node.op.field)
                return
            if env_visible and isinstance(node.arg, ast.Env):
                fields.add(node.op.field)
                return
            walk(node.arg, in_visible, env_visible)
            return
        if isinstance(node, (ast.Map, ast.Select, ast.DepJoin)):
            body, source = node.children()[0], node.children()[1]
            walk(source, in_visible, env_visible)
            walk(body, False, env_visible)
            return
        if isinstance(node, ast.App):
            walk(node.before, in_visible, env_visible)
            walk(node.after, False, env_visible)
            return
        if isinstance(node, ast.AppEnv):
            walk(node.before, in_visible, env_visible)
            walk(node.after, in_visible, False)
            return
        if isinstance(node, ast.MapEnv):
            if env_visible:
                # χe over γ ⊕ row (a record) would be a type error in the
                # reference semantics; treat as whole-row to stay exact.
                whole_row = True
                return
            walk(node.body, in_visible, False)
            return
        for child in node.children():
            walk(child, in_visible, env_visible)

    walk(pred, True, env_mode)
    return frozenset(fields), whole_row


#: A join-key side: a field path of length 1 (``row.f``) or 2
#: (``row.t.f`` — a qualified alias access).
Path = Tuple[str, ...]


def _row_path(node: ast.NraeNode, env_mode: bool) -> Optional[Path]:
    """Match ``In.f`` / ``Env.f`` / ``Env.t.f`` (env-mode); return the path."""
    if isinstance(node, ast.Unop) and isinstance(node.op, ops.OpDot):
        if isinstance(node.arg, ast.ID):
            return (node.op.field,)
        if env_mode and isinstance(node.arg, ast.Env):
            return (node.op.field,)
        inner = node.arg
        if (
            isinstance(inner, ast.Unop)
            and isinstance(inner.op, ops.OpDot)
            and (
                isinstance(inner.arg, ast.ID)
                or (env_mode and isinstance(inner.arg, ast.Env))
            )
        ):
            return (inner.op.field, node.op.field)
    return None


def _equality_key(
    pred: ast.NraeNode, env_mode: bool = False
) -> Optional[Tuple[Path, Path]]:
    """Match ``path1 = path2`` (an equi-join conjunct over row paths)."""
    if isinstance(pred, ast.Binop) and isinstance(pred.op, ops.OpEq):
        left = _row_path(pred.left, env_mode)
        right = _row_path(pred.right, env_mode)
        if left is not None and right is not None:
            return (left, right)
    return None


#: "Not compiled yet" marker for :attr:`_Conjunct.columnar` (``None``
#: means "tried and not compilable", so a third state is needed).
_UNSET = object()


class _Conjunct:
    def __init__(self, pred: ast.NraeNode, env_mode: bool):
        self.pred = pred
        self.fields, self.whole_row = _analyse_conjunct(pred, env_mode)
        self.equality = _equality_key(pred, env_mode)
        self.batch: Optional[Tuple[Path, Any, str]] = None
        self.columnar: Any = _UNSET  # lazily a compiled mask entry
        self.applied = False


# ---------------------------------------------------------------------------
# Dependence analysis
# ---------------------------------------------------------------------------


class _Dependence:
    """What a plan may read from its *ambient* evaluation context.

    ``reads_input`` — the ambient datum (``In``) is consulted anywhere
    it is still visible.  ``whole_env`` — the ambient environment is
    exposed as a whole value (bare ``Env``, or flows into a ``χe``).
    ``env_reads`` — ambient environment fields read as ``Env.f`` where
    ``f`` is not certainly shadowed by an intervening ``∘e`` builder.
    All three are *may* facts (conservative over-approximations): if the
    walker reports none, evaluating the plan under a different ambient
    datum / a differently-extended ambient environment provably yields
    the same value.
    """

    __slots__ = ("env_reads", "whole_env", "reads_input")

    def __init__(self) -> None:
        self.env_reads: set = set()
        self.whole_env = False
        self.reads_input = False


def _analyse_dependence(plan: ast.NraeNode) -> _Dependence:
    """Conservative ambient-context dependence of ``plan``.

    The walker tracks, per subexpression, whether the ambient ``In`` is
    still visible (rebound by χ/σ/⋈d bodies and by ∘'s left operand),
    whether ``Env`` still chains to the *ambient* environment, and which
    ambient fields an ``∘e`` builder chain has certainly shadowed.  A
    builder of the translator's shape ``Env ⊕ … ⊕ [f: _]`` keeps the
    ambient chain alive but binds ``f``; any other builder installs a
    fresh environment (its own ambient reads are still recorded).
    """
    info = _Dependence()

    def walk(
        node: ast.NraeNode,
        in_visible: bool,
        env_live: bool,
        shadowed: FrozenSet[str],
    ) -> None:
        if isinstance(node, ast.ID):
            if in_visible:
                info.reads_input = True
            return
        if isinstance(node, ast.Env):
            if env_live:
                info.whole_env = True
            return
        if isinstance(node, ast.Unop):
            if isinstance(node.op, ops.OpDot):
                if isinstance(node.arg, ast.Env):
                    if env_live and node.op.field not in shadowed:
                        info.env_reads.add(node.op.field)
                    return
                if isinstance(node.arg, ast.ID):
                    if in_visible:
                        info.reads_input = True
                    return
            walk(node.arg, in_visible, env_live, shadowed)
            return
        if isinstance(node, (ast.Map, ast.Select, ast.DepJoin)):
            body, source = node.children()[0], node.children()[1]
            walk(source, in_visible, env_live, shadowed)
            walk(body, False, env_live, shadowed)
            return
        if isinstance(node, ast.App):
            walk(node.before, in_visible, env_live, shadowed)
            walk(node.after, False, env_live, shadowed)
            return
        if isinstance(node, ast.AppEnv):
            live, bound = builder(node.before, in_visible, env_live, shadowed)
            walk(node.after, in_visible, live, (shadowed | bound) if live else frozenset())
            return
        if isinstance(node, ast.MapEnv):
            if env_live:
                # the ambient environment is iterated as a bag: whole use
                info.whole_env = True
                return
            walk(node.body, in_visible, False, frozenset())
            return
        for child in node.children():
            walk(child, in_visible, env_live, shadowed)

    def builder(
        node: ast.NraeNode,
        in_visible: bool,
        env_live: bool,
        shadowed: FrozenSet[str],
    ) -> Tuple[bool, FrozenSet[str]]:
        """(still chains to ambient env?, fields certainly bound) of an ∘e builder."""
        if isinstance(node, ast.Env):
            return env_live, frozenset()
        if isinstance(node, ast.Binop) and isinstance(node.op, ops.OpConcat):
            live, bound = builder(node.left, in_visible, env_live, shadowed)
            right = node.right
            if isinstance(right, ast.Unop) and isinstance(right.op, ops.OpRec):
                walk(right.arg, in_visible, env_live, shadowed)
                return live, bound | frozenset((right.op.field,))
            walk(right, in_visible, env_live, shadowed)
            return live, bound
        walk(node, in_visible, env_live, shadowed)
        return False, frozenset()

    walk(plan, True, True, frozenset())
    return info


# ---------------------------------------------------------------------------
# Column-at-a-time predicate masks (shared by fused chains and the join
# executor's residual conjuncts)
# ---------------------------------------------------------------------------

#: Binary operators safe to apply element-wise over columns: scalar in,
#: scalar out, no environment or input sensitivity beyond their
#: operands.  The reference evaluates both operands of every ``Binop``
#: (no short-circuit), so element-wise evaluation raises on exactly the
#: rows per-row evaluation would (modulo the engine's documented
#: freedom to reorder/skip predicate work).
_MASK_BINOPS = (
    ops.OpEq,
    ops.OpIn,
    ops.OpLt,
    ops.OpLe,
    ops.OpGt,
    ops.OpGe,
    ops.OpAnd,
    ops.OpOr,
    ops.OpAdd,
    ops.OpSub,
    ops.OpMult,
    ops.OpDiv,
    ops.OpStrConcat,
    ops.OpDatePlusDays,
    ops.OpDateMinusDays,
    ops.OpDatePlusMonths,
    ops.OpDateMinusMonths,
    ops.OpDatePlusYears,
    ops.OpDateMinusYears,
)

#: Unary operators safe to apply element-wise (same criterion).
_MASK_UNOPS = (
    ops.OpLike,
    ops.OpNeg,
    ops.OpNumNeg,
    ops.OpToString,
    ops.OpSubstring,
    ops.OpDateYear,
    ops.OpDateMonth,
    ops.OpDateDay,
)


def _mask_row_free(
    expr: ast.NraeNode, env_mode: bool, visible_fields: FrozenSet[str]
) -> bool:
    """True iff ``expr`` provably evaluates the same for every row.

    No visible ``In`` reads; in env-mode (where the row rides in the
    environment as ``γ ⊕ row``) additionally no whole-env exposure and
    no ``Env.f`` read of a field the row could shadow (``f`` among the
    chain's visible fields).  Such an expression can be evaluated once
    per σ application instead of once per row.
    """
    info = _analyse_dependence(expr)
    if info.reads_input:
        return False
    if env_mode:
        if info.whole_env:
            return False
        for field in info.env_reads:
            if field in visible_fields:
                return False
    return True


def _compile_mask(
    pred: ast.NraeNode,
    env_mode: bool,
    resolve,
    visible_fields: FrozenSet[str],
):
    """Compile a conjunct into a column-mask entry tree, or None.

    ``resolve(path)`` maps a row path to a column getter (a callable of
    the executor's carrier — a selection for fused chains, a partial
    for the join engine) or None when the path has no sound column.
    Leaves are resolved paths and row-free subexpressions; interior
    nodes are the element-wise-safe operators above.  A None anywhere
    means the conjunct stays on the per-row path.
    """

    def compile_expr(expr: ast.NraeNode):
        path = _row_path(expr, env_mode)
        if path is not None:
            getter = resolve(path)
            if getter is not None:
                return ("col", getter)
            # fall through: an Env.f that is not a column may still be
            # a row-free outer-environment read
        if _mask_row_free(expr, env_mode, visible_fields):
            return ("const", expr)
        if isinstance(expr, ast.Binop) and isinstance(expr.op, _MASK_BINOPS):
            left = compile_expr(expr.left)
            if left is None:
                return None
            right = compile_expr(expr.right)
            if right is None:
                return None
            return ("bin", expr.op, left, right)
        if isinstance(expr, ast.Unop) and isinstance(expr.op, _MASK_UNOPS):
            arg = compile_expr(expr.arg)
            if arg is None:
                return None
            return ("un", expr.op, arg)
        return None

    return compile_expr(pred)


def _mask_eval(entry, carrier, env, datum, run):
    """Evaluate a compiled mask entry; returns ``(is_column, payload)``.

    ``payload`` is a value list aligned with the carrier's rows when
    ``is_column``, else one scalar (a row-free subresult, broadcast by
    the binary/unary cases).  Equality and membership against a scalar
    side go through canonical keys — the same comparison ``OpEq``/
    ``OpIn`` apply, with the scalar keyed once per column instead of
    once per row.  Operator errors wrap into :class:`EvalError` exactly
    like the reference dispatcher's ``op.apply`` calls.
    """
    tag = entry[0]
    if tag == "col":
        return True, entry[1](carrier)
    if tag == "const":
        return False, run.eval(entry[1], env, datum)
    if tag == "un":
        op = entry[1]
        is_column, value = _mask_eval(entry[2], carrier, env, datum, run)
        try:
            if is_column:
                return True, [op.apply(v) for v in value]
            return False, op.apply(value)
        except EvalError:
            raise
        except Exception as exc:  # DataError
            raise EvalError(str(exc)) from exc
    op = entry[1]
    lcol, left = _mask_eval(entry[2], carrier, env, datum, run)
    rcol, right = _mask_eval(entry[3], carrier, env, datum, run)
    try:
        if isinstance(op, ops.OpEq) and lcol != rcol:
            if lcol:
                key = canonical_key(right)
                return True, [canonical_key(v) == key for v in left]
            key = canonical_key(left)
            return True, [canonical_key(v) == key for v in right]
        if isinstance(op, ops.OpIn) and lcol and not rcol and isinstance(right, Bag):
            index = kernel.key_index(right)
            return True, [canonical_key(v) in index for v in left]
        if lcol and rcol:
            return True, [op.apply(a, b) for a, b in zip(left, right)]
        if lcol:
            return True, [op.apply(a, right) for a in left]
        if rcol:
            return True, [op.apply(left, b) for b in right]
        return False, op.apply(left, right)
    except EvalError:
        raise
    except Exception as exc:  # DataError
        raise EvalError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Fused columnar chains
# ---------------------------------------------------------------------------

#: Column-map marker: the visible field holds the whole base row (the
#: translator's scan alias ``χ⟨In ⊕ [t: In]⟩``).
_ROW = object()


class _Absent:
    """Column-map marker: a projection names a field no row can have.

    The reference raises per surviving row; the fused executor raises
    at materialisation iff any row survives (an empty selection never
    evaluates the projection body, exactly like ``χ`` over no rows).
    """

    __slots__ = ("field",)

    def __init__(self, field: str):
        self.field = field


def _match_alias(body: ast.NraeNode) -> Optional[str]:
    """Match the scan-alias body ``In ⊕ [t: In]``; return ``t``."""
    if (
        isinstance(body, ast.Binop)
        and isinstance(body.op, ops.OpConcat)
        and isinstance(body.left, ast.ID)
        and isinstance(body.right, ast.Unop)
        and isinstance(body.right.op, ops.OpRec)
        and isinstance(body.right.arg, ast.ID)
    ):
        return body.right.op.field
    return None


def _match_chain(plan: ast.NraeNode):
    """Match a fusable σ/χ chain down to a dataset base.

    Stages, root→base order: ``("filter", pred, env_mode)`` for σ
    (unwrapping the translator's ``p ∘e (Env ⊕ In)`` row shape),
    ``("alias", t)`` for the scan alias χ, ``("project", pairs)`` for a
    pure field-projection χ.  The base must be a ``GetConstant`` or a
    constant bag, and the chain must contain at least one filter
    (pure projections already have the batch path).  Returns
    ``(base, stages)`` or None.
    """
    stages: List[tuple] = []
    filters = 0
    node = plan
    while True:
        if isinstance(node, ast.Select):
            pred = node.pred
            env_mode = False
            if (
                isinstance(pred, ast.AppEnv)
                and isinstance(pred.before, ast.Binop)
                and isinstance(pred.before.op, ops.OpConcat)
                and isinstance(pred.before.left, ast.Env)
                and isinstance(pred.before.right, ast.ID)
            ):
                env_mode = True
                pred = pred.after
            stages.append(("filter", pred, env_mode))
            filters += 1
            node = node.input
            continue
        if isinstance(node, ast.Map):
            alias = _match_alias(node.body)
            if alias is not None:
                stages.append(("alias", alias))
                node = node.input
                continue
            pairs = _key_record_fields(node.body)
            if pairs is not None:
                stages.append(("project", pairs))
                node = node.input
                continue
            return None
        if isinstance(node, ast.GetConstant):
            break
        if isinstance(node, ast.Const) and isinstance(node.value, Bag):
            break
        return None
    if not filters:
        return None
    return node, stages


def _fused_resolver(cb: ColumnarBag, base_rows, colmap: Dict[str, Any]):
    """Path → column getter for a chain state (carrier: a selection).

    Paths over columns with missing values resolve to None — those rows
    would error (``In.f``) or read the outer environment (``Env.f``)
    per row, so the conjunct must stay on the exact per-row path.
    """

    def resolve(path: Path):
        src = colmap.get(path[0])
        if src is None or isinstance(src, _Absent):
            return None
        if src is _ROW:
            if len(path) == 1:
                return lambda selection: [base_rows[i] for i in selection]
            field = path[1]
            if not cb.has_field(field) or cb.has_missing(field):
                return None

            def row_getter(selection, field=field):
                column = cb.column(field)
                return [column[i] for i in selection]

            return row_getter
        if cb.has_missing(src):
            return None
        if len(path) == 1:

            def getter(selection, src=src):
                column = cb.column(src)
                return [column[i] for i in selection]

            return getter
        field = path[1]

        def nested_getter(selection, src=src, field=field, path=path):
            column = cb.column(src)
            out = []
            for i in selection:
                value = column[i]
                if not isinstance(value, Record):
                    raise EvalError(
                        "path %s: %r is not a record" % (".".join(path), value)
                    )
                try:
                    out.append(value[field])
                except DataError as exc:
                    raise EvalError(str(exc)) from exc
            return out

        return nested_getter

    return resolve


def _fused_row(
    index: int,
    colmap: Dict[str, Any],
    identity: bool,
    cb: ColumnarBag,
    base_rows,
) -> Record:
    """Materialise the visible record for base row ``index``.

    Scan shapes (identity/alias) skip missing column positions — the
    row simply lacks the field, matching ``row ⊕ [t: row]``; projection
    shapes validated their sources before the column map was installed,
    so no selected position is missing there.
    """
    if identity:
        return base_rows[index]
    data = {}
    for name, src in colmap.items():
        if isinstance(src, _Absent):
            raise EvalError("record has no attribute %r" % (src.field,))
        if src is _ROW:
            data[name] = base_rows[index]
        else:
            value = cb.column(src)[index]
            if value is not MISSING:
                data[name] = value
    return Record(data)


def _execute_fused(
    plan: ast.NraeNode, env: Any, datum: Any, run: _Run
) -> Optional[Bag]:
    """Execute a matched σ/χ chain as one fused pass over columns.

    Two passes.  The *static* pass walks the stages base→root keeping a
    column map (visible field → base column, whole-row marker, or
    absent) and compiles every filter conjunct against it — masks where
    the compiler succeeds, per-row residuals otherwise.  The *dynamic*
    pass then runs the steps over a shrinking index selection into the
    base columns: masks element-wise, projections as (validated) column
    map rewrites, residuals by materialising only the surviving rows.
    Returns None after counting ``columnar_shape`` (base/env shape
    unsuitable) or ``columnar_fallback`` (no conjunct compiled), and
    the caller re-runs the node on the reference row path.
    """
    matched = _match_chain(plan)
    if matched is None:
        return None
    base_node, stages = matched
    base_bag = run.eval(base_node, env, datum)
    if not isinstance(base_bag, Bag):
        return None  # let the reference raise its σ/χ shape error
    try:
        cb = columnar.ensure_columnar(base_bag)
    except DataError:
        return _columnar_fallback(plan, "columnar_shape", run)
    base_rows = base_bag.items

    # -- static pass: column maps + mask compilation -----------------------
    colmap: Dict[str, Any] = {name: name for name in cb.fields()}
    identity = True
    steps: List[tuple] = []
    compiled_any = False
    for stage in reversed(stages):
        kind = stage[0]
        if kind == "alias":
            if not identity:
                return _columnar_fallback(plan, "columnar_shape", run)
            colmap = dict(colmap)
            colmap[stage[1]] = _ROW
            identity = False
            continue
        if kind == "project":
            resolved = []
            new_map: Dict[str, Any] = {}
            for name, field in stage[1]:
                src = colmap[field] if field in colmap else _Absent(field)
                resolved.append((name, src))
                new_map[name] = src
            steps.append(("project", tuple(resolved)))
            colmap = new_map
            identity = False
            continue
        _, pred, env_mode = stage
        if env_mode and not isinstance(env, Record):
            return _columnar_fallback(plan, "columnar_shape", run)
        resolve = _fused_resolver(cb, base_rows, colmap)
        visible = frozenset(colmap)
        masks: List[Any] = []
        residual: List[ast.NraeNode] = []
        for conj in _conjuncts(pred):
            entry = _compile_mask(conj, env_mode, resolve, visible)
            if entry is None:
                residual.append(conj)
            else:
                masks.append(entry)
                compiled_any = True
        steps.append(("filter", masks, residual, env_mode, colmap, identity))
    if not compiled_any:
        return _columnar_fallback(plan, "columnar_fallback", run)

    # -- dynamic pass: one shrinking selection over the base columns -------
    selection = list(range(len(base_rows)))
    row_cache: Dict[int, Record] = {}
    for step in steps:
        if not selection:
            break
        if step[0] == "project":
            for _, src in step[1]:
                if isinstance(src, _Absent):
                    raise EvalError(
                        "record has no attribute %r" % (src.field,)
                    )
                if src is not _ROW and cb.has_missing(src):
                    column = cb.column(src)
                    for i in selection:
                        if column[i] is MISSING:
                            raise EvalError(
                                "record has no attribute %r" % (src,)
                            )
            row_cache = {}
            continue
        _, masks, residual, env_mode, step_map, step_identity = step
        for entry in masks:
            if not selection:
                break
            is_column, verdicts = _mask_eval(entry, selection, env, datum, run)
            if not is_column:
                if not isinstance(verdicts, bool):
                    raise EvalError(
                        "σ predicate returned non-boolean %r" % (verdicts,)
                    )
                if not verdicts:
                    selection = []
                continue
            kept = []
            for index, verdict in zip(selection, verdicts):
                if not isinstance(verdict, bool):
                    raise EvalError(
                        "σ predicate returned non-boolean %r" % (verdict,)
                    )
                if verdict:
                    kept.append(index)
            selection = kept
        if residual and selection:
            kept = []
            for index in selection:
                row = row_cache.get(index)
                if row is None:
                    row = _fused_row(index, step_map, step_identity, cb, base_rows)
                    row_cache[index] = row
                if all(
                    _check(pred, row, env, run, env_mode)
                    for pred in residual
                ):
                    kept.append(index)
            selection = kept

    # -- materialise the escape ---------------------------------------------
    if identity and len(selection) == len(base_rows):
        result = base_bag
    else:
        if identity:
            out_rows = [base_rows[i] for i in selection]
        else:
            out_rows = []
            for i in selection:
                row = row_cache.get(i)
                if row is None:
                    row = _fused_row(i, colmap, identity, cb, base_rows)
                out_rows.append(row)
        result = Bag(out_rows)
        if len(out_rows) >= _COLUMNAR_ATTACH_MIN and not any(
            isinstance(src, _Absent) for src in colmap.values()
        ):
            result._columnar = ColumnarBag.derived(
                cb, tuple(selection), colmap, tuple(out_rows)
            )
    get_metrics().counter("engine.columnar").inc()
    analyzer = run.analyzer
    if analyzer is not None:
        analyzer.on_columnar(plan, None)
        if plan.input is not base_node:
            # a base read directly was already credited by its frame exit
            analyzer.add_input(plan, len(base_rows))
    return result


# ---------------------------------------------------------------------------
# The join executor
# ---------------------------------------------------------------------------


def _flatten_product(plan: ast.NraeNode) -> List[ast.NraeNode]:
    if isinstance(plan, ast.Product):
        return _flatten_product(plan.left) + _flatten_product(plan.right)
    return [plan]


class _Relation:
    """A materialised factor: rows + certain (∩) and possible (∪) fields."""

    def __init__(
        self, rows: List[Record], domain: FrozenSet[str], union_domain: FrozenSet[str]
    ):
        self.rows = rows
        self.domain = domain
        self.union_domain = union_domain


def _materialise(
    plan: ast.NraeNode, env: Any, datum: Any, run: _Run
) -> Optional[_Relation]:
    value = run.eval(plan, env, datum)
    if not isinstance(value, Bag):
        raise EvalError("× expects a bag, got %r" % (value,))
    rows: List[Record] = []
    domain: Optional[FrozenSet[str]] = None
    union_domain: FrozenSet[str] = frozenset()
    for row in value:
        if not isinstance(row, Record):
            raise EvalError("× expects bags of records, got %r" % (row,))
        row_domain = frozenset(row.domain())
        domain = row_domain if domain is None else (domain & row_domain)
        union_domain = union_domain | row_domain
        rows.append(row)
    if domain is None:
        domain = frozenset()
    return _Relation(rows, domain, union_domain)


def _check(
    pred: ast.NraeNode, row: Record, env: Any, run: _Run, env_mode: bool
) -> bool:
    if env_mode:
        if not isinstance(env, Record):
            raise EvalError("row environment requires a record env, got %r" % (env,))
        verdict = run.eval(pred, env.concat(row), row)
    else:
        verdict = run.eval(pred, env, row)
    if not isinstance(verdict, bool):
        raise EvalError("σ predicate returned non-boolean %r" % (verdict,))
    return verdict


class _Partial:
    """A partial join result: per-factor rows, keyed by factor index.

    Assembling the visible record concatenates the factor rows in
    *original factor order*, reproducing ⊕'s right bias exactly — which
    is what makes self-joins (duplicate field names across factors)
    safe.
    """

    __slots__ = ("indices", "rows")

    def __init__(self, indices: Tuple[int, ...], rows: List[Tuple[Record, ...]]):
        self.indices = indices  # sorted factor indices
        self.rows = rows        # tuples aligned with ``indices``


def _assemble(indices: Tuple[int, ...], row: Tuple[Record, ...]) -> Record:
    record = row[0]
    for part in row[1:]:
        record = record.concat(part)
    return record


def _owner_map(relations: List[_Relation]) -> Dict[str, int]:
    """field → the *last* factor providing it (⊕ favors the right)."""
    owners: Dict[str, int] = {}
    for index, relation in enumerate(relations):
        for field in relation.domain:
            owners[field] = index
    return owners


def _hoist_uncorrelated(
    pred: ast.NraeNode,
    env: Any,
    datum: Any,
    run: _Run,
    env_mode: bool,
    env_domain: FrozenSet[str],
    union_fields: FrozenSet[str],
) -> Optional[ast.NraeNode]:
    """Rewrite ``lhs ∈ rhs`` to ``lhs ∈ Const(bag)`` when ``rhs`` is row-free.

    The reference evaluates the IN subquery once per candidate row;
    when :func:`_analyse_dependence` proves ``rhs`` cannot read the row
    — no visible ``In``, and in env-mode no whole-env exposure and no
    unshadowed ``Env.f`` read that the row could shadow (``f`` both in
    the outer environment and possibly provided by a factor) — its
    value is the same for every row, so it is evaluated once here.
    Reads of fields only rows provide raise on the row-free environment
    and are caught: a correlated subquery simply stays per-row.
    """
    if not (isinstance(pred, ast.Binop) and isinstance(pred.op, ops.OpIn)):
        return None
    rhs = pred.right
    if isinstance(rhs, (ast.Const, ast.ID, ast.Env)):
        return None  # already constant / trivially per-row
    info = _analyse_dependence(rhs)
    if info.reads_input:
        return None
    if env_mode:
        if info.whole_env:
            return None
        for field in info.env_reads:
            if field in env_domain and field in union_fields:
                return None  # the row may shadow an outer field: correlated
    try:
        value = run.eval(rhs, env, datum)
    except (EvalError, DataError):
        return None
    if not isinstance(value, Bag):
        return None
    get_metrics().counter("engine.hoisted_in").inc()
    return ast.Binop(pred.op, pred.left, ast.Const(value))


def _batch_filter(
    conjunct: _Conjunct, env_mode: bool
) -> Optional[Tuple[Path, Any, str]]:
    """(path, payload, kind) for conjuncts runnable as column filters.

    ``row.path ∈ Const(bag)`` becomes one kernel key-index probe per
    row (kind ``"in"``); ``row.path = Const(v)`` one canonical-key
    comparison (kind ``"eq"``).  Anything else stays per-row.
    """
    pred = conjunct.pred
    if conjunct.whole_row or not isinstance(pred, ast.Binop):
        return None
    if isinstance(pred.op, ops.OpIn):
        path = _row_path(pred.left, env_mode)
        if (
            path is not None
            and isinstance(pred.right, ast.Const)
            and isinstance(pred.right.value, Bag)
        ):
            return (path, kernel.key_index(pred.right.value), "in")
    if isinstance(pred.op, ops.OpEq):
        for side, other in ((pred.left, pred.right), (pred.right, pred.left)):
            path = _row_path(side, env_mode)
            if path is not None and isinstance(other, ast.Const):
                return (path, canonical_key(other.value), "eq")
    return None


def _execute_join(select: ast.Select, env: Any, datum: Any, run: _Run) -> Optional[Bag]:
    """Execute ``σ⟨p⟩(q1 × … × qk)`` as a join, or None to fall back."""
    factors = _flatten_product(select.input)
    if len(factors) < 2:
        return _fallback(select, "single_factor", run)
    predicate = select.pred
    env_mode = False
    if (
        isinstance(predicate, ast.AppEnv)
        and isinstance(predicate.before, ast.Binop)
        and isinstance(predicate.before.op, ops.OpConcat)
        and isinstance(predicate.before.left, ast.Env)
        and isinstance(predicate.before.right, ast.ID)
    ):
        # the SQL translator's row shape: p ∘e (Env ⊕ In)
        env_mode = True
        predicate = predicate.after
        if not isinstance(env, Record):
            return _fallback(select, "env_not_record", run)
    conjuncts = [_Conjunct(pred, env_mode) for pred in _conjuncts(predicate)]

    relations = [_materialise(f, env, datum, run) for f in factors]
    owners = _owner_map(relations)
    union_fields = frozenset().union(*(r.union_domain for r in relations))
    outer_fields = frozenset(env.domain()) if isinstance(env, Record) else frozenset()
    for position, conjunct in enumerate(conjuncts):
        hoisted = _hoist_uncorrelated(
            conjunct.pred, env, datum, run, env_mode, outer_fields, union_fields
        )
        if hoisted is not None:
            # re-analyse: the Const right side frees the conjunct from
            # its whole-row classification, enabling pushdown
            conjuncts[position] = _Conjunct(hoisted, env_mode)
    for conjunct in conjuncts:
        if conjunct.whole_row:
            # runs on fully assembled rows — exactly like the reference
            continue
        for field in conjunct.fields:
            if field in owners:
                # certainly provided by a factor; but another factor
                # might sometimes provide it too (heterogeneous rows):
                if any(
                    field in relations[i].union_domain
                    and field not in relations[i].domain
                    for i in range(len(relations))
                ):
                    return _fallback(select, "ambiguous_field", run)
            elif env_mode and field in outer_fields and field not in union_fields:
                # an outer-environment read, constant across rows — fine
                pass
            else:
                return _fallback(select, "unresolved_field", run)
        if conjunct.equality is not None:
            f_path, g_path = conjunct.equality
            if f_path[0] not in owners or g_path[0] not in owners:
                conjunct.equality = None  # outer-env side: plain filter
        conjunct.batch = _batch_filter(conjunct, env_mode)

    def key_column(partial: _Partial, rows, path: Path) -> List[tuple]:
        # canonical keys of the value the full row will have: the last
        # joined factor's (readiness guarantees the global last owner is
        # joined).  One batch pass through the kernel key cache.
        position = partial.indices.index(owners[path[0]])
        try:
            return batch.path_keys([row[position] for row in rows], path)
        except DataError as exc:
            raise EvalError("join key %r: %s" % (path, exc)) from exc

    def join_resolve(path: Path):
        # a column getter over a _Partial: the owning factor's values.
        # Readiness (apply_ready) guarantees the owner is joined, and
        # ⊕'s right bias makes the last owner's value the row's value —
        # but only certainly-present fields qualify (a sometimes-absent
        # field must error per row, on exactly the rows lacking it).
        head = path[0]
        owner = owners.get(head)
        if owner is None or head not in relations[owner].domain:
            return None
        if len(path) == 1:

            def getter(partial, owner=owner, head=head):
                position = partial.indices.index(owner)
                return [row[position][head] for row in partial.rows]

            return getter
        field = path[1]

        def nested_getter(partial, owner=owner, head=head, field=field, path=path):
            position = partial.indices.index(owner)
            out = []
            for row in partial.rows:
                value = row[position][head]
                if not isinstance(value, Record):
                    raise EvalError(
                        "path %s: %r is not a record" % (".".join(path), value)
                    )
                try:
                    out.append(value[field])
                except DataError as exc:
                    raise EvalError(str(exc)) from exc
            return out

        return nested_getter

    def check_rows(partial: _Partial, conjunct: _Conjunct) -> _Partial:
        if conjunct.batch is not None and conjunct.batch[0][0] in owners:
            path, payload, kind = conjunct.batch
            keys = key_column(partial, partial.rows, path)
            if kind == "in":
                kept = batch.filter_member(partial.rows, keys, payload)
            else:
                kept = batch.filter_equal(partial.rows, keys, payload)
            return _Partial(partial.indices, kept)
        if not conjunct.whole_row and partial.rows:
            entry = conjunct.columnar
            if entry is _UNSET:
                entry = _compile_mask(
                    conjunct.pred, env_mode, join_resolve, union_fields
                )
                conjunct.columnar = entry
            if entry is not None:
                is_column, verdicts = _mask_eval(
                    entry, partial, env, datum, run
                )
                if not is_column:
                    if not isinstance(verdicts, bool):
                        raise EvalError(
                            "σ predicate returned non-boolean %r" % (verdicts,)
                        )
                    kept = list(partial.rows) if verdicts else []
                else:
                    kept = []
                    for row, verdict in zip(partial.rows, verdicts):
                        if not isinstance(verdict, bool):
                            raise EvalError(
                                "σ predicate returned non-boolean %r" % (verdict,)
                            )
                        if verdict:
                            kept.append(row)
                get_metrics().counter("engine.columnar_filter").inc()
                analyzer = run.analyzer
                if analyzer is not None:
                    analyzer.on_columnar(select, None)
                return _Partial(partial.indices, kept)
        kept = [
            row
            for row in partial.rows
            if _check(
                conjunct.pred,
                _assemble(partial.indices, row),
                env,
                run,
                env_mode,
            )
        ]
        return _Partial(partial.indices, kept)

    def apply_ready(partial: _Partial) -> _Partial:
        joined = set(partial.indices)
        for conjunct in conjuncts:
            if conjunct.applied:
                continue
            # A conjunct is safe once, for each *factor-owned* field it
            # reads, the field's *last* owner is joined: the partial's
            # ⊕-assembled value then equals the full row's value.
            # (Outer-environment fields are constants — always ready;
            # whole-row conjuncts wait for the complete row.)
            if conjunct.whole_row:
                ready = len(joined) == len(relations)
            else:
                ready = all(
                    owners[field] in joined
                    for field in conjunct.fields
                    if field in owners
                )
            if ready:
                partial = check_rows(partial, conjunct)
                conjunct.applied = True
        return partial

    partials: Dict[int, _Partial] = {
        index: apply_ready(
            _Partial((index,), [(row,) for row in relation.rows])
        )
        for index, relation in enumerate(relations)
    }

    def merge(left: _Partial, right: _Partial, rows) -> _Partial:
        # interleave the two index tuples, keeping original order
        indices = tuple(sorted(left.indices + right.indices))
        # mapping from combined sorted order to (side, position)
        slots = sorted(
            [(idx, 0, pos) for pos, idx in enumerate(left.indices)]
            + [(idx, 1, pos) for pos, idx in enumerate(right.indices)]
        )
        merged_rows = []
        for l_row, r_row in rows:
            sides = (l_row, r_row)
            merged_rows.append(tuple(sides[side][pos] for _, side, pos in slots))
        return _Partial(indices, merged_rows)

    def hash_join(
        left: _Partial, right: _Partial, keys: Sequence[Tuple[Path, Path]]
    ) -> _Partial:
        right_columns = [key_column(right, right.rows, g) for _, g in keys]
        index: Dict[tuple, List[Tuple[Record, ...]]] = {}
        for row, key in zip(right.rows, zip(*right_columns)):
            index.setdefault(key, []).append(row)
        left_columns = [key_column(left, left.rows, f) for f, _ in keys]
        pairs = []
        for row, key in zip(left.rows, zip(*left_columns)):
            for match in index.get(key, ()):
                pairs.append((row, match))
        return merge(left, right, pairs)

    remaining = set(partials)
    start = min(remaining, key=lambda i: len(partials[i].rows))
    current = partials[start]
    remaining.discard(start)

    while remaining:
        joined = set(current.indices)
        best_index: Optional[int] = None
        best_keys: List[Tuple[Path, Path]] = []
        for index in remaining:
            candidate = set(partials[index].indices)
            keys: List[Tuple[Path, Path]] = []
            for conjunct in conjuncts:
                if conjunct.applied or conjunct.equality is None:
                    continue
                f, g = conjunct.equality
                if owners[f[0]] in joined and owners[g[0]] in candidate:
                    keys.append((f, g))
                elif owners[g[0]] in joined and owners[f[0]] in candidate:
                    keys.append((g, f))
            if keys and (best_index is None or len(keys) > len(best_keys)):
                best_index, best_keys = index, keys
        if best_index is None:
            best_index = min(remaining, key=lambda i: len(partials[i].rows))
            other = partials[best_index]
            pairs = [(l, r) for l in current.rows for r in other.rows]
            current = merge(current, other, pairs)
        else:
            for key_pair in best_keys:
                for conjunct in conjuncts:
                    if conjunct.equality in (key_pair, (key_pair[1], key_pair[0])):
                        conjunct.applied = True
            current = hash_join(current, partials[best_index], best_keys)
        remaining.discard(best_index)
        current = apply_ready(current)

    records = [_assemble(current.indices, row) for row in current.rows]
    for conjunct in conjuncts:
        if not conjunct.applied:
            records = [
                row
                for row in records
                if _check(conjunct.pred, row, env, run, env_mode)
            ]
    get_metrics().counter("engine.join").inc()
    analyzer = run.analyzer
    if analyzer is not None:
        # The join consumed the factors directly (the Product node never
        # ran): report the hash-join path and the true input cardinality
        # on the Select node itself.
        analyzer.on_join(select, None)
        analyzer.add_input(select, sum(len(r.rows) for r in relations))
    return Bag(records)


# ---------------------------------------------------------------------------
# The physical group-by
# ---------------------------------------------------------------------------


def _key_record_fields(node: ast.NraeNode) -> Optional[List[Tuple[str, str]]]:
    """Parse ``[n1: In.f1] ⊕ … ⊕ [nk: In.fk]`` into ``(name, field)`` pairs.

    This is the shape :func:`repro.nraenv.builders.record` folds ``⊕``
    into for a pure field projection; pairs come back in ⊕ order, so a
    repeated output name must be resolved right-biased by the caller.
    """
    pairs: List[Tuple[str, str]] = []

    def parse(n: ast.NraeNode) -> bool:
        if isinstance(n, ast.Binop) and isinstance(n.op, ops.OpConcat):
            return parse(n.left) and parse(n.right)
        if (
            isinstance(n, ast.Unop)
            and isinstance(n.op, ops.OpRec)
            and isinstance(n.arg, ast.Unop)
            and isinstance(n.arg.op, ops.OpDot)
            and isinstance(n.arg.arg, ast.ID)
        ):
            pairs.append((n.op.field, n.arg.op.field))
            return True
        return False

    if parse(node):
        return pairs
    return None


class _GroupBy:
    """A matched derived group-by: bucket ``source`` by ``key_fields``."""

    __slots__ = ("source", "key_fields", "partition_field", "key_env_field")

    def __init__(
        self,
        source: ast.NraeNode,
        key_fields: List[Tuple[str, str]],
        partition_field: str,
        key_env_field: str,
    ):
        self.source = source
        self.key_fields = key_fields
        self.partition_field = partition_field
        self.key_env_field = key_env_field


def _is_group_candidate(plan: ast.Map) -> bool:
    """Cheap guard: the only χ shape worth running the full match on."""
    return (
        isinstance(plan.input, ast.Unop)
        and isinstance(plan.input.op, ops.OpDistinct)
        and isinstance(plan.body, ast.AppEnv)
    )


def _match_group_by(plan: ast.Map) -> Optional[_GroupBy]:
    """Match the derived group-by (paper §3.2 / ``builders.group_by``).

        χ⟨(In ⊕ [P: σ⟨K(In) = Env.G⟩(q)]) ∘e (Env ⊕ [G: In])⟩(♯distinct(χ⟨K(In)⟩(q)))

    where ``K`` is a pure field-projection record.  Purely syntactic;
    the soundness conditions on ``q`` are checked by
    :func:`_execute_group_by` (reason ``group_shape``), so a near-miss
    here counts as ``group_pattern``.
    """
    keys_map = plan.input.arg
    if not isinstance(keys_map, ast.Map):
        return None
    key_record, source = keys_map.body, keys_map.input
    pairs = _key_record_fields(key_record)
    if pairs is None:
        return None
    body = plan.body
    before = body.before
    if not (
        isinstance(before, ast.Binop)
        and isinstance(before.op, ops.OpConcat)
        and isinstance(before.left, ast.Env)
        and isinstance(before.right, ast.Unop)
        and isinstance(before.right.op, ops.OpRec)
        and isinstance(before.right.arg, ast.ID)
    ):
        return None
    key_env_field = before.right.op.field
    after = body.after
    if not (
        isinstance(after, ast.Binop)
        and isinstance(after.op, ops.OpConcat)
        and isinstance(after.left, ast.ID)
        and isinstance(after.right, ast.Unop)
        and isinstance(after.right.op, ops.OpRec)
    ):
        return None
    partition_field = after.right.op.field
    select = after.right.arg
    if not isinstance(select, ast.Select) or select.input != source:
        return None
    pred = select.pred
    if not (isinstance(pred, ast.Binop) and isinstance(pred.op, ops.OpEq)):
        return None
    env_key = ast.Unop(ops.OpDot(key_env_field), ast.Env())
    if not (
        (pred.left == key_record and pred.right == env_key)
        or (pred.right == key_record and pred.left == env_key)
    ):
        return None
    return _GroupBy(source, pairs, partition_field, key_env_field)


def _execute_group_by(
    plan: ast.Map,
    spec: _GroupBy,
    env: Any,
    datum: Any,
    run: _Run,
) -> Optional[Bag]:
    """One-pass physical group-by for a matched derived encoding.

    Evaluates ``q`` once, buckets its rows by the canonical keys of the
    projected fields (the exact equality ``σ⟨K(In) = Env.G⟩`` applies,
    since record equality over fixed names is per-field canonical-key
    equality), and emits ``K(first) ⊕ [partition: bucket]`` per bucket
    in first-occurrence order (``♯distinct`` keeps first occurrences).

    Soundness: the encoding evaluates the partition's ``q`` with the
    group key as datum, under ``Env ⊕ [G: key]`` — whereas we evaluate
    ``q`` once in the *original* context.  So ``q`` must not read the
    ambient ``In``, must not read ``Env.G`` unshadowed, and must not
    expose the ambient environment whole (:func:`_analyse_dependence`).
    Returns ``None`` (after counting ``group_shape``) if that analysis
    or the runtime data shape (not a bag of records carrying every key
    field) fails.
    """
    info = _analyse_dependence(spec.source)
    if (
        info.reads_input
        or info.whole_env
        or spec.key_env_field in info.env_reads
    ):
        return _group_fallback(plan, "group_shape", run)
    source = run.eval(spec.source, env, datum)
    if not isinstance(source, Bag):
        return _group_fallback(plan, "group_shape", run)
    # right-biased effective key: a repeated output name keeps the last
    # source field, but the shadowed fields must still exist on every
    # row (the reference key projection reads them before ⊕ drops them)
    effective: Dict[str, str] = {}
    for name, field in spec.key_fields:
        effective[name] = field
    bucket_fields = list(effective.values())
    last = {name: i for i, (name, _) in enumerate(spec.key_fields)}
    extra = [f for i, (name, f) in enumerate(spec.key_fields) if last[name] != i]
    cb = columnar.cached_columnar(source)
    try:
        if cb is not None and all(
            cb.has_field(f) and not cb.has_missing(f)
            for f in set(bucket_fields) | set(extra)
        ):
            # the source is already columnar (a registered dataset or a
            # fused-chain output): bucket by its cached key columns
            buckets = batch.group_rows(cb, bucket_fields)
        else:
            if extra:
                for row in source.items:
                    for field in extra:
                        kernel.field_key(row, field)
            buckets = batch.group_rows(source.items, bucket_fields)
    except DataError:
        return _group_fallback(plan, "group_shape", run)
    partition = spec.partition_field
    out = []
    for rows in buckets.values():
        first = rows[0]
        group = {name: first[field] for name, field in spec.key_fields}
        group[partition] = batch.partition_bag(rows)
        out.append(Record(group))
    get_metrics().counter("engine.group_by").inc()
    analyzer = run.analyzer
    if analyzer is not None:
        analyzer.on_group(plan, None)
        analyzer.add_input(plan, len(source.items))
    return Bag(out)


# ---------------------------------------------------------------------------
# The evaluator: reference semantics + the join fast path
# ---------------------------------------------------------------------------


def _eval_plain(run: _Run, plan: ast.NraeNode, env: Any, datum: Any) -> Any:
    if isinstance(plan, ast.Select) and isinstance(plan.input, ast.Product):
        result = _execute_join(plan, env, datum, run)
        if result is not None:
            return result
    elif isinstance(plan, ast.Select):
        result = _execute_fused(plan, env, datum, run)
        if result is not None:
            return result
    # Structural recursion mirroring the reference semantics but looping
    # through this evaluator (so nested σ-× shapes also get the engine).
    if isinstance(plan, ast.App):
        return run.eval(plan.after, env, run.eval(plan.before, env, datum))
    if isinstance(plan, ast.AppEnv):
        return run.eval(plan.after, run.eval(plan.before, env, datum), datum)
    if isinstance(plan, ast.Unop):
        value = run.eval(plan.arg, env, datum)
        try:
            return plan.op.apply(value)
        except Exception as exc:  # DataError
            raise EvalError(str(exc)) from exc
    if isinstance(plan, ast.Binop):
        left = run.eval(plan.left, env, datum)
        right = run.eval(plan.right, env, datum)
        try:
            return plan.op.apply(left, right)
        except Exception as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(plan, ast.Map):
        if _is_group_candidate(plan):
            spec = _match_group_by(plan)
            if spec is None:
                _group_fallback(plan, "group_pattern", run)
            else:
                result = _execute_group_by(plan, spec, env, datum, run)
                if result is not None:
                    return result
        elif isinstance(plan.input, (ast.Select, ast.Map)):
            # a χ rooting a fusable chain (projection/alias over σ stages)
            result = _execute_fused(plan, env, datum, run)
            if result is not None:
                return result
        source = run.eval(plan.input, env, datum)
        if not isinstance(source, Bag):
            raise EvalError("χ expects a bag, got %r" % (source,))
        body = plan.body
        if isinstance(body, ast.Unop) and isinstance(body.arg, ast.ID):
            # batch map: a pure unary over the row needs no dispatch
            try:
                return Bag([body.op.apply(item) for item in source.items])
            except DataError as exc:
                raise EvalError(str(exc)) from exc
        projection = _key_record_fields(body)
        if projection is not None:
            try:
                return Bag(batch.project_records(source.items, projection))
            except DataError as exc:
                raise EvalError(str(exc)) from exc
        return Bag(run.eval(plan.body, env, item) for item in source)
    if isinstance(plan, ast.Select):
        source = run.eval(plan.input, env, datum)
        if not isinstance(source, Bag):
            raise EvalError("σ expects a bag, got %r" % (source,))
        kept = []
        for item in source:
            verdict = run.eval(plan.pred, env, item)
            if not isinstance(verdict, bool):
                raise EvalError("σ predicate returned non-boolean %r" % (verdict,))
            if verdict:
                kept.append(item)
        return Bag(kept)
    if isinstance(plan, ast.Product):
        left = run.eval(plan.left, env, datum)
        if not isinstance(left, Bag):
            raise EvalError("× expects a bag, got %r" % (left,))
        if not left:
            return Bag([])
        right = run.eval(plan.right, env, datum)
        if not isinstance(right, Bag):
            raise EvalError("× expects a bag, got %r" % (right,))
        return _product(left, right)
    if isinstance(plan, ast.DepJoin):
        source = run.eval(plan.input, env, datum)
        if not isinstance(source, Bag):
            raise EvalError("⋈d expects a bag, got %r" % (source,))
        out = []
        for item in source:
            dependent = run.eval(plan.body, env, item)
            if not isinstance(dependent, Bag):
                raise EvalError("⋈d body expects a bag, got %r" % (dependent,))
            out.extend(_product(Bag([item]), dependent).items)
        return Bag(out)
    if isinstance(plan, ast.Default):
        left = run.eval(plan.left, env, datum)
        if isinstance(left, Bag) and not left:
            return run.eval(plan.right, env, datum)
        return left
    if isinstance(plan, ast.MapEnv):
        if not isinstance(env, Bag):
            raise EvalError("χe requires a bag environment, got %r" % (env,))
        return Bag(run.eval(plan.body, item, datum) for item in env)
    # leaves: delegate to the reference evaluator
    return eval_nraenv(plan, env, datum, run.constants)


def _eval_analyzed(run: _Run, plan: ast.NraeNode, env: Any, datum: Any) -> Any:
    """The dispatcher of an analyzed run: times every node."""
    analyzer = run.analyzer
    stats = analyzer.enter(plan)
    start = time.perf_counter()
    try:
        result = _eval_plain(run, plan, env, datum)
    except BaseException:
        analyzer.exit_error(stats, time.perf_counter() - start)
        raise
    analyzer.exit(stats, time.perf_counter() - start, result)
    return result


class _Run:
    """One :func:`eval_fast` call: its constants, analyzer and dispatcher.

    Every internal function takes the run where the reference evaluator
    takes ``constants``, and recurses through the ``run.eval`` method —
    the plain dispatcher here, the timing one on :class:`_AnalyzedRun`.
    """

    __slots__ = ("constants", "analyzer")

    eval = _eval_plain

    def __init__(self, constants: Mapping[str, Any], analyzer=None):
        self.constants = constants
        self.analyzer = analyzer


class _AnalyzedRun(_Run):
    __slots__ = ()

    eval = _eval_analyzed


def _product(left: Bag, right: Bag) -> Bag:
    try:
        return kernel.product(left, right)
    except DataError as exc:
        raise EvalError(str(exc)) from exc
