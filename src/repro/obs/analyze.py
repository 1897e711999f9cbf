"""EXPLAIN ANALYZE: per-plan-node runtime statistics for NRAe execution.

PR 2's spans and metrics say *where time goes* in the pipeline; this
module says *what each plan operator did*: how often it ran, how many
rows it consumed and produced, how long it took, and — for ``σ`` over
``×`` shapes — whether the join engine took the hash-join path or fell
back to the reference semantics (and why).  That is exactly the data a
cardinality-aware cost model needs, and :func:`calibration_report`
closes the loop by rank-correlating the structural
``size_depth_cost`` against the measured cardinalities.

Overhead discipline
-------------------

Analysis is a per-call argument: ``eval_fast(plan, env, datum,
constants, analyzer=AnalyzeCollector())``.  The engine picks its timing
dispatcher for that call only and carries it (with the collector) in a
per-call run object, so an unanalyzed call runs the plain dispatcher
with no extra work, and concurrent calls — analyzed or not — never
share a collector.  No lock and no module-level switch is involved.

This module deliberately imports no AST classes at module level (the
evaluators import :mod:`repro.obs`, so importing them back here would
cycle); node structure is read by duck typing and the evaluator /
cost-model imports happen lazily inside functions.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.data.model import Bag
from repro.obs.context import current_query_id

#: Node-class name → (paper symbol, names of input-bag children).  The
#: "input" children are the ones whose output bag the node consumes
#: wholesale — the cardinality its stats report as ``in_rows``.  Bodies
#: and predicates run per-row and are not inputs in this sense.
_NODE_SHAPE = {
    "Const": ("$", ()),
    "ID": ("In", ()),
    "GetConstant": ("table", ()),
    "App": ("∘", ()),
    "Unop": ("⊞", ()),
    "Binop": ("⊞", ()),
    "Map": ("χ", ("input",)),
    "Select": ("σ", ("input",)),
    "Product": ("×", ("left", "right")),
    "DepJoin": ("⋈d", ("input",)),
    "Default": ("||", ()),
    "Env": ("Env", ()),
    "AppEnv": ("∘e", ()),
    "MapEnv": ("χe", ()),
}


def node_label(node) -> str:
    """A one-line operator label: paper symbol plus salient detail."""
    kind = type(node).__name__
    symbol = _NODE_SHAPE.get(kind, (kind, ()))[0]
    cname = getattr(node, "cname", None)
    if kind == "GetConstant" and cname is not None:
        return "table(%s)" % cname
    op = getattr(node, "op", None)
    if kind in ("Unop", "Binop") and op is not None:
        return type(op).__name__
    if kind == "Const":
        return "$%r" % (getattr(node, "value", None),)
    return symbol


def _input_children(node) -> Tuple[Any, ...]:
    """The children whose whole output bag this node consumes."""
    kind = type(node).__name__
    names = _NODE_SHAPE.get(kind, (kind, ()))[1]
    return tuple(getattr(node, name) for name in names)


class NodeStats(object):
    """Measured behaviour of one plan node across an execution.

    - ``calls`` — times the evaluator dispatched this node;
    - ``in_rows`` — total rows consumed from input-bag children (for
      ``σ``/``χ``/``⋈d`` their source, for ``×`` both sides; attributed
      by the collector when an input child's frame exits directly under
      this node's frame);
    - ``out_rows`` / ``out_bags`` / ``max_rows`` — total and peak
      cardinality of bag results (non-bag results leave these at 0);
    - ``seconds`` — inclusive wall time; ``self_seconds`` subtracts
      time spent in child frames;
    - ``hash_joins`` / ``group_bys`` / ``columnar`` / ``fallbacks`` —
      engine outcomes for this node: hash-join path taken, physical
      group-by taken, fused columnar pass taken, or reference fallback
      (``fallbacks`` maps reason → count);
    - ``errors`` — evaluations that raised.
    """

    __slots__ = (
        "node",
        "calls",
        "in_rows",
        "out_rows",
        "out_bags",
        "max_rows",
        "seconds",
        "child_seconds",
        "hash_joins",
        "group_bys",
        "columnar",
        "fallbacks",
        "errors",
        "input_ids",
    )

    def __init__(self, node):
        self.node = node
        self.calls = 0
        self.in_rows = 0
        self.out_rows = 0
        self.out_bags = 0
        self.max_rows = 0
        self.seconds = 0.0
        self.child_seconds = 0.0
        self.hash_joins = 0
        self.group_bys = 0
        self.columnar = 0
        self.fallbacks: Dict[str, int] = {}
        self.errors = 0
        self.input_ids = frozenset(id(child) for child in _input_children(node))

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - self.child_seconds)

    @property
    def mean_out_rows(self) -> float:
        return self.out_rows / self.out_bags if self.out_bags else 0.0

    def describe(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "label": node_label(self.node),
            "calls": self.calls,
            "in_rows": self.in_rows,
            "out_rows": self.out_rows,
            "max_rows": self.max_rows,
            "seconds": self.seconds,
            "self_seconds": self.self_seconds,
        }
        if self.hash_joins:
            out["hash_joins"] = self.hash_joins
        if self.group_bys:
            out["group_bys"] = self.group_bys
        if self.columnar:
            out["columnar"] = self.columnar
        if self.fallbacks:
            out["fallbacks"] = dict(self.fallbacks)
        if self.errors:
            out["errors"] = self.errors
        return out


class AnalyzeCollector(object):
    """Receives evaluator enter/exit events and accumulates NodeStats.

    Keyed by ``id(node)``; the stats hold the node reference, which
    also pins the object alive so ids cannot be reused mid-run.  A
    frame stack attributes child output to the parent's ``in_rows``
    (only for children the parent consumes as input bags) and child
    time to the parent's ``child_seconds``.

    One collector serves one execution: it is not shared across threads.
    """

    def __init__(self) -> None:
        self.stats: Dict[int, NodeStats] = {}
        self._stack: List[NodeStats] = []

    # -- evaluator hooks ---------------------------------------------------

    def enter(self, node) -> NodeStats:
        stats = self.stats.get(id(node))
        if stats is None:
            stats = NodeStats(node)
            self.stats[id(node)] = stats
        stats.calls += 1
        self._stack.append(stats)
        return stats

    def exit(self, stats: NodeStats, elapsed: float, result) -> None:
        self._stack.pop()
        stats.seconds += elapsed
        if self._stack:
            parent = self._stack[-1]
            parent.child_seconds += elapsed
            if isinstance(result, Bag) and id(stats.node) in parent.input_ids:
                parent.in_rows += len(result)
        if isinstance(result, Bag):
            size = len(result)
            stats.out_bags += 1
            stats.out_rows += size
            if size > stats.max_rows:
                stats.max_rows = size

    def exit_error(self, stats: NodeStats, elapsed: float) -> None:
        self._stack.pop()
        stats.seconds += elapsed
        stats.errors += 1
        if self._stack:
            self._stack[-1].child_seconds += elapsed

    def on_join(self, node, reason: Optional[str]) -> None:
        """Join-engine outcome for a ``σ(×)`` node: hash join or fallback."""
        stats = self.stats.get(id(node))
        if stats is None:
            stats = NodeStats(node)
            self.stats[id(node)] = stats
        if reason is None:
            stats.hash_joins += 1
        else:
            stats.fallbacks[reason] = stats.fallbacks.get(reason, 0) + 1

    def on_group(self, node, reason: Optional[str]) -> None:
        """Group-by outcome for a candidate ``χ`` node: physical or fallback."""
        stats = self.stats.get(id(node))
        if stats is None:
            stats = NodeStats(node)
            self.stats[id(node)] = stats
        if reason is None:
            stats.group_bys += 1
        else:
            stats.fallbacks[reason] = stats.fallbacks.get(reason, 0) + 1

    def on_columnar(self, node, reason: Optional[str]) -> None:
        """Fused-columnar outcome for a chain root (or a join's σ node)."""
        stats = self.stats.get(id(node))
        if stats is None:
            stats = NodeStats(node)
            self.stats[id(node)] = stats
        if reason is None:
            stats.columnar += 1
        else:
            stats.fallbacks[reason] = stats.fallbacks.get(reason, 0) + 1

    def add_input(self, node, rows: int) -> None:
        """Credit input rows consumed outside the frame protocol (joins)."""
        stats = self.stats.get(id(node))
        if stats is not None:
            stats.in_rows += rows

    # -- derived views -----------------------------------------------------

    def stats_for(self, node) -> Optional[NodeStats]:
        return self.stats.get(id(node))

    def peak_rows(self) -> int:
        """The largest intermediate bag any node produced."""
        return max((s.max_rows for s in self.stats.values()), default=0)

    def join_engine(self) -> Dict[str, Any]:
        """Aggregate engine outcomes across all nodes, JSON-safe."""
        hash_joins = 0
        group_bys = 0
        columnar = 0
        fallbacks: Dict[str, int] = {}
        for stats in self.stats.values():
            hash_joins += stats.hash_joins
            group_bys += stats.group_bys
            columnar += stats.columnar
            for reason, count in stats.fallbacks.items():
                fallbacks[reason] = fallbacks.get(reason, 0) + count
        return {
            "hash_joins": hash_joins,
            "group_bys": group_bys,
            "columnar": columnar,
            "fallbacks": fallbacks,
        }

    def hot_operators(self, n: int = 3) -> List[Dict[str, Any]]:
        """The top-``n`` nodes by self time, as plain dicts."""
        ranked = sorted(self.stats.values(), key=lambda s: s.self_seconds, reverse=True)
        return [
            {
                "label": node_label(s.node),
                "self_seconds": s.self_seconds,
                "calls": s.calls,
                "out_rows": s.out_rows,
            }
            for s in ranked[:n]
        ]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _ms(seconds: float) -> str:
    return "%.3f ms" % (seconds * 1e3)


def _node_annotation(stats: Optional[NodeStats]) -> str:
    from repro.nraenv.exec import FALLBACK_LABELS

    if stats is None or stats.calls == 0:
        return "(not executed)"
    parts = ["calls=%d" % stats.calls]
    if stats.in_rows:
        parts.append("in=%d" % stats.in_rows)
    if stats.out_bags:
        parts.append("out=%d" % stats.out_rows)
        if stats.calls > 1:
            parts.append("max=%d" % stats.max_rows)
    parts.append("time=%s" % _ms(stats.seconds))
    parts.append("self=%s" % _ms(stats.self_seconds))
    if stats.hash_joins:
        parts.append("hash join x%d" % stats.hash_joins)
    if stats.group_bys:
        parts.append("physical group-by x%d" % stats.group_bys)
    if stats.columnar:
        parts.append("fused columnar x%d" % stats.columnar)
    for reason, count in sorted(stats.fallbacks.items()):
        parts.append(
            "fallback: %dx %s" % (count, FALLBACK_LABELS.get(reason, reason))
        )
    if stats.errors:
        parts.append("errors=%d" % stats.errors)
    return "  ".join(parts)


def render_analyze(plan, collector: AnalyzeCollector) -> str:
    """The plan tree, one node per line, annotated with measured stats."""
    lines: List[str] = []

    def walk(node, depth: int) -> None:
        stats = collector.stats_for(node)
        annotation = _node_annotation(stats)
        label = node_label(node)
        lines.append("%s%-*s %s" % ("  " * depth, max(1, 30 - 2 * depth), label, annotation))
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines) + "\n"


def calibration_report(plan, collector: AnalyzeCollector, cost_fn=None) -> str:
    """Structural cost vs measured cardinality, with a rank correlation.

    For every *executed* node the table shows the cost model's score for
    the node's subtree next to the measured total output rows; the
    Spearman rank correlation across those pairs summarizes how well
    the structural model orders operators by actual data volume (the
    paper's §6 admits the model is size+depth only — this report is the
    measuring stick a cardinality-aware replacement will be judged by).
    """
    from repro.optim.cost import node_costs, size_depth_cost, spearman_rank_correlation

    if cost_fn is None:
        cost_fn = size_depth_cost
    costs = node_costs(plan, cost_fn)
    rows: List[Tuple[str, int, NodeStats]] = []
    seen: set = set()
    for node in plan.walk():
        if id(node) in seen:
            continue  # optimizer-shared subtrees appear once per pair
        seen.add(id(node))
        stats = collector.stats_for(node)
        if stats is None or stats.calls == 0:
            continue
        rows.append((node_label(node), costs[id(node)], stats))
    lines = ["== Cost-model calibration (structural cost vs measured rows) =="]
    if not rows:
        lines.append("(no nodes executed)")
        return "\n".join(lines) + "\n"
    lines.append(
        "%-24s %12s %12s %12s" % ("operator", "cost", "out_rows", "self_ms")
    )
    for label, cost, stats in sorted(rows, key=lambda r: r[1], reverse=True):
        lines.append(
            "%-24s %12d %12d %12.3f"
            % (label[:24], cost, stats.out_rows, stats.self_seconds * 1e3)
        )
    xs = [float(cost) for _, cost, _ in rows]
    ys = [float(stats.out_rows) for _, _, stats in rows]
    rho = spearman_rank_correlation(xs, ys)
    if rho is None:
        lines.append("rank correlation: n/a (fewer than 2 distinct points)")
    else:
        lines.append("rank correlation (cost vs out_rows): ρ = %+.3f over %d nodes" % (rho, len(rows)))
    return "\n".join(lines) + "\n"


def analysis_summary(collector: AnalyzeCollector, plan=None) -> Dict[str, Any]:
    """A JSON-safe digest: peak cardinality, hottest operators, node count.

    With ``plan`` given, also includes the rendered tree (one string) —
    the wire-level ``execute {"analyze": true}`` response uses this.
    Inside a service request the digest carries the request's
    ``query_id``, so an archived analyze report joins against the
    telemetry record, query-log audit event, and kept trace fragment
    for the same execution.
    """
    summary: Dict[str, Any] = {
        "peak_rows": collector.peak_rows(),
        "hot": collector.hot_operators(),
        "nodes": len(collector.stats),
        "join_engine": collector.join_engine(),
    }
    query_id = current_query_id()
    if query_id is not None:
        summary["query_id"] = query_id
    if plan is not None:
        summary["tree"] = render_analyze(plan, collector)
    return summary


def analyze_json(plan, collector: AnalyzeCollector) -> Dict[str, Any]:
    """The annotated plan tree as nested JSON-safe dicts.

    The machine-readable twin of :func:`render_analyze`: one dict per
    plan node with the operator label, the measured stats (``None`` for
    nodes that never executed), and the node's children in plan order —
    what ``repro explain --analyze --format json`` emits for the query
    log and external tooling.
    """
    def walk(node) -> Dict[str, Any]:
        stats = collector.stats_for(node)
        return {
            "label": node_label(node),
            "stats": stats.describe() if stats is not None and stats.calls else None,
            "children": [walk(child) for child in node.children()],
        }

    return walk(plan)


def calibration_data(plan, collector: AnalyzeCollector, cost_fn=None) -> Dict[str, Any]:
    """The cost-model calibration as JSON-safe data.

    The machine-readable twin of :func:`calibration_report`: per
    executed node the structural cost, measured output rows, and self
    time, plus the tie-averaged Spearman ρ over the (cost, out_rows)
    pairs (``None`` with fewer than two distinct points).
    """
    from repro.optim.cost import node_costs, size_depth_cost, spearman_rank_correlation

    if cost_fn is None:
        cost_fn = size_depth_cost
    costs = node_costs(plan, cost_fn)
    rows: List[Dict[str, Any]] = []
    seen: set = set()
    for node in plan.walk():
        if id(node) in seen:
            continue
        seen.add(id(node))
        stats = collector.stats_for(node)
        if stats is None or stats.calls == 0:
            continue
        rows.append(
            {
                "operator": node_label(node),
                "cost": costs[id(node)],
                "out_rows": stats.out_rows,
                "self_seconds": stats.self_seconds,
            }
        )
    xs = [float(row["cost"]) for row in rows]
    ys = [float(row["out_rows"]) for row in rows]
    return {
        "rows": sorted(rows, key=lambda row: row["cost"], reverse=True),
        "spearman_rho": spearman_rank_correlation(xs, ys),
    }
