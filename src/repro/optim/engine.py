"""The rewrite engine (paper §8, "Optimizer").

"The optimization infrastructure is parameterized by a list of rewrites
and a cost function.  All possible rewrites are applied through a
depth-first AST traversal and optimization proceeds as long as the cost
is decreasing."

A :class:`Rewrite` is a named pattern-match-based transformation: a
function from plan to plan that returns the input unchanged when it does
not apply (exactly the shape of the Coq ``*_fun`` definitions in the
paper's introduction).  The engine runs passes of depth-first (bottom-up)
application over the whole AST and keeps iterating while the plan's cost
decreases, collecting per-rule fire counts for the experiment analyses.

The search is the paper's; two facts keep its cost down without
changing any result (plans, fire counts, passes, cost trajectory):

- *Head dispatch.*  Each rule declares ``heads``, the node classes its
  root match requires.  At a node the engine tries only the rules whose
  heads admit the node's class, in the original rule order, and looks
  the list up again after every fire (the rewritten node may be of
  another class).
- *Settled subtrees.*  A node is settled once a full scan of its rules
  fired nothing and all its children are settled.  Nodes are immutable
  and rules are pure functions of the node, so a later visit would
  return it unchanged; within one :func:`optimize` call the engine
  returns a settled node without visiting it.  A node that ran out of
  ``_MAX_LOCAL_STEPS`` is not settled.

Observability: when the global tracer (:mod:`repro.obs.trace`) is
enabled — or a :class:`ProvenanceLog` is passed explicitly — the engine
records a **rewrite provenance log**: the ordered firings (rule name,
node size before/after, pass number), the cost trajectory across
passes, per-rule attempt counts and cumulative wall-clock time, and the
reason the run terminated.  ``repro explain`` renders this log.  Traced
and untraced runs share one traversal; with the null tracer the only
cost of the log is one flag test per attempt and one ``is None`` check
per fire.
"""

from __future__ import annotations

import operator
import time
from typing import Any, Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.obs.trace import get_tracer
from repro.optim.cost import Cost, size_depth_cost

Plan = TypeVar("Plan")


class Rewrite:
    """A single named rewrite rule.

    ``fn`` returns either a new plan (the rewrite fired) or the input
    plan itself / ``None`` (it did not apply).  ``typed`` records
    whether correctness relies on well-typedness (Definition 4) rather
    than holding for all values (Definition 3) — informational, mirrored
    from the Coq lemma statements, and used by the verification harness
    to pick the right checking mode.

    ``heads`` names the node classes the rule's root match requires
    (``heads=(ast.AppEnv,)``): on a node of any other class ``fn`` must
    return ``None`` or its input, so the engine does not call it there.
    ``None`` means "any class".
    """

    __slots__ = ("name", "fn", "typed", "description", "heads")

    def __init__(
        self,
        name: str,
        fn: Callable[[Any], Optional[Any]],
        typed: bool = True,
        description: str = "",
        heads: Optional[Tuple[type, ...]] = None,
    ):
        self.name = name
        self.fn = fn
        self.typed = typed
        self.description = description
        self.heads = heads

    def apply(self, plan: Any) -> Optional[Any]:
        """The rewritten plan if the rule fires at the root, else None.

        The ``result is plan`` identity check comes first: rules signal
        "did not apply" by returning the input object (or ``None``), so
        the deep structural ``==`` only runs for rules that built a new
        node — and counts as a fire unless that node is structurally
        identical (a rule bug the engine must still tolerate).
        """
        result = self.fn(plan)
        if result is None or result is plan:
            return None
        if result == plan:
            return None
        return result

    def __repr__(self) -> str:
        return "Rewrite(%s)" % self.name


class RewriteEvent:
    """One firing in the provenance log."""

    __slots__ = ("rule", "pass_index", "size_before", "size_after")

    def __init__(self, rule: str, pass_index: int, size_before: int, size_after: int):
        self.rule = rule
        self.pass_index = pass_index
        self.size_before = size_before
        self.size_after = size_after

    def __repr__(self) -> str:
        return "RewriteEvent(%s, pass %d, %d → %d)" % (
            self.rule,
            self.pass_index,
            self.size_before,
            self.size_after,
        )


class ProvenanceLog:
    """Ordered record of what the optimizer did and why it stopped.

    - :attr:`events` — every rule firing, in application order;
    - :attr:`costs` — the cost trajectory: ``costs[0]`` is the initial
      plan cost, ``costs[k]`` the cost after pass ``k``;
    - :attr:`rule_attempts` / :attr:`rule_seconds` — per-rule attempt
      counts and cumulative time in the rule function (only populated
      when ``timing`` is on; timing doubles the engine's bookkeeping
      cost, so it is reserved for traced runs).  They count the
      attempts the engine made, after head dispatch and settled-subtree
      skipping — far fewer than rules × nodes × passes;
    - :attr:`termination` — ``"fixpoint"``, ``"revisit"`` (a previous
      plan state recurred), ``"stall"`` (no best-cost improvement for 8
      consecutive passes), or ``"pass-limit"``.
    """

    __slots__ = ("events", "costs", "rule_attempts", "rule_seconds", "termination", "timing")

    def __init__(self, timing: bool = False):
        self.events: List[RewriteEvent] = []
        self.costs: List[int] = []
        self.rule_attempts: Dict[str, int] = {}
        self.rule_seconds: Dict[str, float] = {}
        self.termination: str = ""
        self.timing = timing

    def rule_counts(self) -> Dict[str, int]:
        """Fires per rule — by construction equal to ``fire_counts``."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.rule] = counts.get(event.rule, 0) + 1
        return counts

    def __repr__(self) -> str:
        return "ProvenanceLog(%d events, %d passes, %s)" % (
            len(self.events),
            max(0, len(self.costs) - 1),
            self.termination or "running",
        )


class OptimizeResult(Generic[Plan]):
    """Outcome of an optimization run: final plan plus statistics."""

    def __init__(
        self,
        plan: Plan,
        initial_cost: int,
        final_cost: int,
        passes: int,
        fire_counts: Dict[str, int],
        provenance: Optional[ProvenanceLog] = None,
    ):
        self.plan = plan
        self.initial_cost = initial_cost
        self.final_cost = final_cost
        self.passes = passes
        self.fire_counts = fire_counts
        self.provenance = provenance

    def fired(self, rule_name: str) -> int:
        return self.fire_counts.get(rule_name, 0)

    def __repr__(self) -> str:
        return "OptimizeResult(cost %d → %d in %d passes)" % (
            self.initial_cost,
            self.final_cost,
            self.passes,
        )


#: Local (per-node) rewrite-loop bound; a safety net against rule sets
#: that cycle at a single node.
_MAX_LOCAL_STEPS = 64
#: Global pass bound; the cost guard normally terminates far earlier.
_MAX_PASSES = 64
#: Passes without a best-cost improvement before giving up.
_MAX_STALLED = 8


class _Search:
    """The state one :func:`optimize` call shares across its passes.

    - ``by_class`` — the head-dispatch table: ``type(node)`` → the rules
      whose ``heads`` admit that class, in the original rule order.
      Built lazily, one entry per class actually met.
    - ``settled`` — ``id → node`` for every node known to be a local
      fixpoint whose children are all settled too.  Rules are pure
      functions of immutable nodes, so a settled node would come back
      from a visit unchanged with no rule firing; :meth:`visit` returns
      it without looking inside.  The map holds the nodes themselves,
      so an id cannot be reused while the search lives.
    """

    __slots__ = ("rules", "by_class", "settled", "counts", "provenance", "pass_index")

    def __init__(
        self,
        rules: Sequence[Rewrite],
        counts: Dict[str, int],
        provenance: Optional[ProvenanceLog],
        pass_index: int = 1,
    ):
        self.rules = rules
        self.by_class: Dict[type, List[Rewrite]] = {}
        self.settled: Dict[int, Any] = {}
        self.counts = counts
        self.provenance = provenance
        self.pass_index = pass_index

    def rules_for(self, cls: type) -> List[Rewrite]:
        table = self.by_class.get(cls)
        if table is None:
            table = [rule for rule in self.rules if rule.heads is None or cls in rule.heads]
            self.by_class[cls] = table
        return table

    def visit(self, node: Any) -> Any:
        """Rewrite ``node``'s subtree depth-first: children, then the node."""
        if id(node) in self.settled:
            return node
        children = node.children()
        if children:
            new_children = tuple([self.visit(child) for child in children])
            # Identity (not structural) comparison: untouched subtrees
            # come back as the same objects.
            if not all(map(operator.is_, new_children, children)):
                node = node.rebuild(new_children)
        return self.at_node(node)

    def at_node(self, node: Any) -> Any:
        """Apply rules at ``node`` until none fires (or the step bound)."""
        provenance = self.provenance
        timing = provenance is not None and provenance.timing
        for _ in range(_MAX_LOCAL_STEPS):
            # Re-looked-up after every fire: the rewritten node may be of
            # another class, with another candidate list.
            for rule in self.rules_for(type(node)):
                if timing:
                    started = time.perf_counter()
                    result = rule.apply(node)
                    name = rule.name
                    provenance.rule_seconds[name] = provenance.rule_seconds.get(name, 0.0) + (
                        time.perf_counter() - started
                    )
                    provenance.rule_attempts[name] = provenance.rule_attempts.get(name, 0) + 1
                else:
                    result = rule.apply(node)
                if result is not None:
                    self.counts[rule.name] = self.counts.get(rule.name, 0) + 1
                    if provenance is not None:
                        provenance.events.append(
                            RewriteEvent(rule.name, self.pass_index, node.size(), result.size())
                        )
                    node = result
                    break
            else:
                settled = self.settled
                if all(id(child) in settled for child in node.children()):
                    settled[id(node)] = node
                return node
        return node


def rewrite_once(
    plan: Any,
    rules: Sequence[Rewrite],
    fire_counts: Optional[Dict[str, int]] = None,
    provenance: Optional[ProvenanceLog] = None,
    pass_index: int = 1,
) -> Any:
    """One depth-first pass: at every node, apply rules to fixpoint."""
    counts = fire_counts if fire_counts is not None else {}
    return _Search(rules, counts, provenance, pass_index).visit(plan)


def optimize(
    plan: Plan,
    rules: Sequence[Rewrite],
    cost: Cost = size_depth_cost,
    provenance: Optional[ProvenanceLog] = None,
) -> OptimizeResult:
    """Optimize ``plan`` with ``rules``, guided by ``cost``.

    Runs depth-first passes and keeps the best-cost plan seen; a pass may
    temporarily increase the cost (e.g. pushdown rules that duplicate a
    sub-plan to unlock eliminations), so the run only stops once the
    plan reaches a fixpoint, revisits a previous state, or fails to
    improve the best cost for a few consecutive passes — "optimization
    proceeds as long as the cost is decreasing" (paper §8).

    ``provenance``: pass a :class:`ProvenanceLog` to collect the
    derivation explicitly; by default one is collected only when the
    global tracer is enabled (so the untraced path stays free).
    """
    tracer = get_tracer()
    if provenance is None and tracer.enabled:
        provenance = ProvenanceLog(timing=True)
    fire_counts: Dict[str, int] = {}
    initial_cost = cost(plan)
    if provenance is not None:
        provenance.costs.append(initial_cost)
    current = plan
    best, best_cost = plan, initial_cost
    passes = 0
    stalled = 0
    seen = {plan}
    termination = "pass-limit"
    search = _Search(rules, fire_counts, provenance)
    with tracer.span("optimize", category="optim", rules=len(rules), initial_cost=initial_cost):
        for _ in range(_MAX_PASSES):
            with tracer.span("pass %d" % (passes + 1), category="optim") as pass_span:
                search.pass_index = passes + 1
                candidate = search.visit(current)
            passes += 1
            if candidate is current or candidate == current:
                termination = "fixpoint"
                if provenance is not None:
                    provenance.costs.append(provenance.costs[-1])
                break
            candidate_cost = cost(candidate)
            if provenance is not None:
                provenance.costs.append(candidate_cost)
            pass_span.note(cost=candidate_cost)
            if candidate_cost < best_cost:
                best, best_cost = candidate, candidate_cost
                stalled = 0
            else:
                stalled += 1
                if stalled >= _MAX_STALLED:
                    termination = "stall"
                    break
            # One add instead of `in` + add: hashing a plan walks all of it.
            known = len(seen)
            seen.add(candidate)
            if len(seen) == known:
                termination = "revisit"
                break
            current = candidate
    if provenance is not None:
        provenance.termination = termination
        if tracer.enabled:
            tracer.instant(
                "optimize done",
                category="optim",
                termination=termination,
                passes=passes,
                fires=len(provenance.events),
                final_cost=best_cost,
            )
    return OptimizeResult(best, initial_cost, best_cost, passes, fire_counts, provenance)
