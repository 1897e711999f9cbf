"""Classic NRA rewrites, lifted to NRAe (paper Figure 12 + §4.2).

These are pure-NRA equivalences; by Theorem 1 they remain valid on NRAe
plans whose sub-plans manipulate the environment, so the optimizer
applies them to NRAe directly — the paper's headline reuse result.

Rule names follow the Coq lemmas linked from Figure 12
(``tdot_over_rec_arrow`` etc., shortened).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.data import operators as ops
from repro.data.model import Record
from repro.nraenv import ast
from repro.nraenv.ignores import ignores_id
from repro.optim.engine import Rewrite


def _is_coll(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpBag)


def _as_singleton(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Match a syntactic singleton bag ``{q}`` (or a constant one) → q."""
    from repro.data.model import Bag

    if _is_coll(plan):
        return plan.arg
    if (
        isinstance(plan, ast.Const)
        and isinstance(plan.value, Bag)
        and len(plan.value) == 1
    ):
        return ast.Const(plan.value.items[0])
    return None


def _is_flatten(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpFlatten)


def _is_rec(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpRec)


def _is_empty_rec(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Const) and plan.value == Record({})


# -- record algebra ----------------------------------------------------------


def dot_over_rec(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``[a: q].a ⇒ q``."""
    if (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpDot)
        and _is_rec(plan.arg)
        and plan.arg.op.field == plan.op.field
    ):
        return plan.arg.arg
    return None


def _known_fields(plan: ast.NraeNode) -> Optional[Tuple[str, ...]]:
    """Field names of a record-shaped plan, when statically known.

    Recognises ``[a: q]`` and constant records (which constant folding
    produces from the former).
    """
    if _is_rec(plan):
        return (plan.op.field,)
    if isinstance(plan, ast.Const) and isinstance(plan.value, Record):
        return plan.value.domain()
    return None


def _field_plan(plan: ast.NraeNode, field: str) -> ast.NraeNode:
    """The plan computing ``field`` of a known-shape record plan."""
    if _is_rec(plan):
        assert plan.op.field == field
        return plan.arg
    assert isinstance(plan, ast.Const) and isinstance(plan.value, Record)
    return ast.Const(plan.value[field])


def dot_over_concat_eq_r(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(q1 ⊕ [a2: q2]).a2 ⇒ q2`` (also on constant right records)."""
    if not (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpDot)
        and isinstance(plan.arg, ast.Binop)
        and isinstance(plan.arg.op, ops.OpConcat)
    ):
        return None
    fields = _known_fields(plan.arg.right)
    if fields is not None and plan.op.field in fields:
        return _field_plan(plan.arg.right, plan.op.field)
    return None


def dot_over_concat_neq_r(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if a1 ≠ a2, (q ⊕ [a2: q2]).a1 ⇒ q.a1``."""
    if not (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpDot)
        and isinstance(plan.arg, ast.Binop)
        and isinstance(plan.arg.op, ops.OpConcat)
    ):
        return None
    fields = _known_fields(plan.arg.right)
    if fields is not None and plan.op.field not in fields:
        return ast.Unop(plan.op, plan.arg.left)
    return None


def dot_over_concat_neq_l(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if a1 ≠ a2, ([a1: q1] ⊕ q).a2 ⇒ q.a2``."""
    if not (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpDot)
        and isinstance(plan.arg, ast.Binop)
        and isinstance(plan.arg.op, ops.OpConcat)
    ):
        return None
    fields = _known_fields(plan.arg.left)
    if fields is not None and plan.op.field not in fields:
        return ast.Unop(plan.op, plan.arg.right)
    return None


def merge_empty_rec_l(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``[] ⊗ q ⇒ {q}`` (typed: q must be a record)."""
    if (
        isinstance(plan, ast.Binop)
        and isinstance(plan.op, ops.OpMergeConcat)
        and _is_empty_rec(plan.left)
    ):
        return ast.Unop(ops.OpBag(), plan.right)
    return None


def merge_empty_rec_r(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``q ⊗ [] ⇒ {q}`` (typed: q must be a record)."""
    if (
        isinstance(plan, ast.Binop)
        and isinstance(plan.op, ops.OpMergeConcat)
        and _is_empty_rec(plan.right)
    ):
        return ast.Unop(ops.OpBag(), plan.left)
    return None


def product_singletons(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``{[a1: q1]} × {[a2: q2]} ⇒ {[a1: q1] ⊕ [a2: q2]}``."""
    if not isinstance(plan, ast.Product):
        return None
    left = _as_singleton(plan.left)
    right = _as_singleton(plan.right)
    if left is None or right is None:
        return None
    left_ok = _is_rec(left) or (isinstance(left, ast.Const))
    right_ok = _is_rec(right) or (isinstance(right, ast.Const))
    if left_ok and right_ok:
        return ast.Unop(ops.OpBag(), ast.Binop(ops.OpConcat(), left, right))
    return None


# -- composition -------------------------------------------------------------


def app_over_id_l(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``In ∘ q ⇒ q``."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.ID):
        return plan.before
    return None


def app_over_id_r(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``q ∘ In ⇒ q`` (companion of ``In ∘ q ⇒ q``)."""
    if isinstance(plan, ast.App) and isinstance(plan.before, ast.ID):
        return plan.after
    return None


def app_over_unop(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(⊙q1) ∘ q2 ⇒ ⊙(q1 ∘ q2)``."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.Unop):
        return ast.Unop(plan.after.op, ast.App(plan.after.arg, plan.before))
    return None


def app_over_binop(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(q2 ⊡ q1) ∘ q ⇒ (q2 ∘ q) ⊡ (q1 ∘ q)``."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.Binop):
        return ast.Binop(
            plan.after.op,
            ast.App(plan.after.left, plan.before),
            ast.App(plan.after.right, plan.before),
        )
    return None


def app_over_ignoreid(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ii(q1), q1 ∘ q2 ⇒ q1``."""
    if isinstance(plan, ast.App) and ignores_id(plan.after):
        return plan.after
    return None


def app_over_app(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(q1 ∘ q2) ∘ q3 ⇒ q1 ∘ (q2 ∘ q3)`` (associativity)."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.App):
        return ast.App(plan.after.after, ast.App(plan.after.before, plan.before))
    return None


def app_over_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q1⟩(q2) ∘ q ⇒ χ⟨q1⟩(q2 ∘ q)``."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.Map):
        return ast.Map(plan.after.body, ast.App(plan.after.input, plan.before))
    return None


def app_over_select(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``σ⟨q1⟩(q2) ∘ q ⇒ σ⟨q1⟩(q2 ∘ q)`` (companion of app_over_map)."""
    if isinstance(plan, ast.App) and isinstance(plan.after, ast.Select):
        return ast.Select(plan.after.pred, ast.App(plan.after.input, plan.before))
    return None


# -- flatten / map -----------------------------------------------------------


def double_flatten_map_coll(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``flatten(χ⟨χ⟨{q3}⟩(q1)⟩(q2)) ⇒ χ⟨{q3}⟩(flatten(χ⟨q1⟩(q2)))``."""
    if not (_is_flatten(plan) and isinstance(plan.arg, ast.Map)):
        return None
    outer = plan.arg
    if (
        isinstance(outer.body, ast.Map)
        and _is_coll(outer.body.body)
    ):
        inner_map = ast.Map(outer.body.input, outer.input)
        return ast.Map(
            outer.body.body, ast.Unop(ops.OpFlatten(), inner_map)
        )
    return None


def map_over_flatten(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨p1⟩(flatten(p2)) ⇒ flatten(χ⟨χ⟨p1⟩(In)⟩(p2))``.

    Size-increasing; defined for completeness (Figure 12) but not in the
    default rule set — its role is to enable fusions, which
    :func:`map_over_flatten_map` captures directly.
    """
    if (
        isinstance(plan, ast.Map)
        and _is_flatten(plan.input)
        and not isinstance(plan.input.arg, ast.Map)
    ):
        inner = ast.Map(ast.Map(plan.body, ast.ID()), plan.input.arg)
        return ast.Unop(ops.OpFlatten(), inner)
    return None


def map_over_flatten_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨p1⟩(flatten(χ⟨p2⟩(p3))) ⇒ flatten(χ⟨χ⟨p1⟩(p2)⟩(p3))``."""
    if (
        isinstance(plan, ast.Map)
        and _is_flatten(plan.input)
        and isinstance(plan.input.arg, ast.Map)
        and not isinstance(plan.body, ast.ID)
    ):
        inner = plan.input.arg
        return ast.Unop(
            ops.OpFlatten(), ast.Map(ast.Map(plan.body, inner.body), inner.input)
        )
    return None


def flatten_coll(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``flatten({q}) ⇒ q`` (typed: q must be a bag)."""
    if _is_flatten(plan) and _is_coll(plan.arg):
        return plan.arg.arg
    return None


def flatten_map_coll(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``flatten(χ⟨{q1}⟩(q2)) ⇒ χ⟨q1⟩(q2)``."""
    if (
        _is_flatten(plan)
        and isinstance(plan.arg, ast.Map)
        and _is_coll(plan.arg.body)
    ):
        return ast.Map(plan.arg.body.arg, plan.arg.input)
    return None


def map_into_id(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨In⟩(q) ⇒ q`` (typed: q must be a bag).

    The paper singles this rule out in §7: it is "never triggered when we
    optimize the NRA query coming directly from CAMP", but fires once the
    NRAe env rewrites have cleaned the plan.
    """
    if isinstance(plan, ast.Map) and isinstance(plan.body, ast.ID):
        return plan.input
    return None


def map_map_compose(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q1⟩(χ⟨q2⟩(q)) ⇒ χ⟨q1 ∘ q2⟩(q)`` (map fusion)."""
    if isinstance(plan, ast.Map) and isinstance(plan.input, ast.Map):
        return ast.Map(ast.App(plan.body, plan.input.body), plan.input.input)
    return None


def map_singleton(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q1⟩({q2}) ⇒ {q1 ∘ q2}`` (also fires on constant singletons)."""
    if isinstance(plan, ast.Map):
        payload = _as_singleton(plan.input)
        if payload is not None:
            return ast.Unop(ops.OpBag(), ast.App(plan.body, payload))
    return None


def map_full_over_select(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q2⟩(σ⟨q1⟩({q})) ⇒ χ⟨q2 ∘ q⟩(σ⟨q1 ∘ q⟩({In}))``.

    Hoists the singleton's payload out of the select; guarded against
    ``q = In`` (where it would be the identity and ping-pong).
    """
    if (
        isinstance(plan, ast.Map)
        and isinstance(plan.input, ast.Select)
        and _is_coll(plan.input.input)
        and not isinstance(plan.input.input.arg, ast.ID)
    ):
        payload = plan.input.input.arg
        return ast.Map(
            ast.App(plan.body, payload),
            ast.Select(
                ast.App(plan.input.pred, payload),
                ast.Unop(ops.OpBag(), ast.ID()),
            ),
        )
    return None


def constant_fold(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Evaluate operators applied to constants (when they do not error)."""
    from repro.data.model import DataError

    if isinstance(plan, ast.Unop) and isinstance(plan.arg, ast.Const):
        if isinstance(plan.op, ops.OpSortBy):
            return None  # order-sensitive output; keep explicit
        try:
            return ast.Const(plan.op.apply(plan.arg.value))
        except DataError:
            return None
    if (
        isinstance(plan, ast.Binop)
        and isinstance(plan.left, ast.Const)
        and isinstance(plan.right, ast.Const)
    ):
        try:
            return ast.Const(plan.op.apply(plan.left.value, plan.right.value))
        except DataError:
            return None
    return None


def _is_empty_bag(plan: ast.NraeNode) -> bool:
    from repro.data.model import Bag

    return isinstance(plan, ast.Const) and isinstance(plan.value, Bag) and not plan.value


def union_empty(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``q ∪ ∅ ⇒ q`` and ``∅ ∪ q ⇒ q`` (typed: q must be a bag)."""
    if isinstance(plan, ast.Binop) and isinstance(plan.op, ops.OpUnion):
        if _is_empty_bag(plan.right):
            return plan.left
        if _is_empty_bag(plan.left):
            return plan.right
    return None


def map_over_nil(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q⟩(∅) ⇒ ∅`` and ``σ⟨q⟩(∅) ⇒ ∅``."""
    from repro.data.model import Bag

    if isinstance(plan, ast.Map) and _is_empty_bag(plan.input):
        return ast.Const(Bag([]))
    if isinstance(plan, ast.Select) and _is_empty_bag(plan.input):
        return ast.Const(Bag([]))
    return None


def dup_elim(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if nodupA(q), ♯distinct(q) ⇒ q`` — the paper's §1 example of a
    rewrite with a code-fragment precondition (``tdup_elim``)."""
    from repro.optim.analysis import nodup

    if (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpDistinct)
        and nodup(plan.arg)
    ):
        return plan.arg
    return None


def merge_env_to_left(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``q ⊗ Env ⇒ Env ⊗ q`` (canonical order; ⊗ is commutative).

    When two records are ⊗-compatible their concatenation is the same in
    either order (the overlapping fields are equal), so this is a pure
    canonicalization — it puts ``Env`` first, the shape the Figure 13
    CAMP rules match.
    """
    if (
        isinstance(plan, ast.Binop)
        and isinstance(plan.op, ops.OpMergeConcat)
        and isinstance(plan.right, ast.Env)
        and not isinstance(plan.left, ast.Env)
    ):
        return ast.Binop(ops.OpMergeConcat(), plan.right, plan.left)
    return None


def select_union_distr(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``σ⟨q0⟩(q1 ∪ q2) ⇒ σ⟨q0⟩(q1) ∪ σ⟨q0⟩(q2)`` (the paper's intro rule)."""
    if (
        isinstance(plan, ast.Select)
        and isinstance(plan.input, ast.Binop)
        and isinstance(plan.input.op, ops.OpUnion)
    ):
        return ast.Binop(
            ops.OpUnion(),
            ast.Select(plan.pred, plan.input.left),
            ast.Select(plan.pred, plan.input.right),
        )
    return None


def select_select_and(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``σ⟨q1⟩(σ⟨q2⟩(q)) ⇒ σ⟨q2 ∧ q1⟩(q)`` (typed; merges select stages)."""
    if isinstance(plan, ast.Select) and isinstance(plan.input, ast.Select):
        return ast.Select(
            ast.Binop(ops.OpAnd(), plan.input.pred, plan.pred),
            plan.input.input,
        )
    return None


def figure12_rules() -> List[Rewrite]:
    """The Figure 12 catalog (plus the trivial companions noted inline)."""
    return [
        Rewrite("dot_over_rec", dot_over_rec, typed=False, heads=(ast.Unop,)),
        Rewrite("dot_over_concat_eq_r", dot_over_concat_eq_r, typed=True, heads=(ast.Unop,)),
        Rewrite("dot_over_concat_neq_r", dot_over_concat_neq_r, typed=True, heads=(ast.Unop,)),
        Rewrite("dot_over_concat_neq_l", dot_over_concat_neq_l, typed=True, heads=(ast.Unop,)),
        Rewrite("merge_empty_rec_l", merge_empty_rec_l, typed=True, heads=(ast.Binop,)),
        Rewrite("merge_empty_rec_r", merge_empty_rec_r, typed=True, heads=(ast.Binop,)),
        Rewrite("product_singletons", product_singletons, typed=False, heads=(ast.Product,)),
        Rewrite("app_over_id_l", app_over_id_l, typed=False, heads=(ast.App,)),
        Rewrite("app_over_id_r", app_over_id_r, typed=False, heads=(ast.App,)),
        Rewrite("app_over_unop", app_over_unop, typed=False, heads=(ast.App,)),
        Rewrite("app_over_binop", app_over_binop, typed=False, heads=(ast.App,)),
        Rewrite("app_over_ignoreid", app_over_ignoreid, typed=True, heads=(ast.App,)),
        Rewrite("app_over_app", app_over_app, typed=False, heads=(ast.App,)),
        Rewrite("app_over_map", app_over_map, typed=False, heads=(ast.App,)),
        Rewrite("app_over_select", app_over_select, typed=False, heads=(ast.App,)),
        Rewrite(
            "double_flatten_map_coll", double_flatten_map_coll, typed=False, heads=(ast.Unop,)
        ),
        Rewrite("map_over_flatten_map", map_over_flatten_map, typed=False, heads=(ast.Map,)),
        Rewrite("flatten_coll", flatten_coll, typed=True, heads=(ast.Unop,)),
        Rewrite("flatten_map_coll", flatten_map_coll, typed=False, heads=(ast.Unop,)),
        Rewrite("map_into_id", map_into_id, typed=True, heads=(ast.Map,)),
        Rewrite("map_map_compose", map_map_compose, typed=False, heads=(ast.Map,)),
        Rewrite("map_singleton", map_singleton, typed=False, heads=(ast.Map,)),
        Rewrite("map_full_over_select", map_full_over_select, typed=True, heads=(ast.Map,)),
    ]


def classic_relational_rules() -> List[Rewrite]:
    """A few additional textbook rules used on the SQL path."""
    return [
        Rewrite("select_union_distr", select_union_distr, typed=False, heads=(ast.Select,)),
        Rewrite("select_select_and", select_select_and, typed=True, heads=(ast.Select,)),
        Rewrite("constant_fold", constant_fold, typed=False, heads=(ast.Unop, ast.Binop)),
        Rewrite("union_empty", union_empty, typed=True, heads=(ast.Binop,)),
        Rewrite("map_over_nil", map_over_nil, typed=False, heads=(ast.Map, ast.Select)),
        Rewrite("merge_env_to_left", merge_env_to_left, typed=False, heads=(ast.Binop,)),
        Rewrite("dup_elim", dup_elim, typed=True, heads=(ast.Unop,)),
    ]
