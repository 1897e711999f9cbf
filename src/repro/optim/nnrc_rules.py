"""NNRC optimizer rules (paper §8: the "NNRC to NNRC opt" stage).

Mostly binder bookkeeping — let inlining, dead-code elimination,
comprehension fusion — plus the record simplifications mirrored from the
algebra side, and constant folding.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.data import operators as ops
from repro.data.model import Bag, DataError
from repro.nnrc import ast
from repro.nnrc.freevars import free_vars, substitute
from repro.optim.engine import Rewrite


def _occurrences(expr: ast.NnrcNode, var: str) -> Tuple[int, bool]:
    """(free occurrence count, any occurrence under a For binder)."""
    if isinstance(expr, ast.Var):
        return (1, False) if expr.name == var else (0, False)
    if isinstance(expr, (ast.Let, ast.For)):
        outer_count, outer_under = _occurrences(expr.children()[0], var)
        if expr.var == var:
            return outer_count, outer_under
        inner_count, inner_under = _occurrences(expr.children()[1], var)
        if isinstance(expr, ast.For):
            inner_under = inner_under or inner_count > 0
        return outer_count + inner_count, outer_under or inner_under
    count, under = 0, False
    for child in expr.children():
        child_count, child_under = _occurrences(child, var)
        count += child_count
        under = under or child_under
    return count, under


def _is_cheap(expr: ast.NnrcNode) -> bool:
    """Expressions safe to duplicate or re-evaluate anywhere."""
    if isinstance(expr, (ast.Var, ast.Const, ast.GetConstant)):
        return True
    if isinstance(expr, ast.Unop) and isinstance(expr.op, ops.OpDot):
        return _is_cheap(expr.arg)
    return False


def let_inline(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``let x = e1 in e2 ⇒ e2[e1/x]`` when safe.

    Fires when the definition is cheap, or when ``x`` occurs exactly
    once outside any comprehension body (no work duplication).
    """
    if not isinstance(expr, ast.Let):
        return None
    count, under_for = _occurrences(expr.body, expr.var)
    if _is_cheap(expr.defn) or (count == 1 and not under_for):
        return substitute(expr.body, expr.var, expr.defn)
    return None


def dead_let(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``let x = e1 in e2 ⇒ e2`` when x unused (typed: drops e1)."""
    if isinstance(expr, ast.Let) and expr.var not in free_vars(expr.body):
        return expr.body
    return None


def for_nil(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``{e | x ∈ ∅} ⇒ ∅``."""
    if (
        isinstance(expr, ast.For)
        and isinstance(expr.source, ast.Const)
        and expr.source.value == Bag([])
    ):
        return ast.Const(Bag([]))
    return None


def for_singleton(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``{e | x ∈ {e1}} ⇒ {let x = e1 in e}``."""
    if (
        isinstance(expr, ast.For)
        and isinstance(expr.source, ast.Unop)
        and isinstance(expr.source.op, ops.OpBag)
    ):
        return ast.Unop(
            ops.OpBag(), ast.Let(expr.var, expr.source.arg, expr.body)
        )
    return None


def for_for_fusion(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``{e2 | x ∈ {e1 | y ∈ s}} ⇒ {let x = e1 in e2 | y ∈ s}``.

    Requires the inner binder not to capture in ``e2``.
    """
    if not (isinstance(expr, ast.For) and isinstance(expr.source, ast.For)):
        return None
    inner = expr.source
    if inner.var == expr.var or inner.var in free_vars(expr.body):
        return None
    return ast.For(
        inner.var, inner.source, ast.Let(expr.var, inner.body, expr.body)
    )


def for_var_body(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``{x | x ∈ s} ⇒ s`` (typed: s must be a bag)."""
    if (
        isinstance(expr, ast.For)
        and isinstance(expr.body, ast.Var)
        and expr.body.name == expr.var
    ):
        return expr.source
    return None


def if_const_cond(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``true ? t : e ⇒ t`` and ``false ? t : e ⇒ e``."""
    if isinstance(expr, ast.If) and isinstance(expr.cond, ast.Const):
        if expr.cond.value is True:
            return expr.then
        if expr.cond.value is False:
            return expr.otherwise
    return None


def if_same_branches(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``c ? t : t ⇒ t`` (typed: drops c's evaluation)."""
    if isinstance(expr, ast.If) and expr.then == expr.otherwise:
        return expr.then
    return None


def flatten_coll(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``flatten({e}) ⇒ e`` (typed: e must be a bag)."""
    if (
        isinstance(expr, ast.Unop)
        and isinstance(expr.op, ops.OpFlatten)
        and isinstance(expr.arg, ast.Unop)
        and isinstance(expr.arg.op, ops.OpBag)
    ):
        return expr.arg.arg
    return None


def flatten_for_coll(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``flatten({{e} | x ∈ s}) ⇒ {e | x ∈ s}``."""
    if (
        isinstance(expr, ast.Unop)
        and isinstance(expr.op, ops.OpFlatten)
        and isinstance(expr.arg, ast.For)
        and isinstance(expr.arg.body, ast.Unop)
        and isinstance(expr.arg.body.op, ops.OpBag)
    ):
        inner = expr.arg
        return ast.For(inner.var, inner.source, inner.body.arg)
    return None


def dot_over_rec(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``[a: e].a ⇒ e``."""
    if (
        isinstance(expr, ast.Unop)
        and isinstance(expr.op, ops.OpDot)
        and isinstance(expr.arg, ast.Unop)
        and isinstance(expr.arg.op, ops.OpRec)
        and expr.arg.op.field == expr.op.field
    ):
        return expr.arg.arg
    return None


def dot_over_concat(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """``(e1 ⊕ [a: e2]).a ⇒ e2`` and the non-matching-field variants."""
    if not (
        isinstance(expr, ast.Unop)
        and isinstance(expr.op, ops.OpDot)
        and isinstance(expr.arg, ast.Binop)
        and isinstance(expr.arg.op, ops.OpConcat)
    ):
        return None
    field = expr.op.field
    left, right = expr.arg.left, expr.arg.right
    if isinstance(right, ast.Unop) and isinstance(right.op, ops.OpRec):
        if right.op.field == field:
            return right.arg
        return ast.Unop(ops.OpDot(field), left)
    if (
        isinstance(left, ast.Unop)
        and isinstance(left.op, ops.OpRec)
        and left.op.field != field
    ):
        return ast.Unop(ops.OpDot(field), right)
    return None


def constant_fold(expr: ast.NnrcNode) -> Optional[ast.NnrcNode]:
    """Evaluate operators applied to constants (when they do not error)."""
    if isinstance(expr, ast.Unop) and isinstance(expr.arg, ast.Const):
        if isinstance(expr.op, ops.OpSortBy):
            return None  # order-sensitive output; keep explicit
        try:
            return ast.Const(expr.op.apply(expr.arg.value))
        except DataError:
            return None
    if (
        isinstance(expr, ast.Binop)
        and isinstance(expr.left, ast.Const)
        and isinstance(expr.right, ast.Const)
    ):
        try:
            return ast.Const(expr.op.apply(expr.left.value, expr.right.value))
        except DataError:
            return None
    return None


def nnrc_rules() -> List[Rewrite]:
    """The default NNRC rule set."""
    return [
        Rewrite("nnrc_dead_let", dead_let, typed=True, heads=(ast.Let,)),
        Rewrite("nnrc_let_inline", let_inline, typed=True, heads=(ast.Let,)),
        Rewrite("nnrc_for_nil", for_nil, typed=False, heads=(ast.For,)),
        Rewrite("nnrc_for_singleton", for_singleton, typed=False, heads=(ast.For,)),
        Rewrite("nnrc_for_for_fusion", for_for_fusion, typed=False, heads=(ast.For,)),
        Rewrite("nnrc_for_var_body", for_var_body, typed=True, heads=(ast.For,)),
        Rewrite("nnrc_if_const_cond", if_const_cond, typed=False, heads=(ast.If,)),
        Rewrite("nnrc_if_same_branches", if_same_branches, typed=True, heads=(ast.If,)),
        Rewrite("nnrc_flatten_coll", flatten_coll, typed=True, heads=(ast.Unop,)),
        Rewrite("nnrc_flatten_for_coll", flatten_for_coll, typed=False, heads=(ast.Unop,)),
        Rewrite("nnrc_dot_over_rec", dot_over_rec, typed=False, heads=(ast.Unop,)),
        Rewrite("nnrc_dot_over_concat", dot_over_concat, typed=True, heads=(ast.Unop,)),
        Rewrite("nnrc_constant_fold", constant_fold, typed=False, heads=(ast.Unop, ast.Binop)),
    ]
