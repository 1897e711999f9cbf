"""NRAe rewrites targeting patterns produced by CAMP compilation (Figure 13).

These four rules recognise the plan shapes the CAMP→NRAe translation
produces (success-singleton bags, merge-based environment extension) and
turn environment iteration back into plain data iteration, unlocking the
classic NRA rules of Figure 12.
"""

from __future__ import annotations

from typing import List, Optional

from repro.data import operators as ops
from repro.nraenv import ast
from repro.optim.engine import Rewrite


def _is_coll_id(plan: ast.NraeNode) -> bool:
    return (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpBag)
        and isinstance(plan.arg, ast.ID)
    )


def _is_flatten(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpFlatten)


def _match_env_select(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Match ``χ⟨Env⟩(σ⟨q⟩({In}))`` and return ``q``."""
    if (
        isinstance(plan, ast.Map)
        and isinstance(plan.body, ast.Env)
        and isinstance(plan.input, ast.Select)
        and _is_coll_id(plan.input.input)
    ):
        return plan.input.pred
    return None


def _match_env_merge_rec_id(plan: ast.NraeNode) -> Optional[str]:
    """Match ``Env ⊗ [a: In]`` and return the field name ``a``."""
    if (
        isinstance(plan, ast.Binop)
        and isinstance(plan.op, ops.OpMergeConcat)
        and isinstance(plan.left, ast.Env)
        and isinstance(plan.right, ast.Unop)
        and isinstance(plan.right.op, ops.OpRec)
        and isinstance(plan.right.arg, ast.ID)
    ):
        return plan.right.op.field
    return None


def compose_selects_in_mapenv(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Figure 13, rule 1::

        flatten(χe⟨χ⟨Env⟩(σ⟨q1⟩({In}))⟩) ∘e χ⟨Env⟩(σ⟨q2⟩({In}))
            ⇒ χ⟨Env⟩(σ⟨q1⟩(σ⟨q2⟩({In})))

    Both sides produce ∅ or ``{γ}`` — a conjunction of two CAMP asserts
    collapses to one select chain.
    """
    if not isinstance(plan, ast.AppEnv):
        return None
    q2 = _match_env_select(plan.before)
    if q2 is None:
        return None
    if not (_is_flatten(plan.after) and isinstance(plan.after.arg, ast.MapEnv)):
        return None
    q1 = _match_env_select(plan.after.arg.body)
    if q1 is None:
        return None
    inner = ast.Select(q2, ast.Unop(ops.OpBag(), ast.ID()))
    return ast.Map(ast.Env(), ast.Select(q1, inner))


def _mapenv_merge_body(body: ast.NraeNode, field: str) -> ast.NraeNode:
    """Build ``(body ∘ Env.a) ∘e In``."""
    return ast.AppEnv(
        ast.App(body, ast.Unop(ops.OpDot(field), ast.Env())), ast.ID()
    )


def appenv_mapenv_to_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Figure 13, rule 2::

        (χe⟨q⟩) ∘e (Env ⊗ [a: In]) ⇒ χ⟨(q ∘ Env.a) ∘e In⟩(Env ⊗ [a: In])

    Sound because every record in ``Env ⊗ [a: In]`` maps ``a`` to the
    current input, so ``Env.a`` recovers the datum inside the map.
    """
    if not (isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.MapEnv)):
        return None
    field = _match_env_merge_rec_id(plan.before)
    if field is None:
        return None
    return ast.Map(_mapenv_merge_body(plan.after.body, field), plan.before)


def appenv_flatten_mapenv_to_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Figure 13, rule 3 (rule 2 under a flatten)::

        flatten(χe⟨q⟩) ∘e (Env ⊗ [a: In])
            ⇒ flatten(χ⟨(q ∘ Env.a) ∘e In⟩(Env ⊗ [a: In]))
    """
    if not (
        isinstance(plan, ast.AppEnv)
        and _is_flatten(plan.after)
        and isinstance(plan.after.arg, ast.MapEnv)
    ):
        return None
    field = _match_env_merge_rec_id(plan.before)
    if field is None:
        return None
    mapped = ast.Map(_mapenv_merge_body(plan.after.arg.body, field), plan.before)
    return ast.Unop(ops.OpFlatten(), mapped)


def flip_env6(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """Figure 13, rule 4::

        χ⟨Env ⊗ In⟩(σ⟨q1⟩(Env ⊗ q2)) ⇒ χ⟨{In}⟩(σ⟨q1⟩(Env ⊗ q2))

    Elements of ``Env ⊗ q2`` already contain the environment, so
    re-merging is the identity (as a singleton).
    """
    if not (
        isinstance(plan, ast.Map)
        and isinstance(plan.body, ast.Binop)
        and isinstance(plan.body.op, ops.OpMergeConcat)
        and isinstance(plan.body.left, ast.Env)
        and isinstance(plan.body.right, ast.ID)
        and isinstance(plan.input, ast.Select)
    ):
        return None
    source = plan.input.input
    if (
        isinstance(source, ast.Binop)
        and isinstance(source.op, ops.OpMergeConcat)
        and isinstance(source.left, ast.Env)
    ):
        return ast.Map(ast.Unop(ops.OpBag(), ast.ID()), plan.input)
    return None


def figure13_rules() -> List[Rewrite]:
    """The Figure 13 catalog."""
    return [
        Rewrite(
            "compose_selects_in_mapenv", compose_selects_in_mapenv, typed=True, heads=(ast.AppEnv,)
        ),
        Rewrite("appenv_mapenv_to_map", appenv_mapenv_to_map, typed=True, heads=(ast.AppEnv,)),
        Rewrite(
            "appenv_flatten_mapenv_to_map",
            appenv_flatten_mapenv_to_map,
            typed=True,
            heads=(ast.AppEnv,),
        ),
        Rewrite("flip_env6", flip_env6, typed=True, heads=(ast.Map,)),
    ]
