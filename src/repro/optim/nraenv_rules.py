"""NRAe-specific rewrites (paper Figure 3).

Two families, exactly as the figure groups them:

- *Environment constructs removal* — eliminate ``Env``/``∘e``/``χe``
  when the environment provably does not matter;
- *∘e pushdown* — push the environment composition towards the leaves,
  where it can be eliminated.

Rule names follow the Coq lemmas the figure links to
(``tappenv_over_env_r_arrow`` etc., shortened).  Every rule here has a
matching property test in ``tests/optim`` asserting Definition 3/4
equivalence on random plans, environments, and data.
"""

from __future__ import annotations

from typing import List, Optional

from repro.data import operators as ops
from repro.nraenv import ast
from repro.nraenv.ignores import ignores_env, ignores_id
from repro.optim.engine import Rewrite


def _is_coll_id(plan: ast.NraeNode) -> bool:
    """Matches ``{In}``."""
    return (
        isinstance(plan, ast.Unop)
        and isinstance(plan.op, ops.OpBag)
        and isinstance(plan.arg, ast.ID)
    )


def _is_flatten(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpFlatten)


def _is_coll(plan: ast.NraeNode) -> bool:
    return isinstance(plan, ast.Unop) and isinstance(plan.op, ops.OpBag)


# -- Environment constructs removal -----------------------------------------


def appenv_over_env_r(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``q ∘e Env ⇒ q``."""
    if isinstance(plan, ast.AppEnv) and isinstance(plan.before, ast.Env):
        return plan.after
    return None


def appenv_over_env_l(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``Env ∘e q ⇒ q``."""
    if isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.Env):
        return plan.before
    return None


def appenv_over_ignoreenv(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ie(q1), q1 ∘e q2 ⇒ q1``."""
    if isinstance(plan, ast.AppEnv) and ignores_env(plan.after):
        return plan.after
    return None


def flip_env1(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨Env⟩(σ⟨q⟩({In})) ∘e In ⇒ σ⟨q⟩({In}) ∘e In``."""
    if not (isinstance(plan, ast.AppEnv) and isinstance(plan.before, ast.ID)):
        return None
    after = plan.after
    if (
        isinstance(after, ast.Map)
        and isinstance(after.body, ast.Env)
        and isinstance(after.input, ast.Select)
        and _is_coll_id(after.input.input)
    ):
        return ast.AppEnv(after.input, plan.before)
    return None


def flip_env4(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ie(q1), χ⟨Env⟩(σ⟨q1⟩({In})) ∘e q2 ⇒ χ⟨q2⟩(σ⟨q1⟩({In}))``."""
    if not isinstance(plan, ast.AppEnv):
        return None
    after = plan.after
    if (
        isinstance(after, ast.Map)
        and isinstance(after.body, ast.Env)
        and isinstance(after.input, ast.Select)
        and _is_coll_id(after.input.input)
        and ignores_env(after.input.pred)
    ):
        return ast.Map(plan.before, after.input)
    return None


def mapenv_to_env(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χe⟨Env⟩ ∘ q ⇒ Env`` (typed: requires a bag environment)."""
    if (
        isinstance(plan, ast.App)
        and isinstance(plan.after, ast.MapEnv)
        and isinstance(plan.after.body, ast.Env)
    ):
        return ast.Env()
    return None


def mapenv_over_singleton(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χe⟨q1⟩ ∘e {q2} ⇒ {q1 ∘e q2}``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.MapEnv)
        and _is_coll(plan.before)
    ):
        return ast.Unop(ops.OpBag(), ast.AppEnv(plan.after.body, plan.before.arg))
    return None


def mapenv_to_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ii(q1), χe⟨q1⟩ ∘e q2 ⇒ χ⟨q1 ∘e In⟩(q2)``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.MapEnv)
        and ignores_id(plan.after.body)
    ):
        return ast.Map(ast.AppEnv(plan.after.body, ast.ID()), plan.before)
    return None


# -- ∘e pushdown -------------------------------------------------------------


def appenv_over_unop(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(⊙q1) ∘e q2 ⇒ ⊙(q1 ∘e q2)``."""
    if isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.Unop):
        return ast.Unop(plan.after.op, ast.AppEnv(plan.after.arg, plan.before))
    return None


def appenv_over_binop(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(q1 ⊡ q2) ∘e q ⇒ (q1 ∘e q) ⊡ (q2 ∘e q)``."""
    if isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.Binop):
        return ast.Binop(
            plan.after.op,
            ast.AppEnv(plan.after.left, plan.before),
            ast.AppEnv(plan.after.right, plan.before),
        )
    return None


def appenv_over_map(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ii(q), χ⟨q1⟩(q2) ∘e q ⇒ χ⟨q1 ∘e q⟩(q2 ∘e q)``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.Map)
        and ignores_id(plan.before)
    ):
        return ast.Map(
            ast.AppEnv(plan.after.body, plan.before),
            ast.AppEnv(plan.after.input, plan.before),
        )
    return None


def appenv_over_select(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ii(q), σ⟨q1⟩(q2) ∘e q ⇒ σ⟨q1 ∘e q⟩(q2 ∘e q)``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.Select)
        and ignores_id(plan.before)
    ):
        return ast.Select(
            ast.AppEnv(plan.after.pred, plan.before),
            ast.AppEnv(plan.after.input, plan.before),
        )
    return None


def appenv_over_appenv(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``(q1 ∘e q2) ∘e q ⇒ q1 ∘e (q2 ∘e q)``."""
    if isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.AppEnv):
        return ast.AppEnv(
            plan.after.after, ast.AppEnv(plan.after.before, plan.before)
        )
    return None


def appenv_over_app_ie(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ie(q1), (q1 ∘ q2) ∘e q ⇒ q1 ∘ (q2 ∘e q)``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.App)
        and ignores_env(plan.after.after)
    ):
        return ast.App(plan.after.after, ast.AppEnv(plan.after.before, plan.before))
    return None


def appenv_over_env_merge_l(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``if Ie(q1), (Env ⊗ q1) ∘e q ⇒ q ⊗ q1``."""
    if (
        isinstance(plan, ast.AppEnv)
        and isinstance(plan.after, ast.Binop)
        and isinstance(plan.after.op, ops.OpMergeConcat)
        and isinstance(plan.after.left, ast.Env)
        and ignores_env(plan.after.right)
    ):
        return ast.Binop(ops.OpMergeConcat(), plan.before, plan.after.right)
    return None


def flip_env3(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χ⟨q2⟩(σ⟨q1⟩({In})) ∘e In ⇒ χ⟨q2 ∘e In⟩(σ⟨q1 ∘e In⟩({In}))``.

    Generalises the figure's ``χ⟨Env⟩(σ⟨q⟩({In})) ∘e In`` case: over a
    ``{In}`` singleton the element *is* the input, so the environment
    assignment can move inside both dependent positions, where the other
    rules can eliminate it (``Env ∘e In ⇒ In`` etc.).
    """
    if not (isinstance(plan, ast.AppEnv) and isinstance(plan.before, ast.ID)):
        return None
    after = plan.after
    if not (
        isinstance(after, ast.Map)
        and isinstance(after.input, ast.Select)
        and _is_coll_id(after.input.input)
    ):
        return None
    pred = after.input.pred
    body = after.body
    if isinstance(pred, ast.AppEnv) and isinstance(pred.before, ast.ID) and (
        isinstance(body, ast.AppEnv) and isinstance(body.before, ast.ID)
    ):
        return None  # already flipped
    return ast.Map(
        ast.AppEnv(body, ast.ID()),
        ast.Select(ast.AppEnv(pred, ast.ID()), after.input.input),
    )


def mapenv_over_env_select(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``χe⟨q⟩ ∘e χ⟨Env⟩(σ⟨p⟩({In})) ⇒ χ⟨q⟩(σ⟨p⟩({In}))``.

    The environment is set to a bag whose every element is the *current*
    environment, and whose elements coincide with the current input (the
    selection ranges over ``{In}``), so iterating over it with ``χe`` is
    the same as mapping over the selection with the environment left
    alone.  A CAMP-translation shape (guards feeding binders).
    """
    if not (isinstance(plan, ast.AppEnv) and isinstance(plan.after, ast.MapEnv)):
        return None
    before = plan.before
    if (
        isinstance(before, ast.Map)
        and isinstance(before.body, ast.Env)
        and isinstance(before.input, ast.Select)
        and _is_coll_id(before.input.input)
    ):
        return ast.Map(plan.after.body, before.input)
    return None


def flip_env2(plan: ast.NraeNode) -> Optional[ast.NraeNode]:
    """``σ⟨q⟩({In}) ∘e In ⇒ σ⟨q ∘e In⟩({In})``."""
    if not (isinstance(plan, ast.AppEnv) and isinstance(plan.before, ast.ID)):
        return None
    after = plan.after
    if isinstance(after, ast.Select) and _is_coll_id(after.input):
        if isinstance(after.pred, ast.AppEnv) and isinstance(
            after.pred.before, ast.ID
        ):
            return None  # already in target form; avoid ping-ponging
        return ast.Select(ast.AppEnv(after.pred, ast.ID()), after.input)
    return None


def env_removal_rules() -> List[Rewrite]:
    """The "Environment constructs removal" block of Figure 3."""
    return [
        Rewrite("appenv_over_env_r", appenv_over_env_r, typed=False, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_env_l", appenv_over_env_l, typed=False, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_ignoreenv", appenv_over_ignoreenv, typed=True, heads=(ast.AppEnv,)),
        Rewrite("flip_env1", flip_env1, typed=True, heads=(ast.AppEnv,)),
        Rewrite("flip_env4", flip_env4, typed=True, heads=(ast.AppEnv,)),
        Rewrite("mapenv_to_env", mapenv_to_env, typed=True, heads=(ast.App,)),
        Rewrite("mapenv_over_singleton", mapenv_over_singleton, typed=False, heads=(ast.AppEnv,)),
        Rewrite("mapenv_to_map", mapenv_to_map, typed=True, heads=(ast.AppEnv,)),
    ]


def appenv_pushdown_rules() -> List[Rewrite]:
    """The "∘e pushdown" block of Figure 3."""
    return [
        Rewrite("appenv_over_unop", appenv_over_unop, typed=False, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_binop", appenv_over_binop, typed=False, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_map", appenv_over_map, typed=True, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_select", appenv_over_select, typed=True, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_appenv", appenv_over_appenv, typed=False, heads=(ast.AppEnv,)),
        Rewrite("appenv_over_app_ie", appenv_over_app_ie, typed=False, heads=(ast.AppEnv,)),
        Rewrite(
            "appenv_over_env_merge_l", appenv_over_env_merge_l, typed=True, heads=(ast.AppEnv,)
        ),
        Rewrite("flip_env2", flip_env2, typed=True, heads=(ast.AppEnv,)),
    ]


def extended_env_rules() -> List[Rewrite]:
    """Environment rewrites beyond the Figure 3 catalog.

    The paper's optimizer has "on the order of a hundred rewrites"; the
    figure shows a selection.  These two cover CAMP-translation shapes
    the figure's rules leave behind (each carries the usual soundness
    property tests).
    """
    return [
        Rewrite("flip_env3", flip_env3, typed=True, heads=(ast.AppEnv,)),
        Rewrite("mapenv_over_env_select", mapenv_over_env_select, typed=True, heads=(ast.AppEnv,)),
    ]


def figure3_rules() -> List[Rewrite]:
    """All Figure 3 rewrites, removal rules first."""
    return env_removal_rules() + appenv_pushdown_rules()
