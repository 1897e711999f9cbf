"""Operational semantics of NRAe (paper Figure 2).

Implements the judgment ``γ ⊢ q @ d ⇓a d'``: in environment ``γ``,
query ``q`` evaluated against input ``d`` produces ``d'``.

The semantics is partial — when no derivation exists (e.g. mapping over
a non-bag), :class:`EvalError` is raised.  Equivalence (Definition 3)
treats "both sides have no derivation" as agreement, and the
property-test harness in :mod:`repro.optim.verify` does the same.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.data import kernel
from repro.data.model import Bag, DataError, Record
from repro.nraenv import ast


class EvalError(DataError):
    """No evaluation derivation exists for the given plan and inputs."""


#: Optional observability hook (see :mod:`repro.obs`).  ``None`` keeps
#: the interpreter on its bare path: the only cost is one global load
#: and an ``is None`` test per node.
_OBSERVER = None


def set_observer(observer) -> None:
    """Install (or with ``None``, remove) the evaluation observer.

    The observer receives ``on_node(plan)`` for every node evaluated,
    ``on_bag(size)`` for every intermediate bag an iterating operator
    consumes, and ``enter_env()``/``exit_env()`` around ``∘e`` frames
    (its high-water mark is the maximum environment-composition depth).
    """
    global _OBSERVER
    _OBSERVER = observer


def eval_nraenv(
    plan: ast.NraeNode,
    env: Any = None,
    datum: Any = None,
    constants: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Evaluate ``plan`` with environment ``env`` and input ``datum``.

    ``constants`` maps database constant names (tables) to values for
    :class:`~repro.nraenv.ast.GetConstant` nodes.
    """
    if env is None:
        env = Record({})
    constants = constants or {}
    return _eval(plan, env, datum, constants)


def _eval(
    plan: ast.NraeNode, env: Any, datum: Any, constants: Mapping[str, Any]
) -> Any:
    observer = _OBSERVER
    if observer is not None:
        observer.on_node(plan)
    # (Constant)
    if isinstance(plan, ast.Const):
        return plan.value
    # (ID)
    if isinstance(plan, ast.ID):
        return datum
    if isinstance(plan, ast.GetConstant):
        if plan.cname not in constants:
            raise EvalError("unknown database constant %r" % plan.cname)
        return constants[plan.cname]
    # (Comp)
    if isinstance(plan, ast.App):
        intermediate = _eval(plan.before, env, datum, constants)
        return _eval(plan.after, env, intermediate, constants)
    # (Unary)
    if isinstance(plan, ast.Unop):
        value = _eval(plan.arg, env, datum, constants)
        try:
            return plan.op.apply(value)
        except DataError as exc:
            raise EvalError(str(exc)) from exc
    # (Binary)
    if isinstance(plan, ast.Binop):
        left = _eval(plan.left, env, datum, constants)
        right = _eval(plan.right, env, datum, constants)
        try:
            return plan.op.apply(left, right)
        except DataError as exc:
            raise EvalError(str(exc)) from exc
    # (Map, Map∅)
    if isinstance(plan, ast.Map):
        source = _eval(plan.input, env, datum, constants)
        _require_bag(source, "χ")
        if observer is not None:
            observer.on_bag(len(source))
        return Bag(_eval(plan.body, env, item, constants) for item in source)
    # (SelT, SelF, Sel∅)
    if isinstance(plan, ast.Select):
        source = _eval(plan.input, env, datum, constants)
        _require_bag(source, "σ")
        if observer is not None:
            observer.on_bag(len(source))
        kept = []
        for item in source:
            verdict = _eval(plan.pred, env, item, constants)
            if not isinstance(verdict, bool):
                raise EvalError("σ predicate returned non-boolean %r" % (verdict,))
            if verdict:
                kept.append(item)
        return Bag(kept)
    # (Prod, Prodˡ∅, Prodʳ∅)
    if isinstance(plan, ast.Product):
        left = _eval(plan.left, env, datum, constants)
        _require_bag(left, "×")
        if not left:
            return Bag([])
        right = _eval(plan.right, env, datum, constants)
        _require_bag(right, "×")
        if observer is not None:
            observer.on_bag(len(left))
            observer.on_bag(len(right))
        return _product(left, right)
    # (DJ, DJ∅)
    if isinstance(plan, ast.DepJoin):
        source = _eval(plan.input, env, datum, constants)
        _require_bag(source, "⋈d")
        if observer is not None:
            observer.on_bag(len(source))
        out = []
        for item in source:
            dependent = _eval(plan.body, env, item, constants)
            _require_bag(dependent, "⋈d body")
            out.extend(_product(Bag([item]), dependent).items)
        return Bag(out)
    # (Default¬∅, Default∅)
    if isinstance(plan, ast.Default):
        left = _eval(plan.left, env, datum, constants)
        if isinstance(left, Bag) and not left:
            return _eval(plan.right, env, datum, constants)
        return left
    # (Env)
    if isinstance(plan, ast.Env):
        return env
    # (Compᵉ)
    if isinstance(plan, ast.AppEnv):
        new_env = _eval(plan.before, env, datum, constants)
        if observer is None:
            return _eval(plan.after, new_env, datum, constants)
        observer.enter_env()
        try:
            return _eval(plan.after, new_env, datum, constants)
        finally:
            observer.exit_env()
    # (Mapᵉ, Mapᵉ∅)
    if isinstance(plan, ast.MapEnv):
        if not isinstance(env, Bag):
            raise EvalError("χe requires the environment to be a bag, got %r" % (env,))
        if observer is not None:
            observer.on_bag(len(env))
        return Bag(_eval(plan.body, item, datum, constants) for item in env)
    raise EvalError("unknown NRAe node %r" % (plan,))


def _require_bag(value: Any, op: str) -> None:
    if not isinstance(value, Bag):
        raise EvalError("%s expects a bag, got %r" % (op, value))


def _product(left: Bag, right: Bag) -> Bag:
    # The cartesian loop itself lives in the kernel, shared by every
    # evaluator; this wrapper only converts the failure type.
    try:
        return kernel.product(left, right)
    except DataError as exc:
        raise EvalError(str(exc)) from exc
