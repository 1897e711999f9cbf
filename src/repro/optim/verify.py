"""Empirical verification of equivalences and rewrites.

The Coq development proves every optimizer rewrite sound; this module is
the Python substitute: it *checks* the same statements on randomly
generated plans, environments, and data.

Two checking modes mirror the paper's two notions:

- **untyped** (Definition 3, strong equivalence): for every environment
  and input, either both sides fail to evaluate, or both produce the
  same value;
- **typed** (Definition 4, typed rewrites): trials where the *source*
  plan fails are discarded (the inputs were not well-typed for it); on
  the rest, the rewritten plan must succeed with the same value.

The random plan generator is schema-directed: it produces plans that are
mostly well-shaped over records ``[a: int, b: int]`` with an environment
record ``[a: int, u: int]`` — the executable stand-in for the paper's
"well-typed plans" quantification — while still exercising error paths.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.data import operators as ops
from repro.data.model import Bag, Record
from repro.nraenv import ast, builders as b
from repro.nraenv.context import ParametricEquivalence, instantiate
from repro.nraenv.eval import EvalError, eval_nraenv
from repro.optim.engine import Rewrite, rewrite_once


class CounterexampleError(AssertionError):
    """Raised when a checked equivalence fails on a concrete input."""


# ---------------------------------------------------------------------------
# Random data
# ---------------------------------------------------------------------------


def random_element(rng: random.Random) -> Record:
    """A random record of the element schema ``[a: int, b: int]``."""
    return Record({"a": rng.randint(0, 5), "b": rng.randint(0, 5)})


def random_element_bag(rng: random.Random, max_len: int = 4) -> Bag:
    return Bag(random_element(rng) for _ in range(rng.randint(0, max_len)))


def random_env_record(rng: random.Random) -> Record:
    """A random environment record ``[a: int, u: int]``.

    Shares field ``a`` with the element schema so that ⊗-merges both
    succeed and fail across trials.
    """
    return Record({"a": rng.randint(0, 5), "u": rng.randint(0, 5)})


def random_datum(rng: random.Random) -> Any:
    choice = rng.random()
    if choice < 0.5:
        return random_element(rng)
    if choice < 0.9:
        return random_element_bag(rng)
    return rng.randint(0, 5)


def random_environment(rng: random.Random, bag_env: bool = False) -> Any:
    if bag_env:
        return Bag(random_env_record(rng) for _ in range(rng.randint(0, 3)))
    return random_env_record(rng)


def random_constants(rng: random.Random) -> dict:
    return {"T": random_element_bag(rng, max_len=5)}


# ---------------------------------------------------------------------------
# Random plans, by sort
# ---------------------------------------------------------------------------


def gen_plan(rng: random.Random, sort: str = "any", depth: int = 2) -> ast.NraeNode:
    """Generate a random plan of the given sort.

    Sorts: ``"bag"`` (bag of element records), ``"pred"`` (boolean over
    an element record input), ``"elem"`` (element record → value),
    ``"record"`` (a record value), ``"any"``.  Generated plans may read
    both ``In`` and ``Env`` — instantiating NRA equivalences with these
    is precisely what Theorem 1 licenses.

    ``"env"`` (never picked by ``"any"``) generates the left-hand sides
    of Figure 3's environment rules, with operands that read ``Env``
    and ``In`` — the inputs on which a rule missing its ``Ie``/``Ii``
    precondition goes wrong.
    """
    if sort == "env":
        return _gen_env_lhs(rng, depth)
    if sort == "bag":
        return _gen_bag(rng, depth)
    if sort == "pred":
        return _gen_pred(rng, depth)
    if sort == "elem":
        return _gen_elem(rng, depth)
    if sort == "record":
        return _gen_record(rng, depth)
    pick = rng.choice(["bag", "pred", "elem", "record"])
    return gen_plan(rng, pick, depth)


def _int_source(rng: random.Random) -> ast.NraeNode:
    return rng.choice(
        [
            b.const(rng.randint(0, 5)),
            b.dot(b.id_(), rng.choice(["a", "b"])),
            b.dot(b.env(), rng.choice(["a", "u"])),
        ]
    )


def _gen_record(rng: random.Random, depth: int) -> ast.NraeNode:
    choices: List[Callable[[], ast.NraeNode]] = [
        lambda: b.id_(),
        lambda: b.const(random_element(rng)),
        lambda: b.rec_field(rng.choice(["a", "b", "c"]), _int_source(rng)),
    ]
    if depth > 0:
        choices.append(
            lambda: b.concat(_gen_record(rng, depth - 1), _gen_record(rng, depth - 1))
        )
        choices.append(lambda: b.env())
    return rng.choice(choices)()


def _gen_elem(rng: random.Random, depth: int) -> ast.NraeNode:
    choices: List[Callable[[], ast.NraeNode]] = [
        lambda: b.id_(),
        lambda: _int_source(rng),
        lambda: _gen_record(rng, depth),
    ]
    if depth > 0:
        choices.append(
            lambda: b.comp(_gen_elem(rng, depth - 1), _gen_record(rng, depth - 1))
        )
        choices.append(
            lambda: b.appenv(
                _gen_elem(rng, depth - 1),
                b.concat(b.env(), _gen_record(rng, depth - 1)),
            )
        )
    return rng.choice(choices)()


def _gen_pred(rng: random.Random, depth: int) -> ast.NraeNode:
    comparison = rng.choice([ops.OpEq(), ops.OpLt(), ops.OpLe()])
    simple = b.binop(comparison, _int_source(rng), _int_source(rng))
    if depth > 0 and rng.random() < 0.3:
        connective = rng.choice([ops.OpAnd(), ops.OpOr()])
        return b.binop(
            connective, simple, _gen_pred(rng, depth - 1)
        )
    if rng.random() < 0.15:
        return b.neg(simple)
    return simple


def _gen_bag(rng: random.Random, depth: int) -> ast.NraeNode:
    choices: List[Callable[[], ast.NraeNode]] = [
        lambda: b.const(random_element_bag(rng)),
        lambda: b.table("T"),
        lambda: b.coll(_gen_record(rng, max(depth - 1, 0))),
    ]
    if depth > 0:
        choices.extend(
            [
                lambda: b.union(_gen_bag(rng, depth - 1), _gen_bag(rng, depth - 1)),
                lambda: b.sigma(_gen_pred(rng, depth - 1), _gen_bag(rng, depth - 1)),
                lambda: b.chi(_gen_record(rng, depth - 1), _gen_bag(rng, depth - 1)),
                lambda: b.appenv(
                    _gen_bag(rng, depth - 1),
                    b.concat(b.env(), _gen_record(rng, depth - 1)),
                ),
                lambda: b.merge(b.env(), _gen_record(rng, depth - 1)),
            ]
        )
    return rng.choice(choices)()


def _gen_env_pred(rng: random.Random, depth: int) -> ast.NraeNode:
    """A predicate over the element that reads ``Env`` half the time."""
    if rng.random() < 0.5:
        return _gen_pred(rng, depth)
    comparison = rng.choice([ops.OpEq(), ops.OpLt(), ops.OpLe()])
    return b.binop(comparison, b.dot(b.env(), rng.choice(["a", "u"])), _int_source(rng))


def _gen_env_lhs(rng: random.Random, depth: int) -> ast.NraeNode:
    choices: List[Callable[[], ast.NraeNode]] = [
        # χ⟨Env⟩(σ⟨p⟩({In})) ∘e q: flip_env1 (q = In), flip_env4
        lambda: b.appenv(
            b.chi(b.env(), b.sigma(_gen_env_pred(rng, depth), b.coll(b.id_()))),
            rng.choice([b.id_(), _gen_record(rng, depth)]),
        ),
        # χe⟨q1⟩ ∘e q2: mapenv_over_singleton, mapenv_to_map
        lambda: b.appenv(b.chie(_gen_elem(rng, depth)), _gen_bag(rng, depth)),
        # q1 ∘e (Env ⊕ q2): the removal and pushdown rules
        lambda: b.appenv(
            gen_plan(rng, "any", depth), b.concat(b.env(), _gen_record(rng, depth))
        ),
    ]
    return rng.choice(choices)()


# ---------------------------------------------------------------------------
# Equivalence checking
# ---------------------------------------------------------------------------

_FAILED = object()


def _run(plan: ast.NraeNode, env: Any, datum: Any, constants: dict) -> Any:
    try:
        return eval_nraenv(plan, env, datum, constants)
    except EvalError:
        return _FAILED


def check_plans_equivalent(
    lhs: ast.NraeNode,
    rhs: ast.NraeNode,
    trials: int = 100,
    typed: bool = False,
    seed: int = 0,
    bag_env: bool = False,
) -> int:
    """Check Definition 3/4 equivalence of two plans on random inputs.

    Returns the number of *informative* trials (both sides evaluated, or
    matching failures in untyped mode).  Raises
    :class:`CounterexampleError` on disagreement.
    """
    rng = random.Random(seed)
    informative = 0
    for trial in range(trials):
        env = random_environment(rng, bag_env=bag_env or rng.random() < 0.2)
        datum = random_datum(rng)
        constants = random_constants(rng)
        left = _run(lhs, env, datum, constants)
        right = _run(rhs, env, datum, constants)
        if typed and (left is _FAILED or right is _FAILED):
            # Definition 4 only quantifies over well-typed inputs; without
            # a per-trial typing derivation we treat any failure as
            # evidence the trial was ill-typed.  Typed rules additionally
            # get hand-written tests on well-typed inputs where success
            # is required (see tests/optim).
            continue
        if left is _FAILED and right is _FAILED:
            informative += 1
            continue
        if left is _FAILED or right is _FAILED or left != right:
            raise CounterexampleError(
                "plans disagree on trial %d:\n  lhs: %r\n  rhs: %r\n"
                "  env=%r datum=%r constants=%r\n  lhs value: %r\n  rhs value: %r"
                % (trial, lhs, rhs, env, datum, constants, left, right)
            )
        informative += 1
    return informative


def check_rewrite(
    rule: Rewrite,
    plan_samples: Sequence[ast.NraeNode],
    trials_per_plan: int = 40,
    seed: int = 0,
) -> int:
    """Check a rewrite rule against plans where it fires.

    For each sample plan, applies the rule everywhere it matches (one
    engine pass restricted to this rule) and, when the plan changed,
    checks equivalence of the original and rewritten plans.  Returns how
    many sample plans actually exercised the rule.
    """
    fired = 0
    for index, plan in enumerate(plan_samples):
        rewritten = rewrite_once(plan, [rule])
        if rewritten == plan:
            continue
        fired += 1
        check_plans_equivalent(
            plan,
            rewritten,
            trials=trials_per_plan,
            typed=rule.typed,
            seed=seed + index,
        )
    return fired


def check_parametric_equivalence(
    equiv: ParametricEquivalence,
    instantiations: int = 25,
    trials_per_instantiation: int = 25,
    seed: int = 0,
    env_using: bool = True,
) -> int:
    """Empirically check ``≡ec`` for a parametric equivalence (Thm 1).

    Instantiates the plan variables with random plans of the declared
    sorts — including environment-reading plans when ``env_using`` —
    and checks every instantiation on random inputs.  This is the
    executable reading of Theorem 1's conclusion.
    """
    rng = random.Random(seed)
    checked = 0
    for round_index in range(instantiations):
        args = []
        for index in range(equiv.arity):
            sort = equiv.sort_of(index)
            plan = gen_plan(rng, sort, depth=2)
            if not env_using:
                # restrict to the pure-NRA fragment (≡c rather than ≡ec)
                while not ast.is_nra(plan):
                    plan = gen_plan(rng, sort, depth=2)
            args.append(plan)
        lhs, rhs = equiv.instantiate(args)
        check_plans_equivalent(
            lhs,
            rhs,
            trials=trials_per_instantiation,
            typed=True,
            seed=seed * 1000 + round_index,
        )
        checked += 1
    return checked


def random_plans(count: int, seed: int = 0, depth: int = 3) -> List[ast.NraeNode]:
    """A deterministic batch of random plans (rewrite-check fodder)."""
    rng = random.Random(seed)
    return [gen_plan(rng, "any", depth) for _ in range(count)]
