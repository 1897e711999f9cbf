"""The verification harness must catch a Figure 3 rule missing its precondition.

Each mutant is a default rule with one ``Ie``/``Ii`` guard forced true.
The guard is patched only while the mutant's rule function runs, so the
evaluator and every other rule keep the real analysis.  The samples are
the generator's ``"env"`` sort: Figure 3 left-hand sides whose operands
read ``Env`` and ``In``.  The unmutated rule must pass on the same
samples, and the mutant must be refuted.
"""

import random

import pytest

from repro.optim import nraenv_rules
from repro.optim.engine import Rewrite
from repro.optim.verify import CounterexampleError, check_rewrite, gen_plan

#: (rule, the guard function its mutant drops)
MUTANTS = [
    ("appenv_over_ignoreenv", "ignores_env"),  # if Ie(q1), q1 ∘e q2 ⇒ q1
    ("mapenv_to_map", "ignores_id"),  # if Ii(q1), χe⟨q1⟩ ∘e q2 ⇒ χ⟨q1 ∘e In⟩(q2)
    ("flip_env4", "ignores_env"),  # if Ie(q1), χ⟨Env⟩(σ⟨q1⟩({In})) ∘e q2 ⇒ …
]


def without_guard(rule: Rewrite, guard: str) -> Rewrite:
    """``rule`` with ``nraenv_rules.<guard>`` forced true while it runs."""

    def mutant(plan):
        original = getattr(nraenv_rules, guard)
        setattr(nraenv_rules, guard, lambda _plan: True)
        try:
            return rule.fn(plan)
        finally:
            setattr(nraenv_rules, guard, original)

    return Rewrite(
        "%s_without_%s" % (rule.name, guard), mutant, typed=rule.typed, heads=rule.heads
    )


def env_lhs_samples(seed: int, count: int = 60):
    rng = random.Random(seed)
    return [gen_plan(rng, "env", depth=2) for _ in range(count)]


def rule_named(name: str) -> Rewrite:
    return next(rule for rule in nraenv_rules.figure3_rules() if rule.name == name)


@pytest.mark.parametrize("name,guard", MUTANTS)
def test_precondition_drop_is_refuted(name, guard):
    rule = rule_named(name)
    samples = env_lhs_samples(seed=0)
    assert check_rewrite(rule, samples) > 0, "the samples never exercise %s" % name
    with pytest.raises(CounterexampleError):
        check_rewrite(without_guard(rule, guard), samples)


def test_guard_is_restored_after_the_mutant_runs():
    original = nraenv_rules.ignores_env
    mutant = without_guard(rule_named("flip_env4"), "ignores_env")
    for plan in env_lhs_samples(seed=1, count=5):
        mutant.fn(plan)
    assert nraenv_rules.ignores_env is original
