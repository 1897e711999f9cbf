"""Default optimizer configurations (paper §8).

The NRAe optimizer mixes the paper's "two distinct categories of
rewrites: (i) NRAe rewrites like the ones presented in Section 4.3, and
(ii) classic NRA rewrites lifted to NRAe" — plus the CAMP-targeted
shapes of Figure 13, ordered first so they fire before generic rules
rearrange their patterns.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.optim.camp_specific_rules import figure13_rules
from repro.optim.cost import size_depth_cost
from repro.optim.engine import OptimizeResult, Rewrite, optimize
from repro.optim.nnrc_rules import nnrc_rules
from repro.optim.nra_lifted_rules import classic_relational_rules, figure12_rules
from repro.optim.nraenv_rules import extended_env_rules, figure3_rules


def default_nraenv_rules() -> List[Rewrite]:
    """The full NRAe rule set (Figures 13 + 3 + extensions + 12 + classics)."""
    return (
        figure13_rules()
        + figure3_rules()
        + extended_env_rules()
        + figure12_rules()
        + classic_relational_rules()
    )


def default_nra_rules() -> List[Rewrite]:
    """Pure-NRA rules only — used on the direct CAMP→NRA path (Figure 9).

    This is exactly the "(ii) classic NRA rewrites" category; the
    comparison of Figure 9 is NRA-with-only-these vs NRAe-with-all.
    """
    return figure12_rules() + classic_relational_rules()


def default_nnrc_rules() -> List[Rewrite]:
    return nnrc_rules()


def optimize_nraenv(plan, rules: Optional[Sequence[Rewrite]] = None) -> OptimizeResult:
    """Optimize an NRAe plan with the default (or given) rule set.

    ``rules=None`` means the defaults; an empty list means no rewrites.
    """
    return optimize(plan, rules if rules is not None else default_nraenv_rules(), size_depth_cost)


def optimize_nra(plan, rules: Optional[Sequence[Rewrite]] = None) -> OptimizeResult:
    """Optimize a pure-NRA plan with NRA rules only."""
    return optimize(plan, rules if rules is not None else default_nra_rules(), size_depth_cost)


def optimize_nnrc(expr, rules: Optional[Sequence[Rewrite]] = None) -> OptimizeResult:
    """Optimize an NNRC expression with the default (or given) rule set."""
    return optimize(expr, rules if rules is not None else default_nnrc_rules(), size_depth_cost)
