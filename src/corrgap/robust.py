"""Outer minimisation over a finite decision space: g(x) = worst-case expected
cost of decision x, the robust and independent argmins, and the ratio
g(x_I) / g(x_R) with the sandwich chain g(x_R) >= E_I(x_R) >= E_I(x_I).

Every evaluated g is the scenario LP's value. For supermodular f (the
two-stage flow family) its simplex starts on the nested prefix chain, the
closed form's support, so it prices once and stops there. The product
distribution has the decisions' common marginals, so E_I(x) <= g(x) for
every x: the robust argmin skips the scenario LP of any decision whose E_I
already lies above the least g found so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import CHECK_TOL, Instance, SetFunction, ValidationError, as_marginals
from .core import function_from_json
from .distributions import independent_expectation_exact
from .gap import safe_ratio
from .worst_case import CERT_TOL, worst_case_lp


@dataclass(frozen=True)
class Decision:
    label: str
    function: SetFunction

    def to_json(self) -> dict:
        return {"label": self.label, "function": self.function.to_json()}


class DecisionSpace:
    """Finite list of decisions, each inducing a cost function on one shared
    ground set, with marginals common to all decisions."""

    def __init__(self, marginals: Sequence[float], decisions: Sequence[Decision]):
        if not decisions:
            raise ValidationError("decision space is empty")
        n = decisions[0].function.n
        for d in decisions:
            if d.function.n != n:
                raise ValidationError("decisions disagree on the ground set size")
        self.marginals = as_marginals(marginals, n)
        self.decisions = tuple(decisions)
        self.n = n

    def instance_for(self, decision: Decision) -> Instance:
        return Instance(decision.function, self.marginals)

    def to_json(self) -> dict:
        return {
            "marginals": list(self.marginals),
            "decisions": [d.to_json() for d in self.decisions],
        }

    @classmethod
    def from_json(cls, data: dict) -> "DecisionSpace":
        try:
            decisions = []
            for entry in data["decisions"]:
                label = entry["label"]
                if not isinstance(label, str):
                    raise ValidationError(f"decision label must be a string, got {label!r}")
                decisions.append(Decision(label, function_from_json(entry["function"])))
            return cls(data["marginals"], decisions)
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"decision-space JSON missing field: {exc}") from None


def evaluate_g(space: DecisionSpace, k: int) -> float:
    """Worst-case expected cost of decision k: the scenario LP's value."""
    return worst_case_lp(space.instance_for(space.decisions[k])).value


@dataclass(frozen=True)
class RobustSolveReport:
    x_robust: str
    g_robust: float
    x_independent: str
    independent_value: float
    g_independent: float
    ratio: float | None
    chain_ok: bool

    def to_json(self) -> dict:
        return {
            "x_R": self.x_robust,
            "g_x_R": self.g_robust,
            "x_I": self.x_independent,
            "E_I_x_I": self.independent_value,
            "g_x_I": self.g_independent,
            "ratio": self.ratio,
            "chain_ok": self.chain_ok,
        }


def approximation_ratio(space: DecisionSpace) -> RobustSolveReport:
    """Full report: both argmins (ties to the first decision), g at the
    independent decision, the ratio g(x_I)/g(x_R), and a numeric check of
    g(x_R) >= E_I(x_R) >= E_I(x_I) within CHECK_TOL * the larger f.scale of the two.

    Decisions are visited by ascending (E_I, index), x_I first. x_I is
    always evaluated; any other x is skipped when E_I(x) - CERT_TOL *
    f_x.scale exceeds the least g so far. The LP stops within LP_TOL *
    f_x.scale of g(x) >= E_I(x), so a skipped x has g(x) above that
    least g and cannot be x_R: the report is the one that evaluating every g
    gives."""
    decisions = space.decisions
    indep_values = [independent_expectation_exact(d.function, space.marginals) for d in decisions]
    indep_idx = min(range(len(decisions)), key=lambda k: (indep_values[k], k))

    g_values: dict[int, float] = {}
    g_min = math.inf
    order = sorted(range(len(decisions)), key=lambda k: (indep_values[k], k))
    order.remove(indep_idx)  # already first unless some E_I is NaN
    for k in [indep_idx, *order]:
        if indep_values[k] - CERT_TOL * decisions[k].function.scale > g_min:
            continue
        g_values[k] = evaluate_g(space, k)
        g_min = min(g_min, g_values[k])

    robust_idx = min(g_values, key=lambda k: (g_values[k], k))
    g_robust = g_values[robust_idx]
    g_indep = g_values[indep_idx]
    pair = (decisions[robust_idx], decisions[indep_idx])
    tol = CHECK_TOL * max(d.function.scale for d in pair)
    chain_ok = (
        g_robust >= indep_values[robust_idx] - tol
        and indep_values[robust_idx] >= indep_values[indep_idx] - tol
    )
    return RobustSolveReport(
        x_robust=decisions[robust_idx].label,
        g_robust=g_robust,
        x_independent=decisions[indep_idx].label,
        independent_value=indep_values[indep_idx],
        g_independent=g_indep,
        ratio=safe_ratio(g_indep, g_robust),
        chain_ok=chain_ok,
    )
