"""Outer minimisation over a finite decision space: g(x) = worst-case expected
cost of decision x, the robust and independent argmins, and the ratio
g(x_I) / g(x_R) with the sandwich chain g(x_R) >= E_I(x_R) >= E_I(x_I)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Instance, SetFunction, ValidationError, as_bool, as_real, function_from_json
from .distributions import independent_expectation_exact
from .gap import safe_ratio
from .worst_case import supermodular_worst_case, unit_scale, worst_case_lp

CLOSED_FORM_TOL = 1e-6
_CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class Decision:
    label: str
    function: SetFunction
    supermodular: bool = False

    def to_json(self) -> dict:
        data = {"label": self.label, "function": self.function.to_json()}
        if self.supermodular:
            data["supermodular"] = True
        return data


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
        self.marginals = tuple(as_real(x, "marginal") for x in marginals)
        if len(self.marginals) != n:
            raise ValidationError(f"{len(self.marginals)} marginals for ground set of size {n}")
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
            decisions = [
                Decision(
                    str(entry["label"]),
                    function_from_json(entry["function"]),
                    as_bool(entry.get("supermodular", False), "decision supermodular flag"),
                )
                for entry in data["decisions"]
            ]
            return cls(data["marginals"], decisions)
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"decision-space JSON missing field: {exc}") from None


def evaluate_g(space: DecisionSpace, decision: Decision | int) -> float:
    """Worst-case expected cost of one decision. Decisions flagged supermodular
    use the closed form, cross-checked against the LP to CLOSED_FORM_TOL in
    units of unit_scale(f)."""
    if isinstance(decision, int):
        decision = space.decisions[decision]
    inst = space.instance_for(decision)
    if decision.supermodular:
        closed = supermodular_worst_case(inst).value
        lp = worst_case_lp(inst).value
        if abs(closed - lp) > CLOSED_FORM_TOL * unit_scale(decision.function.values()):
            raise ValidationError(
                f"closed form {closed} and LP {lp} disagree for decision "
                f"{decision.label!r}; the supermodular flag looks wrong"
            )
        return closed
    return worst_case_lp(inst).value


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
    g(x_R) >= E_I(x_R) >= E_I(x_I)."""
    g_values = [evaluate_g(space, d) for d in space.decisions]
    indep_values = [independent_expectation_exact(d.function, space.marginals) for d in space.decisions]

    robust_idx = min(range(len(g_values)), key=lambda k: (g_values[k], k))
    indep_idx = min(range(len(indep_values)), key=lambda k: (indep_values[k], k))

    g_robust = g_values[robust_idx]
    g_indep = g_values[indep_idx]
    chain_ok = (
        g_robust >= indep_values[robust_idx] - _CHAIN_TOL
        and indep_values[robust_idx] >= indep_values[indep_idx] - _CHAIN_TOL
    )
    return RobustSolveReport(
        x_robust=space.decisions[robust_idx].label,
        g_robust=g_robust,
        x_independent=space.decisions[indep_idx].label,
        independent_value=indep_values[indep_idx],
        g_independent=g_indep,
        ratio=safe_ratio(g_indep, g_robust),
        chain_ok=chain_ok,
    )
