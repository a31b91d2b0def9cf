"""Correlation gap kappa = (worst-case expectation) / (independent expectation)
for an instance, with the cost-sharing bound eta * beta * e/(e-1)."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .core import Instance, ValidationError
from .distributions import independent_expectation_exact
from .worst_case import worst_case_lp

GAP_BOUND_CONSTANT = math.e / (math.e - 1.0)
BOUND_TOL = 1e-6


@dataclass(frozen=True)
class GapReport:
    worst_value: float
    independent_value: float
    kappa: float | None
    undefined: bool = False
    bound: float | None = None
    bound_satisfied: bool | None = None

    def to_json(self) -> dict:
        return asdict(self)


def safe_ratio(numerator: float, denominator: float) -> float | None:
    """numerator / denominator, except that a zero denominator gives 1.0 when
    the numerator is zero too and None otherwise -- never NaN. Only an exact
    zero counts: a small number is a value in small units, not a zero."""
    if denominator != 0.0:
        return numerator / denominator
    return 1.0 if numerator == 0.0 else None


def theoretical_bound(eta: float, beta: float) -> float:
    """The gap bound eta * beta * e/(e-1) for an (eta, beta) cost-sharing scheme."""
    if not (1.0 <= eta < math.inf and 1.0 <= beta < math.inf):
        raise ValidationError("eta and beta must both be finite and >= 1")
    return eta * beta * GAP_BOUND_CONSTANT


def correlation_gap(
    inst: Instance,
    eta: float | None = None,
    beta: float | None = None,
) -> GapReport:
    """kappa = L/I with L from the scenario LP and I by exact enumeration.
    eta and beta, when given, are checked before either is computed.

    When I is zero the ratio has no value: for the all-zero case (L also zero)
    kappa is reported as 1, otherwise as undefined -- never as NaN.
    """
    bound = None
    if eta is not None or beta is not None:
        bound = theoretical_bound(eta if eta is not None else 1.0, beta if beta is not None else 1.0)
    worst = worst_case_lp(inst).value
    indep = independent_expectation_exact(inst.function, inst.marginals)
    kappa = safe_ratio(worst, indep)
    bound_satisfied = None if bound is None or kappa is None else kappa <= bound + BOUND_TOL

    return GapReport(worst, indep, kappa, kappa is None, bound, bound_satisfied)
