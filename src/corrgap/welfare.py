"""Welfare of partitioning n goods among K players with one shared utility:
the exact optimum over all assignments, the upper bound K * (worst-case
expectation at marginals 1/K), and the exact expected welfare of assigning
each good independently and uniformly at random."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .core import Instance, SetFunction, SizeCapError, ValidationError, as_int
from .distributions import independent_expectation_exact
from .gap import safe_ratio
from .worst_case import worst_case_lp

DP_STEP_CAP = 3**14  # cap on the (k-1) * 3^n steps of the subset DP


def as_players(k) -> int:
    """The one player-count rule: core.as_int's integer (bools and floats
    refused, although range and 1 / k would read them), at least 1."""
    k = as_int(k, "players")
    if k < 1:
        raise ValidationError(f"need at least one player, got players={k}")
    return k


def welfare_ip_optimum(f: SetFunction, k: int) -> float:
    """Maximum of sum_j f(block_j) over assignments of every good to exactly
    one of k players (blocks may be empty). Exhaustive via subset DP."""
    k = as_players(k)
    if (k - 1) * 3**f.n > DP_STEP_CAP:
        raise SizeCapError(f"({k}-1) * 3^{f.n} subset-DP steps exceed cap 3^14")
    # Python floats: the same additions and max as float64, without the
    # per-element cost and overflow warnings of numpy scalars
    values = f.values().tolist()
    best = values  # one player: the block is the whole ground subset
    for _ in range(k - 1):
        nxt = [0.0] * len(values)
        for s in range(len(values)):
            acc = best[0] + values[s]  # give the new player everything in s
            t = s
            while t:
                acc = max(acc, best[t] + values[s & ~t])
                t = (t - 1) & s
            nxt[s] = acc
        best = nxt
    return best[-1]


def welfare_upper_bound(f: SetFunction, k: int) -> float:
    """k times the worst-case expectation at uniform marginals 1/k; an upper
    bound on the optimal welfare."""
    k = as_players(k)
    inst = Instance(f, [1.0 / k] * f.n)
    return k * worst_case_lp(inst).value


def rounding_value(f: SetFunction, k: int) -> float:
    """Exact expected welfare of assigning goods independently uniformly at
    random: each player's bundle is product-Bernoulli(1/k), so the total is
    k * E[f(S)] at marginals 1/k."""
    k = as_players(k)
    return k * independent_expectation_exact(f, [1.0 / k] * f.n)


@dataclass(frozen=True)
class WelfareReport:
    opt_ip: float
    upper_bound: float
    rounding_value: float
    ratio_rounding_over_opt: float | None
    ratio_opt_over_upper: float | None

    def to_json(self) -> dict:
        return asdict(self)


def welfare_report(f: SetFunction, k: int) -> WelfareReport:
    """The three welfare values and their ratios; a value that overflows
    float64 is refused, since no ratio of it means anything."""
    opt = welfare_ip_optimum(f, k)
    upper = welfare_upper_bound(f, k)
    rounding = rounding_value(f, k)
    values = {"opt_ip": opt, "upper_bound": upper, "rounding_value": rounding}
    overflowed = [name for name, v in values.items() if not math.isfinite(v)]
    if overflowed:
        raise ValidationError(
            f"welfare values not finite ({', '.join(overflowed)}): f is too large for float64 sums"
        )
    return WelfareReport(
        opt_ip=opt,
        upper_bound=upper,
        rounding_value=rounding,
        ratio_rounding_over_opt=safe_ratio(rounding, opt),
        ratio_opt_over_upper=safe_ratio(opt, upper),
    )
