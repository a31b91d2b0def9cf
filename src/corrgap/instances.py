"""Built-in instances with machine-checkable expected facts, seeded random
instance generators, and the reproduction suite behind `corrgap verify`."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from math import comb, log
from typing import Callable

import numpy as np

from .core import (
    CoverageMax,
    FacilityLocationCost,
    Instance,
    SetFunction,
    SizeCapError,
    TableFunction,
    TwoStageFlow,
    ValidationError,
    block_max_counts,
    check_ground_size,
    elements_of,
    function_from_json,
    is_monotone,
    is_submodular,
    is_supermodular,
    subset_sums,
)
from .cost_sharing import certify, incremental_scheme, lift_scheme, partial_prefix_cross_monotone
from .distributions import independent_expectation_exact
from .gap import GAP_BOUND_CONSTANT, correlation_gap
from .rng import SplitMix64
from .robust import Decision, DecisionSpace, approximation_ratio, evaluate_g
from .split import split_instance, verify_split_properties
from .welfare import as_players, welfare_report
from .worst_case import supermodular_worst_case, verify_certificate, worst_case_lp


# ---------------------------------------------------------------------------
# named constructors


def two_stage_flow_space(n: int) -> DecisionSpace:
    """Capacity decisions x = 0..n against n coin-flip unit demands; unmet
    demand is repaired at 2^n per unit, so ignoring correlations is punished
    exponentially. Every induced cost function is supermodular."""
    if n < 2:
        raise ValidationError(f"two-stage flow family needs n >= 2, got {n}")
    decisions = [Decision(str(x), TwoStageFlow(n, x)) for x in range(n + 1)]
    return DecisionSpace([0.5] * n, decisions)


def coverage_partition_instance(k: int) -> Instance:
    """n = k^2 elements in k blocks of k, marginals 1/k, cost = the largest
    per-block hit count. Worst case concentrates on whole blocks (value k);
    independently the blocks are iid Binomial(k, 1/k) draws."""
    if k < 2:
        raise ValidationError(f"coverage partition family needs k >= 2, got {k}")
    n = k * k
    check_ground_size(n)
    blocks = [list(range(i * k, (i + 1) * k)) for i in range(k)]
    return Instance(CoverageMax(n, blocks), [1.0 / k] * n)


def max_binomial_expectation(k: int) -> float:
    """E[max of k iid Binomial(k, 1/k)] by direct profile enumeration --
    the independent-leg oracle for the coverage partition family."""
    pmf = [comb(k, z) * (1.0 / k) ** z * (1.0 - 1.0 / k) ** (k - z) for z in range(k + 1)]
    total = 0.0

    def recurse(depth: int, weight: float, current_max: int):
        nonlocal total
        if depth == k:
            total += weight * current_max
            return
        for z in range(k + 1):
            recurse(depth + 1, weight * pmf[z], max(current_max, z))

    recurse(0, 1.0, 0)
    return total


def coverage_two_stage_space(k: int) -> DecisionSpace:
    """Two-stage extension of the coverage partition family: decision m buys m
    disjoint transversals up front (covering the first m elements of every
    block) at a per-set price calibrated to the independent expectation."""
    base = coverage_partition_instance(k)
    n = k * k
    price = 1.1 * max_binomial_expectation(k) / k
    masks = np.arange(1 << n, dtype=np.uint64)
    decisions = []
    for m in range(k + 1):
        residual_blocks = [
            sum(1 << e for e in range(i * k + m, (i + 1) * k)) for i in range(k)
        ]
        table = m * price + block_max_counts(masks, residual_blocks).astype(np.float64)
        decisions.append(Decision(str(m), TableFunction(table)))
    return DecisionSpace(base.marginals, decisions)


def threshold_instance(n: int) -> Instance:
    """f(S) = 1 for nonempty S, marginals 1/n: the gap tends to e/(e-1)."""
    check_ground_size(n)
    table = np.ones(1 << n)
    table[0] = 0.0
    return Instance(TableFunction(table), [1.0 / n] * n)


def threshold_kappa_closed_form(n: int) -> float:
    return 1.0 / (1.0 - (1.0 - 1.0 / n) ** n)


@dataclass(frozen=True)
class WelfareCase:
    """A shared utility plus the player count it is meant to be divided among."""

    function: SetFunction
    players: int

    def __post_init__(self):
        object.__setattr__(self, "players", as_players(self.players))

    def instance(self) -> Instance:
        return Instance(self.function, [1.0 / self.players] * self.function.n)

    def to_json(self) -> dict:
        return {"function": self.function.to_json(), "players": self.players}

    @classmethod
    def from_json(cls, data: dict) -> "WelfareCase":
        try:
            return cls(function_from_json(data["function"]), data.get("players"))
        except KeyError as exc:
            raise ValidationError(f"welfare JSON missing field: {exc}") from None


def welfare_gap_case() -> WelfareCase:
    """Six goods, three players, monotone submodular utility taking values
    0/2/3/4: the exact optimum is 11 while the relaxation bound is 12."""
    lo_mask, hi_mask = 0b000111, 0b111000
    table = []
    for s in range(1 << 6):
        lo = (s & lo_mask).bit_count()
        hi = (s & hi_mask).bit_count()
        if s == 0:
            table.append(0.0)
        elif lo >= 2 or hi >= 2:
            table.append(4.0)
        elif lo == 1 and hi == 1:
            table.append(3.0)
        else:
            table.append(2.0)
    return WelfareCase(TableFunction(table), 3)


@dataclass(frozen=True)
class PoissonMaxResult:
    expected_max: float
    growth_reference: float | None  # log M / log log M, when defined


def poisson_max_expectation(m: int) -> PoissonMaxResult:
    """Exact E[max of m iid mean-1 Poisson draws] by the tail identity
    E[Z] = sum_k (1 - F(k)^m), with the tail of F accumulated term by term and
    powers taken through log1p to stay exact for m up to 1e9."""
    if not 1 <= m <= 10**9:
        raise ValidationError("poisson maximum oracle accepts 1 <= m <= 1e9")
    total = 0.0
    term = math.exp(-1.0)  # P(X = 0)
    upper_tail = 1.0 - term  # P(X > 0)
    k = 0
    while True:
        contrib = -math.expm1(m * math.log1p(-upper_tail)) if upper_tail > 0 else 0.0
        total += contrib
        if contrib < 1e-15 and k > 2:
            break
        k += 1
        term /= k
        upper_tail = max(upper_tail - term, 0.0)
    reference = log(m) / log(log(m)) if m >= 3 else None
    return PoissonMaxResult(total, reference)


# ---------------------------------------------------------------------------
# seeded generators


def random_coverage_function(seed: int, n: int) -> TableFunction:
    """Weighted coverage function from a random bipartite incidence: item i
    covers a random set of weighted universe points, every item covering at
    least one. Monotone and submodular by construction."""
    check_ground_size(n)
    rng = SplitMix64(seed)
    universe = n + rng.randrange(n + 1)
    weights = [rng.uniform(0.5, 2.0) for _ in range(universe)]
    covered_by = []
    for _ in range(universe):
        mask = 0
        for i in range(n):
            if rng.random() < 0.4:
                mask |= 1 << i
        covered_by.append(mask)
    for i in range(n):
        if not any(mask >> i & 1 for mask in covered_by):
            covered_by[rng.randrange(universe)] |= 1 << i

    masks = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n)
    for w, cov in zip(weights, covered_by):
        table += w * ((masks & cov) != 0)
    return TableFunction(table)


def random_coverage_instance(seed: int, n: int) -> Instance:
    """Coverage function plus uniform-random marginals from the same stream."""
    f = random_coverage_function(seed, n)
    rng = SplitMix64(seed ^ 0x5EED)
    return Instance(f, [rng.random() for _ in range(n)])


def random_supermodular_instance(seed: int, n: int) -> Instance:
    """f(S) = g(|S|) + modular part with g convex nondecreasing (sorted random
    increments), plus random marginals."""
    check_ground_size(n)
    rng = SplitMix64(seed)
    increments = sorted(rng.uniform(0.0, 3.0) for _ in range(n))
    g = [0.0]
    for inc in increments:
        g.append(g[-1] + inc)
    weights = [rng.uniform(0.0, 2.0) for _ in range(n)]
    marginals = [rng.random() for _ in range(n)]

    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64))
    table = np.asarray(g)[sizes] + subset_sums(weights)
    return Instance(TableFunction(table), marginals)


def random_monotone_instance(seed: int, n: int) -> Instance:
    """Arbitrary random monotone function: each set's value is the max of its
    facets plus a fresh nonnegative increment. Random marginals."""
    check_ground_size(n)
    rng = SplitMix64(seed)
    table = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        floor = max(table[mask & ~(1 << i)] for i in elements_of(mask))
        table[mask] = floor + rng.random()
    marginals = [rng.random() for _ in range(n)]
    return Instance(TableFunction(table), marginals)


def random_ufl_space(seed: int, n_clients: int = 6, n_facilities: int = 3) -> DecisionSpace:
    """Two-stage facility location from random planar points: stage-one builds
    are cheap, stage-two repairs expensive; decisions are the stage-one open
    sets. Deterministic in the seed."""
    check_ground_size(n_clients)
    if n_facilities > 8:
        raise SizeCapError("ufl generator caps facilities at 8 (2^8 decisions)")
    rng = SplitMix64(seed)
    clients = [(rng.random(), rng.random()) for _ in range(n_clients)]
    facilities = [(rng.random(), rng.random()) for _ in range(n_facilities)]
    stage_one = [rng.uniform(0.2, 0.5) for _ in range(n_facilities)]
    stage_two = [c * rng.uniform(1.5, 3.0) for c in stage_one]
    marginals = [rng.uniform(0.1, 0.9) for _ in range(n_clients)]
    distances = [
        [math.dist(c, f) for f in facilities] for c in clients
    ]
    decisions = []
    for open_mask in range(1 << n_facilities):
        pre = elements_of(open_mask)
        base = sum(stage_one[j] for j in pre)
        cost = FacilityLocationCost(stage_two, distances, pre, base_cost=base)
        decisions.append(Decision(f"x={open_mask}", cost))
    return DecisionSpace(marginals, decisions)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Builtin:
    name: str
    summary: str
    kind: str  # "instance" | "space" | "welfare"
    build: Callable[..., object]
    defaults: dict


REGISTRY: dict[str, Builtin] = {
    b.name: b
    for b in [
        Builtin(
            "example1",
            "two-stage flow capacity decisions vs coin-flip demands (supermodular family)",
            "space",
            two_stage_flow_space,
            {"n": 4},
        ),
        Builtin(
            "example2",
            "k blocks of k elements, cost = largest per-block hit count, marginals 1/k",
            "instance",
            coverage_partition_instance,
            {"k": 3},
        ),
        Builtin(
            "example2_two_stage",
            "coverage partition with stage-one transversal purchases",
            "space",
            coverage_two_stage_space,
            {"k": 3},
        ),
        Builtin(
            "example3",
            "indicator of a nonempty draw at marginals 1/n (gap tends to e/(e-1))",
            "instance",
            threshold_instance,
            {"n": 3},
        ),
        Builtin(
            "integrality_gap",
            "six goods, three players, 0/2/3/4-valued submodular utility (11 vs 12)",
            "welfare",
            welfare_gap_case,
            {},
        ),
        Builtin(
            "ufl_random",
            "seeded two-stage facility location over random planar points",
            "space",
            random_ufl_space,
            {"seed": 1},
        ),
        Builtin(
            "coverage_random",
            "seeded weighted-coverage instance with random marginals",
            "instance",
            random_coverage_instance,
            {"seed": 1, "n": 6},
        ),
    ]
}


def builtin_defaults(name: str) -> dict:
    """The parameters builtin `name` takes, with their default values."""
    try:
        return REGISTRY[name].defaults
    except KeyError:
        raise ValidationError(f"unknown builtin {name!r}; see list-instances") from None


def build_builtin(name: str, **overrides) -> object:
    params = dict(builtin_defaults(name))
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in params:
            raise ValidationError(f"builtin {name!r} does not take parameter {key!r}")
        params[key] = value
    return REGISTRY[name].build(**params)


# ---------------------------------------------------------------------------
# reproduction suite


@dataclass(frozen=True)
class FactResult:
    name: str
    expected: object
    got: object
    tol: float
    passed: bool

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, (bool, int, str)) or v is None:
                return v
            return float(v)

        return {
            "name": self.name,
            "expected": enc(self.expected),
            "got": enc(self.got),
            "tol": self.tol,
            "passed": self.passed,
        }


def _fact(name: str, expected, got, tol: float = 0.0) -> FactResult:
    if isinstance(expected, bool) or isinstance(expected, str) or expected is None:
        passed = expected == got
    else:
        passed = abs(float(expected) - float(got)) <= tol
    return FactResult(name, expected, got, tol, bool(passed))


def _threshold_facts() -> list[FactResult]:
    facts = []
    for n in (2, 3, 4, 8):
        inst = threshold_instance(n)
        result = worst_case_lp(inst)
        indep = independent_expectation_exact(inst.function, inst.marginals)
        closed_i = 1.0 - (1.0 - 1.0 / n) ** n
        facts.append(_fact(f"threshold_n{n}.worst_value", 1.0, result.value, 1e-9))
        facts.append(_fact(f"threshold_n{n}.independent_value", closed_i, indep, 1e-9))
        facts.append(
            _fact(
                f"threshold_n{n}.kappa",
                threshold_kappa_closed_form(n),
                result.value / indep,
                1e-9,
            )
        )
        facts.append(_fact(f"threshold_n{n}.certificate", True, verify_certificate(inst, result)))
    inst = threshold_instance(3)
    support = worst_case_lp(inst).distribution.support
    singletons = sorted(mask for mask, _ in support)
    facts.append(_fact("threshold_n3.support_singletons", True, singletons == [1, 2, 4]))
    facts.append(
        _fact(
            "threshold_n3.singleton_weights",
            True,
            all(abs(p - 1.0 / 3.0) <= 1e-9 for _, p in support),
        )
    )
    return facts


def _two_stage_flow_facts() -> list[FactResult]:
    facts = []
    space = two_stage_flow_space(4)
    indep_x3 = independent_expectation_exact(space.decisions[3].function, space.marginals)
    facts.append(_fact("two_stage_flow_n4.indep_cost_x3", 4.0, indep_x3, 1e-12))
    # the build charge sits inside f already; restating it on top shifts x=3 to 7
    facts.append(
        _fact("two_stage_flow_n4.indep_cost_x3_with_restated_build", 7.0, indep_x3 + 3.0, 1e-12)
    )
    facts.append(_fact("two_stage_flow_n4.g_x3", 11.0, evaluate_g(space, 3), 1e-6))
    facts.append(_fact("two_stage_flow_n4.g_x4", 6.0, evaluate_g(space, 4), 1e-6))
    report = approximation_ratio(space)
    facts.append(_fact("two_stage_flow_n4.x_independent", "3", report.x_independent))
    facts.append(_fact("two_stage_flow_n4.x_robust", "4", report.x_robust))
    facts.append(_fact("two_stage_flow_n4.ratio", 11.0 / 6.0, report.ratio, 1e-9))
    facts.append(_fact("two_stage_flow_n4.chain_ok", True, report.chain_ok))
    facts.append(
        _fact(
            "two_stage_flow_n4.supermodular_all_x",
            True,
            all(is_supermodular(d.function) for d in space.decisions),
        )
    )
    return facts


def _coverage_partition_facts() -> list[FactResult]:
    facts = []
    for k in (2, 3):
        inst = coverage_partition_instance(k)
        result = worst_case_lp(inst)
        indep = independent_expectation_exact(inst.function, inst.marginals)
        oracle = max_binomial_expectation(k)
        facts.append(_fact(f"coverage_partition_k{k}.worst_value", float(k), result.value, 1e-6))
        facts.append(_fact(f"coverage_partition_k{k}.independent_value", oracle, indep, 1e-9))
        facts.append(_fact(f"coverage_partition_k{k}.kappa", k / oracle, result.value / indep, 1e-6))
    return facts


def _welfare_gap_facts() -> list[FactResult]:
    case = welfare_gap_case()
    report = welfare_report(case.function, case.players)
    facts = [
        _fact("welfare_gap.opt_ip", 11.0, report.opt_ip, 1e-9),
        _fact("welfare_gap.upper_bound", 12.0, report.upper_bound, 1e-9),
        _fact("welfare_gap.opt_over_upper", 11.0 / 12.0, report.ratio_opt_over_upper, 1e-9),
        _fact("welfare_gap.monotone", True, is_monotone(case.function)),
        _fact("welfare_gap.submodular", True, is_submodular(case.function)),
        _fact(
            "welfare_gap.rounding_beats_1_minus_1_over_e",
            True,
            report.rounding_value >= (1.0 - 1.0 / math.e - 1e-6) * report.opt_ip,
        ),
    ]
    return facts


def _poisson_facts() -> list[FactResult]:
    facts = [_fact("poisson_max.m1", 1.0, poisson_max_expectation(1).expected_max, 1e-9)]
    for m in (100, 1000, 10000):
        res = poisson_max_expectation(m)
        ratio = res.expected_max / res.growth_reference
        facts.append(_fact(f"poisson_max.band_m{m}", True, 0.5 <= ratio <= 3.0))
    return facts


def _split_facts() -> list[FactResult]:
    inst = threshold_instance(2)
    report = verify_split_properties(inst, [2, 2])
    return [
        _fact("threshold_split.indep_after", 175.0 / 256.0, report.indep_after, 1e-9),
        _fact("threshold_split.worst_preserved", True, report.worst_equal),
        _fact("threshold_split.all_properties", True, report.all_passed),
    ]


def _scheme_facts() -> list[FactResult]:
    inst = threshold_instance(3)
    cert = certify(incremental_scheme(inst.function), inst.function)
    facts = [
        _fact("incremental_threshold.eta_star", 1.0, cert.eta_star, 1e-9),
        _fact("incremental_threshold.beta_star", 1.0, cert.beta_star, 1e-9),
        _fact("incremental_threshold.cross_monotone", True, cert.cross_monotone),
    ]
    base = threshold_instance(2)
    split_inst, split_map = split_instance(base, [2, 2])
    lifted = lift_scheme(incremental_scheme(base.function), split_map)
    lifted_cert = certify(lifted, split_inst.function)
    facts.append(_fact("lifted_threshold_split.eta_star", 1.0, lifted_cert.eta_star, 1e-9))
    facts.append(_fact("lifted_threshold_split.beta_star", 1.0, lifted_cert.beta_star, 1e-9))
    facts.append(
        _fact(
            "lifted_threshold_split.partial_prefix_cross_monotone",
            True,
            partial_prefix_cross_monotone(lifted, split_map),
        )
    )
    return facts


def _generator_facts() -> list[FactResult]:
    facts = []
    space = random_ufl_space(1)
    all_open = space.decisions[-1]
    gap = correlation_gap(space.instance_for(all_open))
    facts.append(_fact("ufl_seed1.all_open_kappa", 1.0, gap.kappa, 1e-9))
    rebuilt = random_ufl_space(1)
    facts.append(
        _fact(
            "ufl_seed1.deterministic_rebuild",
            True,
            json.dumps(space.to_json(), sort_keys=True)
            == json.dumps(rebuilt.to_json(), sort_keys=True),
        )
    )
    f = random_coverage_function(7, 6)
    facts.append(
        _fact("coverage_seed7.monotone_submodular", True, is_monotone(f) and is_submodular(f))
    )
    facts.append(_fact("coverage_seed7.empty_value", 0.0, f.value(0), 0.0))
    return facts


def reproduction_facts() -> list[FactResult]:
    """Every named instance's expected facts, in a fixed deterministic order."""
    facts: list[FactResult] = []
    facts += _threshold_facts()
    facts += _two_stage_flow_facts()
    facts += _coverage_partition_facts()
    facts += _welfare_gap_facts()
    facts += _poisson_facts()
    facts += _split_facts()
    facts += _scheme_facts()
    facts += _generator_facts()
    return facts


# ---------------------------------------------------------------------------
# seeded property batteries (condensed versions of the acceptance suites)

_BATTERY_SEED = 20260809
MAX_SCALE = 50  # each unit of scale adds ~30 ms of trials: ~1.5 s for the whole suite at 50


def _battery(name: str, trials: int, run_one: Callable[[int], bool]) -> FactResult:
    passed = sum(1 for t in range(trials) if run_one(t))
    return _fact(f"battery.{name}", trials, passed, 0.0)


def property_facts(scale: int = 1) -> list[FactResult]:
    """Seeded random-instance batteries; `scale` (1..MAX_SCALE) multiplies
    the trial counts."""
    if scale < 1:
        raise ValidationError(f"scale must be >= 1, got {scale}")
    if scale > MAX_SCALE:
        raise SizeCapError(f"scale {scale} exceeds cap {MAX_SCALE}")

    def coverage_bound(t: int) -> bool:
        n = 3 + (t % 5)
        inst = random_coverage_instance(_BATTERY_SEED + t, n)
        report = correlation_gap(inst)
        return report.kappa is not None and report.kappa <= GAP_BOUND_CONSTANT + 1e-6

    def supermodular_closed_form(t: int) -> bool:
        n = 3 + (t % 6)
        inst = random_supermodular_instance(_BATTERY_SEED + 1000 + t, n)
        closed = supermodular_worst_case(inst)
        lp = worst_case_lp(inst)
        return abs(closed.value - lp.value) <= 1e-6 and verify_certificate(inst, closed)

    def split_properties(t: int) -> bool:
        rng = SplitMix64(_BATTERY_SEED + 2000 + t)
        n = 2 + rng.randrange(3)
        inst = random_monotone_instance(_BATTERY_SEED + 3000 + t, n)
        counts = [1 + rng.randrange(3) for _ in range(n)]
        return verify_split_properties(inst, counts).all_passed

    def worst_dominates(t: int) -> bool:
        rng = SplitMix64(_BATTERY_SEED + 4000 + t)
        n = 2 + rng.randrange(5)
        table = [rng.random() for _ in range(1 << n)]
        inst = Instance(TableFunction(table), [rng.random() for _ in range(n)])
        indep = independent_expectation_exact(inst.function, inst.marginals)
        return worst_case_lp(inst).value >= indep - 1e-9

    def welfare_rounding(t: int) -> bool:
        f = random_coverage_function(_BATTERY_SEED + 5000 + t, 3 + (t % 4))
        report = welfare_report(f, 2 + (t % 2))
        return report.rounding_value >= (1.0 - 1.0 / math.e - 1e-6) * report.opt_ip

    def incremental_certified(t: int) -> bool:
        f = random_coverage_function(_BATTERY_SEED + 6000 + t, 3 + (t % 3))
        cert = certify(incremental_scheme(f), f)
        return (
            cert.eta_star <= 1.0 + 1e-9
            and cert.beta_star <= 1.0 + 1e-9
            and cert.cross_monotone
        )

    return [
        _battery("coverage_gap_bound", 25 * scale, coverage_bound),
        _battery("supermodular_closed_form", 20 * scale, supermodular_closed_form),
        _battery("split_properties", 10 * scale, split_properties),
        _battery("worst_dominates_independent", 25 * scale, worst_dominates),
        _battery("welfare_rounding", 10 * scale, welfare_rounding),
        _battery("incremental_certification", 8 * scale, incremental_certified),
    ]


def verification_report(scale: int = 1) -> dict:
    """The full reproduction suite as a JSON-ready report."""
    batteries = property_facts(scale)  # first: its scale check precedes any work
    facts = reproduction_facts() + batteries
    failed = [fact.name for fact in facts if not fact.passed]
    return {
        "facts": [fact.to_json() for fact in facts],
        "total": len(facts),
        "failed": len(failed),
        "failures": failed,
        "passed": not failed,
    }
