"""Acceptance gate: one test per criterion, each printing one PASS/FAIL line
with the measured quantities. Tolerances are pinned here, not configurable."""

import math

from corrgap.cli import main
from corrgap.core import Instance, is_monotone, is_submodular
from corrgap.cost_sharing import (
    certify,
    incremental_scheme,
    lift_scheme,
    partial_prefix_cross_monotone,
)
from corrgap.distributions import independent_expectation_exact
from corrgap.gap import GAP_BOUND_CONSTANT, correlation_gap
from corrgap.instances import (
    coverage_partition_instance,
    max_binomial_expectation,
    poisson_max_expectation,
    random_coverage_function,
    random_coverage_instance,
    random_monotone_instance,
    random_supermodular_instance,
    threshold_instance,
    two_stage_flow_space,
    welfare_gap_case,
)
from corrgap.robust import approximation_ratio
from corrgap.rng import SplitMix64
from corrgap.split import split_instance, verify_split_properties
from corrgap.welfare import rounding_value, welfare_ip_optimum, welfare_upper_bound
from corrgap.worst_case import supermodular_worst_case, verify_certificate, worst_case_lp

SEED = 987654321


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_threshold_family():
    """L = 1 and I = 1-(1-1/n)^n within 1e-9 for n = 2..16; kappa(16) in
    (1.52, e/(e-1)); kappa strictly increasing."""
    worst_errs, indep_errs, kappas = [], [], []
    for n in range(2, 17):
        inst = threshold_instance(n)
        worst = worst_case_lp(inst).value
        indep = independent_expectation_exact(inst.function, inst.marginals)
        worst_errs.append(abs(worst - 1.0))
        indep_errs.append(abs(indep - (1.0 - (1.0 - 1.0 / n) ** n)))
        kappas.append(worst / indep)
    increasing = all(b > a for a, b in zip(kappas, kappas[1:]))
    in_window = 1.52 < kappas[-1] < GAP_BOUND_CONSTANT
    ok = max(worst_errs) <= 1e-9 and max(indep_errs) <= 1e-9 and increasing and in_window
    report(
        1,
        ok,
        f"max|L-1|={max(worst_errs):.2e} max|I-closed|={max(indep_errs):.2e} "
        f"kappa(16)={kappas[-1]:.6f} strictly_increasing={increasing}",
    )
    assert max(worst_errs) <= 1e-9
    assert max(indep_errs) <= 1e-9
    assert in_window and increasing


def test_criterion_02_submodular_gap_bound():
    """200 random weighted-coverage instances (n <= 8, random marginals):
    kappa <= e/(e-1) + 1e-6 via exact LP against exact enumeration."""
    bound = GAP_BOUND_CONSTANT + 1e-6
    worst_kappa = 0.0
    passed = 0
    for t in range(200):
        n = 2 + t % 7
        inst = random_coverage_instance(SEED + t, n)
        kappa = correlation_gap(inst).kappa
        worst_kappa = max(worst_kappa, kappa)
        passed += kappa <= bound
    ok = passed == 200
    report(2, ok, f"passed={passed}/200 max_kappa={worst_kappa:.8f} bound={bound:.8f}")
    assert ok


def test_criterion_03_supermodular_closed_form():
    """100 random supermodular instances (n <= 10): closed form matches the LP
    within 1e-6 and the greedy dual certificate verifies."""
    passed = 0
    max_gap = 0.0
    for t in range(100):
        n = 2 + t % 9
        inst = random_supermodular_instance(SEED + 1000 + t, n)
        closed = supermodular_worst_case(inst)
        lp = worst_case_lp(inst)
        gap = abs(closed.value - lp.value)
        max_gap = max(max_gap, gap)
        passed += gap <= 1e-6 and verify_certificate(inst, closed)
    ok = passed == 100
    report(3, ok, f"passed={passed}/100 max|closed-lp|={max_gap:.2e}")
    assert ok


def test_criterion_04_two_stage_flow_reproduction():
    """n in {4,6,8}: E_indep(x=n-1) = n exactly; g(n-1) = 2^(n-1)+n-1 within
    1e-6; x_I = n-1 and x_R = n; the ratio at n=8 exceeds the ratio at n=4 by
    a factor >= 8."""
    ratios = {}
    repro_ok = True
    for n in (4, 6, 8):
        space = two_stage_flow_space(n)
        indep = independent_expectation_exact(space.decisions[n - 1].function, space.marginals)
        rep = approximation_ratio(space)
        g_xi = rep.g_independent
        repro_ok &= indep == float(n)
        repro_ok &= abs(g_xi - (2 ** (n - 1) + n - 1)) <= 1e-6
        repro_ok &= rep.x_independent == str(n - 1) and rep.x_robust == str(n)
        ratios[n] = rep.ratio
    growth = ratios[8] / ratios[4]
    growth_ok = growth >= 8.0
    report(
        4,
        repro_ok and growth_ok,
        f"ratios={{4: {ratios[4]:.4f}, 6: {ratios[6]:.4f}, 8: {ratios[8]:.4f}}} "
        f"growth_8_over_4={growth:.4f} (needs >= 8)",
    )
    assert repro_ok
    assert growth_ok, (
        f"ratio(8)/ratio(4) = {growth:.6f} < 8: with the family's own cost "
        f"formulas g(x_I) = 2^(n-1)+n-1 and g(x_R) = n+2 the factor is "
        f"(135/10)/(11/6) = 81/11 ~= 7.36, so this growth clause cannot be met"
    )


def test_criterion_05_coverage_partition_k4():
    """K=4 (n=16): L = 4 within 1e-6 by LP; I within 1e-9 of the exact
    max-of-binomials oracle; kappa > 2; kappa increasing over K in {2,3,4}."""
    kappas = {}
    for k in (2, 3, 4):
        inst = coverage_partition_instance(k)
        worst = worst_case_lp(inst).value
        indep = independent_expectation_exact(inst.function, inst.marginals)
        if k == 4:
            worst_err = abs(worst - 4.0)
            indep_err = abs(indep - max_binomial_expectation(4))
        kappas[k] = worst / indep
    increasing = kappas[2] < kappas[3] < kappas[4]
    ok = worst_err <= 1e-6 and indep_err <= 1e-9 and kappas[4] > 2.0 and increasing
    report(
        5,
        ok,
        f"|L-4|={worst_err:.2e} |I-oracle|={indep_err:.2e} kappa4={kappas[4]:.6f} "
        f"kappas_increasing={increasing}",
    )
    assert worst_err <= 1e-6
    assert indep_err <= 1e-9
    assert kappas[4] > 2.0
    assert increasing


def test_criterion_06_integrality_gap():
    """The built-in 0/2/3/4 utility yields opt_ip = 11 and upper_bound = 12
    exactly; the function is monotone and submodular."""
    case = welfare_gap_case()
    opt = welfare_ip_optimum(case.function, case.players)
    upper = welfare_upper_bound(case.function, case.players)
    mono = is_monotone(case.function)
    subm = is_submodular(case.function)
    ok = abs(opt - 11.0) <= 1e-9 and abs(upper - 12.0) <= 1e-9 and mono and subm
    report(6, ok, f"opt_ip={opt} upper_bound={upper} monotone={mono} submodular={subm}")
    assert abs(opt - 11.0) <= 1e-9
    assert abs(upper - 12.0) <= 1e-9
    assert mono and subm


def test_criterion_07_welfare_rounding():
    """100 random coverage utilities with K in {2,3}: the independent uniform
    assignment achieves at least (1 - 1/e - 1e-6) of the exact optimum."""
    factor = 1.0 - 1.0 / math.e - 1e-6
    passed = 0
    worst_ratio = math.inf
    for t in range(100):
        f = random_coverage_function(SEED + 2000 + t, 3 + t % 6)
        k = 2 + t % 2
        opt = welfare_ip_optimum(f, k)
        rounded = rounding_value(f, k)
        worst_ratio = min(worst_ratio, rounded / opt)
        passed += rounded >= factor * opt
    ok = passed == 100
    report(7, ok, f"passed={passed}/100 min_ratio={worst_ratio:.6f} floor={factor:.6f}")
    assert ok


def test_criterion_08_split_properties():
    """100 random monotone instances (n <= 5, counts <= 3): monotonicity is
    preserved, |dL| <= 1e-6 and dI <= 1e-9 times unit_scale(f), and kappa
    never drops by more than 1e-6 under splitting."""
    passed = 0
    for t in range(100):
        rng = SplitMix64(SEED + 3000 + t)
        n = 2 + rng.randrange(4)
        inst = random_monotone_instance(SEED + 4000 + t, n)
        counts = [1 + rng.randrange(3) for _ in range(n)]
        rep = verify_split_properties(inst, counts)
        passed += rep.all_passed
    ok = passed == 100
    report(8, ok, f"passed={passed}/100")
    assert ok


def test_criterion_09_cost_sharing_certification():
    """Incremental scheme on 50 random monotone submodular functions (n <= 6)
    certifies eta*, beta* <= 1 + 1e-9 and cross-monotonicity; the lifted scheme
    passes budget balance, weak summability, and partial-prefix
    cross-monotonicity exhaustively at n' <= 6."""
    passed = 0
    for t in range(50):
        f = random_coverage_function(SEED + 5000 + t, 3 + t % 4)
        cert = certify(incremental_scheme(f), f)
        passed += (
            cert.eta_star <= 1 + 1e-9 and cert.beta_star <= 1 + 1e-9 and cert.cross_monotone
        )
    lifted_ok = True
    lift_cases = [
        (threshold_instance(2), [2, 2]),
        (Instance(random_coverage_function(SEED + 5500, 3), [0.5] * 3), [2, 2, 2]),
        (Instance(random_coverage_function(SEED + 5501, 3), [0.4, 0.9, 0.2]), [2, 2, 1]),
    ]
    for base, counts in lift_cases:
        split_inst, split_map = split_instance(base, counts)
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        cert = certify(lifted, split_inst.function)
        lifted_ok &= cert.eta_star <= 1 + 1e-9 and cert.beta_star <= 1 + 1e-9
        lifted_ok &= partial_prefix_cross_monotone(lifted, split_map)
    ok = passed == 50 and lifted_ok
    report(9, ok, f"incremental passed={passed}/50 lifted_ok={lifted_ok}")
    assert passed == 50
    assert lifted_ok


def test_criterion_10_poisson_maxima():
    """Exact E[max of M mean-1 Poissons] for M in {1e2..1e6} stays within
    [0.5, 3] times log M / log log M."""
    ratios = {}
    for m in (10**2, 10**3, 10**4, 10**5, 10**6):
        res = poisson_max_expectation(m)
        ratios[m] = res.expected_max / res.growth_reference
    ok = all(0.5 <= r <= 3.0 for r in ratios.values())
    pretty = {m: round(r, 4) for m, r in ratios.items()}
    report(10, ok, f"ratios={pretty} band=[0.5, 3.0]")
    assert ok


def test_criterion_11_verify_determinism(tmp_path):
    """Two runs of `verify --all` produce byte-identical reports."""
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    code1 = main(["verify", "--all", "--out", str(first)])
    code2 = main(["verify", "--all", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    report(11, ok, f"exit_codes=({code1},{code2}) byte_identical={identical}")
    assert code1 == 0 and code2 == 0
    assert identical
