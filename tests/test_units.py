"""Verdicts made in the units of f do not depend on those units: each check
compares against tol * unit_scale(f), so f and s * f read the same. The
scales include powers of two, which scale f exactly, and powers of ten,
which round it."""

import math

import numpy as np
import pytest

import corrgap.core
import corrgap.worst_case
from corrgap.core import (
    Instance,
    TableFunction,
    is_monotone,
    is_subadditive,
    is_submodular,
    is_supermodular,
)
from corrgap.cost_sharing import certify, incremental_scheme
from corrgap.instances import (
    random_coverage_function,
    random_coverage_instance,
    random_monotone_instance,
    random_supermodular_instance,
    threshold_instance,
    two_stage_flow_space,
)
from corrgap.robust import Decision, DecisionSpace, approximation_ratio
from corrgap.split import verify_split_properties

SCALES = [2.0**-40, 1e-12, 1e12, 2.0**40]
CHECKS = [is_monotone, is_submodular, is_supermodular, is_subadditive]


def scaled(f, s):
    return TableFunction(f.values() * s)


def random_table(n=6):
    """Neither monotone nor supermodular; with absolute tolerances it read as
    both at 1e-12."""
    return TableFunction(np.random.default_rng(0).random(1 << n))


def modular_space(seed, s, n=5, decisions=3):
    """Decisions with modular costs, where g(x) equals E_I(x) and the chain
    g(x_R) >= E_I(x_R) is an equality up to rounding."""
    rng = np.random.default_rng(seed)
    out = []
    for d in range(decisions):
        weights = rng.random(n)
        table = np.array(
            [weights[[i for i in range(n) if m >> i & 1]].sum() for m in range(1 << n)]
        )
        out.append(Decision(f"d{d}", TableFunction((table + rng.random()) * s)))
    return DecisionSpace(rng.uniform(0.1, 0.9, n).tolist(), out)


TABLES = {
    "random": random_table(),
    "threshold4": threshold_instance(4).function,
    **{f"coverage{k}": random_coverage_function(k, 6) for k in range(20)},
    **{f"supermodular{k}": random_supermodular_instance(k, 6).function for k in range(5)},
    **{f"monotone{k}": random_monotone_instance(k, 6).function for k in range(5)},
}


def test_worst_case_reexports_the_core_unit_scale():
    assert corrgap.worst_case.unit_scale is corrgap.core.unit_scale


class TestStructureChecks:
    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize("name", TABLES)
    def test_verdicts_match_the_unit_table(self, name, s):
        f = TABLES[name]
        assert [check(scaled(f, s)) for check in CHECKS] == [check(f) for check in CHECKS]

    @pytest.mark.parametrize("s", [1.0, *SCALES])
    def test_random_table_is_neither_monotone_nor_supermodular(self, s):
        f = scaled(random_table(), s)
        assert not is_monotone(f) and not is_supermodular(f)

    @pytest.mark.parametrize("s", [1.0, *SCALES])
    def test_coverage_functions_stay_monotone_and_submodular(self, s):
        # with absolute tolerances only 2 of the 20 did at 1e12
        for k in range(20):
            f = scaled(random_coverage_function(k, 6), s)
            assert is_monotone(f) and is_submodular(f), k


def assert_same_certification(got, want):
    assert got.cross_monotone == want.cross_monotone
    assert got.budget_upper_ok == want.budget_upper_ok
    for field in ("eta_star", "beta_star", "eta_star_chain"):
        a, b = getattr(got, field), getattr(want, field)
        assert a == b if math.isinf(b) else a == pytest.approx(b, rel=1e-12), field


class TestCertify:
    @pytest.mark.parametrize("s", SCALES)
    @pytest.mark.parametrize(
        "f",
        [
            *(random_coverage_function(k, 4) for k in range(8)),
            random_coverage_function(0, 5),
            random_supermodular_instance(1, 4).function,
            random_monotone_instance(2, 4).function,
            random_table(4),
        ],
    )
    def test_incremental_scheme_matches_the_unit_table(self, f, s):
        g = scaled(f, s)
        assert_same_certification(
            certify(incremental_scheme(g), g), certify(incremental_scheme(f), f)
        )

    @pytest.mark.parametrize("s", [1.0, *SCALES])
    def test_coverage_seed_3_certifies_at_every_scale(self, s):
        # absolute tolerances read cross_monotone False at 1e12, eta_star 0 at 1e-12
        f = scaled(random_coverage_function(3, 4), s)
        result = certify(incremental_scheme(f), f)
        assert result.cross_monotone is True
        assert result.eta_star == pytest.approx(1.0, rel=1e-12)
        assert result.beta_star == pytest.approx(1.0, rel=1e-12)


class TestSplitVerify:
    @pytest.mark.parametrize("s", SCALES)
    def test_reports_match_the_unit_table(self, s):
        # absolute tolerances read worst_equal False on 13 of these 30 at 1e12
        for seed in range(30):
            inst = random_coverage_instance(seed, 4)
            base = verify_split_properties(inst, [2, 1, 2, 1])
            moved = Instance(scaled(inst.function, s), inst.marginals)
            got = verify_split_properties(moved, [2, 1, 2, 1])
            assert base.all_passed
            for field in (
                "monotone_preserved",
                "worst_equal",
                "indep_non_increasing",
                "kappa_non_decreasing",
            ):
                assert getattr(got, field) == getattr(base, field), (seed, field)
            assert got.worst_after == pytest.approx(s * base.worst_after, rel=1e-9)
            assert got.kappa_after == pytest.approx(base.kappa_after, rel=1e-9)


class TestChainCheck:
    @pytest.mark.parametrize("s", [1.0, *SCALES])
    def test_chain_holds_on_modular_decisions(self, s):
        # absolute tolerances failed the chain on 13 of these 30 at 1e12
        for seed in range(30):
            base = approximation_ratio(modular_space(seed, 1.0))
            got = approximation_ratio(modular_space(seed, s))
            assert got.chain_ok, seed
            assert (got.x_robust, got.x_independent) == (base.x_robust, base.x_independent)

    @pytest.mark.parametrize("s", SCALES)
    def test_two_stage_flow_space(self, s):
        space = two_stage_flow_space(4)
        moved = DecisionSpace(
            space.marginals,
            [Decision(d.label, scaled(d.function, s)) for d in space.decisions],
        )
        base, got = approximation_ratio(space), approximation_ratio(moved)
        assert got.chain_ok == base.chain_ok
        assert got.ratio == pytest.approx(base.ratio, rel=1e-9)
