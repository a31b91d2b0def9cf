import hashlib
import json
import math

import numpy as np
import pytest

from corrgap.core import (
    MAX_EXACT,
    SizeCapError,
    ValidationError,
    is_monotone,
    is_submodular,
    is_supermodular,
)
from corrgap.distributions import independent_expectation_exact
from corrgap.gap import correlation_gap
from corrgap.instances import (
    MAX_SCALE,
    REGISTRY,
    WelfareCase,
    build_builtin,
    builtin_defaults,
    coverage_partition_instance,
    coverage_two_stage_space,
    max_binomial_expectation,
    poisson_max_expectation,
    property_facts,
    random_coverage_function,
    random_coverage_instance,
    random_monotone_instance,
    random_supermodular_instance,
    random_ufl_space,
    reproduction_facts,
    two_stage_flow_space,
    verification_report,
    welfare_gap_case,
)
from corrgap.robust import approximation_ratio
from corrgap.welfare import welfare_report
from corrgap.worst_case import worst_case_lp


class TestRegistry:
    def test_every_builtin_loads_and_runs(self):
        for name, builtin in REGISTRY.items():
            built = build_builtin(name)
            if builtin.kind == "space":
                report = approximation_ratio(built)
                assert report.ratio >= 1 - 1e-9
            elif builtin.kind == "welfare":
                report = welfare_report(built.function, built.players)
                assert report.opt_ip <= report.upper_bound + 1e-6
            else:
                assert correlation_gap(built).worst_value >= 0

    @pytest.mark.parametrize("lookup", [build_builtin, builtin_defaults])
    def test_unknown_builtin(self, lookup):
        with pytest.raises(ValidationError, match=r"^unknown builtin 'nope'; see list-instances$"):
            lookup("nope")

    def test_defaults_are_the_registry_entry(self):
        assert builtin_defaults("coverage_random") == {"seed": 1, "n": 6}
        assert builtin_defaults("integrality_gap") == {}

    def test_unknown_parameter(self):
        with pytest.raises(ValidationError):
            build_builtin("example3", k=4)

    def test_parameter_override(self):
        inst = build_builtin("example3", n=5)
        assert inst.n == 5

    def test_export_to_json(self):
        for name, builtin in REGISTRY.items():
            payload = build_builtin(name).to_json()
            json.dumps(payload)  # serialisable


class TestTablesBitIdentical:
    """Golden SHA-256 prefixes of generated tables. Every entry is built by
    a fixed sequence of float operations (subset sums in ascending bit
    order), so a reordering or a lossy conversion changes a digest."""

    @staticmethod
    def digest(table):
        return hashlib.sha256(table.tobytes()).hexdigest()[:16]

    def test_seeded_generators(self):
        assert [self.digest(random_supermodular_instance(s, 10).function.values()) for s in (1, 2)] == [
            "8837ec62d2121bb6",
            "4275423f9ece96b5",
        ]
        assert [self.digest(random_coverage_function(s, 10).values()) for s in (1, 2)] == [
            "19e9347a9e46ea27",
            "4a5fa9309e19dcf3",
        ]

    def test_decision_spaces(self):
        ufl = random_ufl_space(4, n_clients=8, n_facilities=3)
        assert self.digest(np.concatenate([d.function.values() for d in ufl.decisions])) == "5966d69d4de08db3"
        cover = coverage_two_stage_space(3)
        assert self.digest(np.concatenate([d.function.values() for d in cover.decisions])) == "96b11f303fcb6c8b"


class TestOracles:
    def test_max_binomial_k2_by_hand(self):
        # max of two iid Binomial(2, 1/2): P(0)=1/16, P(1)=8/16, P(2)=7/16
        assert max_binomial_expectation(2) == pytest.approx(22 / 16, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_max_binomial_matches_tail_identity(self, k):
        # E[max] = sum_{t=1..k} P(max >= t) = sum_{t=1..k} (1 - F(t-1)^k)
        pmf = [math.comb(k, z) * (1 / k) ** z * (1 - 1 / k) ** (k - z) for z in range(k + 1)]
        cdf = np.cumsum(pmf)
        tail = sum(1.0 - cdf[t - 1] ** k for t in range(1, k + 1))
        assert max_binomial_expectation(k) == pytest.approx(tail, abs=1e-12)

    def test_max_binomial_matches_mask_enumeration(self):
        for k in (2, 3):
            inst = coverage_partition_instance(k)
            enum = independent_expectation_exact(inst.function, inst.marginals)
            assert enum == pytest.approx(max_binomial_expectation(k), abs=1e-9)

    def test_poisson_m1_is_mean(self):
        assert poisson_max_expectation(1).expected_max == pytest.approx(1.0, abs=1e-9)

    def test_poisson_m2_vs_double_sum(self):
        # independent oracle: direct double sum over a 50-term truncation
        probs = [math.exp(-1.0)]
        for j in range(1, 50):
            probs.append(probs[-1] / j)
        direct = sum(
            probs[a] * probs[b] * max(a, b) for a in range(50) for b in range(50)
        )
        assert poisson_max_expectation(2).expected_max == pytest.approx(direct, abs=1e-12)

    def test_poisson_growth_reference(self):
        res = poisson_max_expectation(10**4)
        assert res.growth_reference == pytest.approx(math.log(1e4) / math.log(math.log(1e4)))
        assert poisson_max_expectation(2).growth_reference is None

    def test_poisson_cap_boundary(self):
        res = poisson_max_expectation(10**9)
        assert 0.5 <= res.expected_max / res.growth_reference <= 3.0

    def test_poisson_bounds_validated(self):
        with pytest.raises(ValidationError):
            poisson_max_expectation(0)
        with pytest.raises(ValidationError):
            poisson_max_expectation(10**9 + 1)


class TestGenerators:
    def test_coverage_always_monotone_submodular(self):
        for seed in range(20):
            f = random_coverage_function(seed, 3 + seed % 5)
            assert f.value(0) == 0.0
            assert is_monotone(f) and is_submodular(f)

    def test_supermodular_generator(self):
        for seed in range(10):
            inst = random_supermodular_instance(seed, 3 + seed % 6)
            assert is_supermodular(inst.function)

    def test_monotone_generator(self):
        for seed in range(10):
            inst = random_monotone_instance(seed, 3 + seed % 4)
            assert is_monotone(inst.function)
            assert inst.function.value((1 << inst.n) - 1) > 0

    def test_fixed_seed_reproducibility(self):
        a = random_coverage_instance(123, 6)
        b = random_coverage_instance(123, 6)
        assert a.to_json() == b.to_json()
        assert random_ufl_space(9).to_json() == random_ufl_space(9).to_json()

    def test_different_seeds_differ(self):
        assert random_coverage_instance(1, 6).to_json() != random_coverage_instance(2, 6).to_json()

    def test_size_guards(self):
        for build in (
            random_coverage_function,
            random_supermodular_instance,
            random_monotone_instance,
            lambda seed, n: random_ufl_space(seed, n_clients=n),
        ):
            with pytest.raises(SizeCapError):
                build(1, MAX_EXACT + 1)


class TestUflSpace:
    def test_shape_and_all_open_gap(self):
        space = random_ufl_space(1)
        assert len(space.decisions) == 2**3
        all_open = space.decisions[-1]
        report = correlation_gap(space.instance_for(all_open))
        assert report.kappa == pytest.approx(1.0, abs=1e-9)

    def test_first_stage_cheaper_than_second(self):
        space = random_ufl_space(4, n_clients=4, n_facilities=3)
        closed = space.decisions[0].function  # nothing pre-opened
        opened = space.decisions[-1].function
        assert opened.base_cost > 0
        assert closed.base_cost == 0

    def test_worst_dominates_independent(self):
        space = random_ufl_space(2, n_clients=5, n_facilities=2)
        for d in space.decisions:
            inst = space.instance_for(d)
            indep = independent_expectation_exact(d.function, space.marginals)
            assert worst_case_lp(inst).value >= indep - 1e-9

    def test_facility_cap_is_a_size_cap(self):
        with pytest.raises(SizeCapError, match="8"):
            random_ufl_space(1, n_facilities=9)

    def test_sixteen_decision_solve(self):
        space = random_ufl_space(8, n_clients=5, n_facilities=4)
        assert len(space.decisions) == 16
        report = approximation_ratio(space)
        assert report.chain_ok and report.ratio >= 1 - 1e-9


class TestTwoStageCoverage:
    def test_robust_covers_everything_independent_buys_nothing(self):
        space = coverage_two_stage_space(3)
        report = approximation_ratio(space)
        assert report.x_independent == "0"
        assert report.x_robust == "3"
        assert report.chain_ok

    def test_full_cover_decision_is_constant(self):
        space = coverage_two_stage_space(2)
        f = space.decisions[-1].function
        values = f.values()
        assert values.min() == values.max()


class TestFamilies:
    def test_example1_family_supermodular(self):
        space = two_stage_flow_space(4)
        assert all(is_supermodular(d.function) for d in space.decisions)

    def test_example2_kappa_increasing_small(self):
        kappas = []
        for k in (2, 3):
            inst = coverage_partition_instance(k)
            kappas.append(correlation_gap(inst).kappa)
        assert kappas[1] > kappas[0]

    def test_welfare_case_instance_view(self):
        case = welfare_gap_case()
        inst = case.instance()
        assert inst.marginals == (pytest.approx(1 / 3),) * 6

    def test_welfare_case_json_round_trip(self):
        case = welfare_gap_case()
        back = WelfareCase.from_json(json.loads(json.dumps(case.to_json())))
        assert back.players == 3
        assert np.array_equal(back.function.values(), case.function.values())

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"function": {"type": "explicit", "values": [0, 1]}}, "players must be an integer, got None"),
            ({"function": {"type": "explicit", "values": [0, 1]}, "players": 2.0}, "got 2.0"),
            ({"players": 2}, "welfare JSON missing field: 'function'"),
        ],
    )
    def test_welfare_case_from_bad_json(self, data, message):
        with pytest.raises(ValidationError, match=message):
            WelfareCase.from_json(data)


class TestReproductionSuite:
    def test_all_named_instance_facts_pass(self):
        facts = reproduction_facts()
        failed = [f.name for f in facts if not f.passed]
        assert failed == []

    def test_property_batteries_pass(self):
        facts = property_facts()
        failed = [f.name for f in facts if not f.passed]
        assert failed == []

    @pytest.mark.parametrize("scale", [0, -1])
    def test_scale_below_one_rejected(self, scale):
        with pytest.raises(ValidationError):
            property_facts(scale)
        with pytest.raises(ValidationError):
            verification_report(scale)

    def test_scale_above_cap_rejected(self):
        with pytest.raises(SizeCapError):
            property_facts(MAX_SCALE + 1)

    def test_report_is_deterministic(self):
        a = verification_report()
        b = verification_report()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["passed"] is True
