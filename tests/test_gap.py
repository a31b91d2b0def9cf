import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgap.core import Instance, TableFunction, ValidationError
from corrgap.gap import GAP_BOUND_CONSTANT, correlation_gap, safe_ratio, theoretical_bound
from corrgap.instances import (
    random_coverage_instance,
    threshold_instance,
    threshold_kappa_closed_form,
)


class TestKappa:
    def test_threshold_n3(self):
        report = correlation_gap(threshold_instance(3))
        assert report.kappa == pytest.approx(27 / 19, abs=1e-9)
        assert not report.undefined

    def test_modular_function_has_no_gap(self):
        weights = [0.7, 1.3, 0.25]
        table = [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(8)]
        inst = Instance(TableFunction(table), [0.9, 0.4, 0.6])
        assert correlation_gap(inst).kappa == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(0.25, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_invariant_under_positive_scaling(self, c):
        inst = threshold_instance(4)
        scaled = Instance(TableFunction([c * v for v in inst.function.values()]), inst.marginals)
        k0 = correlation_gap(inst).kappa
        k1 = correlation_gap(scaled).kappa
        assert k1 == pytest.approx(k0, rel=1e-9)

    def test_kappa_at_least_one(self):
        for trial in range(25):
            inst = random_coverage_instance(3000 + trial, 3 + trial % 5)
            report = correlation_gap(inst)
            assert report.kappa is not None and report.kappa >= 1.0 - 1e-9

    def test_threshold_family_increasing_to_limit(self):
        kappas = [correlation_gap(threshold_instance(n)).kappa for n in (4, 8, 16)]
        assert kappas[0] < kappas[1] < kappas[2] < GAP_BOUND_CONSTANT
        for n, kappa in zip((4, 8, 16), kappas):
            assert kappa == pytest.approx(threshold_kappa_closed_form(n), abs=1e-9)


class TestUndefinedHandling:
    def test_all_zero_instance_reports_one(self):
        inst = Instance(TableFunction([0.0] * 8), [0.3, 0.6, 0.9])
        report = correlation_gap(inst)
        assert report.kappa == 1.0 and not report.undefined

    def test_zero_independent_with_positive_worst_is_flagged(self):
        # mixed-sign table with E_indep = 0 but a correlated distribution
        # achieving a positive expectation
        table = [-1.0, 1.0, 1.0, -1.0]
        inst = Instance(TableFunction(table), [0.5, 0.5])
        report = correlation_gap(inst)
        assert report.independent_value == pytest.approx(0.0, abs=1e-12)
        assert report.worst_value == pytest.approx(1.0, abs=1e-9)
        assert report.undefined and report.kappa is None


class TestSafeRatio:
    def test_only_exact_zeros_count(self):
        assert safe_ratio(0.0, 0.0) == 1.0
        assert safe_ratio(-0.0, 0.0) == 1.0
        assert safe_ratio(1e-300, 0.0) is None
        assert safe_ratio(1e-300, 1e-300) == 1.0
        assert safe_ratio(0.0, 1e-300) == 0.0

    @pytest.mark.parametrize("s", [1e-13, 1e-300])
    def test_kappa_of_a_small_scale_table(self, s):
        # an absolute zero test read I = 19/27 s as zero below 1e-12
        inst = threshold_instance(3)
        scaled = Instance(TableFunction(inst.function.values() * s), inst.marginals)
        report = correlation_gap(scaled)
        assert report.kappa == pytest.approx(27 / 19, rel=1e-9) and not report.undefined


class TestBound:
    def test_submodular_constant(self):
        assert theoretical_bound(1.0, 1.0) == pytest.approx(1.581977, abs=1e-6)

    def test_scaling(self):
        assert theoretical_bound(2.0, 1.0) == pytest.approx(2 * math.e / (math.e - 1), abs=1e-12)
        assert theoretical_bound(1.0, 3.0) == pytest.approx(3 * math.e / (math.e - 1), abs=1e-12)

    def test_constants_below_one_rejected(self):
        with pytest.raises(ValidationError):
            theoretical_bound(0.5, 1.0)

    @pytest.mark.parametrize(
        "eta,beta", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)]
    )
    def test_non_finite_constants_rejected(self, eta, beta):
        with pytest.raises(ValidationError):
            theoretical_bound(eta, beta)

    def test_bound_past_float64_rejected(self):
        with pytest.raises(ValidationError, match=r"^eta \* beta \* e/\(e-1\) overflows float64"):
            theoretical_bound(1e308, 1e308)
        # an eta just short of the overflow still has a bound
        eta = 1.7e308 / GAP_BOUND_CONSTANT
        assert math.isfinite(theoretical_bound(eta, 1.0))

    def test_bound_attached_to_report(self):
        report = correlation_gap(threshold_instance(3), eta=1.0, beta=1.0)
        assert report.bound == pytest.approx(GAP_BOUND_CONSTANT, abs=1e-12)
        assert report.bound_satisfied is True

    def test_default_constant_when_only_one_given(self):
        report = correlation_gap(threshold_instance(3), eta=2.0)
        assert report.bound == pytest.approx(2 * GAP_BOUND_CONSTANT, abs=1e-12)


class TestEmitters:
    def test_json_fields(self):
        data = correlation_gap(threshold_instance(2), eta=1.0, beta=1.0).to_json()
        assert set(data) == {
            "worst_value",
            "independent_value",
            "kappa",
            "undefined",
            "bound",
            "bound_satisfied",
        }

