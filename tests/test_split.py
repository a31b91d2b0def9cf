import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgap.core import Instance, SizeCapError, TableFunction, ValidationError
from corrgap.distributions import ScenarioDistribution
from corrgap.instances import random_monotone_instance, threshold_instance
from corrgap.split import (
    SplitMap,
    reduce_to_partition,
    split_instance,
    verify_split_properties,
)
from corrgap.worst_case import worst_case_lp


class TestSplitMap:
    def test_layout_and_labels(self):
        m = SplitMap.build([2, 1, 3])
        assert m.n == 3 and m.n_new == 6
        assert m.original_of == (0, 0, 1, 2, 2, 2)
        assert m.labels == (1, 2, 1, 1, 2, 3)

    def test_projection_examples(self):
        m = SplitMap.build([2, 2])
        assert m.project(0) == 0
        assert m.project(0b1111) == 0b11
        assert m.project(0b0011) == 0b01  # two copies of element 0 collapse

    def test_projection_mask_range(self):
        m = SplitMap.build([2, 1])
        with pytest.raises(ValidationError):
            m.project(1 << 3)

    @given(st.integers(0, 2**8 - 1), st.integers(0, 2**8 - 1))
    @settings(max_examples=200)
    def test_projection_is_union_homomorphism(self, a, b):
        m = SplitMap.build([2, 3, 1, 2])
        assert m.project(a | b) == m.project(a) | m.project(b)

    def test_counts_validated(self):
        with pytest.raises(ValidationError):
            SplitMap.build([2, 0])
        with pytest.raises(SizeCapError):
            SplitMap.build([13, 13])

    def test_json_round_trip(self):
        m = SplitMap.build([2, 1], labels=[5, 4, 5])
        assert SplitMap.from_json(m.to_json()) == m


class TestSplitInstance:
    def test_identity_split_is_relabeling(self):
        inst = random_monotone_instance(11, 4)
        new_inst, _ = split_instance(inst, [1, 1, 1, 1])
        assert new_inst.marginals == inst.marginals
        assert np.array_equal(new_inst.function.values(), inst.function.values())

    def test_marginals_divided_per_copy(self):
        inst = threshold_instance(2)
        new_inst, _ = split_instance(inst, [2, 2])
        assert new_inst.marginals == (0.25, 0.25, 0.25, 0.25)

    def test_duplicate_copies_collapse(self):
        inst = random_monotone_instance(12, 3)
        new_inst, m = split_instance(inst, [3, 1, 1])
        two_copies = 0b00011  # two copies of element 0, nothing else
        assert new_inst.function.value(two_copies) == inst.function.value(0b001)

    def test_wrong_count_length(self):
        with pytest.raises(ValidationError):
            split_instance(threshold_instance(2), [2])

    def test_projected_function_json_is_explicit_table(self):
        inst = threshold_instance(2)
        new_inst, _ = split_instance(inst, [2, 1])
        data = new_inst.function.to_json()
        assert data["type"] == "explicit" and len(data["values"]) == 8

    def test_lazy_and_materialised_projection_agree(self):
        inst = random_monotone_instance(31, 3)
        new_inst, m = split_instance(inst, [2, 3, 1])
        f = new_inst.function
        base = inst.function.values()
        expected = [base[m.project(mask)] for mask in range(1 << f.n)]
        assert np.array_equal(f.values(), expected)
        assert np.array_equal([f.value(mask) for mask in range(1 << f.n)], expected)


class TestSplitProperties:
    def test_threshold_split_numbers(self):
        report = verify_split_properties(threshold_instance(2), [2, 2])
        assert report.indep_before == pytest.approx(0.75, abs=1e-12)
        assert report.indep_after == pytest.approx(1 - (3 / 4) ** 4, abs=1e-12)
        assert abs(report.worst_before - 1.0) <= 1e-9
        assert report.all_passed

    def test_identity_split_equalities(self):
        inst = random_monotone_instance(21, 4)
        report = verify_split_properties(inst, [1] * 4)
        assert report.worst_before == pytest.approx(report.worst_after, abs=1e-9)
        assert report.indep_before == pytest.approx(report.indep_after, abs=1e-12)

    def test_random_monotone_split(self):
        inst = random_monotone_instance(22, 4)
        report = verify_split_properties(inst, [2, 1, 1, 1])
        assert report.monotone_preserved
        assert report.worst_equal
        assert report.indep_non_increasing
        assert report.kappa_non_decreasing

    def test_batch_of_random_splits(self):
        from corrgap.rng import SplitMix64

        for trial in range(15):
            rng = SplitMix64(7000 + trial)
            n = 2 + rng.randrange(3)
            inst = random_monotone_instance(7100 + trial, n)
            counts = [1 + rng.randrange(3) for _ in range(n)]
            assert verify_split_properties(inst, counts).all_passed

    def test_monotonicity_required(self):
        inst = Instance(TableFunction([0.0, 1.0, 1.0, 0.5]), [0.5, 0.5])
        with pytest.raises(ValidationError):
            verify_split_properties(inst, [2, 2])

    def test_verification_size_cap(self):
        inst = threshold_instance(8)
        with pytest.raises(SizeCapError):
            verify_split_properties(inst, [2] * 8)


class TestPartitionReduction:
    def test_already_partition_is_untouched(self):
        inst = threshold_instance(3)
        dist = worst_case_lp(inst).distribution  # three disjoint singletons
        red = reduce_to_partition(inst, dist)
        assert red.steps == ()
        assert red.is_partition
        assert red.expectation_after == pytest.approx(red.expectation_before, abs=1e-9)

    def test_overlapping_support_gets_split(self):
        inst = random_monotone_instance(5, 3)
        dist = ScenarioDistribution(3, [(0b110, 0.5), (0b011, 0.5)])
        red = reduce_to_partition(inst, dist)
        assert red.is_partition
        assert [(s.element, s.copies) for s in red.steps] == [(1, 2)]
        assert red.expectation_after == pytest.approx(red.expectation_before, abs=1e-12)
        masks = [m for m, _ in red.distribution.support if m]
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                assert not a & b

    def test_lp_nested_optimum_reduces_to_partition(self):
        # supermodular instances make the LP return nested (heavily
        # overlapping) support, the motivating case for the reduction
        from corrgap.instances import random_supermodular_instance

        inst = random_supermodular_instance(77, 4)
        result = worst_case_lp(inst)
        nonempty = [m for m, _ in result.distribution.support if m]
        assert any(a & b for i, a in enumerate(nonempty) for b in nonempty[i + 1 :])
        red = reduce_to_partition(inst, result.distribution)
        assert red.is_partition
        assert red.expectation_after == pytest.approx(result.value, abs=1e-9)

    def test_multiply_shared_elements(self):
        inst = random_monotone_instance(6, 3)
        dist = ScenarioDistribution(
            3, [(0b111, 0.25), (0b011, 0.25), (0b110, 0.25), (0, 0.25)]
        )
        red = reduce_to_partition(inst, dist)
        assert red.is_partition
        assert red.expectation_after == pytest.approx(red.expectation_before, abs=1e-12)
        # marginals of the rewritten distribution define the reduced instance
        assert np.allclose(
            red.distribution.marginals(), np.array(red.instance.marginals), atol=1e-12
        )

    def test_element_in_every_support_set_keeps_marginals_in_range(self):
        # splitting one element at a time took element 2's marginal as the
        # rounded sum of all three probabilities, one ulp above 1
        support = ((5, 0.22981132707637927), (13, 0.5991386976116708), (14, 0.1710499753119501))
        probs = [prob for _, prob in support]
        for seed in range(5):
            inst = random_monotone_instance(seed, 4)
            red = reduce_to_partition(inst, ScenarioDistribution(4, support))
            assert red.is_partition
            assert [(s.element, s.copies) for s in red.steps] == [(0, 2), (2, 3), (3, 2)]
            assert red.instance.marginals == (*probs, *probs, *probs[1:])
            assert red.expectation_after == red.expectation_before

    def test_holders_take_copies_in_support_order(self):
        inst = random_monotone_instance(6, 3)
        dist = ScenarioDistribution(3, [(0b011, 0.5), (0b101, 0.25), (0b110, 0.25)])
        red = reduce_to_partition(inst, dist)
        # copies: 0 -> (0, 1), 1 -> (2, 3), 2 -> (4, 5); every element has two holders
        assert [(s.element, s.copies) for s in red.steps] == [(0, 2), (1, 2), (2, 2)]
        assert red.distribution.support == ((0b000101, 0.5), (0b010010, 0.25), (0b101000, 0.25))
        split_map = red.instance.function.split_map
        assert [split_map.project(m) for m, _ in red.distribution.support] == [0b011, 0b101, 0b110]
