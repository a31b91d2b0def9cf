import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgap.core import (
    MAX_EXACT,
    Instance,
    SetFunction,
    SizeCapError,
    TableFunction,
    ValidationError,
)
from corrgap.instances import random_monotone_instance, threshold_instance
from corrgap.split import SplitMap, split_instance, verify_split_properties


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
        assert SplitMap.build([MAX_EXACT - 1, 1]).n_new == MAX_EXACT
        with pytest.raises(SizeCapError):
            SplitMap.build([MAX_EXACT, 1])

    @pytest.mark.parametrize("counts", [[2.9, 1], [2, True], [2, "1"]])
    def test_counts_must_be_integers(self, counts):
        with pytest.raises(ValidationError, match="copy count"):
            SplitMap.build(counts)

    @pytest.mark.parametrize("labels", [[1.7, 3], [1, "3"], [1, False]])
    def test_labels_must_be_integers(self, labels):
        with pytest.raises(ValidationError, match="copy label"):
            SplitMap.build([2], labels)

    def test_cap_checked_before_copies_are_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                SplitMap.build([10**6, 1])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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

    def test_split_function_json_is_explicit_table(self):
        inst = threshold_instance(2)
        new_inst, _ = split_instance(inst, [2, 1])
        data = new_inst.function.to_json()
        assert data["type"] == "explicit" and len(data["values"]) == 8

    def test_value_and_table_agree_with_projection(self):
        inst = random_monotone_instance(31, 3)
        new_inst, m = split_instance(inst, [2, 3, 1])
        f = new_inst.function
        base = inst.function.values()
        expected = [base[m.project(mask)] for mask in range(1 << f.n)]
        assert np.array_equal(f.values(), expected)
        assert np.array_equal([f.value(mask) for mask in range(1 << f.n)], expected)


def split_table_cases():
    """(seed, counts): seeded random counts up to n' = MAX_EXACT, and the
    identity split."""
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        counts = [1] * n
        budget = int(rng.integers(n, MAX_EXACT + 1))
        for i in rng.integers(0, n, budget - n):
            counts[i] += 1
        cases.append((seed, counts))
    cases.append((12, [MAX_EXACT - 2, 1, 1]))
    cases += [(20 + n, [1] * n) for n in (1, 4, MAX_EXACT)]
    return cases


class TestSplitTable:
    @pytest.mark.parametrize("seed, counts", split_table_cases())
    def test_equals_base_at_projection_bit_for_bit(self, seed, counts):
        rng = np.random.default_rng(seed)
        n = len(counts)
        f = TableFunction(rng.standard_normal(1 << n) * 10.0 ** rng.integers(-5, 6, 1 << n))
        new_inst, m = split_instance(Instance(f, [0.5] * n), counts)
        expected = np.array([f.value(m.project(mask)) for mask in range(1 << m.n_new)])
        assert new_inst.function.n == sum(counts)
        assert new_inst.function.values().tobytes() == expected.tobytes()
        assert isinstance(new_inst.function, TableFunction)

    def test_non_finite_base_refused_at_split_time(self):
        class WithNaN(SetFunction):
            def values_at(self, masks):
                return np.where(masks == 3, np.nan, 1.0)

        inst = Instance(WithNaN(2), [0.5, 0.5])
        with pytest.raises(ValidationError, match="finite"):
            split_instance(inst, [2, 1])


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
            verify_split_properties(inst, [3] + [2] * 7)  # n' = MAX_EXACT + 1

