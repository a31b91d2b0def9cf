import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from corrgap.core import Instance, SizeCapError, TableFunction, TwoStageFlow
from corrgap.distributions import independent_expectation_exact
from corrgap.instances import (
    coverage_partition_instance,
    random_coverage_instance,
    random_monotone_instance,
    random_supermodular_instance,
    threshold_instance,
    welfare_gap_case,
)
from corrgap.worst_case import (
    SimplexStallError,
    WorstCaseResult,
    descending_order,
    supermodular_worst_case,
    verify_certificate,
    worst_case_lp,
)


def square_instance():
    table = [float(m.bit_count() ** 2) for m in range(8)]
    return Instance(TableFunction(table), (0.8, 0.5, 0.3))


class TestWorstCaseLP:
    def test_threshold_n3_singleton_optimum(self):
        result = worst_case_lp(threshold_instance(3))
        assert abs(result.value - 1.0) <= 1e-9
        masks = sorted(m for m, _ in result.distribution.support)
        assert masks == [1, 2, 4]
        assert all(abs(p - 1 / 3) <= 1e-9 for _, p in result.distribution.support)

    def test_welfare_gap_function_value_four(self):
        case = welfare_gap_case()
        result = worst_case_lp(Instance(case.function, [1 / 3] * 6))
        assert abs(result.value - 4.0) <= 1e-9
        assert abs(3 * result.value - 12.0) <= 1e-6

    def test_square_matches_closed_form(self):
        inst = square_instance()
        assert abs(worst_case_lp(inst).value - 3.8) <= 1e-9

    def test_coverage_partition_value_is_k(self):
        for k in (2, 3):
            inst = coverage_partition_instance(k)
            assert abs(worst_case_lp(inst).value - k) <= 1e-6

    def test_dominates_independent_on_random_instances(self):
        from corrgap.rng import SplitMix64

        for trial in range(100):
            rng = SplitMix64(9000 + trial)
            n = 2 + rng.randrange(9)
            table = [rng.random() for _ in range(1 << n)]
            inst = Instance(TableFunction(table), [rng.random() for _ in range(n)])
            indep = independent_expectation_exact(inst.function, inst.marginals)
            assert worst_case_lp(inst).value >= indep - 1e-9

    def test_support_size_at_most_n_plus_one(self):
        for trial in range(20):
            inst = random_monotone_instance(400 + trial, 5)
            result = worst_case_lp(inst)
            assert len(result.distribution.support) <= 6

    def test_marginals_reproduced(self):
        for trial in range(20):
            inst = random_monotone_instance(500 + trial, 6)
            result = worst_case_lp(inst)
            assert np.max(np.abs(result.distribution.marginals() - np.array(inst.marginals))) <= 1e-7

    def test_degenerate_marginals(self):
        inst = Instance(TwoStageFlow(3, 1), [1.0, 0.0, 0.5])
        result = worst_case_lp(inst)
        assert verify_certificate(inst, result)
        assert np.allclose(result.distribution.marginals(), [1.0, 0.0, 0.5], atol=1e-9)
        point = worst_case_lp(Instance(TwoStageFlow(3, 1), [1.0, 1.0, 1.0]))
        assert abs(point.value - TwoStageFlow(3, 1).value(7)) <= 1e-9

    def test_certificate_on_lp_output(self):
        for trial in range(10):
            inst = random_monotone_instance(600 + trial, 5)
            assert verify_certificate(inst, worst_case_lp(inst))

    def test_iteration_cap_raises(self):
        with pytest.raises(SimplexStallError):
            worst_case_lp(threshold_instance(6), max_iter=1)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("family", ["random", "coverage"])
    def test_matches_highs(self, n, family):
        for seed in range(3):
            if family == "random":
                rng = np.random.default_rng(1000 * n + seed)
                inst = Instance(TableFunction(rng.random(1 << n)), rng.random(n))
            else:  # integer-heavy coverage tables give degenerate LPs
                inst = random_coverage_instance(50 * n + seed, n)
            bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
            a_eq = np.vstack([bits, np.ones(1 << n)])
            b_eq = np.append(inst.marginals, 1.0)
            highs = linprog(-inst.function.values(), A_eq=a_eq, b_eq=b_eq, method="highs")
            assert highs.status == 0
            result = worst_case_lp(inst)
            assert abs(result.value + highs.fun) <= 1e-9 * max(1.0, abs(result.value))
            assert verify_certificate(inst, result)
            assert len(result.distribution.support) <= n + 1

    def test_n16_solve_allocates_no_dense_matrix(self):
        rng = np.random.default_rng(16)
        inst = Instance(TableFunction(rng.random(1 << 16)), rng.random(16))
        tracemalloc.start()
        try:
            result = worst_case_lp(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verify_certificate(inst, result)
        # a 17 x 65536 float64 constraint matrix alone is 8.5 MiB
        assert peak < 4 * 2**20

    def test_size_cap(self):
        from corrgap.core import CoverageMax

        inst = Instance(CoverageMax(17, [list(range(17))]), [0.5] * 17)
        with pytest.raises(SizeCapError):
            worst_case_lp(inst)

    def test_result_json_shape(self):
        data = worst_case_lp(threshold_instance(2)).to_json()
        assert set(data) == {"value", "distribution", "gamma", "lambda"}
        assert set(data["distribution"]["support"][0]) == {"mask", "p"}


class TestSupermodularClosedForm:
    def test_square_hand_value(self):
        result = supermodular_worst_case(square_instance())
        assert result.value == pytest.approx(0.3 * 9 + 0.2 * 4 + 0.3 * 1 + 0.2 * 0, abs=1e-12)
        assert verify_certificate(square_instance(), result)

    def test_all_ones_is_point_mass(self):
        inst = Instance(TableFunction([float(m.bit_count() ** 2) for m in range(16)]), [1.0] * 4)
        result = supermodular_worst_case(inst)
        assert result.value == 16.0
        assert result.distribution.support == ((15, 1.0),)

    def test_two_stage_flow_half_half(self):
        inst = Instance(TwoStageFlow(4, 3), [0.5] * 4)
        result = supermodular_worst_case(inst)
        assert abs(result.value - 11.0) <= 1e-12
        assert sorted(m for m, _ in result.distribution.support) == [0, 0b1111]
        assert 2 ** (4 - 1) + 4 - 1 == 11  # the reported exponential-cost identity

    def test_matches_lp_on_random_supermodular(self):
        for trial in range(30):
            inst = random_supermodular_instance(1000 + trial, 2 + trial % 7)
            closed = supermodular_worst_case(inst)
            lp = worst_case_lp(inst)
            assert abs(closed.value - lp.value) <= 1e-6
            assert verify_certificate(inst, closed)
            assert verify_certificate(inst, lp)

    def test_descending_order_tie_break(self):
        assert descending_order([0.5, 0.8, 0.5]) == [1, 0, 2]


class TestVerifyCertificate:
    def test_tampered_lambda_detected(self):
        inst = square_instance()
        good = supermodular_worst_case(inst)
        lam = list(good.dual_lambda)
        lam[0] += 1.0
        bad = WorstCaseResult(good.value, good.distribution, good.dual_gamma, tuple(lam))
        assert not verify_certificate(inst, bad)

    def test_wrong_value_detected(self):
        inst = square_instance()
        good = worst_case_lp(inst)
        bad = WorstCaseResult(good.value + 0.1, good.distribution, good.dual_gamma, good.dual_lambda)
        assert not verify_certificate(inst, bad)

    def test_infeasible_dual_detected(self):
        inst = square_instance()
        good = worst_case_lp(inst)
        lam = tuple(v - 1.0 for v in good.dual_lambda)
        bad = WorstCaseResult(good.value, good.distribution, good.dual_gamma, lam)
        assert not verify_certificate(inst, bad)
