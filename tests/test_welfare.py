import math
import warnings

import numpy as np
import pytest

from corrgap.core import SizeCapError, TableFunction, ValidationError, is_monotone, is_submodular
from corrgap.instances import WelfareCase, random_coverage_function, welfare_gap_case
from corrgap.welfare import (
    rounding_value,
    welfare_ip_optimum,
    welfare_report,
    welfare_upper_bound,
)


def additive(weights):
    n = len(weights)
    return TableFunction(
        [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(1 << n)]
    )


class TestGapCase:
    def test_eleven_twelve(self):
        case = welfare_gap_case()
        assert welfare_ip_optimum(case.function, 3) == pytest.approx(11.0, abs=1e-9)
        assert welfare_upper_bound(case.function, 3) == pytest.approx(12.0, abs=1e-9)

    def test_utility_is_monotone_submodular(self):
        f = welfare_gap_case().function
        assert is_monotone(f) and is_submodular(f)

    def test_report_ratios(self):
        case = welfare_gap_case()
        report = welfare_report(case.function, case.players)
        assert report.ratio_opt_over_upper == pytest.approx(11 / 12, abs=1e-9)
        assert report.rounding_value >= (1 - 1 / math.e) * report.opt_ip - 1e-9
        assert report.rounding_value <= report.upper_bound + 1e-6


class TestExactOptimum:
    def test_additive_any_partition(self):
        f = additive([1.0, 2.5, 0.5])
        for k in (1, 2, 3):
            assert welfare_ip_optimum(f, k) == pytest.approx(4.0, abs=1e-12)
            assert welfare_upper_bound(f, k) == pytest.approx(4.0, abs=1e-9)
            assert rounding_value(f, k) == pytest.approx(4.0, abs=1e-9)

    def test_single_player_gets_everything(self):
        f = TableFunction([0.0, 1.0, 3.0, 3.5])
        assert welfare_ip_optimum(f, 1) == 3.5

    def test_threshold_with_matching_players(self):
        k = 3
        f = TableFunction([0.0] + [1.0] * 7)
        assert welfare_ip_optimum(f, k) == pytest.approx(k, abs=1e-12)
        assert welfare_upper_bound(f, k) == pytest.approx(k, abs=1e-6)
        assert rounding_value(f, k) == pytest.approx(k * (1 - (1 - 1 / k) ** k), abs=1e-9)

    def test_brute_force_cross_check(self):
        # independent oracle: enumerate every assignment vector directly
        import itertools

        f = random_coverage_function(9, 4)
        k = 3
        best = max(
            sum(
                f.value(sum(1 << i for i in range(4) if assign[i] == player))
                for player in range(k)
            )
            for assign in itertools.product(range(k), repeat=4)
        )
        assert welfare_ip_optimum(f, k) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 4), (8, 2)])
    def test_bit_identical_to_numpy_scalar_dp(self, n, k):
        rng = np.random.default_rng(n * 10 + k)
        for scale in (1.0, 1e-300, 1e300):
            f = TableFunction(rng.normal(size=1 << n) * scale)
            assert welfare_ip_optimum(f, k) == numpy_scalar_dp(f.values(), k)

    def test_caps(self):
        # the cap bounds the (k-1) * 3^n steps of the subset DP, not k^n
        with pytest.raises(SizeCapError):
            welfare_ip_optimum(TableFunction([0.0] * (1 << 16)), 2)  # 3^16 steps
        assert welfare_ip_optimum(TableFunction([0.0] * (1 << 10)), 6) == 0.0  # 5 * 3^10


class TestPlayerCount:
    """One player-count rule for the welfare functions and WelfareCase: an
    int or numpy integer >= 1."""

    F = TableFunction([0.0, 1.0, 1.0, 2.0])

    def test_welfare_case_refuses_zero_players_when_built(self):
        # before instance() divides by the player count
        with pytest.raises(ValidationError, match="at least one player"):
            WelfareCase(self.F, 0)

    def test_report_refuses_a_bool(self):
        # True would run as one player
        with pytest.raises(ValidationError, match="players must be an integer, got True"):
            welfare_report(self.F, True)

    @pytest.mark.parametrize(
        "welfare", [welfare_report, welfare_ip_optimum, welfare_upper_bound, rounding_value]
    )
    def test_every_welfare_function_refuses_a_float(self, welfare):
        # range(k - 1) would raise TypeError and 1 / k would give a number
        with pytest.raises(ValidationError, match="players must be an integer, got 2.5"):
            welfare(self.F, 2.5)

    @pytest.mark.parametrize("k", [np.int64(3), np.uint8(3)], ids=repr)
    def test_numpy_integers_read_as_ints(self, k):
        # a uint8 count would overflow (k - 1) * 3^n at n = 6
        f = welfare_gap_case().function
        assert welfare_report(f, k) == welfare_report(f, 3)
        assert type(WelfareCase(f, k).players) is int


def numpy_scalar_dp(values, k):
    """The subset DP as first written, over float64 scalars."""
    best = values.copy()
    for _ in range(k - 1):
        nxt = np.empty_like(best)
        for s in range(len(values)):
            acc = best[0] + values[s]
            t = s
            while t:
                acc = max(acc, best[t] + values[s & ~t])
                t = (t - 1) & s
            nxt[s] = acc
        best = nxt
    return float(best[-1])


class TestOverflow:
    TABLE = [0, 1.5e308, 1.6e308, 1.7e308, 1e308, 1.7e308, 1.7e308, 1.7e308]

    def test_report_refuses_values_that_overflow(self):
        with pytest.raises(ValidationError, match=r"opt_ip, upper_bound, rounding_value"):
            welfare_report(TableFunction(self.TABLE), 2)

    def test_dp_overflows_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert welfare_ip_optimum(TableFunction(self.TABLE), 2) == math.inf


class TestSandwich:
    def test_opt_below_upper_bound(self):
        from corrgap.rng import SplitMix64

        for trial in range(15):
            rng = SplitMix64(2200 + trial)
            n = 2 + rng.randrange(4)
            table = [rng.random() * 4 for _ in range(1 << n)]
            f = TableFunction(table)
            k = 2 + rng.randrange(2)
            assert welfare_ip_optimum(f, k) <= welfare_upper_bound(f, k) + 1e-6

    def test_rounding_guarantee_for_submodular(self):
        for trial in range(15):
            f = random_coverage_function(2400 + trial, 3 + trial % 4)
            k = 2 + trial % 2
            report = welfare_report(f, k)
            floor = (1 - 1 / math.e - 1e-6) * report.upper_bound
            assert report.rounding_value >= floor
            assert report.opt_ip >= report.rounding_value - 1e-9
