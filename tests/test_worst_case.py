import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import corrgap.worst_case as wc
from corrgap.cli import main
from corrgap.core import (
    MAX_EXACT,
    Instance,
    SetFunction,
    SizeCapError,
    TableFunction,
    TwoStageFlow,
    ValidationError,
    subset_sums,
    unit_scale,
)
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
    LP_TOL,
    SimplexStallError,
    SimplexStats,
    WorstCaseResult,
    descending_order,
    prefix_masks,
    supermodular_worst_case,
    verify_certificate,
    worst_case_lp,
)


def dense_copy(inst):
    """The instance with its function as a plain TableFunction of the same
    table: no classes, so its scenario LP takes the 2^n-column path."""
    return Instance(TableFunction(inst.function.values()), inst.marginals)


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

    def test_certificate_for_another_ground_set_refused(self):
        with pytest.raises(ValidationError, match="ground sets differ"):
            verify_certificate(threshold_instance(2), worst_case_lp(threshold_instance(3)))

    def test_lambda_for_another_ground_set_refused(self):
        inst = threshold_instance(2)
        own = worst_case_lp(inst)
        lam = (*own.dual_lambda, 0.0)
        three = WorstCaseResult(own.value, own.distribution, own.dual_gamma, lam)
        with pytest.raises(ValidationError, match="ground sets differ"):
            verify_certificate(inst, three)

    def test_iteration_cap_raises(self, monkeypatch):
        # a cap of 0 pivots; threshold_instance(6) takes 5
        monkeypatch.setattr(wc, "_PIVOTS_PER_COLUMN", 0)
        with pytest.raises(SimplexStallError, match="no optimum within 0 pivots"):
            worst_case_lp(threshold_instance(6))

    @pytest.mark.parametrize("tol, pivots, support", [(LP_TOL, 1, [1, 2]), (1e-6, 0, [0, 1, 3])])
    def test_lp_tol_decides_whether_a_small_reduced_cost_enters(self, monkeypatch, tol, pivots, support):
        # against the start chain {}, {0}, {0,1}, the column {1} prices at
        # f({0}) + f({1}) - f({0,1}) - f({}) = 1e-7: above LP_TOL, below 1e-6
        monkeypatch.setattr(wc, "LP_TOL", tol)
        result = worst_case_lp(Instance(TableFunction([0.0, 0.5, 0.25 + 1e-7, 0.75]), [0.6, 0.4]))
        assert result.stats.pivots == pivots
        assert [mask for mask, _ in result.distribution.support] == support

    @pytest.mark.parametrize(
        "make, pivots",
        [(square_instance, 0), (lambda: threshold_instance(3), 2)],
        ids=["final-solve", "refactor"],
    )
    def test_singular_basis_raises_stall(self, monkeypatch, make, pivots):
        # A rank-one basis matrix reaches LAPACK at the confirming refactor
        # (after pivots) or at the final solves (no pivots); either way the
        # solve stops with SimplexStallError, never a NaN result or a warning.
        inst = make()
        assert worst_case_lp(inst).stats.pivots == pivots
        monkeypatch.setattr(wc, "_basis_matrix", lambda basis, n: np.ones((n + 1, len(basis))))
        with pytest.raises(SimplexStallError, match="singular basis"):
            worst_case_lp(inst)

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
        # the LP's only size check is the set function's own, at construction
        from corrgap.core import CoverageMax

        n = MAX_EXACT + 1
        with pytest.raises(SizeCapError):
            worst_case_lp(Instance(CoverageMax(n, [list(range(n))]), [0.5] * n))

    def test_solves_at_the_size_cap(self):
        # the largest table core builds solves and certifies; the simplex
        # itself has no size limit (see test_past_the_size_cap)
        n = MAX_EXACT
        rng = np.random.default_rng(n)
        inst = Instance(TableFunction(rng.random(1 << n)), rng.random(n))
        result = worst_case_lp(inst)
        assert result.stats.pivots > 0
        assert verify_certificate(inst, result)

    def test_result_json_shape(self):
        data = worst_case_lp(threshold_instance(2)).to_json()
        assert set(data) == {"value", "distribution", "gamma", "lambda"}
        assert set(data["distribution"]["support"][0]) == {"mask", "p"}


def scale_table(seed):
    """A seeded random n=10 table in [0, 1) with marginals in [0.1, 0.9]."""
    rng = np.random.default_rng(seed)
    return rng.random(1 << 10), rng.uniform(0.1, 0.9, 10)


def test_nan_valued_function_refused_before_the_simplex():
    class WithNaN(SetFunction):
        def values_at(self, masks):
            return np.where(masks == 3, np.nan, masks.astype(float))

    with pytest.raises(ValidationError, match="finite"):
        wc.worst_case_lp(Instance(WithNaN(2), [0.5, 0.5]))


class TestUnitScale:
    @pytest.mark.parametrize(
        "values, scale",
        [
            ([0.0, 0.0], 1.0),
            ([0.5, 0.0], 1.0),
            ([0.0, 1 - 2**-53], 1.0),
            ([1.0, 0.25], 2.0),
            ([-3.0, 2.0], 4.0),
            ([0.1, -0.2], 0.25),
            ([1e308, 0.0], 2.0**1023),
            ([-1.7e308, 1.7e308], 2.0**1023),
            ([5e-324, 0.0], 2.0**-1073),
        ],
    )
    def test_power_of_two_bringing_max_abs_into_half_to_one(self, values, scale):
        assert unit_scale(np.array(values)) == scale

    def test_power_of_two_scaling_is_exact(self):
        # dividing by a power of two is exact, so the solve at 2^k f is the
        # solve at f with every value and dual multiplied by 2^k
        table, p = scale_table(0)
        base = worst_case_lp(Instance(TableFunction(table), p))
        for k in (-1000, -40, 1, 40, 1000):
            result = worst_case_lp(Instance(TableFunction(table * 2.0**k), p))
            assert result.stats == base.stats
            assert result.distribution.support == base.distribution.support
            assert result.value == base.value * 2.0**k
            assert result.dual_gamma == base.dual_gamma * 2.0**k
            assert result.dual_lambda == tuple(v * 2.0**k for v in base.dual_lambda)


class TestScaleFree:
    """L, the pivots and the certificate do not depend on the units of f.
    With tolerances absolute in the units of f, the solve stalled for
    s >= 1e8, read L low for s <= 1e-9 and certified a zero certificate
    there. A cap of 5 pivots per column (5 120 at n = 10, where the slowest
    solve takes 40) keeps a regression from stalling for seconds."""

    @pytest.fixture(autouse=True)
    def pivot_cap(self, monkeypatch):
        monkeypatch.setattr(wc, "_PIVOTS_PER_COLUMN", 5)

    @pytest.mark.parametrize(
        "s", [1e-12, 1e-9, 1e-6, 1e3, 1e6, 1e8, 1e9, 1e12, 1e-300, 1e300, 2.0**1000]
    )
    @pytest.mark.parametrize("seed", range(5))
    def test_scaled_table_solves_and_certifies(self, seed, s):
        table, p = scale_table(seed)
        base = worst_case_lp(Instance(TableFunction(table), p))
        inst = Instance(TableFunction(table * s), p)
        result = worst_case_lp(inst)
        assert result.stats.pivots == base.stats.pivots
        assert abs(result.value - s * base.value) <= 1e-12 * s * base.value
        assert verify_certificate(inst, result)
        bogus = WorstCaseResult(0.0, result.distribution, 0.0, (0.0,) * inst.n)
        assert not verify_certificate(inst, bogus)

    @pytest.mark.parametrize("top", [5e-324, 1e-320, -1e-320, 2.0**-1022 - 2.0**-1074])
    def test_subnormal_table_refused(self, top):
        # refused where the table is built, before any solve or scan
        with pytest.raises(ValidationError, match="subnormal"):
            TableFunction([0.0, top])

    @pytest.mark.parametrize("top", [0.0, 2.0**-1022, -(2.0**-1022)])
    def test_zero_and_smallest_normal_tables_solve(self, top):
        inst = Instance(TableFunction([0.0, top]), [0.5])
        result = worst_case_lp(inst)
        assert result.value == top / 2
        assert verify_certificate(inst, result)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        log_a=st.floats(-12.0, 12.0),
        shift=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_map_of_f(self, seed, n, log_a, shift):
        # L(a f + c) = a L(f) + c, since every distribution has total mass 1
        rng = np.random.default_rng(seed)
        table, p = rng.random(1 << n), rng.uniform(0.05, 0.95, n)
        a = 10.0**log_a
        c = a * shift
        base = worst_case_lp(Instance(TableFunction(table), p)).value
        moved = worst_case_lp(Instance(TableFunction(a * table + c), p)).value
        assert abs(moved - (a * base + c)) <= 1e-9 * a * (1.0 + abs(shift))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), log_a=st.floats(-12.0, 12.0))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_elements(self, seed, n, log_a):
        # element i becomes element perm[i] in f's masks and in p alike
        rng = np.random.default_rng(seed)
        a = 10.0**log_a
        table, p = a * rng.random(1 << n), rng.uniform(0.05, 0.95, n)
        perm = rng.permutation(n)
        masks = np.arange(1 << n)
        relabelled = sum(((masks >> i) & 1) << int(perm[i]) for i in range(n))
        moved_table = np.empty_like(table)
        moved_table[relabelled] = table
        moved_p = np.empty_like(p)
        moved_p[perm] = p
        base = worst_case_lp(Instance(TableFunction(table), p)).value
        moved = worst_case_lp(Instance(TableFunction(moved_table), moved_p)).value
        assert abs(moved - base) <= 1e-9 * a

    @pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-6, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_highs_on_scaled_tables(self, n, s):
        bits = (np.arange(1 << n)[None, :] >> np.arange(n)[:, None]) & 1
        a_eq = np.vstack([bits, np.ones(1 << n)])
        for seed in range(3):
            rng = np.random.default_rng(1000 * n + seed)
            table, p = rng.random(1 << n), rng.uniform(0.1, 0.9, n)
            b_eq = np.append(p, 1.0)
            # HiGHS's feasibility tolerances are absolute (1e-7), so below
            # s = 1 it solves the unit table and its optimum is scaled by s
            cost = table * s if s > 1 else table
            highs = linprog(-cost, A_eq=a_eq, b_eq=b_eq, method="highs-ds")
            assert highs.status == 0
            expected = -highs.fun if s > 1 else -highs.fun * s
            inst = Instance(TableFunction(table * s), p)
            result = worst_case_lp(inst)
            assert abs(result.value - expected) <= 1e-9 * s
            assert verify_certificate(inst, result)


def reference_basis_matrix(basis, n):
    cols = np.ones((n + 1, len(basis)))
    cols[:n] = np.asarray(basis)[None, :] >> np.arange(n)[:, None] & 1
    return cols


def reference_simplex_max(values, p, tol=LP_TOL, max_iter=None):
    """The scenario-LP simplex as a plain loop over whole-array numpy calls:
    Dantzig pricing, ratio-test ties to the smallest basic mask, Bland's rule
    after wc._BLAND_AFTER consecutive degenerate pivots, a refactor every
    wc._REFACTOR_EVERY pivots and before accepting optimality. It counts what
    it did the way SimplexStats defines it. From n = wc._SCREEN_FROM_N on, a
    Dantzig pivot first tries the argmax of a float32 pass over
    wc._screen_table(values) and enters it if its float64 reduced cost,
    summed bit by bit, exceeds tol.
    worst_case._simplex_max must take the same pivots with the same float
    operations."""
    n = len(p)
    if max_iter is None:
        max_iter = 50 * (1 << n)
    single = wc._screen_table(values) if n >= wc._SCREEN_FROM_N else None
    b = np.append(p, 1.0)
    bits = np.arange(n)
    reduced = np.empty(1 << n)
    reduced32 = np.empty(1 << n, np.float32)
    column = np.ones(n + 1)
    basis = np.array([0] + prefix_masks(descending_order(p)))
    binv = np.linalg.inv(reference_basis_matrix(basis, n))
    x_b = binv @ b
    x_b[x_b < 0] = 0.0
    c_b = values[basis]
    bland_at = None
    streak = degenerate = since_refactor = refactors = pivots = 0

    def refactor():
        nonlocal binv, x_b, since_refactor, refactors
        binv = np.linalg.inv(reference_basis_matrix(basis, n))
        x_b = binv @ b
        x_b[x_b < 0] = 0.0
        since_refactor = 0
        refactors += 1

    while True:
        if pivots > max_iter:
            raise SimplexStallError(f"no optimum within {max_iter} pivots")
        y = c_b @ binv
        entering = None
        if single is not None and bland_at is None:
            reduced32[0] = 0.0
            k = 1
            for w in y[:n].astype(np.float32):
                np.add(reduced32[:k], w, out=reduced32[k : 2 * k])
                k *= 2
            proposed = int(np.argmax(single - reduced32))
            lam = 0.0
            for i in np.flatnonzero(proposed >> bits & 1):
                lam += y[i]
            screened = values[proposed] - lam - y[n]
            if screened > tol:
                entering = proposed
        reduced[0] = 0.0
        k = 1
        for w in y[:n]:
            np.add(reduced[:k], w, out=reduced[k : 2 * k])
            k *= 2
        np.subtract(values, reduced, out=reduced)
        reduced -= y[n]
        if entering is not None:
            assert screened == reduced[entering]  # the float64 pass's own entry
        elif bland_at is not None:
            entering = int(np.argmax(reduced > tol))
        else:
            entering = int(np.argmax(reduced))
        if reduced[entering] <= tol:
            if since_refactor:
                refactor()
                continue
            break
        column[:n] = entering >> bits & 1
        d = binv @ column
        rows = np.flatnonzero(d > tol)
        if not len(rows):
            raise SimplexStallError("no pivot row found; tableau has drifted")
        ratios = x_b[rows] / d[rows]
        near = rows[ratios <= ratios.min() + tol]
        leave = near[np.argmin(basis[near])]
        theta = x_b[leave] / d[leave]
        pivot_row = binv[leave] / d[leave]
        binv -= np.outer(d, pivot_row)
        binv[leave] = pivot_row
        x_b -= theta * d
        x_b[leave] = theta
        np.maximum(x_b, 0.0, out=x_b)
        basis[leave] = entering
        c_b[leave] = values[entering]
        pivots += 1
        since_refactor += 1
        if theta <= tol:
            degenerate += 1
            streak += 1
            if streak >= wc._BLAND_AFTER and bland_at is None:
                bland_at = pivots
        else:
            streak = 0
        if since_refactor >= wc._REFACTOR_EVERY:
            refactor()
    B = reference_basis_matrix(basis, n)
    x_b = np.linalg.solve(B, b)
    x_b[x_b < 0] = 0.0
    y = np.linalg.solve(B.T, c_b)
    return basis.tolist(), x_b, y, SimplexStats(pivots, degenerate, bland_at, refactors)


def assert_same_solve(inst):
    """worst_case_lp equals the reference loop bit for bit: basis order, x,
    y and the solve counts."""
    values, p, n = inst.function.values(), np.asarray(inst.marginals), inst.n
    basis, x_b, y, stats = reference_simplex_max(values, p)
    lean_basis, lean_x, lean_y, lean_stats = wc._simplex_max(values, p)
    assert lean_basis == basis
    assert lean_x.tobytes() == x_b.tobytes()
    assert lean_y.tobytes() == y.tobytes()
    result = worst_case_lp(inst)
    assert lean_stats == stats == result.stats
    assert (result.dual_gamma, *result.dual_lambda) == (y[n], *y[:n])
    return stats


SMALL_PIVOT_CONSTANTS = pytest.mark.parametrize(
    "bland_after, refactor_every", [(wc._BLAND_AFTER, wc._REFACTOR_EVERY), (1, 3)]
)


MARGINALS = ["uniform", "random", "quarters"]


def drawn_marginals(rng, n, marginals):
    """1/n each, uniform draws, or draws from {0, 1/4, 1/2, 3/4, 1}: ties
    and marginals of 0 and 1, so degenerate start bases."""
    if marginals == "uniform":
        return [1.0 / n] * n
    if marginals == "random":
        return rng.random(n).tolist()
    return (rng.integers(0, 5, n) / 4).tolist()


def drawn_instance(kind, n, seed, marginals):
    rng = np.random.default_rng(seed)
    if kind == "random":
        table = rng.random(1 << n)
    elif kind == "few-valued":
        table = rng.integers(0, 3, 1 << n).astype(float)
    else:
        table = np.ones(1 << n)
        table[0] = 0.0
    return Instance(TableFunction(table), drawn_marginals(rng, n, marginals))


class TestExactStartBasis:
    """The start basis {}, S_1, ..., S_n is written down, not factored: its
    inverse and basic solution equal LAPACK's inverse of the basis matrix
    and its product with (p, 1), clamped at 0, by value (-0.0 == 0.0)."""

    @staticmethod
    def assert_start_matches_lapack(p):
        n = len(p)
        order, basis, x_b = wc.prefix_chain(p)
        assert basis == [0, *prefix_masks(descending_order(p))]
        binv = np.linalg.inv(reference_basis_matrix(basis, n))
        assert np.array_equal(wc.start_inverse(order), binv)
        expected = binv @ np.append(p, 1.0)
        expected[expected < 0] = 0.0
        assert x_b == expected.tolist()

    @pytest.mark.parametrize("n", range(1, 17))
    @pytest.mark.parametrize("marginals", MARGINALS)
    def test_drawn_marginals(self, n, marginals):
        self.assert_start_matches_lapack(drawn_marginals(np.random.default_rng(n), n, marginals))

    @pytest.mark.parametrize(
        "p", [[0.0] * 5, [1.0] * 5, [0.5] * 5, [1.0, 0.0, 1.0, 0.0], [0.3], [1.0], [0.0]]
    )
    def test_ties_and_extremes(self, p):
        self.assert_start_matches_lapack(p)


class TestLeanSimplexMatchesReference:
    @SMALL_PIVOT_CONSTANTS
    @given(
        kind=st.sampled_from(["random", "few-valued", "threshold"]),
        n=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        marginals=st.sampled_from(MARGINALS),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_tables(self, bland_after, refactor_every, kind, n, seed, marginals):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(wc, "_BLAND_AFTER", bland_after)
            mp.setattr(wc, "_REFACTOR_EVERY", refactor_every)
            assert_same_solve(drawn_instance(kind, n, seed, marginals))

    @SMALL_PIVOT_CONSTANTS
    @pytest.mark.parametrize(
        "make",
        [
            lambda: dense_copy(coverage_partition_instance(4)),
            lambda: dense_copy(threshold_instance(16)),
            lambda: drawn_instance("random", 16, 16, marginals="random"),
        ],
        ids=["example2-k4", "example3-n16", "random-n16"],
    )
    def test_n16_instances(self, monkeypatch, bland_after, refactor_every, make):
        monkeypatch.setattr(wc, "_BLAND_AFTER", bland_after)
        monkeypatch.setattr(wc, "_REFACTOR_EVERY", refactor_every)
        assert_same_solve(make())

    @SMALL_PIVOT_CONSTANTS
    def test_pricing_falls_through_on_a_drawn_table(self, monkeypatch, bland_after, refactor_every):
        # Pricing takes its full pass (y_n off every entry) at pivots 0, 1
        # and 4 of this 8-pivot solve under both constant pairs, before any
        # degenerate pivot, so the full pass is pinned here bit for bit.
        monkeypatch.setattr(wc, "_BLAND_AFTER", bland_after)
        monkeypatch.setattr(wc, "_REFACTOR_EVERY", refactor_every)
        stats = assert_same_solve(drawn_instance("random", 6, 46, marginals="random"))
        assert stats.pivots == 8 and stats.bland_at is None

    @SMALL_PIVOT_CONSTANTS
    def test_rounding_tie_enters_the_first_column(self, monkeypatch, bland_after, refactor_every):
        # The starting basis {}, {0}, {0,1}, {0,1,2} prices with lambda =
        # (1000, 0, 0) and y_n = -1000. Then f - lambda peaks at mask 4 (1.0),
        # but 1 - 2^-50 at mask 2 rounds onto the same f - lambda - y_n = 1001,
        # so the reference enters mask 2: the first argmax after y_n is taken.
        table = [-1000.0, 0.0, 1 - 2**-50, 0.0, 1.0, 0.0, 0.0, 0.0]
        reduced = np.array(table) - np.array([0, 1000, 0, 1000, 0, 1000, 0, 1000])
        assert (reduced.argmax(), (reduced + 1000).argmax()) == (4, 2)
        monkeypatch.setattr(wc, "_BLAND_AFTER", bland_after)
        monkeypatch.setattr(wc, "_REFACTOR_EVERY", refactor_every)
        inst = Instance(TableFunction(table), (0.9, 0.5, 0.3))
        assert_same_solve(inst)
        assert 2 in dict(worst_case_lp(inst).distribution.support)

    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_past_the_size_cap(self, n):
        # The simplex takes its size from its inputs alone; only core caps
        # a table at MAX_EXACT, so larger seeded tables solve here directly.
        rng = np.random.default_rng(n)
        values, p = rng.random(1 << n), rng.random(n)
        basis, x_b, y, stats = reference_simplex_max(values, p)
        lean_basis, lean_x, lean_y, lean_stats = wc._simplex_max(values, p)
        assert lean_basis == basis
        assert lean_x.tobytes() == x_b.tobytes()
        assert lean_y.tobytes() == y.tobytes()
        assert lean_stats == stats and stats.pivots > 0

    def test_small_constants_reach_bland_and_refactors(self, monkeypatch):
        monkeypatch.setattr(wc, "_BLAND_AFTER", 1)
        monkeypatch.setattr(wc, "_REFACTOR_EVERY", 3)
        stats = assert_same_solve(coverage_partition_instance(3))
        assert stats.bland_at is not None
        assert stats.refactors >= stats.pivots // 3


def with_single_entry(mask):
    """A wc._screen_table that sets the float32 copy's entry at `mask` to
    1e30, so that every float32 pass proposes that column."""
    screen_table = wc._screen_table

    def patched(values):
        single = screen_table(values)
        single[mask] = 1e30
        return single

    return patched


SCREENED = [
    ("uniform", lambda n: drawn_instance("random", n, n, marginals="random")),
    ("coverage", lambda n: random_coverage_instance(n, n)),
    ("supermodular", lambda n: random_supermodular_instance(n, n)),
    ("threshold", threshold_instance),
]


class TestScreenedPricing:
    """From n = wc._SCREEN_FROM_N on, a float32 pass proposes the entering
    column of a Dantzig pivot and float64 decides whether it enters."""

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("make", [m for _, m in SCREENED], ids=[k for k, _ in SCREENED])
    def test_matches_highs(self, monkeypatch, n, make):
        self.assert_screened_solve_is_right(monkeypatch, make(n))

    def test_example2_k4_matches_highs(self, monkeypatch):
        self.assert_screened_solve_is_right(monkeypatch, dense_copy(coverage_partition_instance(4)))

    @staticmethod
    def assert_screened_solve_is_right(monkeypatch, inst):
        n = inst.n
        assert n >= wc._SCREEN_FROM_N
        # HiGHS solves the dual, min gamma + p @ lambda over gamma + lambda(S)
        # >= f(S), in about half the time the primal's 2^n columns take
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1
        a_ub = -np.hstack([np.ones((1 << n, 1)), bits])
        c = np.append(1.0, inst.marginals)
        highs = linprog(c, A_ub=a_ub, b_ub=-inst.function.values(), bounds=(None, None), method="highs-ds")
        assert highs.status == 0
        screened = worst_case_lp(inst)
        assert abs(screened.value - highs.fun) <= 1e-9 * max(1.0, abs(screened.value))
        assert verify_certificate(inst, screened)
        monkeypatch.setattr(wc, "_SCREEN_FROM_N", n + 1)
        plain = worst_case_lp(inst)
        assert screened.stats.pivots <= 2 * max(1, plain.stats.pivots)

    def test_no_screen_at_n14(self, monkeypatch):
        # the measured crossover: below n = 15 float32 saves nothing, and
        # every solve there is the float64 solve
        def refused(values):
            raise AssertionError("float32 copy built at n = 14")

        monkeypatch.setattr(wc, "_screen_table", refused)
        inst = drawn_instance("random", 14, 14, marginals="random")
        assert verify_certificate(inst, worst_case_lp(inst))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: dense_copy(coverage_partition_instance(4)),
            lambda: drawn_instance("random", 16, 116, marginals="uniform"),
        ],
        ids=["example2-k4", "uniform-n16"],
    )
    def test_a_proposal_that_does_not_improve_does_not_enter(self, monkeypatch, make):
        # The float32 copy always proposes the empty set, whose float64
        # reduced cost stays <= LP_TOL on these solves: each pivot takes the
        # float64 pass, so the solve is the float64 solve bit for bit, 38
        # pivots on example2-k4 where the unpatched screen takes 30.
        inst = make()
        values, p = inst.function.values() / inst.function.scale, inst.marginals
        with monkeypatch.context() as mp:
            mp.setattr(wc, "_SCREEN_FROM_N", inst.n + 1)
            plain = wc._simplex_max(values, p)
        built = []
        patched = with_single_entry(0)
        monkeypatch.setattr(wc, "_screen_table", lambda v: built.append(v) or patched(v))
        basis, x_b, y, stats = wc._simplex_max(values, p)
        assert len(built) == 1
        assert basis == plain[0] and stats == plain[3]
        assert x_b.tobytes() == plain[1].tobytes() and y.tobytes() == plain[2].tobytes()

    @pytest.mark.parametrize("mask", [0b1111, 1 << 15, (1 << 16) - 1])
    def test_bland_prices_in_float64_only(self, monkeypatch, mask):
        # Bland's rule takes over at the first degenerate pivot here; from
        # then on a float32 proposal of `mask` must not enter, as it does not
        # in the reference, which stops screening there.
        monkeypatch.setattr(wc, "_BLAND_AFTER", 1)
        monkeypatch.setattr(wc, "_screen_table", with_single_entry(mask))
        inst = dense_copy(coverage_partition_instance(4))
        values, p = inst.function.values() / inst.function.scale, np.asarray(inst.marginals)
        basis, x_b, y, stats = reference_simplex_max(values, p)
        lean = wc._simplex_max(values, p)
        assert stats.bland_at is not None
        assert lean[0] == basis and lean[3] == stats
        assert lean[1].tobytes() == x_b.tobytes() and lean[2].tobytes() == y.tobytes()


def four_sweep_verify(inst, result, tol):
    """verify_certificate with gamma taken off every scenario's excess before
    the max, as the certificate scan used to price."""
    p = np.asarray(inst.marginals)
    lam = np.asarray(result.dual_lambda)
    dist = result.distribution
    if np.max(np.abs(dist.marginals() - p)) > tol:
        return False
    if abs(sum(prob for _, prob in dist.support) - 1.0) > tol:
        return False
    if abs(dist.expectation(inst.function) - result.value) > tol:
        return False
    excess = inst.function.values() - subset_sums(lam)
    excess -= result.dual_gamma
    if np.max(excess) > tol:
        return False
    return abs(result.dual_gamma + float(p @ lam) - result.value) <= tol


class TestCertificateScanMatchesFourSweeps:
    @pytest.mark.parametrize("seed", range(6))
    def test_honest_and_bogus(self, seed):
        inst = drawn_instance("random", 3 + seed, seed, marginals="random")
        honest = worst_case_lp(inst)
        gamma = honest.dual_gamma - 1e-3
        bogus = WorstCaseResult(honest.value, honest.distribution, gamma, honest.dual_lambda)
        for result, expected in ((honest, True), (bogus, False)):
            old = four_sweep_verify(inst, result, wc.CERT_TOL)
            assert verify_certificate(inst, result) is old is expected

    @pytest.mark.parametrize("seed", range(6))
    def test_largest_excess_at_tol_and_one_ulp_either_side(self, monkeypatch, seed):
        inst = drawn_instance("random", 3 + seed, 100 + seed, marginals="random")
        honest = worst_case_lp(inst)
        # Trade gamma against lambda_0 so that the objective holds but some
        # scenario without element 0 now exceeds its dual by about 1e-4.
        shift = 1e-4 / inst.marginals[0]
        lam = (honest.dual_lambda[0] + shift, *honest.dual_lambda[1:])
        gamma = honest.dual_gamma - shift * inst.marginals[0]
        moved = WorstCaseResult(honest.value, honest.distribution, gamma, lam)
        excess = inst.function.values() - subset_sums(np.asarray(lam))
        excess -= gamma
        largest = float(excess.max())
        tols = [np.nextafter(largest, -np.inf), largest, np.nextafter(largest, np.inf)]
        verdicts = []
        for tol in tols:
            monkeypatch.setattr(wc, "CERT_TOL", tol)
            verdicts.append(verify_certificate(inst, moved))
        assert verdicts == [four_sweep_verify(inst, moved, tol) for tol in tols]
        assert verdicts == [False, True, True]


def recorded_stats(monkeypatch, argv):
    """Run the command and return the SimplexStats of every scenario LP it
    solved, in order, as (pivots, degenerate pivots, bland_at, refactors)."""
    stats = []
    solve = wc._simplex_max

    def recorded(*args):
        result = solve(*args)
        stats.append(result[3])
        return result

    monkeypatch.setattr(wc, "_simplex_max", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    return [(s.pivots, s.degenerate_pivots, s.bland_at, s.refactors) for s in stats]


class TestPinnedSolveCounts:
    """The work behind the golden commands, by name. Pivot counts do not
    depend on the machine, so a change of algorithmic work shows here even
    when every printed number stays the same."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ("worst-case --builtin example2", [(4, 3, None, 1)]),
            ("worst-case --builtin example2 --k 2", [(2, 1, None, 1)]),
            ("worst-case --builtin example2 --k 4", [(3, 0, None, 1)]),  # the orbit LP
            ("worst-case --builtin example3", [(2, 1, None, 1)]),
            ("worst-case --builtin example3 --n 5", [(4, 3, None, 1)]),
            ("worst-case --builtin example3 --n 16", [(1, 0, None, 1)]),  # the orbit LP
            ("worst-case --builtin coverage_random", [(2, 0, None, 1)]),
            ("worst-case --builtin coverage_random --seed 3 --n 4", [(2, 0, None, 1)]),
            ("worst-case --builtin integrality_gap", [(6, 3, None, 1)]),
            ("gap --builtin example2 --k 4", [(3, 0, None, 1)]),  # the orbit LP
            ("robust --builtin example1", [(0, 0, None, 0)] * 2),
            ("robust --builtin example1 --n 6", [(0, 0, None, 0)] * 2),
            ("robust --builtin example2_two_stage", [(4, 3, None, 1), (4, 3, None, 1), (0, 0, None, 0)]),
            ("robust --builtin example2_two_stage --k 2", [(2, 1, None, 1), (2, 1, None, 1), (0, 0, None, 0)]),
            ("robust --builtin ufl_random", [(0, 0, None, 0)]),
            ("robust --builtin ufl_random --seed 4", [(2, 0, None, 1)]),
        ],
    )
    def test_command(self, monkeypatch, argv, expected):
        assert recorded_stats(monkeypatch, argv.split()) == expected

    def test_verify_all_totals(self, monkeypatch):
        stats = recorded_stats(monkeypatch, ["verify", "--all"])
        pivots, degenerate, bland_at, refactors = zip(*stats)
        assert (len(stats), sum(pivots), sum(degenerate), sum(refactors)) == (115, 370, 60, 83)
        assert set(bland_at) == {None}


class TestSimplexStats:
    def test_counts_on_a_degenerate_lp(self):
        stats = worst_case_lp(coverage_partition_instance(3)).stats
        assert stats.pivots >= stats.degenerate_pivots > 0
        assert stats.bland_at is None

    def test_stats_stay_out_of_json(self):
        result = worst_case_lp(threshold_instance(3))
        assert result.stats.pivots > 0
        assert "stats" not in result.to_json()
        assert supermodular_worst_case(square_instance()).stats is None


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
