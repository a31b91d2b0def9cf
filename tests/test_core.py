import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corrgap.core as core
from corrgap.core import (
    CHECK_TOL,
    MAX_EXACT,
    CoverageMax,
    FacilityLocationCost,
    Instance,
    SetFunction,
    SizeCapError,
    TableFunction,
    TwoStageFlow,
    ValidationError,
    as_int,
    as_real,
    function_from_json,
    is_monotone,
    is_submodular,
    is_supermodular,
    mask_of,
    subset_sums,
    unit_scale,
)


def cardinality_table(n, fn):
    return TableFunction([float(fn(m.bit_count())) for m in range(1 << n)])


def reference_coverage_max(blocks, mask):
    """max_k |S & A_k|, counted bit by bit, one mask at a time."""
    return max(sum(mask >> i & 1 for i in block) for block in blocks)


def reference_two_stage_flow(n, x, mask):
    """c(x) + 2^n * (|S| - x)^+ with c(x) = x below full capacity, n + 2 at it."""
    return (x if x < n else n + 2) + 2**n * max(mask.bit_count() - x, 0)


def _sequential_sum(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_facility_cost(f, mask):
    """Per-mask brute force for FacilityLocationCost: every open set (the
    pre-opened facilities plus any subset of the others), each client of the
    mask served from its nearest open facility via an np.ix_ slice, sums taken
    left to right in ascending index order as the doubling table adds them."""
    if mask == 0:
        return f.base_cost
    clients = [i for i in range(f.n) if mask >> i & 1]
    closed = [j for j in range(len(f.open_costs)) if j not in f.pre_open]
    best = np.inf
    for g in range(1 << len(closed)):
        chosen = [j for k, j in enumerate(closed) if g >> k & 1]
        cols = sorted(f.pre_open.union(chosen))
        if not cols:
            continue
        open_cost = _sequential_sum(f.open_costs[j] for j in chosen)
        service = _sequential_sum(f.distances[np.ix_(clients, cols)].min(axis=1))
        best = min(best, open_cost + service)
    return f.base_cost + best


class TestEvaluate:
    def test_coverage_max_example(self):
        f = CoverageMax(4, [[0, 1], [2, 3]])
        assert f.value(mask_of([0, 1, 2], 4)) == 2.0

    def test_two_stage_flow_full_set(self):
        f = TwoStageFlow(4, 3)
        assert f.value(0b1111) == 3 + 16 * 1

    def test_two_stage_flow_build_cost_jump(self):
        assert TwoStageFlow(4, 4).value(0) == 6.0  # full capacity costs n + 2
        assert TwoStageFlow(4, 3).value(0) == 3.0

    def test_explicit_table_empty_set(self):
        f = TableFunction([0.0, 2.0, 3.0, 5.0])
        assert f.value(0) == 0.0

    def test_mask_out_of_range(self):
        f = TableFunction([0.0, 1.0])
        with pytest.raises(ValidationError):
            f.value(2)

    def test_repeat_calls_bit_exact(self):
        f = CoverageMax(6, [[0, 1, 2], [3, 4, 5]])
        for mask in (0, 5, 63):
            assert f.value(mask) == f.value(mask)

    def test_values_matches_value_pointwise(self):
        for x in (0, 2, 5):
            f = TwoStageFlow(5, x)
            expected = [reference_two_stage_flow(5, x, m) for m in range(32)]
            assert np.array_equal(f.values(), expected)
            assert np.array_equal([f.value(m) for m in range(32)], expected)

    @pytest.mark.parametrize(
        "n, blocks",
        [(9, [[0, 4], [1, 2, 3], [5, 6, 7, 8]]), (16, [list(range(i, 16, 4)) for i in range(4)])],
    )
    def test_coverage_max_values_match_value_pointwise(self, n, blocks):
        f = CoverageMax(n, blocks)
        expected = [reference_coverage_max(blocks, m) for m in range(1 << n)]
        assert np.array_equal(f.values(), expected)
        masks = range(0, 1 << n, 97)
        assert np.array_equal([f.value(m) for m in masks], [expected[m] for m in masks])

    def test_values_cached_and_readonly(self):
        f = TableFunction([0.0, 1.0, 1.0, 2.0])
        v = f.values()
        assert v is f.values()
        with pytest.raises(ValueError):
            v[0] = 9.0

    def test_scale_is_computed_once_with_the_table(self, monkeypatch):
        calls = []
        monkeypatch.setattr(core, "unit_scale", lambda v: calls.append(len(v)) or 4.0)
        f = CoverageMax(4, [[0, 1], [2, 3]])
        assert calls == []
        assert f.scale == 4.0 and f.scale == 4.0 and f.values() is f.values()
        assert calls == [16]

    @pytest.mark.parametrize("top", [5e-324, -1e-310])
    def test_computed_subnormal_table_refused_when_built(self, top):
        class Tiny(SetFunction):
            def values_at(self, masks):
                return np.where(masks == 3, top, 0.0)

        for read in (Tiny.values, lambda f: f.scale):
            with pytest.raises(ValidationError, match="f is subnormal"):
                read(Tiny(2))


def masked_add_sums(weights):
    """Reference: add weights[i] into every mask holding bit i, one element
    at a time."""
    masks = np.arange(1 << len(weights))
    sums = np.zeros(1 << len(weights))
    for i, w in enumerate(weights):
        sums[(masks >> i & 1) == 1] += w
    return sums


class TestSubsetSums:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_matches_dense_bit_matrix(self, n):
        # small integer weights make every order of summation exact
        weights = np.random.default_rng(n).integers(-50, 50, n).astype(np.float64)
        bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        assert np.array_equal(subset_sums(weights), bits @ weights)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_bit_identical_to_masked_add_and_concat_doubling(self, n):
        weights = np.random.default_rng(100 + n).normal(size=n) * 1e3
        concat = np.zeros(1)
        for w in weights:
            concat = np.concatenate([concat, concat + w])
        got = subset_sums(weights)
        assert got.tobytes() == masked_add_sums(weights).tobytes() == concat.tobytes()

    def test_fills_the_given_buffer(self):
        out = np.full(8, np.nan)
        assert subset_sums([1.0, 2.0, 4.0], out=out) is out
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]


class TestStructureCheckers:
    def test_cardinality_is_monotone(self):
        assert is_monotone(cardinality_table(4, lambda s: s))
        assert not is_monotone(cardinality_table(4, lambda s: -s))

    def test_threshold_is_submodular(self):
        f = TableFunction([0.0] + [1.0] * 15)
        assert is_submodular(f)
        assert not is_supermodular(f)

    def test_square_is_supermodular(self):
        f = cardinality_table(4, lambda s: s * s)
        assert is_supermodular(f)
        assert not is_submodular(f)

    def test_coverage_max_not_submodular(self):
        f = CoverageMax(4, [[0, 1], [2, 3]])
        assert not is_submodular(f)

    def test_modular_iff_both(self):
        weights = [0.5, 1.25, 2.0]
        f = TableFunction(
            [sum(w for i, w in enumerate(weights) if m >> i & 1) for m in range(8)]
        )
        assert is_submodular(f) and is_supermodular(f)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_both_properties_imply_modular(self, seed):
        from corrgap.instances import random_monotone_instance

        f = random_monotone_instance(seed, 4).function
        if is_submodular(f) and is_supermodular(f):
            base = f.value(0)
            for mask in range(16):
                additive = base + sum(
                    f.value(1 << i) - base for i in range(4) if mask >> i & 1
                )
                assert abs(f.value(mask) - additive) <= 1e-9

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_two_stage_flow_supermodular_for_all_x(self, n):
        for x in range(n + 1):
            assert is_supermodular(TwoStageFlow(n, x))

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_coverage_max_monotone_any_partition(self, n, data):
        assignment = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        blocks = [[i for i in range(n) if assignment[i] == b] for b in range(3)]
        blocks = [b for b in blocks if b]
        f = CoverageMax(n, blocks)
        assert is_monotone(f)


CHECKS = [is_monotone, is_submodular, is_supermodular]


def brute_force_structure(f, tol=CHECK_TOL):
    """Per-pair Python reference for the three structure checks: every
    (S, i) and every (S, i, j) with i < j, one float comparison each,
    written as the checks write it."""
    v = f.values().tolist()
    t = tol * unit_scale(f.values())
    full = range(1 << f.n)
    pairs = [(1 << i, 1 << j) for i in range(f.n) for j in range(i + 1, f.n)]

    def exchange(sign):
        return all(
            not sign * (v[s | bi] + v[s | bj]) < sign * (v[s | bi | bj] + v[s]) - t
            for bi, bj in pairs
            for s in full
            if not s & (bi | bj)
        )

    return {
        is_monotone: all(
            not v[s | 1 << i] < v[s] - t for s in full for i in range(f.n) if not s >> i & 1
        ),
        is_submodular: exchange(1.0),
        is_supermodular: exchange(-1.0),
    }


def random_structure_table(seed):
    """A seeded table at n = 1 + seed % 7: modular, square-of-size or
    threshold-like or uniform, with about a fifth of its entries moved by up
    to 3e-9 so that some margins sit near the tolerance, and negated at
    random."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 7
    sizes = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(float)
    kind = seed // 7 % 4
    if kind == 0:
        table = subset_sums(rng.integers(-2, 6, n) / 8)
    elif kind == 1:
        table = sizes**2 / 64
    elif kind == 2:
        table = np.minimum(sizes, 2) / 4
    else:
        table = rng.random(1 << n) - 0.25
    moved = rng.random(1 << n) < 0.2
    table = table + moved * rng.integers(-3, 4, 1 << n) * 1e-9
    return TableFunction(table * rng.choice([-1.0, 1.0]))


class TestStructureCheckersAgainstBruteForce:
    """Each check gives the per-pair reference's verdict, on seeded tables
    and at a margin exactly at -tol * unit_scale(f) and one float past it."""

    @pytest.mark.parametrize("tol", [0.0, CHECK_TOL, 4e-9])
    def test_random_tables(self, monkeypatch, tol):
        monkeypatch.setattr(core, "CHECK_TOL", tol)
        verdicts = {check: set() for check in CHECKS}
        for seed in range(140):
            f = random_structure_table(seed)
            expected = brute_force_structure(f, tol)
            for check in CHECKS:
                assert check(f) == expected[check], (seed, check.__name__)
                verdicts[check].add(expected[check])
        assert all(seen == {True, False} for seen in verdicts.values())

    # Dyadic tables, so every sum the checks form is exact: n = 4, tol a
    # power of two and unit_scale(f) = 1.
    TOL = 2.0**-10

    def modular(self, free=None):
        """f(S) = sum of dyadic weights over S, element `free` weighing 0."""
        weights = [0.1875, 0.1875, 0.25, 0.3125]
        return subset_sums([0.0 if i == free else w for i, w in enumerate(weights)])

    def verdicts(self, table, check):
        f = TableFunction(table)
        assert unit_scale(f.values()) == 1.0
        expected = brute_force_structure(f, self.TOL)[check]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "CHECK_TOL", self.TOL)
            assert check(f) == expected
        return expected

    @pytest.mark.parametrize("s, i", [(0, 0), (0b0101, 1), (0b0011, 3), (0b1010, 2)])
    def test_monotone_margin_at_the_tolerance(self, s, i):
        # element i adds nothing, except at S where it costs exactly tol
        table = self.modular(free=i)
        table[s | 1 << i] = table[s] - self.TOL
        assert self.verdicts(table, is_monotone)
        table[s | 1 << i] = math.nextafter(table[s | 1 << i], -math.inf)
        assert not self.verdicts(table, is_monotone)

    @pytest.mark.parametrize("i, j", [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_exchange_margin_at_the_tolerance(self, i, j, sign):
        # a modular table whose pair {i, j} moves by tol against the check's
        # direction, so only (empty, i, j) sits at the margin; then f({i})
        # moves one float of f({i}) + f({j}) further
        check = is_submodular if sign > 0 else is_supermodular
        table = self.modular()
        table[1 << i | 1 << j] += sign * self.TOL
        assert self.verdicts(table, check)
        step = math.ulp(table[1 << i] + table[1 << j])
        table[1 << i] -= sign * step
        assert not self.verdicts(table, check)


class TestFacilityLocation:
    OPEN = [3.0, 1.0]
    DIST = [[1.0, 5.0], [4.0, 1.0]]

    def test_hand_computed_costs(self):
        f = FacilityLocationCost(self.OPEN, self.DIST)
        assert [f.value(m) for m in range(4)] == [0.0, 4.0, 2.0, 6.0]

    def test_pre_opened_facilities_are_free(self):
        f = FacilityLocationCost(self.OPEN, self.DIST, pre_open=[1])
        assert [f.value(m) for m in range(4)] == [0.0, 4.0, 1.0, 5.0]

    def test_base_cost_shifts_everything(self):
        f = FacilityLocationCost(self.OPEN, self.DIST, pre_open=[1], base_cost=2.0)
        assert [f.value(m) for m in range(4)] == [2.0, 6.0, 3.0, 7.0]

    def test_table_agrees_with_single_evaluations(self):
        # the subset-sum doubling table against the per-mask brute force
        from corrgap.instances import random_ufl_space

        space = random_ufl_space(3, n_clients=5, n_facilities=3)
        for d in space.decisions[:4]:
            f = d.function
            expected = [reference_facility_cost(f, m) for m in range(32)]
            assert np.array_equal(f.values(), expected)
            assert np.array_equal([f.value(m) for m in range(32)], expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_table_equals_single_evaluations_up_to_certify_cap(self, n):
        # certify reads f(S) from the table; it must be the brute-force cost exactly
        rng = np.random.default_rng(n)
        for pre_open in ((), (0,)):
            f = FacilityLocationCost(
                rng.random(3) * 3, rng.random((n, 3)) * 5, pre_open, float(rng.random())
            )
            expected = [reference_facility_cost(f, m) for m in range(1 << n)]
            assert np.array_equal(f.values(), expected)
            assert np.array_equal([f.value(m) for m in range(1 << n)], expected)

    def test_table_bit_identical_to_concat_doubling(self):
        from corrgap.instances import random_ufl_space

        for d in random_ufl_space(4, n_clients=8, n_facilities=3).decisions:
            f = d.function
            best = np.full(1 << f.n, np.inf)
            for g in range(1 << len(f._closed)):
                opened = set(f.pre_open)
                open_cost = 0.0
                for k, j in enumerate(f._closed):
                    if g >> k & 1:
                        opened.add(j)
                        open_cost += f.open_costs[j]
                if not opened:
                    continue
                nearest = f.distances[:, sorted(opened)].min(axis=1)
                sums = np.zeros(1)
                for i in range(f.n):
                    sums = np.concatenate([sums, sums + nearest[i]])
                np.minimum(best, open_cost + sums, out=best)
            best[0] = 0.0
            assert f.values().tobytes() == (f.base_cost + best).tobytes()

    def test_monotone(self):
        assert is_monotone(FacilityLocationCost(self.OPEN, self.DIST))

    def test_validation(self):
        with pytest.raises(ValidationError):
            FacilityLocationCost([1.0], [[-1.0]])
        with pytest.raises(ValidationError):
            FacilityLocationCost([], [[]])
        with pytest.raises(SizeCapError):
            FacilityLocationCost([1.0] * 13, [[0.0] * 13])
        with pytest.raises(ValidationError):
            FacilityLocationCost([1.0], [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        # instance files cannot carry these (the JSON loader refuses them); library callers can
        with pytest.raises(ValidationError, match="finite"):
            FacilityLocationCost([1.0], [[bad], [1.0]])
        with pytest.raises(ValidationError, match="finite"):
            FacilityLocationCost([bad], [[1.0], [1.0]])
        with pytest.raises(ValidationError, match="finite"):
            FacilityLocationCost([1.0], [[1.0], [1.0]], base_cost=bad)


class TestJsonRoundTrips:
    @pytest.mark.parametrize(
        "f",
        [
            TableFunction([0.0, 1.0, 1.5, 2.0]),
            CoverageMax(4, [[0, 1], [2, 3]]),
            TwoStageFlow(4, 3),
            FacilityLocationCost([3.0, 1.0], [[1.0, 5.0], [4.0, 1.0]], [1], 2.0),
        ],
    )
    def test_round_trip(self, f):
        g = function_from_json(f.to_json())
        assert g.to_json() == f.to_json()
        assert np.array_equal(g.values(), f.values())

    def test_explicit_n_must_match_table_length(self):
        assert function_from_json({"type": "explicit", "n": 2, "values": [0, 1, 1, 2]}).n == 2
        assert function_from_json({"type": "explicit", "values": [0, 1, 1, 2]}).n == 2
        for n in (3, 1, "2", None):
            with pytest.raises(ValidationError):
                function_from_json({"type": "explicit", "n": n, "values": [0, 1, 1, 2]})

    def test_malformed_fields(self):
        with pytest.raises(ValidationError):
            function_from_json({"type": "explicit", "values": [0, "one"]})
        with pytest.raises(ValidationError):
            function_from_json({"type": "coverage_max", "n": "four", "partition": [[0]]})

    def test_unknown_type(self):
        with pytest.raises(ValidationError):
            function_from_json({"type": "mystery"})
        with pytest.raises(ValidationError):
            function_from_json({"no": "type"})

    def test_instance_round_trip(self):
        inst = Instance(TwoStageFlow(3, 1), [0.2, 0.5, 0.9])
        again = Instance.from_json(inst.to_json())
        assert again.to_json() == inst.to_json()


class TestValidation:
    @pytest.mark.parametrize("x", [3, np.int64(3), np.uint8(3)])
    def test_as_int_accepts_integers(self, x):
        assert as_int(x, "k") == 3 and type(as_int(x, "k")) is int

    @pytest.mark.parametrize("x", [True, np.bool_(True), 3.0, "3", None])
    def test_as_int_refuses_the_rest(self, x):
        with pytest.raises(ValidationError, match="must be an integer"):
            as_int(x, "k")

    @pytest.mark.parametrize("x", [0.5, np.float64(0.5), np.float32(0.5)])
    def test_as_real_accepts_numbers(self, x):
        assert as_real(x, "p") == 0.5 and type(as_real(x, "p")) is float
        assert as_real(2, "p") == 2.0 and type(as_real(2, "p")) is float

    @pytest.mark.parametrize("x", [False, np.bool_(False), "0.5", b"0.5"])
    def test_as_real_refuses_strings_and_bools(self, x):
        with pytest.raises(ValidationError, match="must be a number"):
            as_real(x, "p")

    def test_ground_set_bounds(self):
        with pytest.raises(ValidationError):
            SetFunction(0)
        assert SetFunction(MAX_EXACT).n == MAX_EXACT
        with pytest.raises(SizeCapError):
            SetFunction(MAX_EXACT + 1)

    def test_bad_marginals(self):
        f = TableFunction([0.0, 1.0])
        with pytest.raises(ValidationError):
            Instance(f, [1.5])
        with pytest.raises(ValidationError):
            Instance(f, [0.5, 0.5])

    def test_bad_tables_and_partitions(self):
        with pytest.raises(ValidationError):
            TableFunction([0.0, 1.0, 2.0])  # not a power of two
        with pytest.raises(ValidationError):
            TableFunction([[0.0, 1.0], [1.0, 2.0]])  # not one-dimensional
        with pytest.raises(ValidationError):
            TableFunction([])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValidationError):
                TableFunction([0.0, 1.0, bad, 2.0])
        with pytest.raises(ValidationError):
            CoverageMax(4, [[0, 1], [1, 2, 3]])  # overlap
        with pytest.raises(ValidationError):
            CoverageMax(4, [[0, 1]])  # does not cover
        with pytest.raises(ValidationError):
            TwoStageFlow(4, 5)

    @pytest.mark.parametrize(
        "table",
        [
            ["1.5", "2"],  # np.array(..., float64) would parse these
            [0.0, "1", 1.0, 2.0],
            [None, 1.0],
            [[0.0, 1.0], [2.0]],  # ragged
            [0.0, [1.0, 2.0], 1.0, 2.0],
            [False, True],  # no number among the bools
        ],
    )
    def test_table_entries_must_be_numbers(self, table):
        with pytest.raises(ValidationError, match="explicit table entries must be numbers"):
            TableFunction(table)

    def test_ragged_distances_refused(self):
        with pytest.raises(ValidationError, match="distances must be numbers"):
            FacilityLocationCost([1.0], [[1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_computed_table_must_be_finite(self, bad):
        class WithBad(SetFunction):
            def values_at(self, masks):
                return np.where(masks == 2, bad, 1.0)

        f = WithBad(2)
        with pytest.raises(ValidationError, match="finite"):
            f.values()
        with pytest.raises(ValidationError, match="finite"):
            f.value(0)

    def test_overflowing_facility_sums_refused_without_a_warning(self):
        f = FacilityLocationCost([0.0], [[1e308], [1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="finite"):
                f.values()

    def test_explicit_json_of_bools_alone_refused(self):
        with pytest.raises(ValidationError, match="explicit table entries must be numbers"):
            function_from_json({"type": "explicit", "values": [False, True]})
        mixed = function_from_json({"type": "explicit", "values": [0, True, 1.5, False]})
        assert mixed.values().tolist() == [0.0, 1.0, 1.5, 0.0]
        with pytest.raises(ValidationError, match="not 2"):
            function_from_json({"type": "explicit", "values": []})

    def test_table_from_array_is_a_private_copy(self):
        source = np.array([0.0, 1.0, 1.5, 2.0])
        f = TableFunction(source)
        source[1] = 9.0
        assert source.flags.writeable and f.value(1) == 1.0
        assert not f.values().flags.writeable

    def test_size_cap_at_construction(self):
        n = MAX_EXACT + 1
        with pytest.raises(SizeCapError):
            CoverageMax(n, [list(range(n))])
        with pytest.raises(SizeCapError):
            TableFunction(np.zeros(1 << n))
        with pytest.raises(SizeCapError):
            FacilityLocationCost([1.0], [[1.0]] * n)

    @pytest.mark.parametrize("n", [3, MAX_EXACT])
    def test_value_rejects_out_of_range_masks_for_every_kind(self, n):
        from corrgap.split import split_instance

        base = Instance(TableFunction(np.zeros(1 << (n - 1))), [0.5] * (n - 1))
        functions = [
            TableFunction(np.zeros(1 << n)),
            CoverageMax(n, [list(range(n))]),
            TwoStageFlow(n, 1),
            FacilityLocationCost([1.0], [[1.0]] * n),
            split_instance(base, [1] * (n - 2) + [2])[0].function,
        ]
        for f in functions:
            for mask in (-1, 1 << f.n):
                with pytest.raises(ValidationError):
                    f.value(mask)
