import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from corrgap.core import Instance, SizeCapError, TableFunction, ValidationError
from corrgap.cost_sharing import (
    CertificationResult,
    CostShareScheme,
    OrderedSet,
    certify,
    incremental_scheme,
    lift_scheme,
    partial_prefix_cross_monotone,
)
from corrgap.instances import (
    random_coverage_function,
    random_monotone_instance,
    threshold_instance,
)
from corrgap.split import split_instance


def min2_function():
    return TableFunction([float(min(m.bit_count(), 2)) for m in range(8)])


def square_function(n=3):
    return TableFunction([float(m.bit_count() ** 2) for m in range(1 << n)])


class TestOrderedSet:
    def test_from_order(self):
        oset = OrderedSet.from_order((2, 0))
        assert oset.mask == 0b101 and oset.order == (2, 0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            OrderedSet(0b11, (0,))
        with pytest.raises(ValidationError):
            OrderedSet(0b11, (0, 0))
        with pytest.raises(ValidationError):
            OrderedSet(0b01, (0, 1))

    def test_restrict_keeps_relative_order(self):
        oset = OrderedSet.from_order((2, 0, 1))
        assert oset.restrict(0b011).order == (0, 1)
        with pytest.raises(ValidationError):
            oset.restrict(0b1000)


class TestIncrementalScheme:
    def test_telescoping_shares(self):
        scheme = incremental_scheme(min2_function())
        oset = OrderedSet.from_order((0, 1, 2))
        shares = [scheme.share(i, oset) for i in (0, 1, 2)]
        assert shares == [1.0, 1.0, 0.0]

    def test_shares_sum_to_span(self):
        f = random_monotone_instance(7, 4).function
        scheme = incremental_scheme(f)
        import itertools

        for order in itertools.permutations(range(4)):
            oset = OrderedSet.from_order(order)
            total = sum(scheme.share(i, oset) for i in order)
            assert total == pytest.approx(f.value(0b1111) - f.value(0), abs=1e-9)

    def test_threshold_first_element_pays(self):
        scheme = incremental_scheme(threshold_instance(3).function)
        oset = OrderedSet.from_order((1, 2, 0))
        assert scheme.share(1, oset) == 1.0
        assert scheme.share(2, oset) == 0.0
        assert scheme.share(0, oset) == 0.0

    def test_missing_element_rejected(self):
        scheme = incremental_scheme(min2_function())
        with pytest.raises(ValidationError):
            scheme.share(2, OrderedSet.from_order((0, 1)))

    def test_nonnegative_shares_iff_monotone(self):
        import itertools

        for trial in range(10):
            f = random_monotone_instance(50 + trial, 4).function
            table = list(f.values())
            scheme = incremental_scheme(f)
            all_nonneg = all(
                scheme.share(i, OrderedSet.from_order(order)) >= -1e-12
                for s in range(1, 16)
                for order in itertools.permutations([i for i in range(4) if s >> i & 1])
                for i in order
            )
            assert all_nonneg  # monotone generator => nonnegative everywhere

            table[0b0111] = table[0b1111] + 5.0  # break monotonicity
            broken = TableFunction(table)
            bscheme = incremental_scheme(broken)
            some_negative = any(
                bscheme.share(i, OrderedSet.from_order(order)) < -1e-12
                for s in range(1, 16)
                for order in itertools.permutations([i for i in range(4) if s >> i & 1])
                for i in order
            )
            assert some_negative


class TestCertify:
    def test_submodular_incremental_is_one_one_cross_monotone(self):
        f = threshold_instance(3).function
        cert = certify(incremental_scheme(f), f)
        assert cert.eta_star == pytest.approx(1.0, abs=1e-12)
        assert cert.beta_star == pytest.approx(1.0, abs=1e-12)
        assert cert.cross_monotone and cert.budget_upper_ok
        assert cert.eta_star_chain <= cert.eta_star + 1e-12

    def test_random_coverage_certifies_at_one(self):
        for trial in range(6):
            f = random_coverage_function(800 + trial, 3 + trial % 3)
            cert = certify(incremental_scheme(f), f)
            assert cert.eta_star <= 1 + 1e-9
            assert cert.beta_star <= 1 + 1e-9
            assert cert.cross_monotone

    def test_supermodular_incremental_not_cross_monotone(self):
        f = square_function()
        cert = certify(incremental_scheme(f), f)
        assert not cert.cross_monotone
        # the telescoping identity still pins the constants at one
        assert cert.eta_star == pytest.approx(1.0, abs=1e-12)
        assert cert.beta_star == pytest.approx(1.0, abs=1e-12)

    def test_zero_scheme_on_positive_function_unbounded(self):
        f = threshold_instance(2).function
        zero = CostShareScheme(lambda i, oset: 0.0, label="zero")
        cert = certify(zero, f)
        assert math.isinf(cert.beta_star)
        assert cert.to_json()["beta_star"] == "unbounded"

    def test_overcharging_scheme_flagged(self):
        f = threshold_instance(2).function
        greedy = CostShareScheme(lambda i, oset: 1.0, label="overcharge")
        cert = certify(greedy, f)
        assert not cert.budget_upper_ok and math.isinf(cert.beta_star)

    def test_chain_reading_can_be_strictly_weaker(self):
        # constant shares against a quadratic cost: per-subset summability is
        # tight at singletons (ratio 1) while the full-ground chain only needs
        # n / n^2 = 1/3, so the two reported constants separate
        f = square_function(3)
        flat = CostShareScheme(lambda i, oset: 1.0, label="flat")
        cert = certify(flat, f)
        assert cert.eta_star == pytest.approx(1.0, abs=1e-12)
        assert cert.eta_star_chain == pytest.approx(1 / 3, abs=1e-12)

    def test_size_cap(self):
        f = TableFunction([0.0] * 128)
        with pytest.raises(SizeCapError):
            certify(incremental_scheme(f), f)


class TestLiftedScheme:
    def test_no_duplicates_matches_original(self):
        base = threshold_instance(3)
        scheme = incremental_scheme(base.function)
        _, split_map = split_instance(base, [1, 1, 1])
        lifted = lift_scheme(scheme, split_map)
        oset = OrderedSet.from_order((2, 0, 1))
        for i in (0, 1, 2):
            assert lifted.share(i, oset) == scheme.share(i, oset)

    def test_only_first_copy_pays(self):
        base = threshold_instance(2)
        split_inst, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        # copies: 0,1 -> element 0; 2,3 -> element 1; order puts copy 1 first
        oset = OrderedSet.from_order((1, 0, 2))
        assert lifted.share(1, oset) == 1.0  # first copy of element 0 pays f({0}) - f({})
        assert lifted.share(0, oset) == 0.0
        assert lifted.share(2, oset) == 0.0  # element 1 adds nothing to the threshold

    def test_lifted_keeps_constants_and_cross_monotonicity(self):
        base = threshold_instance(2)
        split_inst, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        cert = certify(lifted, split_inst.function)
        assert cert.eta_star <= 1 + 1e-9
        assert cert.beta_star <= 1 + 1e-9
        assert partial_prefix_cross_monotone(lifted, split_map)

    def test_lifted_coverage_three_way_split(self):
        f = random_coverage_function(42, 3)
        from corrgap.core import Instance

        base = Instance(f, [0.5, 0.5, 0.5])
        split_inst, split_map = split_instance(base, [2, 2, 2])
        lifted = lift_scheme(incremental_scheme(f), split_map)
        cert = certify(lifted, split_inst.function)
        assert cert.eta_star <= 1 + 1e-9 and cert.beta_star <= 1 + 1e-9
        assert partial_prefix_cross_monotone(lifted, split_map)

    def test_partial_prefix_cap(self):
        base = threshold_instance(4)
        _, split_map = split_instance(base, [2, 2, 2, 1])
        with pytest.raises(SizeCapError):
            partial_prefix_cross_monotone(
                lift_scheme(incremental_scheme(base.function), split_map), split_map
            )

    def test_partial_prefix_detects_violations(self):
        # negative control: lifting a non-cross-monotone base scheme must
        # surface violations even under the partial-prefix restriction
        from corrgap.core import Instance

        sq = TableFunction([0.0, 1.0, 1.0, 4.0])
        base = Instance(sq, [0.5, 0.5])
        _, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(sq), split_map)
        assert not partial_prefix_cross_monotone(lifted, split_map)


def _sequential_sum(terms):
    # Left to right from 0.0, as certify adds; Python 3.12's sum() compensates.
    total = 0.0
    for term in terms:
        total += term
    return total


def reference_certify(scheme, f, tol=1e-9):
    """From-scratch reference for certify: no caching, orderings enumerated
    through OrderedSet objects, constants accumulated in explicit lists."""
    import itertools

    n = f.n
    beta_ratios, eta_ratios, chain_ratios = [1.0], [0.0], [0.0]
    upper_ok = True
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        f_s = f.value(mask)
        full = mask == (1 << n) - 1
        for order in itertools.permutations(members):
            oset = OrderedSet.from_order(order)
            total = _sequential_sum(scheme.share(i, oset) for i in order)
            prefix = _sequential_sum(
                scheme.share(order[j], OrderedSet.from_order(order[: j + 1]))
                for j in range(len(order))
            )
            if total > f_s + tol:
                upper_ok = False
            if f_s > tol:
                beta_ratios.append(f_s / total if total > tol else math.inf)
                eta_ratios.append(prefix / f_s)
                if full:
                    chain_ratios.append(prefix / f_s)
            else:
                if abs(total) > tol:
                    beta_ratios.append(math.inf)
                if prefix > tol:
                    eta_ratios.append(math.inf)
                    if full:
                        chain_ratios.append(math.inf)
    cross = True
    for t_mask in range(1, 1 << n):
        t_members = [i for i in range(n) if t_mask >> i & 1]
        for t_order in itertools.permutations(t_members):
            t_oset = OrderedSet.from_order(t_order)
            for s_mask in range(1, t_mask):
                if s_mask & ~t_mask:
                    continue
                s_oset = t_oset.restrict(s_mask)
                for i in s_oset.order:
                    if scheme.share(i, s_oset) < scheme.share(i, t_oset) - tol:
                        cross = False
    beta = max(beta_ratios)
    if not upper_ok:
        beta = math.inf
    return CertificationResult(max(eta_ratios), beta, cross, max(chain_ratios), upper_ok)


def random_table(seed, n, monotone):
    if monotone:
        return random_monotone_instance(seed, n).function
    return TableFunction(np.random.default_rng(seed).uniform(-1.0, 2.0, 1 << n))


PATHOLOGICAL_SCHEMES = (
    CostShareScheme(lambda i, oset: 0.0, label="zero"),
    CostShareScheme(lambda i, oset: 0.4, label="flat"),
    CostShareScheme(lambda i, oset: 1.0 / len(oset.order), label="equal-split"),
    CostShareScheme(lambda i, oset: 1.0, label="overcharge"),
)


class TestCertifyAgainstReference:
    """certify must equal the reference bit for bit: both add shares in the
    same order and take the same maxima."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_reference_on_random_monotone(self, seed):
        f = random_monotone_instance(660 + seed, 3).function
        assert certify(incremental_scheme(f), f) == reference_certify(incremental_scheme(f), f)

    def test_matches_reference_on_pathological_schemes(self):
        f = threshold_instance(3).function
        for scheme in PATHOLOGICAL_SCHEMES:
            assert certify(scheme, f) == reference_certify(scheme, f)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("monotone", [True, False])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_incremental_on_random_tables(self, n, monotone, seed):
        f = random_table(660 + 10 * n + seed, n, monotone)
        assert certify(incremental_scheme(f), f) == reference_certify(incremental_scheme(f), f)

    @pytest.mark.parametrize("n", [3, 4])
    def test_incremental_on_square_function(self, n):
        f = square_function(n)
        cert = certify(incremental_scheme(f), f)
        assert cert == reference_certify(incremental_scheme(f), f)
        assert not cert.cross_monotone

    @pytest.mark.parametrize("scheme", PATHOLOGICAL_SCHEMES, ids=lambda s: s.label)
    @pytest.mark.parametrize(
        "f", [random_table(5, 4, False), square_function(3)], ids=["random4", "square3"]
    )
    def test_pathological_schemes_on_more_functions(self, scheme, f):
        assert certify(scheme, f) == reference_certify(scheme, f)

    def test_lifted_scheme(self):
        f = random_coverage_function(42, 2)
        base = Instance(f, [0.5, 0.5])
        split_inst, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(f), split_map)
        g = split_inst.function
        assert certify(lifted, g) == reference_certify(lifted, g)

    @pytest.mark.parametrize("tol", [0.0, 1e-3, 0.5])
    def test_tolerance_is_honoured(self, tol):
        f = random_table(77, 4, False)
        scheme = incremental_scheme(f)
        assert certify(scheme, f, tol) == reference_certify(scheme, f, tol)


def all_orderings(n, k):
    return [
        order
        for members in itertools.combinations(range(n), k)
        for order in itertools.permutations(members)
    ]


class TestBatchShares:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("monotone", [True, False])
    def test_incremental_batch_equals_scalar_share(self, n, monotone):
        f = random_table(900 + n, n, monotone)
        scheme = incremental_scheme(f)
        for k in range(1, n + 1):
            orders = all_orderings(n, k)
            scalar = [[scheme.share(i, OrderedSet.from_order(o)) for i in o] for o in orders]
            assert scheme.shares(np.array(orders)).tolist() == scalar

    def test_default_batch_loops_over_share(self):
        scheme = CostShareScheme(lambda i, oset: i + 0.5 * len(oset.order), label="custom")
        orders = np.array(all_orderings(4, 3))
        expected = [[i + 1.5 for i in o] for o in orders.tolist()]
        assert scheme.shares(orders).tolist() == expected

    def test_replacing_share_drops_the_batch_oracle(self):
        f = random_table(3, 4, False)
        scheme = incremental_scheme(f)
        calls = []

        def counted(i, oset):
            calls.append(i)
            return scheme.share(i, oset)

        wrapped = dataclasses.replace(scheme, share=counted)
        assert certify(wrapped, f) == certify(scheme, f)
        assert len(calls) == sum(math.perm(4, k) * k for k in range(1, 5))

    def test_share_wrapped_with_functools_wraps_is_called(self):
        # functools.wraps copies the oracle's attributes onto the wrapper;
        # the wrapper still answers batches through itself.
        f = random_table(4, 3, True)
        scheme = incremental_scheme(f)
        calls = []

        @functools.wraps(scheme.share)
        def counted(i, oset):
            calls.append(i)
            return scheme.share(i, oset)

        wrapped = dataclasses.replace(scheme, share=counted)
        orders = np.array(all_orderings(3, 3))
        assert wrapped.shares(orders).tolist() == scheme.shares(orders).tolist()
        assert len(calls) == orders.size


def reference_partial_prefix(scheme, split_map, tol=1e-9):
    """From-scratch reference for partial_prefix_cross_monotone: block
    orderings built with permutations, submasks walked one by one, each
    restriction made through OrderedSet.restrict and asked for its shares."""
    n = split_map.n_new
    labels = split_map.labels
    for t in range(1, 1 << n):
        t_members = [i for i in range(n) if t >> i & 1]
        groups = [
            [c for c in t_members if labels[c] == lbl]
            for lbl in sorted({labels[c] for c in t_members}, reverse=True)
        ]
        t_orders = [()]
        for group in groups:
            t_orders = [head + perm for head in t_orders for perm in itertools.permutations(group)]
        for t_order in t_orders:
            t_oset = OrderedSet(t, t_order)
            shares_t = {i: scheme.share(i, t_oset) for i in t_members}
            for sub in range(1, t):
                if sub & ~t:
                    continue
                kept = [labels[i] for i in t_members if sub >> i & 1]
                added = [labels[i] for i in t_members if not sub >> i & 1]
                if min(kept) >= max(added):
                    s_oset = t_oset.restrict(sub)
                    for i in s_oset.order:
                        if scheme.share(i, s_oset) < shares_t[i] - tol:
                            return False
    return True


def random_split_case(seed):
    """A random base function on n <= 3 elements, split into n' <= 6 copies
    with default labels or custom labels that tie, and a scheme on the split:
    the lifted incremental scheme, or the incremental scheme of the split
    function itself."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    counts = [int(c) for c in rng.integers(1, 6 // n + 1, n)]
    kind = seed % 4
    if kind == 0:
        f = random_coverage_function(seed, n)
    elif kind == 1:
        f = random_table(seed, n, True)
    elif kind == 2:
        f = random_table(seed, n, False)
    else:
        f = square_function(n)
    labels = None
    if seed % 3 == 0:
        labels = [int(v) for v in rng.integers(0, 3, sum(counts))]
    split_inst, split_map = split_instance(Instance(f, [0.5] * n), counts, labels)
    if seed % 5 == 0:
        return incremental_scheme(split_inst.function), split_map
    return lift_scheme(incremental_scheme(f), split_map), split_map


# NaN on pairs, else growing with the set: only comparisons without NaN fail.
NAN_SCHEME = CostShareScheme(
    lambda i, oset: math.nan if len(oset.order) == 2 else float(len(oset.order)), label="nan"
)


class TestPartialPrefixAgainstReference:
    """partial_prefix_cross_monotone must give the reference's boolean."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    def test_random_splits(self, tol):
        outcomes = []
        for seed in range(60):
            scheme, split_map = random_split_case(seed)
            got = partial_prefix_cross_monotone(scheme, split_map, tol)
            assert got == reference_partial_prefix(scheme, split_map, tol), seed
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize(
        "scheme", PATHOLOGICAL_SCHEMES + (NAN_SCHEME,), ids=lambda s: s.label
    )
    @pytest.mark.parametrize("labels", [None, [2, 1, 1, 2, 0]], ids=["default", "ties"])
    def test_custom_schemes(self, scheme, labels):
        _, split_map = split_instance(threshold_instance(2), [3, 2], labels)
        for candidate in (scheme, lift_scheme(scheme, split_map)):
            got = partial_prefix_cross_monotone(candidate, split_map)
            assert got == reference_partial_prefix(candidate, split_map)

    def test_one_share_call_per_element_of_each_block_ordering(self):
        base = threshold_instance(2)
        _, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        calls = []

        def counted(i, oset):
            calls.append((i, oset.order))
            return lifted.share(i, oset)

        assert partial_prefix_cross_monotone(dataclasses.replace(lifted, share=counted), split_map)
        assert len(calls) == len(set(calls)) == 60
        labels = split_map.labels
        assert all(
            all(labels[a] >= labels[b] for a, b in itertools.pairwise(order)) for _, order in calls
        )
