import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

import corrgap.cost_sharing as cost_sharing
from corrgap.core import Instance, SizeCapError, TableFunction, unit_scale
from corrgap.cost_sharing import (
    CertificationResult,
    CostShareScheme,
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


def all_orderings(n, k):
    return [
        order
        for members in itertools.combinations(range(n), k)
        for order in itertools.permutations(members)
    ]


def row_shares(scheme, order):
    """The scheme's shares of one ordering, asked for as a one-row batch."""
    return scheme.share(np.array([order], dtype=np.intp))[0].tolist()


def incremental_reference(f, order):
    """Incremental shares of one ordering from the definition, one f.value
    pair per element: f(prefix + i) - f(prefix)."""
    out, prefix = [], 0
    for i in order:
        out.append(f.value(prefix | 1 << i) - f.value(prefix))
        prefix |= 1 << i
    return out


class TestIncrementalScheme:
    def test_telescoping_shares(self):
        scheme = incremental_scheme(min2_function())
        assert row_shares(scheme, (0, 1, 2)) == [1.0, 1.0, 0.0]

    def test_shares_sum_to_span(self):
        f = random_monotone_instance(7, 4).function
        shares = incremental_scheme(f).share(np.array(all_orderings(4, 4)))
        assert shares.sum(axis=1) == pytest.approx(f.value(0b1111) - f.value(0), abs=1e-9)

    def test_threshold_first_element_pays(self):
        scheme = incremental_scheme(threshold_instance(3).function)
        assert row_shares(scheme, (1, 2, 0)) == [1.0, 0.0, 0.0]

    def test_nonnegative_shares_iff_monotone(self):
        def min_share(f):
            scheme = incremental_scheme(f)
            return min(scheme.share(np.array(all_orderings(4, k))).min() for k in range(1, 5))

        for trial in range(10):
            f = random_monotone_instance(50 + trial, 4).function
            assert min_share(f) >= -1e-12  # monotone generator => nonnegative everywhere

            table = list(f.values())
            table[0b0111] = table[0b1111] + 5.0  # break monotonicity
            assert min_share(TableFunction(table)) < -1e-12


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
        zero = CostShareScheme(lambda orders: np.zeros(orders.shape))
        cert = certify(zero, f)
        assert math.isinf(cert.beta_star)
        assert cert.to_json()["beta_star"] == "unbounded"

    def test_overcharging_scheme_flagged(self):
        f = threshold_instance(2).function
        greedy = CostShareScheme(lambda orders: np.ones(orders.shape))
        cert = certify(greedy, f)
        assert not cert.budget_upper_ok and math.isinf(cert.beta_star)

    def test_chain_reading_can_be_strictly_weaker(self):
        # constant shares against a quadratic cost: per-subset summability is
        # tight at singletons (ratio 1) while the full-ground chain only needs
        # n / n^2 = 1/3, so the two reported constants separate
        f = square_function(3)
        flat = CostShareScheme(lambda orders: np.ones(orders.shape))
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
        for k in range(1, 4):
            orders = np.array(all_orderings(3, k))
            assert lifted.share(orders).tolist() == scheme.share(orders).tolist()

    def test_only_first_copy_pays(self):
        base = threshold_instance(2)
        split_inst, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        # copies: 0,1 -> element 0; 2,3 -> element 1; order puts copy 1 first.
        # Copy 1 pays f({0}) - f({}); element 1 adds nothing to the threshold.
        assert row_shares(lifted, (1, 0, 2)) == [1.0, 0.0, 0.0]

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
    with permutations and restricted by filtering tuples, each one asked for
    its shares as a one-row batch, constants accumulated in explicit lists."""
    n = f.n
    beta_ratios, eta_ratios, chain_ratios = [1.0], [0.0], [0.0]
    upper_ok = True
    for mask in range(1, 1 << n):
        members = [i for i in range(n) if mask >> i & 1]
        f_s = f.value(mask)
        full = mask == (1 << n) - 1
        for order in itertools.permutations(members):
            total = _sequential_sum(row_shares(scheme, order))
            prefix = _sequential_sum(
                row_shares(scheme, order[: j + 1])[j] for j in range(len(order))
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
            t_shares = dict(zip(t_order, row_shares(scheme, t_order)))
            for s_mask in range(1, t_mask):
                if s_mask & ~t_mask:
                    continue
                s_order = tuple(i for i in t_order if s_mask >> i & 1)
                for i, share in zip(s_order, row_shares(scheme, s_order)):
                    if share < t_shares[i] - tol:
                        cross = False
    beta = max(beta_ratios)
    if not upper_ok:
        beta = math.inf
    return CertificationResult(max(eta_ratios), beta, cross, max(chain_ratios), upper_ok)


def random_table(seed, n, monotone):
    if monotone:
        return random_monotone_instance(seed, n).function
    return TableFunction(np.random.default_rng(seed).uniform(-1.0, 2.0, 1 << n))


PATHOLOGICAL_SCHEMES = {
    "zero": CostShareScheme(lambda orders: np.zeros(orders.shape)),
    "flat": CostShareScheme(lambda orders: np.full(orders.shape, 0.4)),
    "equal-split": CostShareScheme(lambda orders: np.full(orders.shape, 1.0 / orders.shape[1])),
    "overcharge": CostShareScheme(lambda orders: np.ones(orders.shape)),
}

# NaN on pairs, else growing with the set: only comparisons without NaN fail.
NAN_SCHEME = CostShareScheme(
    lambda orders: np.full(orders.shape, math.nan if orders.shape[1] == 2 else float(orders.shape[1]))
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
        for scheme in PATHOLOGICAL_SCHEMES.values():
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

    @pytest.mark.parametrize("scheme", PATHOLOGICAL_SCHEMES.values(), ids=PATHOLOGICAL_SCHEMES)
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
    def test_tolerance_is_honoured(self, monkeypatch, tol):
        # seed 77's constants are the same at the three tolerances; seed 5's
        # differ at each, and seed 8's at 0.5
        monkeypatch.setattr(cost_sharing, "CHECK_TOL", tol)
        for seed, monotone in ((77, False), (5, True), (8, False)):
            f = random_table(seed, 4, monotone)
            scheme = incremental_scheme(f)
            expected = reference_certify(scheme, f, tol * unit_scale(f.values()))
            assert certify(scheme, f) == expected, seed


def counted(scheme):
    """The scheme with its share oracle rebound, the way a tracer counts
    calls, and the list of the batches it is asked for."""
    calls = []

    @functools.wraps(scheme.share)
    def share(orders):
        calls.append(orders.copy())
        return scheme.share(orders)

    return dataclasses.replace(scheme, share=share), calls


class TestBatchShares:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("monotone", [True, False])
    def test_incremental_batch_equals_scalar_share(self, n, monotone):
        f = random_table(900 + n, n, monotone)
        scheme = incremental_scheme(f)
        for k in range(1, n + 1):
            orders = all_orderings(n, k)
            expected = [incremental_reference(f, o) for o in orders]
            assert scheme.share(np.array(orders)).tolist() == expected

    def test_replacing_share_drops_the_batch_oracle(self):
        # dataclasses.replace keeps nothing of the old oracle: certify reads
        # the new one only.
        f = random_table(3, 4, False)
        scheme = incremental_scheme(f)
        zero = CostShareScheme(lambda orders: np.zeros(orders.shape))
        replaced = dataclasses.replace(scheme, share=zero.share)
        assert certify(replaced, f) == certify(zero, f) != certify(scheme, f)

    def test_share_wrapped_with_functools_wraps_is_called(self):
        # functools.wraps copies the oracle's attributes onto the wrapper;
        # the wrapper still answers each batch itself, in one call.
        f = random_table(4, 3, True)
        scheme = incremental_scheme(f)
        wrapped, calls = counted(scheme)
        assert wrapped.share.__wrapped__ is scheme.share
        orders = np.array(all_orderings(3, 3))
        assert wrapped.share(orders).tolist() == scheme.share(orders).tolist()
        assert len(calls) == 1 and calls[0].tolist() == orders.tolist()


class TestReplacedShare:
    """A scheme whose `share` is replaced answers through the replacement:
    certify and partial_prefix_cross_monotone ask it once per set size and
    get the results the unwrapped scheme gives."""

    def test_incremental_certify(self):
        f = random_table(3, 4, False)
        scheme = incremental_scheme(f)
        wrapped, calls = counted(scheme)
        assert certify(wrapped, f) == certify(scheme, f)
        assert [batch.shape for batch in calls] == [(math.perm(4, k), k) for k in range(1, 5)]

    def test_lifted_certify(self):
        base = threshold_instance(2)
        split_inst, split_map = split_instance(base, [2, 1])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        wrapped, calls = counted(lifted)
        g = split_inst.function
        assert certify(wrapped, g) == certify(lifted, g)
        assert len(calls) == 3

    @pytest.mark.parametrize("lift", [False, True], ids=["incremental", "lifted"])
    def test_partial_prefix(self, lift):
        base = threshold_instance(2)
        split_inst, split_map = split_instance(base, [2, 2])
        if lift:
            scheme = lift_scheme(incremental_scheme(base.function), split_map)
        else:
            scheme = incremental_scheme(split_inst.function)
        wrapped, calls = counted(scheme)
        got = partial_prefix_cross_monotone(wrapped, split_map)
        assert got == partial_prefix_cross_monotone(scheme, split_map)
        # one batch per set size, holding the 60 shares of the block-respecting orderings
        assert len(calls) == 4 and sum(batch.size for batch in calls) == 60
        labels = np.asarray(split_map.labels)
        assert all((labels[batch][:, 1:] <= labels[batch][:, :-1]).all() for batch in calls)


def reference_lift(scheme, split_map, order):
    """The lifted shares of one ordering from the definition: project it onto
    the originals by first appearance, ask the base for that one row, give
    each original's share to its first-appearing copy and 0.0 to the rest."""
    projected, first_positions = [], []
    for p, c in enumerate(order):
        o = split_map.original_of[c]
        if o not in projected:
            projected.append(o)
            first_positions.append(p)
    out = [0.0] * len(order)
    for p, share in zip(first_positions, row_shares(scheme, projected)):
        out[p] = share
    return out


def random_split(seed):
    """A random base function on n <= 3 elements, split into n' <= 6 copies
    with default labels or custom labels that tie."""
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
    return f, split_inst, split_map


def random_split_case(seed):
    """A random split and a scheme on it: the lifted incremental scheme, or
    the incremental scheme of the split function itself."""
    f, split_inst, split_map = random_split(seed)
    if seed % 5 == 0:
        return incremental_scheme(split_inst.function), split_map
    return lift_scheme(incremental_scheme(f), split_map), split_map


class TestLiftAgainstReference:
    """Every lifted batch equals the from-definition lift bit for bit, over
    every ordering of every size, for incremental and other base schemes."""

    def test_random_splits(self):
        sizes = set()
        for seed in range(60):
            f, _, split_map = random_split(seed)
            n = split_map.n_new
            sizes.add(n)
            for base in (incremental_scheme(f), *PATHOLOGICAL_SCHEMES.values(), NAN_SCHEME):
                lifted = lift_scheme(base, split_map)
                for k in range(1, n + 1):
                    orders = all_orderings(n, k)
                    expected = np.array([reference_lift(base, split_map, o) for o in orders])
                    assert lifted.share(np.array(orders)).tobytes() == expected.tobytes(), seed
        assert sizes == set(range(1, 7))


def reference_partial_prefix(scheme, split_map, tol=1e-9):
    """From-scratch reference for partial_prefix_cross_monotone: block
    orderings built with permutations, submasks walked one by one, each
    restriction made by filtering the ordering's tuple and asked for its
    shares as a one-row batch."""
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
            shares_t = dict(zip(t_order, row_shares(scheme, t_order)))
            for sub in range(1, t):
                if sub & ~t:
                    continue
                kept = [labels[i] for i in t_members if sub >> i & 1]
                added = [labels[i] for i in t_members if not sub >> i & 1]
                if min(kept) >= max(added):
                    s_order = tuple(i for i in t_order if sub >> i & 1)
                    for i, share in zip(s_order, row_shares(scheme, s_order)):
                        if share < shares_t[i] - tol:
                            return False
    return True


class TestPartialPrefixAgainstReference:
    """partial_prefix_cross_monotone must give the reference's boolean."""

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 0.05])
    def test_random_splits(self, monkeypatch, tol):
        monkeypatch.setattr(cost_sharing, "CHECK_TOL", tol)
        outcomes = []
        for seed in range(60):
            scheme, split_map = random_split_case(seed)
            got = partial_prefix_cross_monotone(scheme, split_map)
            assert got == reference_partial_prefix(scheme, split_map, tol), seed
            outcomes.append(got)
        assert True in outcomes and False in outcomes

    @pytest.mark.parametrize(
        "scheme", [*PATHOLOGICAL_SCHEMES.values(), NAN_SCHEME], ids=[*PATHOLOGICAL_SCHEMES, "nan"]
    )
    @pytest.mark.parametrize("labels", [None, [2, 1, 1, 2, 0]], ids=["default", "ties"])
    def test_custom_schemes(self, scheme, labels):
        _, split_map = split_instance(threshold_instance(2), [3, 2], labels)
        for candidate in (scheme, lift_scheme(scheme, split_map)):
            got = partial_prefix_cross_monotone(candidate, split_map)
            assert got == reference_partial_prefix(candidate, split_map)

    def test_tied_labels_read_each_restriction_from_its_own_row(self):
        # the tied labels leave block-respecting rows after other rows in
        # every level, and each element's share is its own weight split over
        # the set: cross-monotone, but a restriction read from another row
        # compares another element's share, or another set size's
        _, split_map = split_instance(threshold_instance(2), [3, 2], [2, 1, 1, 2, 0])
        weights = np.array([1.0, 4.0, 2.0, 8.0, 16.0])
        scheme = CostShareScheme(lambda orders: weights[orders] / orders.shape[1])
        assert reference_partial_prefix(scheme, split_map)
        assert partial_prefix_cross_monotone(scheme, split_map)

    def test_one_share_call_per_element_of_each_block_ordering(self):
        # every block-respecting ordering is asked for once, so each of its
        # elements gets one share: 60 shares at [2, 2]
        base = threshold_instance(2)
        _, split_map = split_instance(base, [2, 2])
        lifted = lift_scheme(incremental_scheme(base.function), split_map)
        wrapped, calls = counted(lifted)
        assert partial_prefix_cross_monotone(wrapped, split_map)
        rows = [tuple(row) for batch in calls for row in batch.tolist()]
        labels = split_map.labels
        respecting = {
            order
            for k in range(1, 5)
            for order in all_orderings(4, k)
            if all(labels[a] >= labels[b] for a, b in itertools.pairwise(order))
        }
        assert len(rows) == len(set(rows)) and set(rows) == respecting
        assert sum(map(len, rows)) == 60
