"""Ordered cost-sharing schemes chi(i, S, sigma_S): the incremental scheme for
a set function, exhaustive certification of budget balance, cross-monotonicity
and weak summability constants, and the lift of a scheme through a split map
(the first-appearing copy of an element carries its whole share).

A scheme is a batch oracle: an (m, k) int array whose rows are orderings
gives the (m, k) shares of their elements. `certify` asks for one batch per
set size, covering every ordering of every subset, and checks
cross-monotonicity by gathering the shares of each restriction from the
smaller sizes' batches. `partial_prefix_cross_monotone` runs on the same
plan, kept to the orderings that respect a split's block order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .core import CHECK_TOL, SetFunction, SizeCapError
from .split import SplitMap

CERTIFY_CAP = 6  # enumerates all subsets and all orderings of each


@dataclass(frozen=True)
class CostShareScheme:
    """A scheme chi(i, S, sigma_S) as a batch oracle. `share` takes an (m, k)
    int array whose rows are orderings of k distinct elements and returns the
    float64 (m, k) shares: out[r, p] is the share of element orders[r, p] in
    the set of row r, ordered as row r."""

    share: Callable[[np.ndarray], np.ndarray]


def incremental_scheme(f: SetFunction) -> CostShareScheme:
    """chi(i, S, sigma) = f(first j elements) - f(first j-1) where i is j-th in
    sigma. Shares telescope to f(S) - f(empty); for submodular f this is a
    (1, 1) cross-monotone scheme. Each batch is gathered from f's table
    (`f.values()`, read at call time) by prefix masks."""

    def share(orders: np.ndarray) -> np.ndarray:
        values = f.values()
        after = np.bitwise_or.accumulate(1 << orders, axis=1)
        before = np.zeros_like(after)
        before[:, 1:] = after[:, :-1]
        return values[after] - values[before]

    return CostShareScheme(share)


@dataclass(frozen=True)
class CertificationResult:
    """Exact constants of a scheme on a function, from full enumeration.

    eta_star / beta_star are the smallest constants making weak summability /
    budget balance hold over every subset and every ordering; math.inf marks an
    unbounded constant (e.g. positive shares on a zero-cost set). eta_star_chain
    is the weaker summability constant quantified only over orderings of the
    full ground set.
    """

    eta_star: float
    beta_star: float
    cross_monotone: bool
    eta_star_chain: float
    budget_upper_ok: bool

    def to_json(self) -> dict:
        def enc(v: float):
            return "unbounded" if math.isinf(v) else v

        return {
            "eta_star": enc(self.eta_star),
            "beta_star": enc(self.beta_star),
            "cross_monotone": self.cross_monotone,
            "eta_star_chain": enc(self.eta_star_chain),
            "budget_upper_ok": self.budget_upper_ok,
        }


def _guard_certify(n: int):
    if n > CERTIFY_CAP:
        raise SizeCapError(f"certification enumerates all orderings; needs n <= {CERTIFY_CAP}")


@functools.cache
def _enumeration(n: int) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, list[tuple]]:
    """Every ordering of every nonempty subset of {0..n-1}, grouped by set
    size k into one read-only (orders, parents) pair per k: each row extends
    row parents[r] of size k-1 by one element (size 0 is a single empty row).
    Then the mask each row orders, all sizes concatenated. Last, for each k
    and each restriction size j < k, the (C(k, j), j) array of increasing
    position patterns and the (rows_k, C(k, j)) size-j rows of each
    ordering's restriction to those positions. Depends on n only."""
    levels, level_masks = [], []
    orders = np.zeros((1, 0), dtype=np.intp)
    masks = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        parents, elems = np.divmod(np.arange(len(orders) * n), n)
        keep = (masks[parents] >> elems & 1) == 0
        parents, elems = parents[keep], elems[keep]
        orders = np.column_stack((orders[parents], elems))
        masks = masks[parents] | 1 << elems
        for arr in (orders, parents):
            arr.flags.writeable = False
        levels.append((orders, parents))
        level_masks.append(masks)
    all_masks = np.concatenate(level_masks)
    all_masks.flags.writeable = False
    radix = n ** np.arange(n)
    restrictions = []
    for j in range(1, n):
        row_of = np.empty(n**j, dtype=np.intp)
        row_of[levels[j - 1][0] @ radix[:j]] = np.arange(len(levels[j - 1][0]))
        for k in range(j + 1, n + 1):
            cols = np.array(list(combinations(range(k), j)), dtype=np.intp)
            restrictions.append((k, j, cols, row_of[levels[k - 1][0][:, cols] @ radix[:j]]))
    return levels, all_masks, restrictions


def _max_fold(acc: float, candidates: np.ndarray) -> float:
    """max(acc, c) folded over the candidates the way Python's max folds:
    a candidate wins only when strictly greater, so NaN never does."""
    greater = candidates[candidates > acc]
    return float(greater.max()) if greater.size else acc


def certify(scheme: CostShareScheme, f: SetFunction) -> CertificationResult:
    """Smallest budget-balance and weak-summability constants of the scheme on
    f, plus exhaustive cross-monotonicity, over all subsets and orderings.
    Shares and costs are compared within CHECK_TOL * f.scale.

    One `scheme.share` batch per set size k covers all C(n, k)·k! orderings.
    Totals and prefix totals add shares in ordering position order, one
    column at a time; cross-monotonicity compares each ordering's shares with
    those of its restrictions, one batch per pair of set sizes."""
    _guard_certify(f.n)
    n = f.n
    levels, masks, restrictions = _enumeration(n)
    values = f.values()
    tol = CHECK_TOL * f.scale

    shares, totals, prefix_totals = [], [], []
    prefix_total = np.zeros(1)
    # Python floats overflow to inf and NaN silently; so do these arrays.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for orders, parents in levels:
            batch = scheme.share(orders)
            total = np.zeros(len(orders))
            for column in batch.T:
                total += column
            prefix_total = prefix_total[parents] + batch[:, -1]
            shares.append(batch)
            totals.append(total)
            prefix_totals.append(prefix_total)
        total = np.concatenate(totals)
        prefix_total = np.concatenate(prefix_totals)
        f_s = values[masks]
        chain = slice(-len(prefix_totals[-1]), None)  # orderings of the full set

        charged = f_s > tol
        budget_upper_ok = not (total > f_s + tol).any()
        beta_unbounded = (
            not budget_upper_ok
            or (charged & (total <= tol)).any()
            or (~charged & (np.abs(total) > tol)).any()
        )
        paying = charged & ~(total <= tol)
        beta_star = _max_fold(1.0, f_s[paying] / total[paying])
        ratio = np.where(charged, prefix_total / f_s, -np.inf)
        free_prefix = ~charged & (prefix_total > tol)
    eta_star = math.inf if free_prefix.any() else _max_fold(0.0, ratio)
    eta_chain = math.inf if free_prefix[chain].any() else _max_fold(0.0, ratio[chain])

    cross = not any(
        (shares[j - 1][rows] < shares[k - 1][:, cols] - tol).any()
        for k, j, cols, rows in restrictions
    )
    return CertificationResult(
        eta_star, math.inf if beta_unbounded else beta_star, cross, eta_chain, budget_upper_ok
    )


def lift_scheme(scheme: CostShareScheme, split_map: SplitMap) -> CostShareScheme:
    """Scheme on the split ground set: the first-appearing copy of each
    original element (by the set's ordering) receives the original share,
    computed on the projected set ordered by first appearance; every other
    copy receives zero. One base batch per count of distinct originals."""
    original_of = np.asarray(split_map.original_of)

    def share(orders: np.ndarray) -> np.ndarray:
        orig = original_of[orders]
        k = orig.shape[1]
        earlier = np.tri(k, k, -1, dtype=bool)
        first = ~((orig[:, :, None] == orig[:, None, :]) & earlier).any(axis=2)
        distinct = first.sum(axis=1)
        out = np.zeros(orig.shape)
        for d in np.unique(distinct):
            at = first & (distinct == d)[:, None]
            out[at] = scheme.share(orig[at].reshape(-1, d)).ravel()
        return out

    return CostShareScheme(share)


def partial_prefix_cross_monotone(scheme: CostShareScheme, split_map: SplitMap) -> bool:
    """Cross-monotonicity of a lifted scheme restricted to the orderings that
    respect the split's block order (higher labels first) and to pairs
    S' <= T' where S' sits in the early blocks and the added elements in the
    late ones (S' a partial prefix of T'). The scheme's f is never seen, so
    CHECK_TOL is in the units of the shares.

    Runs on `certify`'s plan, kept to the block-respecting rows of each size
    (labels never increase along the row): one `scheme.share` batch each. A
    restriction of such a row respects the blocks too, so it maps into its
    size's kept rows by their running count; one comparison per size pair."""
    n = split_map.n_new
    _guard_certify(n)
    levels, _, restrictions = _enumeration(n)
    labels = np.asarray(split_map.labels)
    kept = []  # per size: block-respecting rows, their labels, their shares, row -> kept row
    for orders, _ in levels:
        lab = labels[orders]
        keep = (lab[:, 1:] <= lab[:, :-1]).all(axis=1)
        kept.append((keep, lab[keep], scheme.share(orders[keep]), np.cumsum(keep) - 1))

    for k, j, cols, rows in restrictions:
        keep, lab, shares, _ = kept[k - 1]
        sub_shares, sub_row = kept[j - 1][2:]
        # On a row whose labels never increase, S' is a partial prefix (its
        # smallest label >= the largest dropped one) iff it keeps the row's
        # j highest labels: its labels, in row order, are the first j.
        prefix = (lab[:, cols] == lab[:, None, :j]).all(axis=2)
        if (sub_shares[sub_row[rows[keep][prefix]]] < shares[:, cols][prefix] - CHECK_TOL).any():
            return False
    return True
