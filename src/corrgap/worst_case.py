"""Worst-case expectation of a set function over all joint distributions with
fixed marginals: the exact scenario LP

    max  sum_S alpha_S f(S)
    s.t. sum_{S : i in S} alpha_S = p_i   for each element i
         sum_S alpha_S = 1,  alpha >= 0

solved by primal simplex over all 2^n columns, plus the closed-form optimum
for supermodular f supported on the nested prefix sets of the p-descending
order. Both report the dual (gamma, lambda), machine-checkable via
verify_certificate.

The column of scenario S is its indicator vector plus a trailing 1, so the
constraint matrix is never stored: pricing computes every f(S) - lambda(S)
at once from the subset sums lambda(S) of the current duals
(core.subset_sums, O(2^n) time), takes its argmax, and subtracts gamma from
the winner alone whenever rounding cannot tie another entry to it; the
entering column is rebuilt from the bits of its mask. From n = 15 on, a
float32 pass over a float32 copy of the table first proposes the entering
column, and it enters only if its float64 reduced cost, computed alone,
is improving; otherwise the pivot takes the float64 pass. Those passes are
bound by memory traffic, so float32 halves their cost, while optimality,
Bland's rule, the ratio test and the final solves stay in float64. Memory
is one 2^n buffer beyond the table of f (three with the float32 pair), and
the certificate scan prices the same way, in float64 alone.

Results do not depend on the units of f. The simplex runs on f / 2^e, where
2^e = f.scale brings max|f| into [0.5, 1), so its tolerances compare
like with like at every scale; dividing by a power of two is exact, and a
table already in [0.5, 1) is solved as given. The certificate's checks in
the units of f scale their tolerance by the same 2^e.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .core import Instance, ValidationError, doubling_halves, subset_sums
from .distributions import ScenarioDistribution

LP_TOL = 1e-9          # pivot / reduced-cost tolerance, on f / f.scale
CERT_TOL = 1e-6
_BLAND_AFTER = 25      # consecutive degenerate pivots before switching pricing
_REFACTOR_EVERY = 100
_PIVOTS_PER_COLUMN = 50  # a solve stalls after this many pivots per column, 2^n of them
# Dantzig pricing is screened in float32 from this n on. Screened over
# float64-only solve time, in process on uniform tables at marginals 1/n,
# medians over 6 seeds of each seed's best of 5 to 15 alternating rounds,
# four series on a 2-vCPU VM: 1.07-1.10 at n = 12, 1.00-1.04 at 13,
# 0.95-0.99 at 14, 0.86-0.99 at 15, 0.80-0.82 at 16.
# Below 14 a pass costs its call overhead rather than its bytes, so float32
# saves nothing; n = 14 gains at most 5%, too little to give up solves that
# are the float64 solve bit for bit (the screen moves the pivot path of
# tie-heavy tables).
_SCREEN_FROM_N = 15


class SimplexStallError(RuntimeError):
    """Iteration cap hit, pivot row lost or basis singular: numerical
    trouble, never infeasibility (the product distribution is always
    feasible)."""


@dataclass(frozen=True)
class SimplexStats:
    """What one simplex solve did: pivots taken, how many of them were
    degenerate (step length <= tol), the pivot count at which Bland's rule
    took over pricing (None if it never did), and refactorisations of the
    basis inverse (periodic ones and those that confirm optimality)."""

    pivots: int
    degenerate_pivots: int
    bland_at: int | None
    refactors: int


@dataclass(frozen=True)
class WorstCaseResult:
    value: float
    distribution: ScenarioDistribution
    dual_gamma: float
    dual_lambda: tuple[float, ...]
    stats: SimplexStats | None = None  # None for the closed form; not in to_json

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "distribution": self.distribution.to_json(),
            "gamma": self.dual_gamma,
            "lambda": list(self.dual_lambda),
        }


def descending_order(p) -> list[int]:
    """Element order by descending marginal, ties by ascending index."""
    return sorted(range(len(p)), key=p.__getitem__, reverse=True)  # stable


def prefix_masks(order) -> list[int]:
    masks = []
    m = 0
    for i in order:
        m |= 1 << i
        masks.append(m)
    return masks


def prefix_chain(p) -> tuple[list[int], list[int], list[float]]:
    """The chain {}, S_1 c ... c S_n of prefix sets of the p-descending order
    o: (o, the chain's masks, its basic solution). The solution is

        Pr(empty) = 1 - p_o1,  Pr(S_k) = p_ok - p_o(k+1),  Pr(S_n) = p_on,

    each entry one rounded subtraction (or p_on itself), non-negative for
    marginals in [0, 1]."""
    order = descending_order(p)
    sorted_p = [p[i] for i in order]
    probs = [1.0 - sorted_p[0]]
    probs += [sorted_p[k] - sorted_p[k + 1] for k in range(len(p) - 1)]
    probs.append(sorted_p[-1])
    return order, [0, *prefix_masks(order)], probs


@functools.cache
def _staircase_inverse(n: int) -> np.ndarray:
    """The basis inverse of the chain {}, {0}, {0,1}, ..., {0..n-1}: row 0 is
    e_n - e_0, row k is e_(k-1) - e_k, row n is e_(n-1)."""
    inverse = np.zeros((n + 1, n + 1))
    inverse[0, n] = 1.0
    for k in range(n):
        inverse[k, k] = -1.0
        inverse[k + 1, k] = 1.0
    inverse.flags.writeable = False
    return inverse


def start_inverse(order: list[int]) -> np.ndarray:
    """The inverse of the scenario-LP basis matrix of the prefix chain of
    `order` (columns {}, S_1, ..., S_n; rows the elements, then the all-ones
    row): the staircase inverse with element o_j in column j's place, so row
    0 is e_n - e_o1, row k is e_ok - e_o(k+1) and row n is e_on. Its entries
    are 0 and +-1, what LAPACK returns up to the sign of zero, and its
    product with (p, 1) is prefix_chain's solution."""
    n = len(order)
    position = [n] * (n + 1)
    for j, i in enumerate(order):
        position[i] = j
    return _staircase_inverse(n).take(position, axis=1)


def _mask_bits(masks, shifts: np.ndarray) -> np.ndarray:
    """Bit i of each mask for each i in shifts: a column above its trailing 1."""
    return masks >> shifts & 1


def _basis_matrix(basis: list[int], n: int) -> np.ndarray:
    cols = np.ones((n + 1, len(basis)))
    cols[:n] = _mask_bits(np.array(basis), np.arange(n)[:, None])
    return cols


def _screen_table(values: np.ndarray) -> np.ndarray:
    """The float32 copy of the (scaled) table that screened pricing reads."""
    return values.astype(np.float32)


def _invalid_arithmetic(err: str, flag: int):
    raise SimplexStallError("singular basis: invalid arithmetic in the simplex")


# The gufuncs behind np.linalg.inv and np.linalg.solve: the same LAPACK calls
# and bits, without the errstate np.linalg enters on every call. _simplex_max
# runs under that errstate once per solve instead. These gufuncs report a
# singular matrix as an invalid operation (and fill their output with NaN),
# so that raises SimplexStallError, as would any NaN arising in the pivots.
_inv = _umath_linalg.inv
_solve = _umath_linalg.solve1


@np.errstate(call=_invalid_arithmetic, invalid="call", over="ignore", divide="ignore", under="ignore")
def _simplex_max(values: np.ndarray, p):
    """Maximise values @ alpha over the marginal polytope; returns
    (basis masks, basic solution, duals y, SimplexStats) at optimality.

    Dantzig pricing (largest reduced cost) with the ratio test's near ties
    broken by the smallest basic mask; after _BLAND_AFTER consecutive
    degenerate pivots, Bland's rule (lowest improving mask) for the rest of
    the solve. The basis inverse is refactored every _REFACTOR_EVERY pivots,
    and once more before optimality is accepted if pivots were taken since.

    From n = _SCREEN_FROM_N on, a Dantzig pivot is first priced in float32
    on a float32 copy of the table: its argmax e enters if e's float64
    reduced cost (f(e) - lambda(e)) - y_n exceeds tol, lambda(e) summed in
    ascending bit order from 0.0 as the doubling sums it, so that cost is
    the float64 pass's entry for e bit for bit. Otherwise the pivot takes
    the float64 pass. Optimality, Bland's rule, the ratio test and the final
    solves never read a float32 number.

    The basis, the basic solution x_b and the ratio test live in Python
    lists of n + 1 entries; the basis inverse, the pricing buffer and
    the two matrix-vector products per pivot stay in numpy."""
    n = len(p)
    tol = LP_TOL
    max_iter = _PIVOTS_PER_COLUMN << n
    b = np.array([*p, 1.0])
    reduced = np.empty(1 << n)
    halves = doubling_halves(reduced, n)
    column = np.ones(n + 1)  # the entering column: its mask's bits, then 1
    shifts = np.arange(n)
    screen = n >= _SCREEN_FROM_N
    if screen:
        # |f| < 1 and a 0/1 basis of order n + 1 has inverse entries below
        # the Hadamard bound (about 4.4e5 at n = 16), so |y| and every
        # float32 subset sum stay far below float32's 3.4e38: no overflow
        # guard. A NaN here raises SimplexStallError through this solve's
        # error state, as one in the float64 pass does.
        single = _screen_table(values)
        reduced32 = np.empty(1 << n, np.float32)
        halves32 = doubling_halves(reduced32, n)

    # The nested prefix sets of the p-descending order plus the empty set form
    # a (possibly degenerate) feasible basis for any marginals, so no phase 1.
    order, basis, x_b = prefix_chain(p)
    binv = start_inverse(order)
    c_b = values[basis]

    B = None  # the basis matrix of the last refactor
    bland_at = None
    degenerate_streak = 0
    degenerate = 0
    since_refactor = 0
    refactors = 0
    pivots = 0

    def refactor():
        nonlocal B, binv, x_b, since_refactor, refactors
        B = _basis_matrix(basis, n)
        binv = _inv(B, signature="d->d")
        x_b = [0.0 if v < 0.0 else v for v in (binv @ b).tolist()]
        since_refactor = 0
        refactors += 1

    while True:
        if pivots > max_iter:
            raise SimplexStallError(f"no optimum within {max_iter} pivots")
        y = (c_b @ binv).tolist()
        y_n = y[n]
        best = -math.inf
        if screen and bland_at is None:
            # float32 proposes the entering column, float64 decides
            subset_sums(y[:n], reduced32, halves32)
            np.subtract(single, reduced32, out=reduced32)
            entering = int(reduced32.argmax())
            lam = 0.0
            for i in range(n):
                if entering >> i & 1:
                    lam += y[i]
            best = values.item(entering) - lam - y_n
        if not best > tol:
            # reduced[S] = f(S) - sum_{i in S} y_i, in the one 2^n buffer
            subset_sums(y[:n], reduced, halves)
            np.subtract(values, reduced, out=reduced)
            # Rounding is monotone, so the first argmax of f - lambda is the
            # first argmax of f - lambda - y_n unless a smaller entry rounds
            # onto the top once y_n is taken off; the next float below the
            # top is the one that would. Then y_n comes off the winner alone.
            # NaN and inf fail the test and take the full pass, as Bland's
            # rule always does.
            entering = int(reduced.argmax())
            top = reduced.item(entering)
            if bland_at is None and math.nextafter(top, -math.inf) - y_n < top - y_n:
                best = top - y_n
            else:
                reduced -= y_n
                if bland_at is None:
                    entering = int(reduced.argmax())
                else:
                    entering = int((reduced > tol).argmax())  # lowest improving index
                best = reduced.item(entering)
        if best <= tol:
            if since_refactor:
                refactor()
                continue  # confirm optimality against a fresh factorisation
            break
        column[:n] = _mask_bits(entering, shifts)
        d = binv @ column
        dl = d.tolist()
        ratios = {i: x / di for i, (x, di) in enumerate(zip(x_b, dl)) if di > tol}
        if not ratios:
            raise SimplexStallError("no pivot row found; tableau has drifted")
        bound = min(ratios.values()) + tol
        # Bland tie-break: the smallest basic mask among the near rows
        leave = min((i for i, r in ratios.items() if r <= bound), key=basis.__getitem__)
        d_leave = dl[leave]
        theta = ratios[leave]

        pivot_row = binv[leave] / d_leave
        binv -= d[:, None] * pivot_row
        binv[leave] = pivot_row
        x_b = [0.0 if (v := x - theta * di) < 0.0 else v for x, di in zip(x_b, dl)]
        x_b[leave] = theta
        basis[leave] = entering
        c_b[leave] = values[entering]

        pivots += 1
        since_refactor += 1
        if theta <= tol:
            degenerate += 1
            degenerate_streak += 1
            if degenerate_streak >= _BLAND_AFTER and bland_at is None:
                bland_at = pivots
        else:
            degenerate_streak = 0
        if since_refactor >= _REFACTOR_EVERY:
            refactor()

    # Final values and duals from a fresh factorisation: optimality is only
    # accepted with no pivot since the last refactor, whose matrix this is.
    if B is None:
        B = _basis_matrix(basis, n)
    x_b = _solve(B, b, signature="dd->d")
    x_b[x_b < 0] = 0.0
    y = _solve(B.T, c_b, signature="dd->d")
    return basis, x_b, y, SimplexStats(pivots, degenerate, bland_at, refactors)


def worst_case_lp(inst: Instance) -> WorstCaseResult:
    """Optimal value, an optimal basic distribution (support <= n+1), and the
    optimal dual of the scenario LP, solved on f / f.scale."""
    n = inst.n
    values = inst.function.values()
    scale = inst.function.scale
    scaled = values if scale == 1.0 else values / scale
    basis, x_b, y, stats = _simplex_max(scaled, inst.marginals)
    dist = ScenarioDistribution(n, list(zip(basis, x_b.tolist())))
    value = float(values[basis] @ x_b)
    with np.errstate(over="ignore"):  # a dual past float64 reads inf; reports refuse it
        duals = (y * scale).tolist()
    return WorstCaseResult(value, dist, duals[n], tuple(duals[:n]), stats)


def supermodular_worst_case(inst: Instance) -> WorstCaseResult:
    """Closed-form optimum for supermodular f: sort elements by descending
    marginal (ties by index) with prefix sets S_1 c S_2 c ... c S_n; then

        Pr(S_n) = p_(n),  Pr(S_i) = p_(i) - p_(i+1),  Pr(empty) = 1 - p_(1)

    with greedy dual gamma = f(empty), lambda mapped to prefix marginals.
    The caller asserts supermodularity; the arithmetic itself is unchecked.
    """
    n = inst.n
    f = inst.function
    order, chain, probs = prefix_chain(inst.marginals)

    f_empty, *prefix_values = f.values()[chain].tolist()
    value = probs[0] * f_empty
    for prob, v in zip(probs[1:], prefix_values):
        value += prob * v

    lam = [0.0] * n
    previous = f_empty
    for k, i in enumerate(order):
        lam[i] = prefix_values[k] - previous
        previous = prefix_values[k]

    dist = ScenarioDistribution(n, list(zip(chain, probs)))
    return WorstCaseResult(float(value), dist, float(f_empty), tuple(lam))


@np.errstate(over="ignore", invalid="ignore")
def verify_certificate(inst: Instance, result: WorstCaseResult) -> bool:
    """Primal feasibility, dual feasibility over all 2^n scenarios, and
    primal-dual objective equality. The two probability checks are within
    CERT_TOL; the expectation, dual and objective checks, in the units of f,
    are within CERT_TOL * f.scale. A result whose distribution or lambda is
    for another ground set is refused. A subset sum of lambda past float64
    reads +-inf, on the same side of every f(S) as the true sum, so it goes
    unwarned; an inf dual always fails the objective check."""
    if result.distribution.n != inst.n or len(result.dual_lambda) != inst.n:
        raise ValidationError("certificate and instance ground sets differ")
    p = np.asarray(inst.marginals)
    lam = np.asarray(result.dual_lambda)
    values = inst.function.values()
    tol_f = CERT_TOL * inst.function.scale

    if np.max(np.abs(result.distribution.marginals() - p)) > CERT_TOL:
        return False
    if abs(sum(prob for _, prob in result.distribution.support) - 1.0) > CERT_TOL:
        return False
    if abs(result.distribution.expectation(inst.function) - result.value) > tol_f:
        return False

    # max over S of f(S) - lambda(S) - gamma, with gamma taken off the max
    # alone: rounding is monotone, so the two agree exactly
    excess = subset_sums(lam)
    np.subtract(values, excess, out=excess)
    if excess.max() - result.dual_gamma > tol_f:
        return False

    return abs(result.dual_gamma + float(p @ lam) - result.value) <= tol_f
