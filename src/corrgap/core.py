"""Ground sets, subsets as bitmasks, set-function oracles, and exhaustive
structure checks (monotone / submodular / supermodular).

Subsets of a ground set {0..n-1} are unsigned ints with bit i set iff element
i is in the subset; explicit tables are indexed by that mask value. Every set
function is a read-only table of its 2^n values, so n is capped at MAX_EXACT
when the function is built; the table is checked once, where it is built,
and carries its unit scale.

A set function may declare classes of interchangeable elements: f(S) then
depends on S only through the count vector c(S), c_b = |S & class b|, and
its values on the count grid (every count vector, one value each) stand for
the whole table. Where the marginals are equal within every class too, the
engines work on that grid and never build the table (see orbit_classes).
"""

from __future__ import annotations

import array
import math
from typing import Sequence

import numpy as np

MAX_EXACT = 16         # every set function is a table of at most 2^16 values
MAX_FACILITIES = 12    # facility-location evaluation brute-forces open subsets
CHECK_TOL = 1e-9       # relative to unit_scale(f)
# The orbit regime starts at n = 10. Every class-declaring scenario LP behind
# the golden command outputs and `verify --all` has n <= 9, so those outputs
# keep the 2^n simplex's bits; from n = 10 the count grid is the smaller LP.
_ORBIT_FROM_N = 10


class ValidationError(ValueError):
    """Malformed input: bad mask, marginal, table, or JSON payload."""


class SizeCapError(RuntimeError):
    """Request exceeds the hard cap of an exact engine."""


def as_real(x, what: str) -> float:
    """x as a float. Strings and bools are refused, although float() reads
    "1.5" and True as numbers. A float itself passes on one type test."""
    if type(x) is not float and isinstance(x, (str, bytes, bool, np.bool_)):
        raise ValidationError(f"{what} must be a number, got {x!r}")
    return float(x)


def as_real_array(values, what: str) -> np.ndarray:
    """values as a float64 array, refused unless numpy reads every entry as
    an int or a float (np.asarray(values, float) would parse "3"). A bool
    among numbers still reads as 0 or 1; ragged nesting is refused too."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{what} must be numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be numbers")
    return arr.astype(np.float64)


def as_int(x, what: str) -> int:
    """x as an int. Floats, strings and bools are refused, although int()
    truncates 2.9 and reads "4" and True. An int itself passes on one type test."""
    if type(x) is not int and (
        isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, np.integer))
    ):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return int(x)


def mask_of(elements: Sequence[int], n: int) -> int:
    mask = 0
    for i in elements:
        i = as_int(i, "element")
        if not 0 <= i < n:
            raise ValidationError(f"element {i} outside ground set of size {n}")
        mask |= 1 << i
    return mask


def elements_of(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def block_max_counts(masks: np.ndarray, blocks: Sequence[int]) -> np.ndarray:
    """max over blocks of |mask & block| for each mask, as uint8: one uint64
    temporary per block and no int64 count arrays."""
    masks = np.asarray(masks, dtype=np.uint64)
    best = np.bitwise_count(masks & np.uint64(blocks[0]))
    for bm in blocks[1:]:
        np.maximum(best, np.bitwise_count(masks & np.uint64(bm)), out=best)
    return best


def _partition_masks(partition: Sequence[Sequence[int]], n: int) -> tuple[int, ...]:
    """The masks of a partition of {0..n-1} into nonempty blocks, in the
    given order; a block that is empty, overlaps another or leaves an
    element uncovered is refused."""
    blocks = []
    union = 0
    for block in partition:
        bm = mask_of(block, n)
        if bm == 0:
            raise ValidationError("partition blocks must be nonempty")
        if bm & union:
            raise ValidationError("partition blocks overlap")
        union |= bm
        blocks.append(bm)
    if union != (1 << n) - 1:
        raise ValidationError("partition does not cover the ground set")
    return tuple(blocks)


def count_vectors(sizes: Sequence[int]) -> np.ndarray:
    """Every count vector c with 0 <= c_b <= sizes[b], one row each, in the
    count grid's order: row-major over the classes, the last varying
    fastest, so c sits at row sum_b c_b * prod_{b' > b} (sizes[b'] + 1)."""
    return np.indices([s + 1 for s in sizes]).reshape(len(sizes), -1).T


def doubling_halves(out: np.ndarray, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The view pairs (out[:2^i], out[2^i : 2^(i+1)]) for i < n that
    subset_sums reads and writes. A caller that fills one buffer with many
    weight vectors builds them once and passes them to every call."""
    return [(out[: 1 << i], out[1 << i : 2 << i]) for i in range(n)]


def subset_sums(
    weights: Sequence[float],
    out: np.ndarray | None = None,
    halves: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """lambda(S) = sum of weights[i] over i in S, for every mask S of
    len(weights) bits, by doubling: once bits below i are done,
    out[2^i : 2^(i+1)] = out[:2^i] + weights[i]. O(2^n) time in the one
    buffer `out` (allocated when not given); each sum adds its terms in
    ascending bit order. `halves`, if given, is doubling_halves(out, n)."""
    if out is None:
        out = np.empty(1 << len(weights))
    if halves is None:
        halves = doubling_halves(out, len(weights))
    out[0] = 0.0
    for w, (low, high) in zip(weights, halves):
        np.add(low, w, out=high)
    return out


def check_ground_size(n: int, what: str = "ground set size") -> None:
    """The one ground-set size rule: 1 <= n <= MAX_EXACT. A builder whose
    work before constructing its function grows with n checks it first;
    `what` names the ground set in the message."""
    if n < 1:
        raise ValidationError(f"{what} must be >= 1, got {n}")
    if n > MAX_EXACT:
        raise SizeCapError(f"{what} {n} exceeds cap {MAX_EXACT}")


def _checked(values) -> tuple[np.ndarray, float]:
    """The one table rule, applied where a table or a count grid is built:
    float64, every entry finite, and max|f| either 0 or at least 2^-1022 (a
    subnormal f sits on a grid too coarse to certify). Returns the values,
    now read-only, and their unit_scale."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValidationError("set-function values must be finite")
    scale = unit_scale(values)
    if scale <= 2.0**-1022:
        raise ValidationError("f is subnormal: 0 < max|f| < 2^-1022, too fine to certify")
    values.flags.writeable = False
    return values, scale


class SetFunction:
    """Deterministic oracle f: 2^{0..n-1} -> R, addressed by bitmask, for
    1 <= n <= MAX_EXACT.

    A subclass defines one evaluator, `values_at`; `values` caches it over
    every mask, and every engine and `value` read that table and `scale`.
    A subclass whose f depends only on class counts also sets `classes`;
    `grid` then caches `values_at` over one mask per count vector, which
    the engines read in place of the table in the orbit regime. Instances
    are immutable after construction apart from these caches.
    """

    # Masks of a partition of the ground set into classes of interchangeable
    # elements (f depends on S only through |S & class| for each class), or
    # None. A function that declares classes evaluates cheaply at few masks.
    classes: tuple[int, ...] | None = None

    def __init__(self, n: int):
        check_ground_size(n)
        self.n = n
        self._table: np.ndarray | None = None
        self._grid: np.ndarray | None = None
        self._scale: float | None = None

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        """f at each mask of an integer array, as float64."""
        raise NotImplementedError

    def values(self) -> np.ndarray:
        """All 2^n values, indexed by mask: built and checked on first use,
        then cached read-only. A table built after the grid repeats the
        grid's values, so the grid's check stands for it."""
        if self._table is None:
            table = self.values_at(np.arange(1 << self.n, dtype=np.uint64))
            if self._scale is None:
                self._table, self._scale = _checked(table)
            else:
                self._table = np.asarray(table, dtype=np.float64)
                self._table.flags.writeable = False
        return self._table

    def at(self, masks: Sequence[int]) -> np.ndarray:
        """f at a few masks: gathered from the table, unless f declares
        classes and its table is not built, when values_at evaluates them
        alone."""
        if self.classes is None or self._table is not None:
            return self.values()[masks]
        return self.values_at(np.array(masks, dtype=np.uint64))

    def grid(self) -> np.ndarray:
        """f on the count grid of `classes`, in count_vectors order: f at the
        mask holding the lowest c_b elements of each class b, built and
        checked on first use like the table, then cached read-only. It
        holds every value of the table, so max|f| is attained on it."""
        if self._grid is None:
            reps = np.zeros(1, dtype=np.uint64)
            for block in self.classes:
                prefixes = [0]
                for i in elements_of(block):
                    prefixes.append(prefixes[-1] | 1 << i)
                reps = (reps[:, None] | np.array(prefixes, dtype=np.uint64)).ravel()
            self._grid, self._scale = _checked(self.values_at(reps))
        return self._grid

    @property
    def scale(self) -> float:
        """unit_scale(f), computed once with the grid or the table, whichever
        is built first (the grid first when f declares classes at n >=
        _ORBIT_FROM_N, the sizes where engines may read the grid alone): the
        unit that every check in the units of f multiplies its tolerance by."""
        if self._scale is None:
            if self.classes is not None and self.n >= _ORBIT_FROM_N:
                self.grid()
            else:
                self.values()
        return self._scale

    def value(self, mask: int) -> float:
        if not 0 <= mask < 1 << self.n:
            raise ValidationError(f"mask {mask} out of range for n={self.n}")
        return float(self.values()[mask])

    def to_json(self) -> dict:
        raise NotImplementedError


class TableFunction(SetFunction):
    """Explicit table of 2^n values indexed by mask."""

    def __init__(self, table: Sequence[float] | np.ndarray):
        arr = as_real_array(table, "explicit table entries")
        size = len(arr) if arr.ndim == 1 else 0
        n = size.bit_length() - 1
        if n < 1 or size != 1 << n:
            raise ValidationError(f"explicit table length {size} is not 2^n for n >= 1")
        super().__init__(n)
        self._table, self._scale = _checked(arr)

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        return self._table[masks]

    def to_json(self) -> dict:
        return {"type": "explicit", "n": self.n, "values": [float(v) for v in self._table]}


class ClassCountFunction(SetFunction):
    """f given on the count grid of a partition of the ground set into
    classes: f(S) = grid[c(S)] with c_b(S) = |S & class b|, the grid's
    entries in count_vectors order (a flat list, or an array of shape
    (n_1 + 1, ..., n_r + 1))."""

    def __init__(self, n: int, classes: Sequence[Sequence[int]], grid):
        super().__init__(n)
        self.classes = _partition_masks(classes, n)
        sizes = [block.bit_count() for block in self.classes]
        values = as_real_array(grid, "count-grid entries").ravel()
        if len(values) != (size := math.prod(s + 1 for s in sizes)):
            raise ValidationError(f"count grid has {len(values)} entries, classes of sizes {sizes} need {size}")
        self._grid, self._scale = _checked(values)
        self._strides = [math.prod(s + 1 for s in sizes[b + 1 :]) for b in range(len(sizes))]

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        """The grid gathered at each mask's count vector."""
        masks = np.asarray(masks, dtype=np.uint64)
        index = np.zeros(masks.shape, dtype=np.intp)
        for block, stride in zip(self.classes, self._strides):
            index += np.bitwise_count(masks & np.uint64(block)).astype(np.intp) * stride
        return self._grid[index]

    def to_json(self) -> dict:
        return {"type": "explicit", "n": self.n, "values": [float(v) for v in self.values()]}


class CoverageMax(SetFunction):
    """f(S) = max_k |S intersect A_k| over a partition A_1..A_K of the ground
    set, whose blocks are its classes."""

    def __init__(self, n: int, partition: Sequence[Sequence[int]]):
        super().__init__(n)
        self.classes = _partition_masks(partition, n)

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        return block_max_counts(masks, self.classes).astype(np.float64)

    def to_json(self) -> dict:
        return {
            "type": "coverage_max",
            "n": self.n,
            "partition": [elements_of(bm) for bm in self.classes],
        }


class TwoStageFlow(SetFunction):
    """Two-stage flow cost with first-stage capacity x: build cost plus a
    2^n-per-unit penalty on demand exceeding the capacity.

    f(S) = c(x) + 2^n * max(|S| - x, 0), with c(x) = x for x <= n-1 and
    c(n) = n + 2. Its one class is the whole ground set.
    """

    def __init__(self, n: int, x: int):
        super().__init__(n)
        self.classes = ((1 << n) - 1,)
        if not 0 <= x <= n:
            raise ValidationError(f"capacity x={x} outside 0..{n}")
        self.x = x
        self.build_cost = float(x if x <= n - 1 else n + 2)
        self.penalty = float(2**n)

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        sizes = np.bitwise_count(masks).astype(np.int64)  # signed, for sizes - x
        return self.build_cost + self.penalty * np.maximum(sizes - self.x, 0)

    def to_json(self) -> dict:
        return {"type": "two_stage_flow", "n": self.n, "x": self.x}


class FacilityLocationCost(SetFunction):
    """Exact cost of serving a demand set of clients from facilities.

    f(S) = base_cost + min over facility subsets G of
           (sum of open costs of G minus pre-opened)
         + (sum over clients i in S of the distance to the nearest facility
            in G union pre-opened).

    Ground-set elements are the clients; distances[i][j] is client i to
    facility j. Evaluation brute-forces the not-yet-open facility subsets, so
    the facility count is capped at MAX_FACILITIES.
    """

    def __init__(
        self,
        open_costs: Sequence[float],
        distances: Sequence[Sequence[float]],
        pre_open: Sequence[int] = (),
        base_cost: float = 0.0,
    ):
        n = len(distances)
        super().__init__(n)
        m = len(open_costs)
        if m < 1:
            raise ValidationError("need at least one facility")
        if m > MAX_FACILITIES:
            raise SizeCapError(f"{m} facilities exceeds brute-force cap {MAX_FACILITIES}")
        dist = as_real_array(distances, "distances")
        if dist.shape != (n, m):
            raise ValidationError(f"distances must be {n} clients x {m} facilities")
        costs = as_real_array(open_costs, "open costs")
        base_cost = as_real(base_cost, "base_cost")
        if not (np.isfinite(dist).all() and np.isfinite(costs).all() and np.isfinite(base_cost)):
            raise ValidationError("costs and distances must be finite")
        if np.any(dist < 0) or np.any(costs < 0):
            raise ValidationError("costs and distances must be nonnegative")
        pre = frozenset(as_int(j, "pre_open entry") for j in pre_open)
        if any(not 0 <= j < m for j in pre):
            raise ValidationError("pre_open facility index out of range")
        self.open_costs = tuple(costs.tolist())
        self.distances = dist
        self.distances.flags.writeable = False
        self.pre_open = pre
        self.base_cost = base_cost
        self._closed = tuple(j for j in range(m) if j not in pre)

    def _open_sets(self):
        """(open cost, distance from each client to its nearest open facility)
        for every subset of the not-yet-open facilities that leaves at least
        one facility open."""
        for g in range(1 << len(self._closed)):
            opened = set(self.pre_open)
            open_cost = 0.0
            for k, j in enumerate(self._closed):
                if g >> k & 1:
                    opened.add(j)
                    open_cost += self.open_costs[j]
            if opened:
                yield open_cost, self.distances[:, sorted(opened)].min(axis=1)

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        """Gathered from the whole 2^n cost table, built by a subset-sum
        doubling per open set: O(2^m * 2^n) time in two 2^n buffers. A sum
        that overflows stays inf, which `values` refuses."""
        table = np.full(1 << self.n, np.inf)
        sums = np.empty(1 << self.n)
        halves = doubling_halves(sums, self.n)
        with np.errstate(over="ignore"):
            for open_cost, nearest in self._open_sets():
                subset_sums(nearest, sums, halves)
                sums += open_cost
                np.minimum(table, sums, out=table)
            table[0] = 0.0  # serving nobody opens nothing
            table += self.base_cost
        return table[masks]

    def to_json(self) -> dict:
        data = {
            "type": "facility_location",
            "open_costs": list(self.open_costs),
            "distances": [[float(d) for d in row] for row in self.distances],
            "pre_open": sorted(self.pre_open),
        }
        if self.base_cost:
            data["base_cost"] = self.base_cost
        return data


def function_from_json(data: dict) -> SetFunction:
    try:
        type_name = data["type"]
    except (TypeError, KeyError):
        raise ValidationError("set-function JSON needs a 'type' field") from None
    try:
        if type_name == "explicit":
            # array("d") refuses strings and null while converting at the
            # speed of np.array(..., float), which would parse "1.5". It reads
            # true and false as 1 and 0: a table of bools alone is refused,
            # by a scan that stops at the first number.
            try:
                values = array.array("d", data["values"])
            except TypeError:
                values = None
            if values is None or values and all(type(x) is bool for x in data["values"]):
                raise ValidationError("explicit table entries must be numbers")
            f = TableFunction(np.frombuffer(values))
            if "n" in data and as_int(data["n"], "explicit n") != f.n:
                raise ValidationError(
                    f"explicit table has {1 << f.n} values (n={f.n}) but declares n={data['n']!r}"
                )
            return f
        if type_name == "coverage_max":
            return CoverageMax(as_int(data["n"], "coverage_max n"), data["partition"])
        if type_name == "two_stage_flow":
            return TwoStageFlow(
                as_int(data["n"], "two_stage_flow n"), as_int(data["x"], "two_stage_flow x")
            )
        if type_name == "facility_location":
            return FacilityLocationCost(
                data["open_costs"],
                data["distances"],
                data.get("pre_open", ()),
                data.get("base_cost", 0.0),
            )
    except KeyError as exc:
        raise ValidationError(f"set-function JSON missing field {exc}") from None
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {type_name} set-function JSON: {exc}") from None
    raise ValidationError(f"unknown set-function type {type_name!r}")


def unit_scale(values: np.ndarray) -> float:
    """The power of two 2^e with max|f| / 2^e in [0.5, 1), with e capped at
    1023 so that it never overflows; 1.0 when f is identically zero."""
    top = max(values.max(), -values.min())
    if top == 0.0:
        return 1.0
    return math.ldexp(1.0, min(math.frexp(top)[1], 1023))


def is_monotone(f: SetFunction) -> bool:
    """f(S) <= f(S + i) + CHECK_TOL * f.scale for every S and i not in S: the
    tolerance in the units of f."""
    v, tol = f.values(), CHECK_TOL * f.scale
    for i in range(f.n):
        w = v.reshape(-1, 2, 1 << i)  # w[:, 0] the sets without i, w[:, 1] with it
        if np.any(w[:, 1] < w[:, 0] - tol):
            return False
    return True


def _exchange_holds(f: SetFunction, sign: float) -> bool:
    """sign * (f(S+i) + f(S+j)) >= sign * (f(S+i+j) + f(S)) - CHECK_TOL * f.scale
    for i != j, S avoiding both, the tolerance in the units of f; sign is +1
    for submodular, -1 for supermodular."""
    v, tol = f.values(), CHECK_TOL * f.scale
    for i in range(f.n):
        for j in range(i + 1, f.n):
            # axes: bits above j, bit j, bits between, bit i, bits below i
            w = v.reshape(-1, 2, 1 << (j - i - 1), 2, 1 << i)
            s, si, sj, sij = w[:, 0, :, 0], w[:, 0, :, 1], w[:, 1, :, 0], w[:, 1, :, 1]
            if np.any(sign * (si + sj) < sign * (sij + s) - tol):
                return False
    return True


def is_submodular(f: SetFunction) -> bool:
    """Diminishing marginals: f(S+i) + f(S+j) >= f(S+i+j) + f(S) for i != j,
    S avoiding both, within CHECK_TOL * unit_scale(f)."""
    return _exchange_holds(f, 1.0)


def is_supermodular(f: SetFunction) -> bool:
    """Increasing marginals: is_submodular's inequality reversed, within
    CHECK_TOL * unit_scale(f)."""
    return _exchange_holds(f, -1.0)


def as_marginals(marginals: Sequence[float], n: int) -> tuple[float, ...]:
    """n marginal probabilities as floats, each in [0, 1] (NaN refused)."""
    p = tuple(as_real(x, "marginal") for x in marginals)
    if len(p) != n:
        raise ValidationError(f"{len(p)} marginals for ground set of size {n}")
    for x in p:
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"marginal {x} outside [0, 1]")
    return p


def orbit_classes(f: SetFunction, p: Sequence[float]) -> list[list[int]] | None:
    """The elements of each of f's classes when (f, p) is in the orbit
    regime, else None: the one entry check of the count-vector scenario LP,
    certificate scan and independent leg. The regime holds when f declares
    classes, the marginals p are equal within every class, n >=
    _ORBIT_FROM_N, and the count grid prod(n_b + 1) is smaller than the
    2^n table."""
    if f.classes is None or f.n < _ORBIT_FROM_N:
        return None
    members = [elements_of(block) for block in f.classes]
    if math.prod(len(m) + 1 for m in members) >= 1 << f.n:
        return None
    if any(p[i] != p[m[0]] for m in members for i in m):
        return None
    return members


class Instance:
    """A set function together with per-element marginal probabilities."""

    def __init__(self, function: SetFunction, marginals: Sequence[float]):
        self.function = function
        self.marginals = as_marginals(marginals, function.n)

    @property
    def n(self) -> int:
        return self.function.n

    def to_json(self) -> dict:
        return {"function": self.function.to_json(), "marginals": list(self.marginals)}

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        try:
            return cls(function_from_json(data["function"]), data["marginals"])
        except (TypeError, KeyError) as exc:
            raise ValidationError(f"instance JSON missing field: {exc}") from None
