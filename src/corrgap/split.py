"""Splitting elements into copies: projected cost functions f'(S') = f(Pi(S')),
marginals p_i / n_i per copy, exact verification that splitting preserves
monotonicity and the worst-case value while never increasing the independent
expectation, and the reduction of a worst-case distribution to disjoint
(partition-type) support.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHECK_TOL,
    MAX_GROUND,
    Instance,
    SetFunction,
    SizeCapError,
    ValidationError,
    elements_of,
    is_monotone,
)
from .distributions import ScenarioDistribution
from .gap import correlation_gap
from .worst_case import CERT_TOL, unit_scale

MAX_SPLIT_VERIFY = 14  # property verification runs the LP twice on 2^{n'} columns


@dataclass(frozen=True)
class SplitMap:
    """Bookkeeping of a split: counts per original element, copy -> original
    table, and a per-copy block label (copy index by default) giving the
    partial order used by lifted cost-sharing schemes (higher labels first)."""

    counts: tuple[int, ...]
    original_of: tuple[int, ...]
    labels: tuple[int, ...]

    @classmethod
    def build(cls, counts: Sequence[int], labels: Sequence[int] | None = None) -> "SplitMap":
        counts = tuple(int(c) for c in counts)
        if not counts or any(c < 1 for c in counts):
            raise ValidationError("every element needs at least one copy")
        original_of = tuple(i for i, c in enumerate(counts) for _ in range(c))
        if labels is None:
            labels = tuple(k + 1 for c in counts for k in range(c))
        else:
            labels = tuple(int(v) for v in labels)
            if len(labels) != len(original_of):
                raise ValidationError("one label per copy required")
        if len(original_of) > MAX_GROUND:
            raise SizeCapError(f"split ground set {len(original_of)} exceeds {MAX_GROUND}")
        return cls(counts, original_of, labels)

    @property
    def n(self) -> int:
        return len(self.counts)

    @property
    def n_new(self) -> int:
        return len(self.original_of)

    def project(self, mask: int) -> int:
        """Collapse a subset of copies to the original elements it touches."""
        if not 0 <= mask < 1 << self.n_new:
            raise ValidationError(f"mask {mask} out of range for split ground set")
        out = 0
        for j, orig in enumerate(self.original_of):
            if mask >> j & 1:
                out |= 1 << orig
        return out

    def to_json(self) -> dict:
        return {
            "counts": list(self.counts),
            "original_of": list(self.original_of),
            "labels": list(self.labels),
        }

    @classmethod
    def from_json(cls, data: dict) -> "SplitMap":
        return cls.build(data["counts"], data.get("labels"))


class ProjectedFunction(SetFunction):
    """f'(S') = f(Pi(S')): the base oracle evaluated through the copy map.
    `values_at` projects all its masks at once and asks the base's
    `values_at` for them."""

    kind = "projected"

    def __init__(self, base: SetFunction, split_map: SplitMap):
        if split_map.n != base.n:
            raise ValidationError("split map does not match the base ground set")
        super().__init__(split_map.n_new)
        self.base = base
        self.split_map = split_map

    def _projected_masks(self, masks: np.ndarray) -> np.ndarray:
        arr = masks.astype(np.int64)
        out = np.zeros_like(arr)
        for j, orig in enumerate(self.split_map.original_of):
            out |= ((arr >> j) & 1) << orig
        return out

    def values_at(self, masks: np.ndarray) -> np.ndarray:
        return self.base.values_at(self._projected_masks(masks))

    def to_json(self) -> dict:
        # interchange as an explicit table; the projection itself is in-process
        from .core import TableFunction

        return TableFunction(self.values().tolist()).to_json()


def split_marginals(marginals: Sequence[float], split_map: SplitMap) -> tuple[float, ...]:
    return tuple(marginals[o] / split_map.counts[o] for o in split_map.original_of)


def split_instance(
    inst: Instance, counts: Sequence[int], labels: Sequence[int] | None = None
) -> tuple[Instance, SplitMap]:
    """New instance with each element i replaced by counts[i] copies at
    marginal p_i / counts[i], cost evaluated through the projection."""
    if len(counts) != inst.n:
        raise ValidationError(f"{len(counts)} counts for ground set of size {inst.n}")
    split_map = SplitMap.build(counts, labels)
    function = ProjectedFunction(inst.function, split_map)
    return Instance(function, split_marginals(inst.marginals, split_map)), split_map


@dataclass(frozen=True)
class SplitPropertiesReport:
    monotone_preserved: bool
    worst_before: float
    worst_after: float
    worst_equal: bool
    indep_before: float
    indep_after: float
    indep_non_increasing: bool
    kappa_before: float | None
    kappa_after: float | None
    kappa_non_decreasing: bool

    @property
    def all_passed(self) -> bool:
        return (
            self.monotone_preserved
            and self.worst_equal
            and self.indep_non_increasing
            and self.kappa_non_decreasing
        )

    def to_json(self) -> dict:
        return {**asdict(self), "all_passed": self.all_passed}


def verify_split_properties(inst: Instance, counts: Sequence[int]) -> SplitPropertiesReport:
    """Exact check, via correlation_gap on both sides, that splitting a
    monotone instance preserves monotonicity and the worst-case value and never
    increases the independent expectation (hence never shrinks the gap). The
    worst-case values agree within CERT_TOL and the independent ones within
    CHECK_TOL, times unit_scale(f); kappa, unit-free, within 1e-6. An
    undefined gap (L/0) compares equal only to another undefined gap."""
    if not is_monotone(inst.function):
        raise ValidationError("split property verification expects a monotone function")
    new_inst, _ = split_instance(inst, counts)
    if new_inst.n > MAX_SPLIT_VERIFY:
        raise SizeCapError(
            f"verification solves the LP on 2^{new_inst.n} columns; cap is {MAX_SPLIT_VERIFY}"
        )

    monotone_preserved = is_monotone(new_inst.function)
    before = correlation_gap(inst)
    after = correlation_gap(new_inst)
    if before.kappa is None or after.kappa is None:
        kappa_non_decreasing = before.kappa == after.kappa
    else:
        kappa_non_decreasing = after.kappa >= before.kappa - 1e-6
    scale = unit_scale(inst.function.values())
    return SplitPropertiesReport(
        monotone_preserved=monotone_preserved,
        worst_before=before.worst_value,
        worst_after=after.worst_value,
        worst_equal=abs(before.worst_value - after.worst_value) <= CERT_TOL * scale,
        indep_before=before.independent_value,
        indep_after=after.independent_value,
        indep_non_increasing=after.independent_value <= before.independent_value + CHECK_TOL * scale,
        kappa_before=before.kappa,
        kappa_after=after.kappa,
        kappa_non_decreasing=kappa_non_decreasing,
    )


@dataclass(frozen=True)
class PartitionStep:
    element: int
    copies: int


@dataclass(frozen=True)
class PartitionReduction:
    instance: Instance
    distribution: ScenarioDistribution
    steps: tuple[PartitionStep, ...]
    expectation_before: float
    expectation_after: float
    is_partition: bool

    def to_json(self) -> dict:
        return {
            "steps": [{"element": s.element, "copies": s.copies} for s in self.steps],
            "expectation_before": self.expectation_before,
            "expectation_after": self.expectation_after,
            "is_partition": self.is_partition,
            "distribution": self.distribution.to_json(),
        }


def reduce_to_partition(inst: Instance, dist: ScenarioDistribution) -> PartitionReduction:
    """Split in one step every element shared by several support sets: i
    gets one copy per support set holding it (at least one), and the r-th
    holder of i, in support order, takes i's r-th copy. The nonempty support
    sets become pairwise disjoint, each copy's marginal is one support
    probability, and f'(S') = f(Pi(S')) leaves every scenario's cost, so the
    expected function value, untouched.

    This is inspectable proof machinery, not an optimisation step.
    """
    support = dist.support
    counts = [max(1, sum(mask >> i & 1 for mask, _ in support)) for i in range(inst.n)]
    split_map = SplitMap.build(counts)
    next_copy = [split_map.original_of.index(i) for i in range(inst.n)]  # i's next free copy
    new_support = []
    for mask, prob in support:
        new_mask = 0
        for i in elements_of(mask):
            new_mask |= 1 << next_copy[i]
            next_copy[i] += 1
        new_support.append((new_mask, prob))

    final_dist = ScenarioDistribution(split_map.n_new, new_support)
    function = ProjectedFunction(inst.function, split_map)
    nonempty = [mask for mask, _ in final_dist.support if mask]
    disjoint = all(
        not (a & b) for idx, a in enumerate(nonempty) for b in nonempty[idx + 1 :]
    )
    return PartitionReduction(
        instance=Instance(function, final_dist.marginals().tolist()),
        distribution=final_dist,
        steps=tuple(PartitionStep(i, c) for i, c in enumerate(counts) if c > 1),
        expectation_before=dist.expectation(inst.function),
        expectation_after=final_dist.expectation(function),
        is_partition=disjoint,
    )
