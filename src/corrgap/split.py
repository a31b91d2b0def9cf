"""Splitting elements into copies: each element i becomes n_i copies at
marginal p_i / n_i, and the split cost f'(S') = f(Pi(S')) is an explicit
table gathered from f's table at the projection Pi of every mask, so every
engine reads it as it reads any other table. Exact verification that
splitting preserves monotonicity and the worst-case value while never
increasing the independent expectation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import (
    CHECK_TOL,
    Instance,
    TableFunction,
    ValidationError,
    as_int,
    check_ground_size,
    doubling_halves,
    is_monotone,
    unit_scale,
)
from .gap import correlation_gap
from .worst_case import CERT_TOL


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
        counts = tuple(as_int(c, "copy count") for c in counts)
        if not counts or any(c < 1 for c in counts):
            raise ValidationError("every element needs at least one copy")
        check_ground_size(sum(counts), "split ground set")
        original_of = tuple(i for i, c in enumerate(counts) for _ in range(c))
        if labels is None:
            labels = tuple(k + 1 for c in counts for k in range(c))
        else:
            labels = tuple(as_int(v, "copy label") for v in labels)
            if len(labels) != len(original_of):
                raise ValidationError("one label per copy required")
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


def split_instance(
    inst: Instance, counts: Sequence[int], labels: Sequence[int] | None = None
) -> tuple[Instance, SplitMap]:
    """New instance with each element i replaced by counts[i] copies at
    marginal p_i / counts[i], its cost the explicit table f'(S') = f(Pi(S')).
    Pi of every mask is built by the doubling of core.subset_sums, with
    bitwise or: Pi[2^j : 2^(j+1)] = Pi[:2^j] | 1 << original_of[j]; f's table
    is then gathered at Pi once."""
    if len(counts) != inst.n:
        raise ValidationError(f"{len(counts)} counts for ground set of size {inst.n}")
    split_map = SplitMap.build(counts, labels)
    proj = np.zeros(1 << split_map.n_new, dtype=np.int64)
    for orig, (low, high) in zip(split_map.original_of, doubling_halves(proj, split_map.n_new)):
        np.bitwise_or(low, 1 << orig, out=high)
    function = TableFunction(inst.function.values()[proj])
    marginals = [inst.marginals[o] / split_map.counts[o] for o in split_map.original_of]
    return Instance(function, marginals), split_map


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

