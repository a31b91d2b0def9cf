"""Finite scenario distributions over subsets, and expectations under the
independent (product-Bernoulli) distribution: exact by enumeration of f's
2^n table, or Monte Carlo with a seeded counter RNG that gathers its samples
from the same table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import (
    SetFunction,
    SizeCapError,
    ValidationError,
    as_int,
    as_marginals,
    as_real,
    check_ground_size,
    doubling_halves,
    elements_of,
)
from .rng import counter_uniforms

NEG_PROB_EPS = 1e-12   # rounding floor for library callers; the simplex clamps its own x_b
DROP_EPS = 1e-12       # support entries below this are dropped after clamping
SUM_TOL = 1e-9


class ScenarioDistribution:
    """Distribution with finite support {(mask, probability)} over subsets of
    a ground set of size n (1 <= n <= MAX_EXACT). Masks must be integers and
    probabilities finite numbers; probabilities are clamped at -1e-12,
    entries below 1e-12 dropped, duplicates merged; the total must be 1
    within 1e-9."""

    def __init__(self, n: int, support: Iterable[tuple[int, float]]):
        check_ground_size(n)
        self.n = n
        full = (1 << n) - 1
        merged: dict[int, float] = {}
        total = 0.0
        for mask, prob in support:
            mask = as_int(mask, "scenario mask")
            prob = as_real(prob, "scenario probability")
            if not 0 <= mask <= full:
                raise ValidationError(f"mask {mask} out of range for n={n}")
            if not math.isfinite(prob):
                raise ValidationError(f"probability {prob} for mask {mask} is not finite")
            if prob < -NEG_PROB_EPS:
                raise ValidationError(f"negative probability {prob} for mask {mask}")
            prob = max(prob, 0.0)
            total += prob
            merged[mask] = merged.get(mask, 0.0) + prob
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"support probabilities sum to {total}, not 1")
        self.support = tuple(
            (mask, merged[mask]) for mask in sorted(merged) if merged[mask] >= DROP_EPS
        )

    def marginals(self) -> np.ndarray:
        """P(i in S) for each element i: each support entry's probability
        added to the elements of its mask, in support order, as Python
        floats (numpy scalar adds cost several times more)."""
        p = [0.0] * self.n
        for mask, prob in self.support:
            for i in elements_of(mask):
                p[i] += prob
        return np.array(p)

    def expectation(self, f: SetFunction) -> float:
        if f.n != self.n:
            raise ValidationError("distribution and function ground sets differ")
        values = f.values()[[mask for mask, _ in self.support]].tolist()
        return float(sum(prob * v for (_, prob), v in zip(self.support, values)))

    def to_json(self) -> dict:
        return {"support": [{"mask": mask, "p": prob} for mask, prob in self.support]}


_DOT_BLOCK = 1 << 13


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """np.dot over blocks of at most 8192 elements, block results added left
    to right, starting from the first block so a zero keeps its sign.

    OpenBLAS's ddot splits a longer vector across its thread pool (x86_64:
    above 10000 elements), which wakes workers that then spin on the
    caller's CPU time and makes the sum's order, and so its last bits,
    depend on the thread count. Blocks below that limit run in the calling
    thread, in an order fixed by the length alone; at length <= 8192 this
    is exactly one np.dot.
    """
    total = float(np.dot(a[:_DOT_BLOCK], b[:_DOT_BLOCK]))
    for start in range(_DOT_BLOCK, len(a), _DOT_BLOCK):
        total += float(np.dot(a[start : start + _DOT_BLOCK], b[start : start + _DOT_BLOCK]))
    return total


def _product_weights(n: int, p: Sequence[float]) -> np.ndarray:
    """Pr(S) = prod_{i in S} p_i * prod_{i not in S} (1 - p_i) for every mask,
    by the doubling of core.subset_sums with multiply; each product takes its
    factors in ascending bit order. p must be n marginals in [0, 1]."""
    p = as_marginals(p, n)
    weights = np.empty(1 << n)
    weights[0] = 1.0
    for pi, (low, high) in zip(p, doubling_halves(weights, n)):
        np.multiply(low, pi, out=high)
        low *= 1.0 - pi
    return weights


def independent_expectation_exact(f: SetFunction, p: Sequence[float]) -> float:
    """E[f(S)] under independent inclusion, by full enumeration."""
    return _dot(_product_weights(f.n, p), f.values())


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


_MC_CHUNK = 1 << 15  # samples per sum and _dot: fixes the estimate's rounding
_MC_BLOCK = 1 << 11  # samples per uniform draw: 2^11 * n floats stay in cache
# 2^22 samples take 0.19 s at n = 3 and 0.43 s at n = 16 on one 2-vCPU x86_64
# core, so the cap bounds one estimate at about 3-7 s
MAX_SAMPLES = 1 << 26


def check_sample_count(samples: int) -> None:
    """The one sample-count rule: 1 <= samples <= MAX_SAMPLES."""
    if samples < 1:
        raise ValidationError("need at least one sample")
    if samples > MAX_SAMPLES:
        raise SizeCapError(f"{samples} samples exceeds cap {MAX_SAMPLES}")


def independent_expectation_mc(
    f: SetFunction, p: Sequence[float], samples: int, seed: int
) -> MCEstimate:
    """Sample mean of f(S) under independent inclusion, with its standard error.

    Sample j consumes counter positions j*n..j*n+n-1 of the seed's stream, so
    the estimate is a pure function of (seed, samples) and shards merge exactly.
    Uniforms are drawn _MC_BLOCK samples at a time; each block's inclusion
    bits fill the low n columns of a 64-column bool block, which packbits
    turns into one little-endian uint64 mask per sample.
    """
    p = np.array(as_marginals(p, f.n))
    check_sample_count(samples)
    n = f.n
    table = f.values()
    bits = np.zeros((_MC_BLOCK, 64), dtype=bool)
    mask_buffer = np.empty(min(_MC_CHUNK, samples), dtype=np.uint64)
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < samples:
        chunk = min(_MC_CHUNK, samples - done)
        masks = mask_buffer[:chunk]
        for start in range(0, chunk, _MC_BLOCK):
            size = min(_MC_BLOCK, chunk - start)
            u = counter_uniforms(seed, (done + start) * n, size * n).reshape(size, n)
            np.less(u, p, out=bits[:size, :n])
            packed = np.packbits(bits[:size], axis=1, bitorder="little")
            masks[start : start + size] = packed.view("<u8")[:, 0]
        vals = table[masks]
        total += float(vals.sum())
        total_sq += _dot(vals, vals)
        done += chunk
    mean = total / samples
    if samples > 1:
        var = max(total_sq - samples * mean * mean, 0.0) / (samples - 1)
        stderr = float(np.sqrt(var / samples))
    else:
        stderr = 0.0
    return MCEstimate(mean, stderr, samples, seed)
