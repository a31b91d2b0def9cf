"""Reproducible randomness: SplitMix64 run in counter mode.

Every random quantity in this package is derived from this one generator so
that a (seed, index) pair pins down every draw forever, on every platform.
The k-th output of a stream is mix64(seed + (k+1)*GAMMA) -- a pure function
of seed and k, which makes vectorised and sequential draws bit-identical and
lets samplers shard a stream by splitting the counter range.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer on python ints."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def counter_value(seed: int, index: int) -> int:
    """The index-th 64-bit output of the stream with the given seed."""
    return mix64((seed + (index + 1) * _GAMMA) & _MASK64)


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Vectorised uniforms in [0, 1) for counter positions start..start+count-1."""
    # In place: one state buffer z, one shift buffer that ends up holding the output.
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64(seed & _MASK64)
    shifted = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= np.uint64(_MULT1)
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= np.uint64(_MULT2)
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    out = shifted.view(np.float64)
    np.multiply(z, 2.0**-53, out=out)
    return out


class SplitMix64:
    """Sequential view of the counter stream (draw k equals counter_value(seed, k))."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._index = 0

    def next_uint64(self) -> int:
        value = counter_value(self._seed, self._index)
        self._index += 1
        return value

    def random(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randrange(self, n: int) -> int:
        # Modulo bias is ~n/2**64; irrelevant for instance generation.
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_uint64() % n
