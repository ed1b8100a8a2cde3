"""Deterministic counter-based random stream for reproducible simulations.

The k'th draw is a pure function of (seed, k), so simulation suites replay
identically across runs and platforms without carrying generator state.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    # SplitMix64 finalizer
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class CounterRng:
    """SplitMix64 stream indexed by an incrementing counter."""

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._counter = 0

    def u64(self) -> int:
        self._counter += 1
        return _mix((self._seed + self._counter * _GOLDEN) & _MASK64)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        u = (self.u64() >> 11) * 2.0 ** -53
        return lo + (hi - lo) * u

    def uniforms(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """The next ``count`` draws of ``uniform(lo, hi)`` as an array, bit
        for bit: the same SplitMix64 steps on uint64 counters (which wrap
        mod 2**64 as ``_MASK64`` does) and the same IEEE operations. A
        negative ``count`` is refused: it would move the counter back, so
        later draws would replay earlier ones."""
        if count < 0:
            raise ValueError(f"count must be at least 0, got {count}")
        k = np.arange(self._counter + 1, self._counter + count + 1, dtype=np.uint64)
        self._counter += count
        z = np.uint64(self._seed) + k * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        u = (z >> np.uint64(11)) * 2.0 ** -53
        return lo + (hi - lo) * u

    def normal(self) -> float:
        """Standard normal draw."""
        # Box-Muller; u1 floored away from 0 so log() stays finite
        u1 = max(self.uniform(), 2.0 ** -53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive. An empty range (hi < lo)
        is refused: its modulus would be 0 or negative."""
        if hi < lo:
            raise ValueError(f"randint needs lo <= hi, got [{lo}, {hi}]")
        return lo + self.u64() % (hi - lo + 1)

    def bernoulli(self) -> int:
        """Fair coin: 1 or 0 with probability 1/2 each."""
        return 1 if self.uniform() < 0.5 else 0
