"""Deterministic counter-based pseudo-random generator.

The generator is a counter-indexed SplitMix64: output ``i`` of a stream
with seed ``s`` is ``mix64(s + (i + 1) * GOLDEN_GAMMA) mod 2**64``, where
``mix64`` is the SplitMix64 finalizer (Vigna, 2015).  Indexing by counter
instead of mutating state makes every draw addressable, so independent
substreams can be handed to parallel workers without changing any result.

Substreams are derived by re-seeding: ``stream(key)`` has seed
``mix64(seed ^ mix64((key + 1) * GOLDEN_GAMMA))``.

Reference sequence (seed 0, counters 0..3), matching the stateful
SplitMix64 generator seeded with 0:

    0xE220A8397B1DCDAF  0x6E789E6AA1B965F4
    0x06C45D188009454F  0xF88BB8A8724C81EC

Uniform doubles are ``((u64 >> 11) + 1) * 2**-53`` in (0, 1]; normal
deviates come from the Box-Muller transform (cosine branch) on uniforms
at counters ``2i`` and ``2i + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
_TWO_POW_MINUS53 = 2.0**-53
_TWO_PI = 2.0 * math.pi


def mix64(z):
    """SplitMix64 finalizer: bijective avalanche mix of a 64-bit word, or
    of each word of a uint64 array, where the masks change nothing."""
    z = z & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class CounterRng:
    """Counter-addressable random stream; immutable and cheap to fork.

    Given uint64 arrays of seeds and/or counters, which broadcast, ``u64``
    and ``uniform`` draw one value per element, bit for bit the same."""

    seed: int

    def stream(self, key: int) -> "CounterRng":
        """Derive an independent substream for integer ``key``."""
        return CounterRng(mix64(self.seed ^ mix64(((key + 1) * GOLDEN_GAMMA) & _MASK64)))

    def u64(self, i: int) -> int:
        """The ``i``-th 64-bit output of this stream."""
        return mix64((self.seed + (i + 1) * GOLDEN_GAMMA) & _MASK64)

    def uniform(self, i: int) -> float:
        """Uniform double in (0, 1] at counter ``i``."""
        return ((self.u64(i) >> 11) + 1) * _TWO_POW_MINUS53

    def normal(self, i: int) -> float:
        """Standard normal deviate at counter ``i`` (Box-Muller, cosine branch).

        Consumes the uniforms at counters ``2i`` and ``2i + 1``.
        """
        u1 = self.uniform(2 * i)
        u2 = self.uniform(2 * i + 1)
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)

