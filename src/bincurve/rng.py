"""Deterministic 64-bit mix-and-multiply PRNG (splitmix64).

The exact update is pinned by test vectors in tests/test_rng.py so runs are
reproducible across platforms and reimplementations. Not cryptographic.
"""
from __future__ import annotations

DEFAULT_SEED = 20260814  # seed of the CLI and of every suite, unless given

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class Rng:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection so there is no modulo bias."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        bound = _MASK + 1 - ((_MASK + 1) % n)
        v = self.next_u64()
        while v >= bound:
            v = self.next_u64()
        return v % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def distinct(self, pool, k: int):
        """k distinct elements drawn from the sequence `pool`, order of draw."""
        if k > len(pool):
            raise ValueError(f"cannot draw {k} distinct items from {len(pool)}")
        taken = []
        used = set()
        while len(taken) < k:
            i = self.below(len(pool))
            if i not in used:
                used.add(i)
                taken.append(pool[i])
        return taken

    def spawn(self) -> "Rng":
        """Independent child stream (used to give each sampled curve its own rng)."""
        return Rng(self.next_u64())
