"""Deterministic random stream used by every sampler and report.

A fixed 64-bit linear congruential generator keeps sampled checks
reproducible across platforms; reports quote only the seed.
"""
from __future__ import annotations

_MULT = 6364136223846793005
_INC = 1442695040888963407
_MASK = (1 << 64) - 1
_SPAN = 1 << 31


class Lcg64:
    """64-bit LCG; draws take the high 31 bits of the state."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state * _MULT + _INC) & _MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) for a positive n.  Up to 2**31 it is one
        step's high 31 bits mod n; past that, enough steps' 31 bits are
        concatenated to cover n's bit length, so the whole range is reached."""
        if 0 < n <= _SPAN:
            self.state = state = (self.state * _MULT + _INC) & _MASK
            return (state >> 33) % n
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        x, bits = 0, 0
        while bits < n.bit_length():
            x = (x << 31) | (self.next_u64() >> 33)
            bits += 31
        return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Draw in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from an empty sequence")
        return seq[self.below(len(seq))]
