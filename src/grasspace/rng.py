"""Seeded 64-bit mixing generator (splitmix64).

All randomized constructions in the package draw from this stream so that
identical seeds give byte-identical results on every platform.  Constants
are the standard splitmix64 ones:

    increment 0x9E3779B97F4A7C15
    mix 1     0xBF58476D1CE4E5B9
    mix 2     0x94D049BB133111EB

A seed is an integer in [0, 2**64), never reduced into it.  ``below(n)``
reduces by plain modulo; the tiny bias is irrelevant at the sizes used here
and keeps the stream easy to reproduce in other languages.  ``draws(n, k)``
is k calls of ``below(n)`` batched into one, and holds the only copy of the
mix.  The state is a counter: draw k mixes seed + k·increment mod 2**64,
so ``skip(k)`` passes over k draws with one addition.  The instance sampler
uses it to skip the rest of a matrix once one of its rows is dependent; the
stream it leaves, and so the instance sampling contract, is unchanged.
"""

SEED_LIMIT = 1 << 64
_MASK = SEED_LIMIT - 1

INCREMENT = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed {seed} is outside [0, 2**64)")
        self.state = seed

    def next_u64(self) -> int:
        return self.draws(SEED_LIMIT, 1)[0]

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n)."""
        return self.draws(n, 1)[0]

    def draws(self, n: int, count: int) -> list:
        """The values of `count` calls of below(n), in one call."""
        if n <= 0:
            raise ValueError("below() and draws() need a positive bound")
        s = self.state
        out = []
        for _ in range(count):
            s = (s + INCREMENT) & _MASK
            z = ((s ^ (s >> 30)) * MIX1) & _MASK
            z = ((z ^ (z >> 27)) * MIX2) & _MASK
            out.append((z ^ (z >> 31)) % n)
        self.state = s
        return out

    def skip(self, count: int) -> None:
        """Advance the stream past `count` draws without mixing them."""
        if count < 0:
            raise ValueError("skip() needs a count >= 0")
        self.state = (self.state + count * INCREMENT) & _MASK
