"""Seeded 64-bit mixing generator (splitmix64).

All randomized constructions in the package draw from this stream so that
identical seeds give byte-identical results on every platform.  Constants
are the standard splitmix64 ones:

    increment 0x9E3779B97F4A7C15
    mix 1     0xBF58476D1CE4E5B9
    mix 2     0x94D049BB133111EB

A seed is an int in [0, 2**64) (``field.is_code``), never reduced into it;
a bound is a positive int and a count an int >= 0.  Anything else, a bool
or a float included, is a ValueError.  ``below(n)``
reduces by plain modulo; the tiny bias is irrelevant at the sizes used here
and keeps the stream easy to reproduce in other languages.  ``draws(n, k)``
is k calls of ``below(n)`` batched into one, and holds the only copy of the
mix.  The state is a counter: draw k mixes seed + k·increment mod 2**64,
so ``skip(k)`` passes over k draws with one addition.  The instance sampler
uses it to skip the rest of a matrix once one of its rows is dependent; the
stream it leaves, and so the instance sampling contract, is unchanged.
"""

from .field import is_code

SEED_LIMIT = 1 << 64
_MASK = SEED_LIMIT - 1

INCREMENT = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        if not is_code(seed, SEED_LIMIT):
            raise ValueError(f"seed {seed!r} is no int or outside [0, 2**64)")
        self.state = seed

    def below(self, n: int) -> int:
        """Uniform-ish draw from range(n)."""
        return self.draws(n, 1)[0]

    def draws(self, n: int, count: int) -> list:
        """The values of `count` calls of below(n), in one call."""
        if type(n) is not int or n < 1:
            raise ValueError(f"below() and draws() need a positive int bound, got {n!r}")
        if type(count) is not int or count < 0:
            raise ValueError(f"draws() needs an int count >= 0, got {count!r}")
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
        if type(count) is not int or count < 0:
            raise ValueError(f"skip() needs an int count >= 0, got {count!r}")
        self.state = (self.state + count * INCREMENT) & _MASK
