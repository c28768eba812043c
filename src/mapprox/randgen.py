"""Seeded random mappings and Monte-Carlo cycle statistics.

The generator is SplitMix64: the state advances by a fixed odd constant
and each output runs the new state through a 64-bit finalizer.  It is
tiny and standard, so a corpus written down as (n, seed, densities) can
be regenerated bit for bit by any implementation.

Bounded draws reject from the top of the 64-bit range, making every
residue exactly equally likely; a mark with density p/q draws a uniform
residue below q and compares it with p, so densities are honored exactly
rather than through floating point.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .errors import EmptyDomain
from .structure import FiniteMapping, Signature, cycle_lengths

__all__ = ["SplitMix64", "random_mapping", "cycle_statistics"]

_MASK = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 generator: add-gamma state, xor-shift-multiply output."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform draw from 0..bound-1, exact via rejection from the top."""
        if not 1 <= bound <= 1 << 64:
            raise ValueError(f"bound must be in 1..2^64, got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next64()
            if x < limit:
                return x % bound


def random_mapping(
    n: int,
    seed: int,
    mark_densities: Optional[Mapping[str, Fraction]] = None,
) -> FiniteMapping:
    """A uniform random mapping on n elements with independent marks.

    One stream drives everything, in a fixed order: the n images first,
    then for each predicate (in the order given) one decision per element.
    Every draw happens even when a density is 0 or 1, so adding a
    predicate never shifts the other predicates' decisions within a seed.
    """
    if n < 1:
        raise EmptyDomain("a random mapping needs at least one element")
    rng = SplitMix64(seed)
    f = tuple(rng.below(n) for _ in range(n))
    names = tuple(mark_densities) if mark_densities else ()
    marks = {}
    for name in names:
        p = Fraction(mark_densities[name])
        if not 0 <= p <= 1:
            raise ValueError(f"density of {name!r} must lie in [0, 1], got {p}")
        marks[name] = frozenset(
            v for v in range(n) if rng.below(p.denominator) < p.numerator
        )
    return FiniteMapping(f=f, marks=marks, signature=Signature(names))


def cycle_statistics(
    n: int, samples: int, r_max: int, seed: int = 0
) -> list[tuple[int, Fraction, Fraction]]:
    """Rows (r, empirical mean count of r-cycles, exact mean) for r <= r_max.

    The exact mean number of length-r cycles of a uniform random mapping
    on n elements is n(n-1)...(n-r+1) / (r n^r), which is 0 once r > n;
    the falling factorial is kept running, and no power is built for a
    zero mean.  Per-sample seeds are
    drawn up front from their own stream, so samples can be evaluated in
    any order (or in parallel) without changing the result.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    seeds = SplitMix64(seed)
    sample_seeds = [seeds.next64() for _ in range(samples)]
    counts = [0] * (r_max + 1)
    for s in sample_seeds:
        for length in cycle_lengths(random_mapping(n, s)):
            if length <= r_max:
                counts[length] += 1
    rows = []
    falling = 1
    for r in range(1, r_max + 1):
        falling *= n - r + 1
        exact = Fraction(falling, r * n**r) if falling else Fraction(0)
        rows.append((r, Fraction(counts[r], samples), exact))
    return rows
