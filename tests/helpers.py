"""Builders shared across the test suite."""

import itertools
import random
from fractions import Fraction

from mapprox.localtypes import TypeMeasure, TypeTable, project, type_distribution
from mapprox.randgen import random_mapping
from mapprox.structure import FiniteMapping, cut_product_layers, cycle_cut_product

__all__ = [
    "cycle",
    "star",
    "two_level_star",
    "path",
    "cyclic_input",
    "many_cycles",
    "fixed_point",
    "seeded",
    "structurally_equal",
    "functions_up_to_relabeling",
    "every_marking",
    "broken_cut_products",
    "mirrored",
    "perturbed",
    "perturbed_product",
    "marked_path",
    "marked_fan",
    "bushy",
    "hub_heavy",
]


def cycle(k: int, marks=None) -> FiniteMapping:
    """Directed k-cycle 0 -> 1 -> ... -> 0."""
    return FiniteMapping(f=tuple((i + 1) % k for i in range(k)), marks=marks or {})


def star(leaves: int, marks=None) -> FiniteMapping:
    """Center 0 fixed; elements 1..leaves map to 0."""
    return FiniteMapping(f=(0,) * (leaves + 1), marks=marks or {})


def two_level_star(middles, leaves):
    """A fixed center 0, `middles` elements pointing at it, and `leaves`
    P-marked leaves pointing at each middle element."""
    f = [0] * (1 + middles)
    for m in range(1, middles + 1):
        f.extend([m] * leaves)
    return FiniteMapping(f=tuple(f), marks={"P": frozenset(range(1 + middles, len(f)))})


def path(k: int) -> FiniteMapping:
    """0 -> 1 -> ... -> k-1 with the last element fixed."""
    return FiniteMapping(f=tuple(min(i + 1, k - 1) for i in range(k)))


def cyclic_input(seed, cycles, tails, leaves):
    """Cycles of the given lengths, `tails` elements hung on them at random,
    and a fixed hub with `leaves` preimages, which residualization cuts off
    when there are more than eps * n of them.  U holds on the first
    element of each 2-cycle and at random elsewhere."""
    rng = random.Random(seed)
    f, marked = [], set()
    for length in cycles:
        if length == 2:
            marked.add(len(f))
        f += [len(f) + (i + 1) % length for i in range(length)]
    for _ in range(tails):
        f.append(rng.randrange(len(f)))
    f += [len(f)] * (leaves + 1)
    marked |= {v for v in range(len(f)) if rng.random() < 0.25}
    return FiniteMapping(f=tuple(f), marks={"U": frozenset(marked)})


def many_cycles(seed: int) -> FiniteMapping:
    """300 cycles of lengths 1 to 3 with 300 tail elements hung on them at
    random, beside a fixed hub with 400 preimages."""
    return cyclic_input(seed, (1, 2, 3) * 100, 300, 400)


def fixed_point(marks=None) -> FiniteMapping:
    return FiniteMapping(f=(0,), marks=marks or {})


def seeded(n: int, seed: int, density=Fraction(1, 4)) -> FiniteMapping:
    """Deterministic random mapping with one U predicate."""
    return random_mapping(n, seed, {"U": density})


def structurally_equal(A: FiniteMapping, B: FiniteMapping) -> bool:
    """Identical f, marks, and signature (mapping equality is identity)."""
    return A.f == B.f and A.marks == B.marks and A.signature == B.signature


def functions_up_to_relabeling(n):
    """One function on 0..n-1 from each isomorphism class."""
    seen = set()
    perms = list(itertools.permutations(range(n)))
    for f in itertools.product(range(n), repeat=n):
        if f not in seen:
            for perm in perms:
                g = [0] * n
                for v in range(n):
                    g[perm[v]] = perm[f[v]]
                seen.add(tuple(g))
            yield f


def every_marking(f, names):
    """f with every assignment of the named predicates to its elements."""
    n = len(f)
    for bits in itertools.product(range(2 ** len(names)), repeat=n):
        yield FiniteMapping(
            f=f,
            marks={
                name: frozenset(v for v in range(n) if bits[v] >> i & 1)
                for i, name in enumerate(names)
            },
        )


def broken_cut_products(P: FiniteMapping) -> dict[str, FiniteMapping]:
    """Copies of a cut product P (layers U0.., an input predicate U) that
    each break one condition of structure.cut_product_layers."""
    n, marks = P.n, P.marks

    def copy(f=P.f, **changed):
        return FiniteMapping(f=f, marks={**marks, **changed}, signature=P.signature)

    return {
        # One more element, a fixed point in layer 0.
        "m does not divide n": copy(f=P.f + (n,), U0=marks["U0"] | {n}),
        "element 0 carries U0 and U1": copy(U1=marks["U1"] | {0}),
        "element 1 maps into layer 1": copy(f=P.f[:1] + P.f[:1] + P.f[2:]),
        "U differs within block 0": copy(U=marks["U"] ^ {1}),
    }


def mirrored(P: FiniteMapping) -> FiniteMapping:
    """P relabelled by v -> n - 1 - v: isomorphic to P, so the value of
    n - 1 - v in the copy is the value of v in P, but no type table takes
    the copy for a cut product, and every one of its layers is played."""
    n = P.n
    copy = FiniteMapping(
        f=tuple(n - 1 - P.f[n - 1 - v] for v in range(n)),
        marks={name: {n - 1 - v for v in elems} for name, elems in P.marks.items()},
        signature=P.signature,
    )
    assert cut_product_layers(copy) == 0
    return copy


def perturbed(mu: TypeMeasure, amount=Fraction(1, 1000)) -> TypeMeasure:
    """mu with `amount` of mass moved from its heaviest type to the first
    type whose rank-1 projection differs: near the transport equations,
    and, for the measures the tests perturb, off them."""
    types = [t for t, _ in mu]
    masses = [mass for _, mass in mu]
    heavy = masses.index(max(masses))
    light = next(
        i
        for i, t in enumerate(types)
        if project(t, 1).key != project(types[heavy], 1).key
    )
    masses[heavy] -= amount
    masses[light] += amount
    return TypeMeasure.from_pairs(mu.rank, zip(types, masses))


def perturbed_product(n, seed):
    """The rank-3 measure of seeded(n, seed)'s 6-layer cut product, moved
    1/1000 off the transport equations."""
    table = TypeTable()
    H = cycle_cut_product(seeded(n, seed), 6, 3, table)
    return perturbed(type_distribution(H, 3, table))


def marked_path(seed: int, n: int = 20_000) -> FiniteMapping:
    """0 -> 1 -> ... -> n - 1, the last element fixed, marked at random: a
    tree as deep as the mapping is large, so a recursive walk would fail."""
    rng = random.Random(seed)
    marked = frozenset(v for v in range(n) if rng.random() < 0.3)
    return FiniteMapping(f=tuple(min(v + 1, n - 1) for v in range(n)), marks={"U": marked})


def marked_fan(seed: int, leaves: int = 20_000) -> FiniteMapping:
    """A fixed point with `leaves` preimages, marked at random: one sibling
    group as wide as the mapping is large."""
    rng = random.Random(seed)
    marked = frozenset(v for v in range(leaves + 1) if rng.random() < 0.3)
    return FiniteMapping(f=(0,) * (leaves + 1), marks={"U": marked})


def bushy(seed: int) -> FiniteMapping:
    """Up to 60 elements: a few short cycles, every other element mapped
    onto one of the first few, sparse marks, relabelled at random.  Wide
    sibling groups of equal subtrees and repeated components, so that
    pruning by exact counts takes more than one pass."""
    rng = random.Random(seed)
    f: list[int] = []
    for _ in range(rng.randrange(1, 5)):
        length = rng.choice((1, 1, 2, 3))
        base = len(f)
        f.extend(base + (i + 1) % length for i in range(length))
    hubs = rng.randrange(1, 8)
    for _ in range(rng.randrange(60 - len(f))):
        f.append(rng.randrange(min(len(f), hubs + len(f) // 4)))
    n = len(f)
    perm = list(range(n))
    rng.shuffle(perm)
    g = [0] * n
    for v in range(n):
        g[perm[v]] = perm[f[v]]
    density = rng.choice((0, 0.1, 0.3))
    return FiniteMapping(
        f=tuple(g), marks={"U": frozenset(v for v in range(n) if rng.random() < density)}
    )


def hub_heavy(n, seed):
    """Two thirds of the elements point at one of three hubs, the rest
    anywhere; a third of them are marked U."""
    rng = random.Random(seed)
    f = tuple(rng.randrange(3) if rng.random() < 2 / 3 else rng.randrange(n) for _ in range(n))
    return FiniteMapping(
        f=f, marks={"U": frozenset(v for v in range(n) if rng.random() < 1 / 3)}
    )
