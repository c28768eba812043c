"""Pinned map-file digests of compression and the cycle-cut product, and
pinned measure-file digests.

The sha256 of `dump_map` output for fixed inputs, recorded before the orbit
walks in `compress` and `structure` were folded into one helper; the
`leafy-900-6` cases were recorded before `compress` grouped kept elements
by component in one pass.  The measure digests are the sha256 of
`json.dumps(measure_to_json(mu))` for the rank-3 measure of a cut product,
recorded before `restrict` built witness marks from the kept elements'
mark sets: measure format version 1 is byte-identical.  Run this file as a
script to print the digests of the current code.
"""

import hashlib
import json
import random

import pytest

from helpers import seeded
from mapprox.compress import standard_r_approximation
from mapprox.localtypes import TypeTable, type_distribution
from mapprox.mapfile import dump_map, measure_to_json
from mapprox.structure import FiniteMapping, cycle_cut_product, cycle_lengths


def several_cycles(seed: int, n: int = 60) -> FiniteMapping:
    """Eight cycles (three of them fixed points) with shallow random trees
    hanging off the first 16 elements, relabelled at random so that no cycle
    starts at a round id."""
    rng = random.Random(seed)
    f: list[int] = []
    for length in (1, 1, 2, 2, 3, 3, 1, 4):
        base = len(f)
        f.extend(base + (i + 1) % length for i in range(length))
    while len(f) < n:
        f.append(rng.randrange(min(len(f), 16)))
    perm = list(range(n))
    rng.shuffle(perm)
    g = [0] * n
    for v in range(n):
        g[perm[v]] = perm[f[v]]
    marked = frozenset(v for v in range(n) if rng.random() < 0.3)
    return FiniteMapping(f=tuple(g), marks={"U": marked})


def leafy_two_cycles(seed: int, count: int = 300) -> FiniteMapping:
    """`count` two-cycles with one leaf each, marked and relabelled at
    random: many small components, so compression cost per component
    shows."""
    rng = random.Random(seed)
    f: list[int] = []
    for _ in range(count):
        base = len(f)
        f.extend((base + 1, base, base))
    n = len(f)
    perm = list(range(n))
    rng.shuffle(perm)
    g = [0] * n
    for v in range(n):
        g[perm[v]] = perm[f[v]]
    marked = frozenset(v for v in range(n) if rng.random() < 0.3)
    return FiniteMapping(f=tuple(g), marks={"U": marked})


INPUTS = {
    "seeded-40-1": lambda: seeded(40, 1),
    "seeded-60-5": lambda: seeded(60, 5),
    "cycles-60-3": lambda: several_cycles(3),
    "seeded-12-2": lambda: seeded(12, 2),
    "cycles-30-4": lambda: several_cycles(4, 30),
    "leafy-900-6": lambda: leafy_two_cycles(6),
}

CASES = {
    **{
        f"compress-r{r}-{name}": (name, r)
        for name in ("seeded-40-1", "seeded-60-5", "cycles-60-3")
        for r in (0, 1, 2)
    },
    "compress-r1-leafy-900-6": ("leafy-900-6", 1),
    "compress-r2-leafy-900-6": ("leafy-900-6", 2),
    "cut-6-3-seeded-12-2": ("seeded-12-2", None),
    "cut-6-3-cycles-30-4": ("cycles-30-4", None),
}

# name: sha256 of dump_map(build(name))
GOLDEN = {
    "compress-r0-cycles-60-3":
        "852dfdc8b766c82dfd5fe13b242e400d2b920ddc9885ad27dd393838172ab6a1",
    "compress-r0-seeded-40-1":
        "39cdc5db60b4c23cf983eedca3cb26700b667f5f559c3df520332da75c78db05",
    "compress-r0-seeded-60-5":
        "f1db14d6aac83fdf23035897ff697ce1bc73e933605f873b5a2f1843cad245d9",
    "compress-r1-cycles-60-3":
        "edb30b4a1e5c2fcbe3679da92d6300c9076be1a2c064760e93fd9a8fdcca18f9",
    "compress-r1-leafy-900-6":
        "2d59ee547e551c58ca58a1707aba947bf72ff8d840db1ec683fde57589c242fd",
    "compress-r1-seeded-40-1":
        "4e2e5f25006d4b8b858e9454fa1c7c0bf2292ea91c867b3bf879213e7784bbf3",
    "compress-r1-seeded-60-5":
        "4f0209276c3036f9a573b18813bc319f772455b56c18d21e827e864abe26d87a",
    "compress-r2-cycles-60-3":
        "10e448ee74b75514fdf54fdcd011d02f1da5ee6d93438988722cf150048ba089",
    "compress-r2-leafy-900-6":
        "b80b73ea6e6b01beb1e24d15bbccfb248a81b74c1278d7fac04a1a50331b6516",
    "compress-r2-seeded-40-1":
        "4e2e5f25006d4b8b858e9454fa1c7c0bf2292ea91c867b3bf879213e7784bbf3",
    "compress-r2-seeded-60-5":
        "21ab33a39c8fbfd45429f44c4f2798a964274d537dfe1c8c064c20dad7d3bb06",
    "cut-6-3-cycles-30-4":
        "0cf77f1b9cb63994263aee86ca781c27bb2fa8c9baf91a914c4e32f3c7eaf9a7",
    "cut-6-3-seeded-12-2":
        "79ba91835f47b7247386237a97064b729d3de0ee349a5136d00431d613224707",
}


# source: sha256 of json.dumps(measure_to_json(mu)), mu the rank-3 type
# distribution of cycle_cut_product(source, 6, 3)
MEASURE_GOLDEN = {
    "seeded-12-2":
        "93e84fd2d877e2856b4fe1f0041fe6a2d61bf0f27e8e20d37d98733e61815f49",
    "cycles-30-4":
        "b02a9ec2a09a6aba707920650962be7b9fc91b7164b17360db63dffa509b65e8",
    "seeded-60-5":
        "c99b46451389a9dc0143aaaf6225d768e94e88978cf4567502e615a885da30f1",
}


def build(name: str) -> FiniteMapping:
    source, r = CASES[name]
    F = INPUTS[source]()
    if r is None:
        return cycle_cut_product(F, 6, 3, TypeTable())
    return standard_r_approximation(F, r)


def digest(name: str) -> str:
    return hashlib.sha256(dump_map(build(name)).encode()).hexdigest()


def measure_digest(source: str) -> str:
    table = TypeTable()
    mu = type_distribution(cycle_cut_product(INPUTS[source](), 6, 3, table), 3, table)
    return hashlib.sha256(json.dumps(measure_to_json(mu)).encode()).hexdigest()


def test_inputs_have_several_cycles_and_fixed_points():
    for source in ("cycles-60-3", "cycles-30-4"):
        lengths = cycle_lengths(INPUTS[source]())
        assert lengths == [1, 1, 1, 2, 2, 3, 3, 4]


@pytest.mark.parametrize("name", sorted(CASES))
def test_map_digest_pinned(name):
    assert digest(name) == GOLDEN[name]


@pytest.mark.parametrize("source", sorted(MEASURE_GOLDEN))
def test_measure_digest_pinned(source):
    assert measure_digest(source) == MEASURE_GOLDEN[source]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(CASES)}, indent=4))
    print(json.dumps({s: measure_digest(s) for s in sorted(MEASURE_GOLDEN)}, indent=4))
