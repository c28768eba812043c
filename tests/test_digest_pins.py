"""Pinned map-file digests of compression and the cycle-cut product, and
pinned measure-file digests.

The sha256 of `dump_map` output for fixed inputs, recorded before the orbit
walks in `compress` and `structure` were folded into one helper; the
`leafy-900-6` cases were recorded before `compress` grouped kept elements
by component in one pass; the r = 3 cases and the 20,000-element path and
fan were recorded before `compress` replaced its prune-until-stable loop
with one pass over sibling counts capped at r.  The measure digests are
the sha256 of `json.dumps(measure_to_json(mu))` for the rank-3 measure of
a cut product,
recorded before `restrict` built witness marks from the kept elements'
mark sets: measure format version 1 is byte-identical.  The certificate
pins (the `certificate_digest`, or the `Violation` text, at r = 0, 1 and 2)
and the repair pins (the masses `approximate_measure` returns, or its
`Infeasible` text) were recorded before the certificate solver and the
linear program read their balance equations from one builder.  The
certificate JSON digests are the sha256 of
`json.dumps(certificate_to_json(cert))` for the r = 1 certificate of each
pinned measure, recorded before witnesses were written straight from the
ball instead of through `restrict`.  Each case
runs in a fresh type table, since canonical ids count the types a table has
met.  Run this file as a script to print the digests of the current code.
"""

import hashlib
import json
import random

from fractions import Fraction

import pytest

from helpers import marked_fan, marked_path, perturbed, seeded, star
from mapprox.compress import standard_r_approximation
from mapprox.errors import Infeasible
from mapprox.fmtp import Violation, approximate_measure, restricted_fmtp_certificate
from mapprox.localtypes import TypeMeasure, TypeTable, local_type, type_distribution
from mapprox.mapfile import certificate_to_json, dump_map, measure_to_json
from mapprox.realize import certificate_digest
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
    "path-20000-7": lambda: marked_path(7),
    "fan-20000-8": lambda: marked_fan(8),
}

CASES = {
    **{
        f"compress-r{r}-{name}": (name, r)
        for name in ("seeded-40-1", "seeded-60-5", "cycles-60-3")
        for r in (0, 1, 2, 3)
    },
    **{
        f"compress-r{r}-{name}": (name, r)
        for name in ("path-20000-7", "fan-20000-8")
        for r in (1, 2, 3)
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
    # recorded before compress classified elements in one pass
    "compress-r1-fan-20000-8":
        "5bb0565e8aebd2b7ad7456228a03f3751103b4233ef5057cd5ca8bda6bacd0a3",
    "compress-r1-path-20000-7":
        "30db5f6874719b2371bbce768d16cc95307f3e928a09d0e3f2576f701bc13763",
    "compress-r2-fan-20000-8":
        "3ca76f07bf8d9670b8d02409b0330621172c18d6f20b6ed710d2d22977cd832b",
    "compress-r2-path-20000-7":
        "30db5f6874719b2371bbce768d16cc95307f3e928a09d0e3f2576f701bc13763",
    "compress-r3-cycles-60-3":
        "fad7341c393f432498739d6607bf0364a461ed2b8d51fb46222ddddd31d0e5af",
    "compress-r3-fan-20000-8":
        "9c6e5c07012f20ff42acf2aa4b4e434ed6bb3b034af73239c0862d719a21b638",
    "compress-r3-path-20000-7":
        "30db5f6874719b2371bbce768d16cc95307f3e928a09d0e3f2576f701bc13763",
    "compress-r3-seeded-40-1":
        "4e2e5f25006d4b8b858e9454fa1c7c0bf2292ea91c867b3bf879213e7784bbf3",
    "compress-r3-seeded-60-5":
        "585d05abff7c6ba5fd912f8a2384ec273859e3b3714cb3589c536dcd4e6b2188",
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


# source: sha256 of json.dumps(certificate_to_json(cert)), cert the r = 1
# certificate of the measure MEASURE_GOLDEN pins for that source
CERTIFICATE_JSON_GOLDEN = {
    "seeded-12-2":
        "ecbe5616cc8abff5806353c39a1ef0c2cea881bd44de9bab376370501ee058a3",
    "cycles-30-4":
        "ef3c3e5858947796b961f0fb339ac6273568f3f66dc30bde3ecff430177d3980",
    "seeded-60-5":
        "49a4b96903716776d039ac051b4de557ce5bd8a0481d0263c96d1feaeac84873",
}


def product_measure(n: int, seed: int, rank: int, table: TypeTable) -> TypeMeasure:
    """The rank-`rank` measure of seeded(n, seed)'s 6-layer cut product."""
    return type_distribution(cycle_cut_product(seeded(n, seed), 6, 3, table), rank, table)


def unmarked_part(F: FiniteMapping, rank: int, table: TypeTable) -> TypeMeasure:
    """F's measure conditioned on the U-unmarked elements: where one of them
    maps onto a marked element, flow goes into a class without mass, which
    breaks the balance equations at every r, r = 0 included."""
    kept = [(t, mass) for t, mass in type_distribution(F, rank, table)
            if t.element not in F.marks["U"]]
    total = sum(mass for _, mass in kept)
    return TypeMeasure.from_pairs(rank, [(t, mass / total) for t, mass in kept])


# name: rank-5 measure built in the given table
MEASURES = {
    "seeded-15-2": lambda table: type_distribution(seeded(15, 2), 5, table),
    "seeded-12-5": lambda table: type_distribution(seeded(12, 5), 5, table),
    "perturbed-seeded-15-2": lambda table: perturbed(
        type_distribution(seeded(15, 2), 5, table)
    ),
    "cut-seeded-6-1": lambda table: product_measure(6, 1, 5, table),
    "perturbed-cut-seeded-4-1": lambda table: perturbed(product_measure(4, 1, 5, table)),
    "unmarked-seeded-15-3": lambda table: unmarked_part(seeded(15, 3), 5, table),
    "star-leaf": lambda table: TypeMeasure.from_pairs(
        5, [(local_type(star(3, {"U": {0}}), 1, 5, table), Fraction(1))]
    ),
}

# measure: [outcome at r = 0, 1, 2], each the certificate_digest of the
# certificate or the text of the Violation
CERTIFICATE_GOLDEN = {
    "cut-seeded-6-1": [
        "6c2a39b2003dacd478cfbf75e6e9869db9be876ca8bedb618891f9bad90a23a5",
        "c56a8c97b6357bb491ea46cfa93d125cfeeced645927cc19f9881ef1aede189d",
        "caf8081ea3446057efc839ff63e225266590d85841ebad13d9d541d386544f55",
    ],
    "perturbed-cut-seeded-4-1": [
        "4d44a7374d7c1c8944d53febd86a5401b71d615b6088ffca00f5255ced50ac09",
        "balance: flow into LocalType(rank=1, id=28) from LocalType(rank=1, id=72)-typed mass is at least 1/24, but the left side is 61/1500",
        "balance: flow into LocalType(rank=2, id=94) from LocalType(rank=2, id=95)-typed mass is forced to 1/24, needed 61/1500",
    ],
    "perturbed-seeded-15-2": [
        "d786876de588f671bb69bd4937f94f128af5f3d5095b0a59dafc50dfe9bcc12a",
        "balance: flow into LocalType(rank=1, id=29) from LocalType(rank=1, id=15)-typed mass is at least 203/3000, but the left side is 1/15",
        "balance: flow into LocalType(rank=2, id=40) from LocalType(rank=2, id=41)-typed mass is forced to 1/15, needed 203/3000",
    ],
    "seeded-12-5": [
        "beda0df077d1f33c67e49bc6622f971bfcd30182cd33eb368282612839f73dff",
        "9b035db3ef10c83042c358fc19aa77a858baf3712cc29f3988184580df349dbd",
        "cc4b644355d93c7c5bd6abc0d511be5b0999b2f88865eb7afe87d5c73a79be3f",
    ],
    "seeded-15-2": [
        "bc47a053f8d97aad1aa167afbe19d1aaf0ae4c553aad8845db97b3db4b5d6936",
        "9965e31925cb04b1302b0ca7ea5632d377fd5dbca5170e997105778845152613",
        "a2f54465c80ecb39495f0b4e44c29dd0eb774bdda661c6c121fec0a44da144b0",
    ],
    "star-leaf": [
        "balance: flow into LocalType(rank=0, id=1) from LocalType(rank=0, id=3)-typed mass is forced to 0, needed 1",
        "balance: flow into LocalType(rank=1, id=4) from LocalType(rank=1, id=5)-typed mass is forced to 0, needed 1",
        "balance: flow into LocalType(rank=2, id=6) from LocalType(rank=2, id=7)-typed mass is forced to 0, needed 1",
    ],
    "unmarked-seeded-15-3": [
        "balance: flow into LocalType(rank=0, id=15) from LocalType(rank=0, id=17)-typed mass is forced to 0, needed 2/11",
        "balance: flow into LocalType(rank=1, id=26) from LocalType(rank=1, id=27)-typed mass is forced to 0, needed 1/11",
        "balance: flow into LocalType(rank=2, id=33) from LocalType(rank=2, id=34)-typed mass is forced to 0, needed 1/11",
    ],
}

# name: (measure builder, eps, r) for approximate_measure
REPAIRS = {
    "cut-3-1": (lambda table: perturbed(product_measure(3, 1, 3, table)), Fraction(1, 100), 1),
    "cut-3-7": (lambda table: perturbed(product_measure(3, 7, 3, table)), Fraction(1, 100), 1),
    "cut-4-3": (lambda table: perturbed(product_measure(4, 3, 3, table)), Fraction(1, 100), 1),
    "cut-3-1-tight": (
        lambda table: perturbed(product_measure(3, 1, 3, table)), Fraction(1, 10**6), 1
    ),
    "unmarked-seeded-15-3-r0": (
        lambda table: unmarked_part(seeded(15, 3), 3, table), Fraction(1, 10), 0
    ),
}

# name: sha256 of the repaired masses, one "p/q" per line, or the Infeasible text
REPAIR_GOLDEN = {
    "cut-3-1":
        "9fc1544f6d001667d195a9cbd57dd8a70868dcbe167a34ee64d3a9b19ecfb52e",
    "cut-3-1-tight":
        "balance: flow into LocalType(rank=1, id=21) from LocalType(rank=1, id=24)-typed mass is at least 1/18, but the left side is 491/9000; no measure on the same support with positive masses meets the balance equations within L1 distance 1/1000000",
    "cut-3-7":
        "9c5d147a1ce34401140f5fefa01a06b0165edb6f459e318f21ac61f39b6fcb7c",
    "cut-4-3":
        "796bfd30c37a44ebcf46cd35e3c31c32470f980075f5af22a19447c0afcb059e",
    "unmarked-seeded-15-3-r0":
        "balance: flow into LocalType(rank=0, id=15) from LocalType(rank=0, id=17)-typed mass is forced to 0, needed 2/11; no measure on the same support with positive masses meets the balance equations within L1 distance 1/10",
}


def certificate_outcomes(name: str) -> list[str]:
    mu = MEASURES[name](TypeTable())
    outcomes = []
    for r in (0, 1, 2):
        cert = restricted_fmtp_certificate(mu, r)
        outcomes.append(str(cert) if isinstance(cert, Violation) else certificate_digest(cert))
    return outcomes


def repair_outcome(name: str) -> str:
    build_measure, eps, r = REPAIRS[name]
    try:
        out = approximate_measure(build_measure(TypeTable()), eps, r)
    except Infeasible as failure:
        return str(failure)
    masses = "\n".join(str(mass) for _, mass in out)
    return hashlib.sha256(masses.encode()).hexdigest()


def build(name: str) -> FiniteMapping:
    source, r = CASES[name]
    F = INPUTS[source]()
    if r is None:
        return cycle_cut_product(F, 6, 3, TypeTable())
    return standard_r_approximation(F, r)


def digest(name: str) -> str:
    return hashlib.sha256(dump_map(build(name)).encode()).hexdigest()


def source_measure(source: str) -> TypeMeasure:
    table = TypeTable()
    return type_distribution(cycle_cut_product(INPUTS[source](), 6, 3, table), 3, table)


def measure_digest(source: str) -> str:
    mu = source_measure(source)
    return hashlib.sha256(json.dumps(measure_to_json(mu)).encode()).hexdigest()


def certificate_json_digest(source: str) -> str:
    cert = restricted_fmtp_certificate(source_measure(source), 1)
    return hashlib.sha256(json.dumps(certificate_to_json(cert)).encode()).hexdigest()


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


@pytest.mark.parametrize("source", sorted(CERTIFICATE_JSON_GOLDEN))
def test_certificate_json_digest_pinned(source):
    assert certificate_json_digest(source) == CERTIFICATE_JSON_GOLDEN[source]


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_certificate_outcomes_pinned(name):
    assert certificate_outcomes(name) == CERTIFICATE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REPAIRS))
def test_repair_outcome_pinned(name):
    assert repair_outcome(name) == REPAIR_GOLDEN[name]


if __name__ == "__main__":
    print(json.dumps({name: digest(name) for name in sorted(CASES)}, indent=4))
    print(json.dumps({s: measure_digest(s) for s in sorted(MEASURE_GOLDEN)}, indent=4))
    print(json.dumps(
        {s: certificate_json_digest(s) for s in sorted(CERTIFICATE_JSON_GOLDEN)}, indent=4
    ))
    print(json.dumps({name: certificate_outcomes(name) for name in sorted(MEASURES)}, indent=4))
    print(json.dumps({name: repair_outcome(name) for name in sorted(REPAIRS)}, indent=4))
