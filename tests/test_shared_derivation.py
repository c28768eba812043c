"""Each support type is derived once per measure and rank.

The certificate's support rows and the transport memo are checked against
direct calls; the integer certificate solver and verify_upsilon's shared
cache against their earlier forms in oracles.py; and a pipeline and a
repair are counted for how often they derive a support type's image.
"""

import importlib
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    every_marking,
    functions_up_to_relabeling,
    mirrored,
    perturbed,
    perturbed_product,
    seeded,
    star,
)
from mapprox.fmtp import (
    Violation,
    approximate_measure,
    restricted_fmtp_certificate,
    verify_certificate,
)
from mapprox.localtypes import (
    TypeMeasure,
    TypeTable,
    adm_minus_table,
    local_type,
    project,
    transport,
    type_distribution,
)
from mapprox.realize import _blocks, pipeline, realize, verify_upsilon
from mapprox.structure import FiniteMapping, cycle_cut_product
from oracles import solve_certificate_by_fractions, verify_upsilon_per_element

# The package exports the function `realize`, which shadows the module.
fmtp_module = importlib.import_module("mapprox.fmtp")
realize_module = importlib.import_module("mapprox.realize")


def assert_rows_are_direct(mu: TypeMeasure, r: int) -> None:
    """mu's support rows at rank r, and transport, against types played
    afresh from each witness: its projection, its image's rank-(R - 1) type
    and that type's projection, and its preimage counts."""
    universe, rows, _, _ = fmtp_module._balance_equations(mu, r)
    assert [tau for tau, *_ in rows] == [tau for tau, _ in mu.entries]
    keys = set()
    for tau, low, img, mass in rows:
        table, (W, w) = tau.table, tau.witness
        image = local_type(W, W.f[w], mu.rank - 1, table)
        assert mass == mu.mass(tau)
        assert low.key == project(tau, r).key == local_type(W, w, r, table).key
        assert transport(tau).key == image.key
        assert transport(tau).witness == (W, W.f[w])
        assert img.key == project(image, r).key
        direct = Counter(local_type(W, u, r, table).key for u in W.pre[w])
        assert adm_minus_table(tau, r) == direct
        keys.update((low.key, img.key))
    assert [t.key for t in universe] == sorted(
        keys, key=lambda k: mu._table.canonical_id(k[1])
    )


def assert_transport_is_direct(F: FiniteMapping, R: int, table: TypeTable) -> None:
    """transport of every element's rank-R type, which other witnesses of
    the same type may have memoized, against the image typed afresh."""
    for v in F.elements():
        got = transport(local_type(F, v, R, table))
        assert got.key == local_type(F, F.f[v], R - 1, table).key


class TestSharedRows:
    def test_small_mappings(self):
        # One table for every structure, so the transport memo is filled by
        # one structure's witnesses and read for another's.
        table = TypeTable()
        for n in range(1, 5):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("U",)):
                    mu = type_distribution(F, 3, table)
                    assert_rows_are_direct(mu, 1)
                    assert_transport_is_direct(F, 3, table)

    @pytest.mark.parametrize("n,seed", [(3, 1), (6, 2), (10, 5), (14, 3)])
    def test_cut_products(self, n, seed):
        # The first table types the plain input (cycle_cut_product types it
        # in the table it is given) before it claims the product's layers,
        # and then plays the mirrored product, which it does not claim, in
        # every layer; the second sees the product alone.
        plain = seeded(n, seed)
        table = TypeTable()
        P = cycle_cut_product(plain, 6, 3, table)
        mu = type_distribution(P, 3, table)
        assert_rows_are_direct(mu, 1)
        assert_transport_is_direct(P, 3, table)
        assert_transport_is_direct(mirrored(P), 3, table)
        assert_transport_is_direct(plain, 3, table)

        fresh = TypeTable()
        mu = type_distribution(cycle_cut_product(plain, 6, 3), 3, fresh)
        assert_rows_are_direct(mu, 1)


def outcome(found):
    """A certificate as its entries, or a violation as its fields, with the
    types of the values, so that Fraction and int are told apart."""
    if isinstance(found, Violation):
        sides = (found.lhs, type(found.lhs), found.rhs, type(found.rhs))
        return (found.check, found.detail, found.t1.key, found.t2.key) + sides
    entries = [(tau.key, t.key, s, type(s)) for tau, t, s in found.entries]
    return found.R, found.r, entries


def certificate_cases():
    """(measure, r) pairs that certify and that break an equation, with
    equal and unequal mass denominators, at r = 0, 1 and 2."""
    cases = []
    for n in range(1, 13):
        for seed in range(3):
            table = TypeTable()
            P = cycle_cut_product(seeded(n, seed), 6, 3, table)
            cases.append((type_distribution(P, 3, table), 1))
            cases.append((type_distribution(P, 1, table), 0))
            cases.append((type_distribution(seeded(n, seed), 1, table), 0))
    for n, seed in [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]:
        mu = perturbed_product(n, seed)
        cases.append((mu, 1))
        cases.append((approximate_measure(mu, Fraction(1, 100), 1), 1))
    table = TypeTable()
    cases.append((perturbed(type_distribution(seeded(8, 4), 1, table)), 0))
    leaf = local_type(star(3, {"U": {0}}), 1, 1, table)
    cases.append((TypeMeasure.from_pairs(1, [(leaf, Fraction(1))]), 0))
    swapped = [(t, Fraction(1, 2)) for t, _ in type_distribution(star(3), 5, table)]
    cases.append((TypeMeasure.from_pairs(5, swapped), 2))
    return cases


class TestIntegerSolver:
    def test_same_certificate_or_violation(self):
        seen = set()
        for mu, r in certificate_cases():
            found = fmtp_module._solve_certificate(mu, r)
            assert outcome(found) == outcome(solve_certificate_by_fractions(mu, r))
            if isinstance(found, Violation):
                seen.add("forced" if " is forced to " in found.detail else "floor")
            else:
                seen.add(("certified", r))
        assert seen == {("certified", 0), ("certified", 1), "forced", "floor"}


def tampered_labellings(G: FiniteMapping, upsilon: dict, mu: TypeMeasure, r: int):
    """(kind, structure, labelling) triples: realize's own labelling, and
    for the first element of each block the label swapped for another
    support type of the same projection and for one of another projection,
    and the element's image redirected to the next element."""
    lows = {tau.key: project(tau, r).key for tau, _ in mu.entries}
    yield "own", G, upsilon
    for tau, elements in _blocks(mu, G.n):
        v = elements[0]
        same = [t for t, _ in mu.entries if t != tau and lows[t.key] == lows[tau.key]]
        other = [t for t, _ in mu.entries if lows[t.key] != lows[tau.key]]
        for swapped in same[:1]:
            yield "same projection", G, {**upsilon, v: swapped}
        for swapped in other[:1]:
            yield "other projection", G, {**upsilon, v: swapped}
        f = list(G.f)
        f[v] = (f[v] + 1) % G.n
        redirected = FiniteMapping(f=tuple(f), marks=G.marks, signature=G.signature)
        yield "image redirected", redirected, upsilon


class TestVerifyUpsilonCache:
    @pytest.mark.parametrize("n,seed,plain", [(4, 1, 1), (7, 2, 2), (12, 5, 3)])
    def test_same_result_as_per_element_check(self, n, seed, plain):
        # A cut product's support types have distinct rank-1 projections,
        # as its type marks record each rank-3 type; a plain structure's
        # share them.  seeded(16, plain) has no 2-cycle, so it realizes.
        table = TypeTable()
        measures = [
            type_distribution(cycle_cut_product(seeded(n, seed), 6, 3, table), 3, table),
            type_distribution(seeded(16, plain), 3, TypeTable()),
            approximate_measure(perturbed_product(3, seed), Fraction(1, 100), 1),
        ]
        results = Counter()
        for measure in measures:
            G = realize(measure, 1)
            upsilon = {v: tau for tau, block in _blocks(measure, G.n) for v in block}
            for kind, F, labels in tampered_labellings(G, upsilon, measure, 1):
                got = verify_upsilon(F, labels, 1)
                assert got == verify_upsilon_per_element(F, labels, 1)
                results[kind, got] += 1
        assert results["own", True] == 3
        assert {kind for kind, _ in results} == {
            "own", "same projection", "other projection", "image redirected"
        }
        assert results["same projection", False] and results["image redirected", False]


class TestDerivedOnce:
    def test_pipeline_types_each_image_once(self, monkeypatch):
        # Count the requests a caller makes, not the games: the table
        # answers a repeated request from its memo, and nv_value's own
        # request for a layer-0 element is not a caller's.
        requests, depth = Counter(), [0]
        real_value = TypeTable.nv_value

        def counted(self, F, tup, k, meter=None):
            if not depth[0]:
                requests[id(F), tup, k] += 1
            depth[0] += 1
            try:
                return real_value(self, F, tup, k, meter)
            finally:
                depth[0] -= 1

        certified = []
        real_certificate = realize_module.restricted_fmtp_certificate

        def kept(mu, r):
            certified.append(mu)
            return real_certificate(mu, r)

        monkeypatch.setattr(TypeTable, "nv_value", counted)
        monkeypatch.setattr(realize_module, "restricted_fmtp_certificate", kept)
        pipeline(seeded(40, 3), 1, 1, Fraction(1, 4))
        (nu,) = certified
        witnesses = Counter()
        for tau, _ in nu.entries:
            W, w = tau.witness
            witnesses[id(W), (W.f[w],), nu.rank - 1] += 1
        for key, count in witnesses.items():
            assert 1 <= requests[key] <= count

    def test_equations_built_once_per_measure_and_rank(self, monkeypatch):
        # Each build of the balance equations derives the support rows once,
        # in _support_universe.
        builds = Counter()
        real = fmtp_module._support_universe

        def counted(mu, r):
            builds[id(mu), r] += 1
            return real(mu, r)

        monkeypatch.setattr(fmtp_module, "_support_universe", counted)
        mu = perturbed_product(3, 1)
        repaired = approximate_measure(mu, Fraction(1, 100), 1)
        cert = restricted_fmtp_certificate(repaired, 1)
        assert verify_certificate(repaired, cert)
        realize(repaired, 1)
        realize(repaired, 1, 2)
        assert verify_certificate(repaired, cert)
        assert builds == {(id(mu), 1): 1, (id(repaired), 1): 1}

    def test_measure_keeps_rows_not_equations(self):
        # The solver builds the balance equations and the LP repair builds
        # them again; neither leaves them on the measure, which keeps only
        # its universe and support rows next to the certificate.
        def held_dicts(value):
            if isinstance(value, dict):
                yield value
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from held_dicts(item)

        table = TypeTable()
        mu = type_distribution(cycle_cut_product(seeded(6, 1), 6, 3, table), 3, table)
        failing = perturbed_product(3, 1)
        realize(mu, 1)
        realize(approximate_measure(failing, Fraction(1, 100), 1), 1)
        for measure in (mu, failing):
            assert measure._per_rank
            assert not list(held_dicts(list(measure._per_rank.values())))
