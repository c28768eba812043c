"""Mapping construction, balls, components, products, residualization."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    broken_cut_products,
    cycle,
    every_marking,
    fixed_point,
    functions_up_to_relabeling,
    path,
    seeded,
    star,
    structurally_equal,
)
from mapprox.errors import (
    BudgetExceeded,
    DuplicatePredicate,
    ElementOutOfRange,
    EmptyDomain,
    EtaNotFunctional,
    OutOfRangeImage,
    SignatureMismatch,
    UnknownPredicate,
)
from mapprox.fmtp import check_fmtp, check_realizability_preconditions
from mapprox import structure as structure_module
from mapprox import localtypes
from mapprox.localtypes import TypeTable, type_distribution
from mapprox.logic import apply_interpretation, recovery_interpretation
from mapprox.structure import (
    FiniteMapping,
    Signature,
    ball,
    connected_components,
    cut_product_layers,
    cycle_cut_product,
    cycle_lengths,
    cycle_orbits,
    cyclic_part,
    disjoint_union,
    distance,
    mark_element,
    preimage,
    recover,
    residualize,
    restrict,
    validate,
)
from oracles import restrict_by_scan, strict_iterated_preimages


class TestConstruction:
    def test_identity_fixed_point(self):
        F = FiniteMapping(f=(0,))
        assert F.n == 1 and F.f[0] == 0

    def test_out_of_range_image(self):
        with pytest.raises(OutOfRangeImage):
            FiniteMapping(f=(0, 5))

    def test_only_ints_are_elements(self):
        # True == 1, but a map file writes it as "True", which no reader
        # takes back, and a structure file writes it as JSON true.
        with pytest.raises(OutOfRangeImage):
            FiniteMapping(f=(True, 0))
        with pytest.raises(OutOfRangeImage):
            validate({"f": [True, 0]})
        for members in ([True], [False, 1], [1, True], ["0"], [0.0]):
            with pytest.raises(ElementOutOfRange):
                validate({"f": [1, 0], "marks": {"U": members}})

    def test_marked_three_cycle(self):
        F = FiniteMapping(f=(1, 2, 0), marks={"M1": frozenset({0})})
        assert F.marks["M1"] == frozenset({0})
        assert F.signature.predicates == ("M1",)

    def test_empty_domain(self):
        with pytest.raises(EmptyDomain):
            FiniteMapping(f=())

    def test_validate_raw(self):
        F = validate({"f": [1, 2, 0], "marks": {"M1": [0]}})
        assert F.n == 3 and F.marks["M1"] == frozenset({0})

    def test_duplicate_predicate(self):
        with pytest.raises(DuplicatePredicate):
            Signature(("P", "P"))


    def test_marks_of_matches_per_predicate_definition(self):
        structures = [seeded(30, seed) for seed in range(4)]
        structures.append(
            validate(
                {
                    "f": [1, 2, 0, 3],
                    "predicates": ["V", "U", "W"],
                    "marks": {"U": [0, 3], "V": [0], "W": [2, 3]},
                }
            )
        )
        structures.append(cycle_cut_product(seeded(12, 5), 6, 3))
        for F in structures:
            for v in F.elements():
                want = frozenset(
                    name for name in F.signature.predicates if v in F.marks[name]
                )
                assert F.marks_of(v) == want, (F, v)

    def test_marks_of_rejects_out_of_range(self):
        F = seeded(5, 0)
        for v in (-1, -5, 5):
            with pytest.raises(ElementOutOfRange):
                F.marks_of(v)

class TestPreimage:
    def test_identity(self):
        assert preimage(FiniteMapping(f=(0,)), 0) == (0,)

    def test_star_center(self):
        assert set(preimage(star(3), 0)) == {0, 1, 2, 3}

    def test_three_cycle(self):
        assert preimage(cycle(3), 0) == (2,)

    def test_preimage_sizes_sum_to_n(self):
        for seed in range(5):
            F = seeded(20, seed)
            assert sum(len(preimage(F, v)) for v in F.elements()) == F.n


class TestDistanceAndBall:
    def test_self_distance(self):
        assert distance(cycle(5), 2, 2) == 0

    def test_four_cycle_opposite(self):
        assert distance(cycle(4), 0, 2) == 2

    def test_disconnected_is_infinite(self):
        two = FiniteMapping(f=(0, 1))
        assert distance(two, 0, 1) == math.inf

    def test_metric_axioms_small(self):
        F = seeded(12, 3)
        for u in F.elements():
            for v in F.elements():
                duv = distance(F, u, v)
                assert duv == distance(F, v, u)
                assert (duv == 0) == (u == v)
                for w in F.elements():
                    dvw, duw = distance(F, v, w), distance(F, u, w)
                    if duv < math.inf and dvw < math.inf:
                        assert duw <= duv + dvw

    def test_ball_radius_zero(self):
        assert ball(cycle(7), 3, 0) == frozenset({3})

    def test_star_leaf_ball(self):
        assert ball(star(3), 1, 1) == frozenset({0, 1})

    def test_star_center_ball(self):
        assert ball(star(3), 0, 1) == frozenset({0, 1, 2, 3})


class TestComponentsAndCycles:
    def test_cycle_plus_fixed_point(self):
        F = disjoint_union(cycle(3), fixed_point())
        sizes = sorted(len(c) for c in connected_components(F))
        assert sizes == [1, 3]

    def test_single_cycle_one_part(self):
        assert len(connected_components(cycle(9))) == 1

    def test_all_to_one(self):
        F = FiniteMapping(f=(1, 1, 1))
        assert connected_components(F) == [frozenset({0, 1, 2})]

    def test_cyclic_part_of_cycle(self):
        Z, heights = cyclic_part(cycle(3))
        assert Z == frozenset({0, 1, 2})
        assert all(heights[v] == 0 for v in range(3))

    def test_tail_into_two_cycle(self):
        Z, heights = cyclic_part(FiniteMapping(f=(1, 2, 1)))
        assert Z == frozenset({1, 2})
        assert heights[0] == 1

    def test_identity_all_cyclic(self):
        Z, heights = cyclic_part(FiniteMapping(f=tuple(range(5))))
        assert Z == frozenset(range(5))
        assert set(heights.values()) == {0}

    def test_cycle_lengths(self):
        F = disjoint_union(cycle(3), disjoint_union(cycle(3), fixed_point()))
        assert sorted(cycle_lengths(F)) == [1, 3, 3]

    def test_cycle_orbits_exhaustive(self):
        # every mapping with n <= 5: 1 + 4 + 27 + 256 + 3125 = 3413 of them
        checked = 0
        for n in range(1, 6):
            for f in itertools.product(range(n), repeat=n):
                F = FiniteMapping(f=f)
                period = {}  # least k >= 1 with f^k(v) == v, cyclic v only
                for v in range(n):
                    x = v
                    for k in range(1, n + 1):
                        x = f[x]
                        if x == v:
                            period[v] = k
                            break
                orbits = cycle_orbits(F)
                assert [orbit[0] for orbit in orbits] == sorted(
                    min(orbit) for orbit in orbits
                )
                length_of = {}
                for orbit in orbits:
                    for i, v in enumerate(orbit):
                        assert f[v] == orbit[(i + 1) % len(orbit)]
                        assert v not in length_of
                        length_of[v] = len(orbit)
                assert length_of == period
                # a k-cycle holds exactly k elements of period k
                counts = Counter(period.values())
                assert cycle_lengths(F) == sorted(
                    k for k, count in counts.items() for _ in range(count // k)
                )
                assert cyclic_part(F)[0] == frozenset(period)
                assert F.cycle_length == tuple(period.get(v, 0) for v in range(n))
                checked += 1
        assert checked == 3413

    def test_cycles_are_walked_once(self, monkeypatch):
        # One structure's cycle table is built once, by the twin rule of the
        # type kernel here, and every later reader takes it from there.
        walks = []
        build = FiniteMapping.cycle_table.func

        def counted(F):
            walks.append(F)
            return build(F)

        monkeypatch.setattr(FiniteMapping.cycle_table, "func", counted)
        # A 2-cycle 0 <-> 1; 2 and 3 are twin preimages of 0, each under
        # one leaf.
        F = FiniteMapping(f=(1, 0, 0, 0, 2, 3))
        mu = type_distribution(F, 3, TypeTable())
        assert walks == [F]
        assert cycle_orbits(F) == [(0, 1)]
        assert cycle_lengths(F) == [2]
        assert cyclic_part(F) == (frozenset({0, 1}), {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2})
        report = check_realizability_preconditions(mu, 1)
        assert not report.check("no-short-cycles").passed
        assert walks == [F]


class TestUnionRestrictMark:
    def test_union_sizes(self):
        assert disjoint_union(cycle(3), fixed_point()).n == 4

    def test_union_signature_mismatch(self):
        with pytest.raises(SignatureMismatch):
            disjoint_union(cycle(3), fixed_point({"P": frozenset({0})}))

    def test_union_of_several_matches_nested_pairs(self):
        A, B = seeded(5, 1, Fraction(1, 2)), seeded(4, 2, Fraction(1, 2))
        C = fixed_point({"U": frozenset({0})})
        assert structurally_equal(disjoint_union(A), A)
        nested = disjoint_union(disjoint_union(A, B), C)
        assert structurally_equal(disjoint_union(A, B, C), nested)
        with pytest.raises(SignatureMismatch):
            disjoint_union(A, B, cycle(3))

    def test_union_component_count_adds(self):
        A, B = seeded(10, 1), seeded(14, 2)
        union = disjoint_union(A, B)
        assert len(connected_components(union)) == len(
            connected_components(A)
        ) + len(connected_components(B))

    def test_restrict_redirects_escapes(self):
        F = restrict(path(3), {0, 1})
        assert F.f == (1, 1)

    def test_restrict_full_domain(self):
        F = cycle(4)
        assert structurally_equal(restrict(F, range(4)), F)

    def test_restrict_preserves_transport_identity(self):
        # subset pairs of the restriction still balance exactly
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(3, 7)
            F = FiniteMapping(f=tuple(rng.randrange(n) for _ in range(n)))
            keep = [v for v in range(n) if rng.random() < 0.7] or [0]
            G = restrict(F, keep)
            for A_bits in range(1 << G.n):
                A = {v for v in range(G.n) if A_bits >> v & 1}
                B = {v for v in range(G.n) if rng.random() < 0.5}
                assert check_fmtp(G, A, B)

    def test_restrict_matches_scan_exhaustive(self):
        # Every mapping on n <= 4 up to relabelling, every marking by two
        # predicates, every nonempty X.
        checked = 0
        for n in range(1, 5):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("P", "Q")):
                    for bits in range(1, 1 << n):
                        X = [v for v in range(n) if bits >> v & 1]
                        fast, slow = restrict(F, X), restrict_by_scan(F, X)
                        assert structurally_equal(fast, slow), (f, F.marks, X)
                        assert fast.mark_sets == slow.mark_sets
                        checked += 1
        assert checked > 50_000

    def test_restrict_matches_scan_on_cut_product_balls(self):
        for seed in range(4):
            H = cycle_cut_product(seeded(10, seed), 6, 3, TypeTable())
            assert len(H.signature.predicates) > 8
            for v in H.elements():
                for radius in range(1, 5):
                    X = ball(H, v, radius)
                    fast, slow = restrict(H, X), restrict_by_scan(H, X)
                    assert structurally_equal(fast, slow), (seed, v, radius)
                    assert list(fast.marks) == list(H.signature.predicates)

    def test_undeclared_mark_rejected_on_wide_signature(self):
        signature = Signature(tuple(f"P{i}" for i in range(184)))
        marks = {"P5": {0}, "Q": {1}, "P183": {1}, "R": {0}}
        with pytest.raises(UnknownPredicate) as raised:
            FiniteMapping(f=(1, 0), marks=marks, signature=signature)
        assert raised.value.name == "Q"  # the first undeclared, in marks order
        with pytest.raises(UnknownPredicate):
            validate({"f": [1, 0], "predicates": list(signature.predicates), "marks": marks})
        F = FiniteMapping(f=(1, 0), marks={"P183": {1}, "P5": {0}}, signature=signature)
        assert list(F.marks) == list(signature.predicates)
        assert F.marks["P0"] == frozenset() and F.marks_of(1) == {"P183"}

    def test_mark_outside_domain_rejected(self):
        for marks in ({"P": {0, 2}}, {"P": {-1}}, {"P": set(), "Q": {1, 5}}):
            with pytest.raises(ElementOutOfRange):
                FiniteMapping(f=(1, 0), marks=marks)

    def test_mark_element(self):
        F = mark_element(cycle(3), "P", [0])
        assert F.marks["P"] == frozenset({0})
        assert F.f == cycle(3).f

    def test_mark_rejects_known_name(self):
        with pytest.raises(DuplicatePredicate):
            mark_element(fixed_point({"P": frozenset({0})}), "P", [0])


class TestCycleCutProduct:
    def test_three_cycle_times_six(self):
        P = cycle_cut_product(cycle(3), 6, 0)
        assert P.n == 18
        assert sorted(cycle_lengths(P)) == [6, 6, 6]

    def test_fixed_point_times_two(self):
        P = cycle_cut_product(fixed_point(), 2, 0)
        assert P.n == 2 and sorted(cycle_lengths(P)) == [2]

    def test_layer_mark_discipline(self):
        F = seeded(15, 4)
        m = 6
        P = cycle_cut_product(F, m, 1)
        layers = [F"U{i}" for i in range(m)]
        for v in P.elements():
            holding = [name for name in layers if v in P.marks[name]]
            assert len(holding) == 1
            layer = int(holding[0][1:])
            succ = P.f[v]
            assert succ in P.marks[f"U{(layer + 1) % m}"]

    def test_no_short_cycles_and_multiples(self):
        for seed in range(3):
            F = seeded(25, seed)
            P = cycle_cut_product(F, 6, 1)
            for length in cycle_lengths(P):
                assert length >= 6 and length % 6 == 0

    def test_size_over_budget_is_refused_before_typing(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("no type may be computed over budget")

        monkeypatch.setattr(structure_module, "MAX_PRODUCT_SIZE", 17)
        monkeypatch.setattr(localtypes, "local_type", unreachable)
        with pytest.raises(BudgetExceeded) as caught:
            cycle_cut_product(cycle(3), 6, 1)
        assert (caught.value.budget, caught.value.needed) == (17, 18)

    @pytest.mark.parametrize(
        "name", ["T7_acyc", "T0_cyc2", "T12_cyc30", "T01_acyc", "U0", "U1"]
    )
    def test_input_named_like_a_cut_mark_is_refused_before_typing(
        self, monkeypatch, name
    ):
        # rewire would read such a name as a mark the cut added.
        def unreachable(*args, **kwargs):
            raise AssertionError("no type may be computed for a refused input")

        monkeypatch.setattr(localtypes, "local_type", unreachable)
        F = FiniteMapping(f=(1, 0, 2), marks={name: {0}})
        with pytest.raises(DuplicatePredicate) as caught:
            cycle_cut_product(F, 2, 1)
        assert caught.value.name == name
        # Names that only resemble one are kept.
        kept = FiniteMapping(
            f=(1, 0, 2), marks={"T7_acyclic": {0}, "T_cyc2": {1}, "U2": {2}}
        )
        monkeypatch.undo()
        assert cycle_cut_product(kept, 2, 1).marks["T7_acyclic"] == {0, 1}

    def test_layers_of_a_product_are_recognized(self):
        for m in (2, 3, 6, 12):
            for seed in range(3):
                P = cycle_cut_product(seeded(7, seed, Fraction(1, 2)), m, 1, TypeTable())
                assert cut_product_layers(P) == m

    def test_non_products_are_not_recognized(self):
        P = cycle_cut_product(seeded(7, 2, Fraction(1, 2)), 6, 1, TypeTable())
        for name, broken in broken_cut_products(P).items():
            assert cut_product_layers(broken) == 0, name
        # A single layer mark, or none, names no product.
        assert cut_product_layers(cycle(3)) == 0
        assert cut_product_layers(fixed_point({"U0": {0}})) == 0
        # A predicate U0 that is no layer mark.
        assert cut_product_layers(cycle(4, {"U0": {0}, "U1": {1, 3}})) == 0


class TestResidualize:
    def test_ten_cycle_split(self):
        R, _ = residualize(cycle(10), Fraction(2, 5))
        sizes = sorted(len(c) for c in connected_components(R))
        assert sizes == [5, 5]

    def test_already_residual_unchanged(self):
        F = FiniteMapping(f=(0, 1, 2, 3))
        R, interp = residualize(F, Fraction(1, 2))
        assert structurally_equal(R, F)

    def test_component_bound(self):
        for seed in range(4):
            F = seeded(40, seed)
            eps = Fraction(1, 8)
            R, _ = residualize(F, eps)
            bound = math.ceil(eps * F.n) + 1
            assert all(len(c) <= bound for c in connected_components(R))

    def test_interpretation_recovers_input(self):
        for seed in range(4):
            F = seeded(30, seed)
            R, pairs = residualize(F, Fraction(1, 6))
            assert pairs
            assert structurally_equal(recover(R, pairs), F)

    def test_recover_matches_interpretation(self):
        taken = FiniteMapping(
            f=tuple((i + 1) % 24 for i in range(24)),
            marks={"A1": frozenset({3}), "B1": frozenset({5, 7})},
        )
        cases = [seeded(30, seed) for seed in range(4, 8)]
        cases += [seeded(24, 9, Fraction(1, 2)), taken]
        for F in cases:
            R, pairs = residualize(F, Fraction(1, 6))
            assert pairs
            fast = recover(R, pairs)
            oracle = apply_interpretation(recovery_interpretation(pairs), R)
            for back in (fast, oracle):
                assert structurally_equal(back, F)
        assert pairs[0] == ("A2", "B2")

    def test_preimage_counts_match_bfs_oracle(self, monkeypatch):
        # Every mapping with n <= 5, then seeded ones: the same counts, and
        # residualize cuts the same pairs in the same order when it reads
        # the oracle's counts instead.
        def bfs_counts(F):
            return [len(e) for e in strict_iterated_preimages(F)]

        cases = [
            FiniteMapping(f=f)
            for n in range(1, 6)
            for f in itertools.product(range(n), repeat=n)
        ]
        cases += [seeded(n, seed) for n in (20, 60) for seed in range(6)]
        cases += [path(40), star(30)]
        epsilons = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2))
        fast = []
        for F in cases:
            assert structure_module._strict_preimage_counts(F) == bfs_counts(F)
            fast.extend(residualize(F, eps) for eps in epsilons)
        monkeypatch.setattr(structure_module, "_strict_preimage_counts", bfs_counts)
        slow = [residualize(F, eps) for F in cases for eps in epsilons]
        for (R1, pairs1), (R2, pairs2) in zip(fast, slow):
            assert pairs1 == pairs2
            assert structurally_equal(R1, R2)

    def test_recover_rejects_two_targets(self):
        R = FiniteMapping(
            f=(0, 1, 2, 3),
            marks={"A1": frozenset({0}), "B1": frozenset({1, 2})},
        )
        pairs = [("A1", "B1")]
        with pytest.raises(EtaNotFunctional):
            recover(R, pairs)
        with pytest.raises(EtaNotFunctional):
            apply_interpretation(recovery_interpretation(pairs), R)
