"""Local types, projections, transport, admissibility, type measures."""

import gc
import itertools
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    cycle,
    cyclic_input,
    every_marking,
    fixed_point,
    functions_up_to_relabeling,
    hub_heavy,
    mirrored,
    seeded,
    star,
    two_level_star,
)
from mapprox import localtypes
from mapprox.equivalence import ldist
from mapprox.errors import (
    BudgetExceeded,
    GameTooDeep,
    MeasureError,
    RankIncrease,
    RankMismatch,
    RankTooLow,
    RankZero,
)
from mapprox.localtypes import (
    Meter,
    TypeMeasure,
    TypeTable,
    adm_minus,
    adm_minus_table,
    adm_plus,
    atom_row,
    local_type,
    measure_tv,
    project,
    transport,
    type_distribution,
    types_equal,
)
from mapprox.logic import evaluate, rank, stone_pairing
from mapprox.mapfile import dump_map, parse_map
from mapprox.structure import FiniteMapping, cycle_cut_product, disjoint_union
from mapprox.randgen import random_mapping
from oracles import (
    UnprunedValues,
    atom_row_scan,
    hintikka_formula,
    local_game,
    pairwise_measure_tv,
    random_clean_formula,
    twin_moves_from_scratch,
)

TABLE = TypeTable()


def t_of(F, v, r):
    return local_type(F, v, r, TABLE)


def copies_on_a_hub(copy, copies):
    """A host (copy itself) followed by `copies` copies of it whose
    U-marked elements all point at host element 0, the way the pipeline
    redirects cut elements of its copies to one host element."""
    n, marked = copy.n, copy.marks["U"]
    f = list(copy.f)
    for c in range(1, copies + 1):
        f.extend(0 if v in marked else c * n + copy.f[v] for v in copy.elements())
    return FiniteMapping(
        f=tuple(f),
        marks={"U": frozenset(c * n + v for c in range(copies + 1) for v in marked)},
    )


def value_pairs(table, oracle, F, tuples, ranks):
    """(kernel value, unpruned oracle value) for every tuple at every rank,
    ranks in the given order."""
    return [
        (table.nv_value(F, tup, r), oracle.value(F, tup, r))
        for r in ranks
        for tup in tuples
    ]


def played_tuples(monkeypatch, F):
    """A list that gains every tuple the kernel plays in F from now on,
    recorded by wrapping TypeTable._nv, which plays each position once;
    every argument after the tuple is passed through as it came."""
    played = []
    nv = TypeTable._nv

    def recording(self, G, moves, tup, *rest):
        if G is F:
            played.append(tup)
        return nv(self, G, moves, tup, *rest)

    monkeypatch.setattr(TypeTable, "_nv", recording)
    return played


def assert_biject(pairs):
    """The first and second coordinates split the pairs into the same
    classes."""
    forward, backward = {}, {}
    for a, b in pairs:
        assert forward.setdefault(a, b) == b
        assert backward.setdefault(b, a) == a


class TestAtomRow:
    def test_matches_scan_exhaustive(self):
        # Every tuple of length 1-4, repeats included, over every mapping
        # with n <= 4 up to relabeling, under every marking by one
        # predicate.  The row commutes with relabeling, so this covers
        # every mapping.
        for n in (1, 2, 3, 4):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("U",)):
                    for length in (1, 2, 3, 4):
                        for tup in itertools.product(range(n), repeat=length):
                            got = atom_row(F.f, F.mark_sets, tup)
                            assert got == atom_row_scan(F.f, F.mark_sets, tup), tup

    def test_matches_scan_seeded(self):
        for s in range(10):
            F = seeded(30, s)
            rng = random.Random(s)
            for _ in range(500):
                # Tuples drawn from a random pool and its images, so that
                # coincidences, images and preimages all occur.
                pool = rng.sample(range(30), rng.randint(1, 30))
                pool += [F.f[v] for v in pool]
                tup = tuple(rng.choice(pool) for _ in range(rng.randint(0, 8)))
                got = atom_row(F.f, F.mark_sets, tup)
                assert got == atom_row_scan(F.f, F.mark_sets, tup), (s, tup)


class TestPositionCount:
    def test_roots_asked_again_spend_nothing(self, monkeypatch):
        # A table keeps the values of roots only: a root asked for again, at
        # its rank or a lower one, plays and spends nothing, and any other
        # top-level tuple is played and spent again.
        F = seeded(8, 2)
        table, meter = TypeTable(), Meter(10**6)
        values = [table.nv_value(F, (v,), 3, meter) for v in F.elements()]
        spent = meter.spent
        assert spent > F.n
        played = played_tuples(monkeypatch, F)
        assert [table.nv_value(F, (v,), 3, meter) for v in F.elements()] == values
        for r in (0, 1, 2):
            assert [table.nv_value(F, (v,), r, meter) for v in F.elements()] == [
                table.lower_to(value, r) for value in values
            ]
        assert meter.spent == spent and played == []
        for tup, game in (((0, 1), table.nv_value), ((), table.global_value)):
            value = game(F, tup, 3, meter)
            once = meter.spent - spent
            assert game(F, tup, 3, meter) == value
            assert meter.spent - spent == 2 * once > 0
            spent = meter.spent

    def test_budget_overrun_is_one_position(self):
        # A rooted game with twin pruning spends one per position, leaves
        # included, so whichever position passes the budget needs exactly
        # one more than it.
        F = two_level_star(3, 4)
        marks = dict(F.marks)
        marks["Q"] = frozenset(range(0, F.n, 3))
        F = FiniteMapping(f=F.f, marks=marks)
        meter = Meter(10**6)
        TypeTable().nv_value(F, (1,), 3, meter)
        positions = meter.spent
        assert positions > 20
        for budget in range(positions):
            with pytest.raises(BudgetExceeded) as caught:
                TypeTable().nv_value(F, (1,), 3, Meter(budget))
            assert caught.value.needed == budget + 1
        TypeTable().nv_value(F, (1,), 3, Meter(positions))

    def test_batch_charge_raises_like_one_per_leaf(self):
        # The leaves of a last-round position are charged at once.  A
        # budget one short of the positions still raises with the spend
        # one charge per leaf reaches, and the full count passes.
        games = [(seeded(30, s), (v,), 3) for s in range(4) for v in (0, 7)]
        games += [(star(12), (0, 3), 1), (hub_heavy(40, 5), (0, 1), 2)]
        for F, tup, k in games:
            meter = Meter(10**6)
            TypeTable().nv_value(F, tup, k, meter)
            positions = meter.spent
            with pytest.raises(BudgetExceeded) as caught:
                TypeTable().nv_value(F, tup, k, Meter(positions - 1))
            assert (caught.value.budget, caught.value.needed) == (positions - 1, positions)
            meter = Meter(positions)
            TypeTable().nv_value(F, tup, k, meter)
            assert meter.spent == positions

    def test_game_too_deep_is_refused_before_play(self, monkeypatch):
        # The rule is two frames per round, whatever the interpreter: a
        # game of more rounds than half the recursion limit plays nothing.
        F = cycle(1000)
        played = played_tuples(monkeypatch, F)
        deepest = sys.getrecursionlimit() // 2
        for call in (
            lambda k: TypeTable().nv_value(F, (0,), k),
            lambda k: TypeTable().nv_value(F, (0, 1), k),
            lambda k: TypeTable().global_value(F, (), k, None),
        ):
            with pytest.raises(GameTooDeep) as caught:
                call(deepest + 1)
            assert caught.value.rank == deepest + 1
            assert caught.value.budget == sys.getrecursionlimit()
        assert played == []


class TestHandedRows:
    """Each position below the top gets its atom row from its parent, and
    last-round leaves are interned from rows built in place."""

    def test_rows_match_scan_exhaustive(self, monkeypatch):
        # Every played position's row, and every last-round kid row, equals
        # the scan of the full tuple: every mapping with n <= 4 up to
        # relabeling (rows commute with relabeling), every marking by one
        # predicate, ranks 0-3, 1- and 2-tuples, local and whole-domain
        # rules.  The local game calls atom_row for top-level tuples only.
        played, scanned = [], []
        nv, row_of = TypeTable._nv, localtypes.atom_row

        def recording(self, G, moves, tup, k, *rest):
            value = nv(self, G, moves, tup, k, *rest)
            played.append((moves is None, tup, k, value))
            return value

        def counting(f, marks, tup):
            scanned.append(tup)
            return row_of(f, marks, tup)

        monkeypatch.setattr(TypeTable, "_nv", recording)
        monkeypatch.setattr(localtypes, "atom_row", counting)
        positions = 0
        for n in (1, 2, 3, 4):
            tuples = [(v,) for v in range(n)]
            tuples += list(itertools.product(range(n), repeat=2))
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("U",)):
                    table, marks = TypeTable(), F.mark_sets
                    played.clear()
                    scanned.clear()
                    for k in (0, 1, 2, 3):
                        for tup in tuples:
                            table.nv_value(F, tup, k)
                    assert set(scanned) <= set(tuples)
                    for k in (0, 1, 2, 3):
                        for tup in tuples:
                            table.global_value(F, tup, k, None)
                    for whole, tup, k, value in played:
                        _, row, kids = table._meta[value]
                        assert row == atom_row_scan(F.f, marks, tup), (F, tup, k)
                        if k != 1:
                            continue
                        fresh = set(range(n)) if whole else {F.f[a] for a in tup}
                        if not whole:
                            fresh.update(u for u in range(n) if F.f[u] in tup)
                        fresh -= set(tup)
                        want = {atom_row_scan(F.f, marks, tup + (y,)) for y in fresh}
                        assert {table._meta[c][1] for c in kids} == want, (F, tup)
                    positions += len(played)
        assert positions > 100_000


class TestHintikka:
    def test_formulas_pair_to_type_masses(self):
        # The Hintikka formula of each type holds of exactly that type's
        # elements, so its Stone pairing is the type's mass: the kernel
        # checked against the evaluator, with no code shared.  k = 0, 1 on
        # every mapping with n <= 4 under every third marking by U; k = 2,
        # whose formulas are the slow ones to evaluate, on one mapping per
        # relabeling class under every marking.
        def cases(k):
            for n in (1, 2, 3, 4):
                if k < 2:
                    for f in itertools.product(range(n), repeat=n):
                        yield from itertools.islice(every_marking(f, ("U",)), 0, None, 3)
                else:
                    for f in functions_up_to_relabeling(n):
                        yield from every_marking(f, ("U",))

        pairs = 0
        for k in (0, 1, 2):
            for F in cases(k):
                table = TypeTable()
                for t, mass in type_distribution(F, k, table):
                    phi = hintikka_formula(table._meta.__getitem__, ("U",), t.nv)
                    assert rank(phi, "local") <= k
                    assert stone_pairing(F, phi) == mass, (F, k)
                    pairs += 1
        assert pairs == 9580 + 1214


class TestLocalType:
    def test_cycle_vertex_transitivity(self):
        F = cycle(3)
        for r in (0, 1, 2, 3):
            ts = [t_of(F, v, r) for v in range(3)]
            assert types_equal(ts[0], ts[1]) and types_equal(ts[1], ts[2])

    def test_star_leaf_vs_center(self):
        F = star(3)
        leaf, center = t_of(F, 1, 1), t_of(F, 0, 1)
        assert types_equal(leaf, t_of(F, 2, 1))
        assert not types_equal(leaf, center)

    def test_mark_splits_rank_zero(self):
        marked = fixed_point({"P": frozenset({0})})
        plain = FiniteMapping(f=(0,), marks={"P": frozenset()})
        assert not types_equal(t_of(marked, 0, 0), t_of(plain, 0, 0))

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            types_equal(t_of(cycle(3), 0, 1), t_of(cycle(3), 0, 2))


class TestTypesEqual:
    def test_reflexive(self):
        t = t_of(seeded(9, 0), 4, 2)
        assert types_equal(t, t)

    def test_c5_vs_c7_low_rank(self):
        assert types_equal(t_of(cycle(5), 0, 1), t_of(cycle(7), 0, 1))

    def test_c5_vs_c7_high_rank(self):
        assert not types_equal(t_of(cycle(5), 0, 4), t_of(cycle(7), 0, 4))

    def test_equivalence_relation(self):
        rng = random.Random(3)
        points = []
        for seed in range(6):
            F = seeded(rng.randrange(3, 9), seed, Fraction(1, 2))
            points.append((F, rng.randrange(F.n)))
        for r in (0, 1, 2):
            ts = [t_of(F, v, r) for F, v in points]
            for a in ts:
                for b in ts:
                    assert types_equal(a, b) == types_equal(b, a)
                    for c in ts:
                        if types_equal(a, b) and types_equal(b, c):
                            assert types_equal(a, c)

    def test_matches_direct_game_search(self):
        rng = random.Random(14)
        for trial in range(25):
            n1, n2 = rng.randrange(2, 7), rng.randrange(2, 7)
            F1 = seeded(n1, trial, Fraction(1, 2))
            F2 = seeded(n2, 100 + trial, Fraction(1, 2))
            v1, v2 = rng.randrange(n1), rng.randrange(n2)
            for r in (0, 1, 2):
                fast = types_equal(t_of(F1, v1, r), t_of(F2, v2, r))
                slow = local_game(F1, (v1,), F2, (v2,), r)
                assert fast == slow, (trial, r)

    def test_formula_consistency(self):
        # equal types satisfy the same guarded-clean formulas of that rank
        rng = random.Random(9)
        structures = [seeded(rng.randrange(3, 10), s, Fraction(1, 2)) for s in range(5)]
        points = [(F, v) for F in structures for v in range(F.n)]
        for r in (1, 2):
            for _ in range(20):
                (F, u), (G, v) = rng.sample(points, 2)
                if not types_equal(t_of(F, u, r), t_of(G, v, r)):
                    continue
                FM = FiniteMapping(f=F.f, marks={"M1": F.marks["U"]})
                GM = FiniteMapping(f=G.f, marks={"M1": G.marks["U"]})
                phi = random_clean_formula(rng, ["M1"], ["x1"], r)
                assert evaluate(FM, phi, {"x1": u}) == evaluate(GM, phi, {"x1": v})


class TestProjectTransport:
    def test_project_identity(self):
        t = t_of(seeded(8, 1), 3, 2)
        assert project(t, 2) is t or types_equal(project(t, 2), t)

    def test_project_rejects_increase(self):
        with pytest.raises(RankIncrease):
            project(t_of(cycle(3), 0, 1), 2)

    def test_rank_zero_sees_fixed_points(self):
        fp = project(t_of(fixed_point(), 0, 2), 0)
        cyc = project(t_of(cycle(3), 0, 2), 0)
        assert not types_equal(fp, cyc)

    def test_monotone_refinement(self):
        rng = random.Random(6)
        for trial in range(20):
            F = seeded(rng.randrange(3, 9), trial, Fraction(1, 2))
            G = seeded(rng.randrange(3, 9), 50 + trial, Fraction(1, 2))
            u, v = rng.randrange(F.n), rng.randrange(G.n)
            hi = 3
            if types_equal(t_of(F, u, hi), t_of(G, v, hi)):
                for r in range(hi):
                    assert types_equal(
                        project(t_of(F, u, hi), r), project(t_of(G, v, hi), r)
                    )

    def test_transport_fixed_point(self):
        t = t_of(fixed_point(), 0, 2)
        assert types_equal(transport(t), project(t, 1))

    def test_transport_star_leaf(self):
        F = star(3)
        assert types_equal(transport(t_of(F, 1, 1)), t_of(F, 0, 0))

    def test_transport_rank_zero_rejected(self):
        with pytest.raises(RankZero):
            transport(t_of(cycle(3), 0, 0))

    def test_transport_identity_random(self):
        rng = random.Random(2)
        for trial in range(15):
            F = seeded(rng.randrange(4, 20), trial)
            for v in F.elements():
                for r in (0, 1):
                    lhs = t_of(F, F.f[v], r)
                    rhs = project(transport(t_of(F, v, r + 1)), r)
                    assert types_equal(lhs, rhs)


class TestTypeDistribution:
    def test_cycle_single_entry(self):
        for r in (0, 2):
            mu = type_distribution(cycle(3), r, TABLE)
            assert len(mu.entries) == 1
            assert mu.entries[0][1] == 1

    def test_star_masses(self):
        mu = type_distribution(star(3), 1, TABLE)
        assert sorted(mass for _, mass in mu) == [Fraction(1, 4), Fraction(3, 4)]

    def test_union_averages(self):
        A, B = seeded(6, 3), seeded(10, 4)
        mu = type_distribution(disjoint_union(A, B), 1, TABLE)
        mu_a = type_distribution(A, 1, TABLE)
        mu_b = type_distribution(B, 1, TABLE)
        for t, mass in mu:
            want = (
                Fraction(6, 16) * mu_a.mass(t) + Fraction(10, 16) * mu_b.mass(t)
            )
            assert mass == want

    def test_game_deeper_than_the_stack_is_a_budget_error(self):
        # The game recurses once per round, so 600 rounds pass Python's
        # recursion limit long before 2^600 positions could be played.
        F = cycle(1000)
        with pytest.raises(BudgetExceeded, match="rank-600 game"):
            type_distribution(F, 600, TypeTable())
        with pytest.raises(BudgetExceeded, match="rank-600 game"):
            TypeTable().global_value(F, (), 600, None)

    def test_masses_validated(self):
        t = t_of(cycle(3), 0, 1)
        with pytest.raises(MeasureError):
            TypeMeasure(rank=1, entries=((t, Fraction(1, 2)),))

    def test_mass_sum_matches_fraction_sum(self):
        # The sum is taken in integers over the common denominator: the
        # same verdict and text as a sum of Fractions.
        table = TypeTable()
        types = type_distribution(seeded(40, 5), 2, table).types()
        rng = random.Random(11)
        verdicts = set()
        for trial in range(200):
            k = rng.randint(1, len(types))
            masses = [Fraction(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(k)]
            if trial % 2:
                masses[-1] = 1 - sum(masses[:-1], Fraction(0))
                if masses[-1] <= 0:
                    continue
            total = sum(masses, Fraction(0))
            pairs = list(zip(types, masses))
            verdicts.add(total == 1)
            if total == 1:
                assert TypeMeasure.from_pairs(2, pairs).rank == 2
            else:
                with pytest.raises(MeasureError) as raised:
                    TypeMeasure.from_pairs(2, pairs)
                assert str(raised.value) == f"masses sum to {total}, expected 1"
        assert verdicts == {True, False}

    def test_rejects_negative_rank(self):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            type_distribution(cycle(3), -1, TypeTable())

    def test_duplicate_types_rejected(self):
        t1, t2 = t_of(cycle(5), 0, 1), t_of(cycle(7), 0, 1)
        with pytest.raises(MeasureError):
            TypeMeasure.from_pairs(1, [(t1, Fraction(1, 2)), (t2, Fraction(1, 2))])

    def test_projection_pushforward(self):
        F = seeded(20, 7)
        assert measure_tv(
            type_distribution(F, 3, TABLE).project(1), type_distribution(F, 1, TABLE)
        ) == 0

    def test_shared_and_cross_table_lookups_agree(self):
        other = TypeTable()
        for seed in range(4):
            A, B = seeded(14, seed), seeded(11, seed + 10)
            a = type_distribution(A, 1, TABLE)
            b_same = type_distribution(B, 1, TABLE)
            b_other = type_distribution(B, 1, other)
            assert measure_tv(a, b_same) == measure_tv(a, b_other) > 0
            assert measure_tv(b_same, a) == measure_tv(b_other, a)
            for t, _ in a.entries + b_same.entries:
                t_other = local_type(t.structure, t.element, 1, other)
                assert a.mass(t) == a.mass(t_other)
                assert b_same.mass(t) == b_other.mass(t) == b_other.mass(t_other)
        with pytest.raises(RankMismatch):
            a.mass(t_of(A, 0, 2))

    def test_cross_table_tv_matches_pairwise_oracle(self):
        # Overlapping, disjoint and equal supports, in both argument orders;
        # each measure in its own table.
        def measure(F, r):
            return type_distribution(F, r, TypeTable())

        for seed in range(5):
            r = 1 + seed % 3
            A, B = seeded(14, seed), seeded(11, seed + 10)
            marked = random_mapping(9, seed, {"U": 1})
            plain = random_mapping(9, seed, {"U": 0})
            cases = [
                ("overlapping", measure(A, r), measure(disjoint_union(A, B), r)),
                ("unrelated", measure(A, r), measure(B, r)),
                ("disjoint", measure(marked, r), measure(plain, r)),
                ("equal", measure(A, r), measure(A, r)),
                ("equal", measure(A, r), measure(disjoint_union(A, A), r)),
            ]
            for support, a, b in cases:
                for x, y in ((a, b), (b, a)):
                    got = measure_tv(x, y)
                    assert got == pairwise_measure_tv(x, y), (seed, support)
                    if support == "disjoint":
                        assert got == 1
                    if support == "equal":
                        assert got == 0
            assert 0 < measure_tv(*cases[0][1:]) < 1

    def test_cross_table_lookups_value_each_witness_once(self):
        # measure_tv values each entry of b once in a's table, and mass
        # values its argument once; matching pairs would value up to
        # |a|·|b| witnesses.
        for seed in range(4):
            a = type_distribution(seeded(30, seed), 2, TypeTable())
            b = type_distribution(seeded(25, seed + 10), 2, TypeTable())
            assert len(a.entries) > 3 and len(b.entries) > 3
            want = pairwise_measure_tv(a, b)
            calls = []
            table = a.entries[0][0].table
            played = table.nv_value
            table.nv_value = lambda F, tup, k: calls.append(k) or played(F, tup, k)
            assert measure_tv(a, b) == want > 0
            assert len(calls) <= len(b.entries)
            for u, _ in b.entries:
                calls.clear()
                a.mass(u)
                assert len(calls) <= 1

    def test_table_cache_does_not_keep_structure_alive(self):
        table = TypeTable()
        F = seeded(40, 3)
        for v in F.elements():
            table.nv_value(F, (v,), 2)
        assert F in table._caches
        ref = weakref.ref(F)
        del F
        assert ref() is None
        assert len(table._caches) == 0


class TestAdmissibility:
    def test_adm_plus_star(self):
        F = star(3)
        tau_leaf = t_of(F, 1, 3)
        assert adm_plus(tau_leaf, t_of(F, 0, 1)) == 1
        assert adm_plus(tau_leaf, t_of(F, 1, 1)) == 0

    def test_adm_plus_fixed_point(self):
        tau = t_of(fixed_point(), 0, 2)
        assert adm_plus(tau, project(tau, 1)) == 1

    def test_adm_plus_rank_too_low(self):
        with pytest.raises(RankTooLow):
            adm_plus(t_of(cycle(3), 0, 1), t_of(cycle(3), 0, 1))

    def test_adm_minus_star_cap(self):
        F = star(5)
        tau = t_of(F, 0, 5)
        assert adm_minus(tau, t_of(F, 1, 2)) == 3

    def test_adm_minus_star_center(self):
        F = star(5)
        tau = t_of(F, 0, 5)
        assert adm_minus(tau, t_of(F, 0, 2)) == 1

    def test_adm_minus_cycle(self):
        tau = t_of(cycle(3), 0, 3)
        assert adm_minus(tau, t_of(cycle(3), 2, 1)) == 1

    def test_adm_minus_rank_too_low(self):
        with pytest.raises(RankTooLow):
            adm_minus(t_of(cycle(3), 0, 2), t_of(cycle(3), 0, 1))

    def test_adm_minus_witness_invariance(self):
        rng = random.Random(8)
        pool = [(F, v) for s in range(4) for F in [seeded(rng.randrange(4, 12), s)] for v in range(F.n)]
        for _ in range(30):
            (F, u), (G, v) = rng.sample(pool, 2)
            if not types_equal(t_of(F, u, 3), t_of(G, v, 3)):
                continue
            for t in {t_of(F, w, 1).key: t_of(F, w, 1) for w in F.elements()}.values():
                assert adm_minus(t_of(F, u, 3), t) == adm_minus(t_of(G, v, 3), t)

    def test_adm_minus_table_matches_pointwise(self):
        F = seeded(15, 5)
        for v in F.elements():
            tau = t_of(F, v, 3)
            table = adm_minus_table(tau, 1)
            for w in F.elements():
                t = t_of(F, w, 1)
                assert min(2, table.get(t.key, 0)) == adm_minus(tau, t)


class TestTwinRule:
    def test_matches_unpruned_kernel_exhaustive(self):
        # Every function up to relabeling with n <= 5 under every marking by
        # one predicate, and with n <= 3 by two.  Ranks run downwards, so
        # lower ranks are read off higher ones.
        table, oracle, pairs = TypeTable(), UnprunedValues(), []
        for n in range(1, 6):
            for f in functions_up_to_relabeling(n):
                structures = list(every_marking(f, ("P",)))
                if n <= 3:
                    structures += every_marking(f, ("P", "Q"))
                for F in structures:
                    roots = [(v,) for v in F.elements()]
                    pairs += value_pairs(table, oracle, F, roots, (3, 2, 1))
        assert_biject(pairs)

    def test_matches_unpruned_kernel_on_hubs(self):
        table, oracle, pairs = TypeTable(), UnprunedValues(), []
        structures = [(hub_heavy(n, seed), (1, 2, 3)) for seed in range(12) for n in (10, 16)]
        structures += [(hub_heavy(40, seed), (1, 2)) for seed in range(4)]
        structures += [
            (copies_on_a_hub(seeded(6, seed, Fraction(1, 2)), 12), (1, 2))
            for seed in range(6)
        ]
        structures += [(two_level_star(3, 12), (1, 2, 3)), (star(20), (1, 2, 3))]
        for F, ranks in structures:
            roots = [(v,) for v in F.elements()]
            pairs += value_pairs(table, oracle, F, roots, ranks)
        assert_biject(pairs)

    def test_types_equal_matches_local_game(self):
        # Every pointed mapping with n <= 4 up to relabeling, under every
        # marking by one predicate: each type class is one game class.
        points = [
            (F, v)
            for n in range(1, 5)
            for f in functions_up_to_relabeling(n)
            for F in every_marking(f, ("P",))
            for v in F.elements()
        ]
        # Within one table, types_equal compares keys, so grouping by key
        # groups by types_equal.  Points the game already tells apart at
        # rank r - 1 stay apart at rank r, so only representatives of one
        # rank-(r - 1) class are compared.
        table = TypeTable()
        for r in (0, 1, 2, 3):
            reps = {}
            for F, v in points:
                t = local_type(F, v, r, table)
                rep_t, G, w = reps.setdefault(t.key, (t, F, v))
                assert types_equal(t, rep_t)
                assert local_game(F, (v,), G, (w,), r)
            by_lower = {}
            for t, F, v in reps.values():
                lower = project(t, r - 1).key if r else None
                by_lower.setdefault(lower, []).append((F, v))
            for group in by_lower.values():
                for i, (F, v) in enumerate(group):
                    for G, w in group[i + 1 :]:
                        assert not local_game(F, (v,), G, (w,), r)

    def test_game_positions_on_two_level_star(self):
        # Hundreds of interchangeable leaves per node: the rank-2 game of
        # every element visits a few positions, not one per pair of leaves.
        # The meter counts every position played, leaves included.
        F = two_level_star(2, 200)
        table, oracle = TypeTable(), UnprunedValues()
        meter = Meter(10**6)
        for v in F.elements():
            table.nv_value(F, (v,), 2, meter)
            oracle.value(F, (v,), 2)
        positions = meter.spent
        assert positions <= 2000
        assert oracle.positions(F) >= 10 * 2000


class TestStructureTables:
    """Move tables and class counts depend on the structure alone: they
    are built once per structure, shared by every table, and freed with
    the structure."""

    def assert_moves_match_oracle(self, structures):
        # Two tables read one structure's entries: depths 0 and 1 through
        # the first, 2 and 3 through the second.
        for F in structures:
            first, second = TypeTable()._structure_cache(F), TypeTable()._structure_cache(F)
            assert first["moves"] is second["moves"]
            assert first["all_moves"] is second["all_moves"]
            for d in range(4):
                cache = first if d < 2 else second
                for x in F.elements():
                    want = twin_moves_from_scratch(F, x, d)
                    assert cache["moves"][d][x] == want, (F, x, d)
                    assert cache["all_moves"][d][x] == (F.pre[x] + (F.f[x],), ())

    def test_moves_match_oracle_exhaustive(self):
        # Every function up to relabeling with n <= 5, with no predicate
        # and under every marking by one.
        self.assert_moves_match_oracle(
            G
            for n in range(1, 6)
            for f in functions_up_to_relabeling(n)
            for G in (FiniteMapping(f=f), *every_marking(f, ("U",)))
        )

    def test_moves_match_oracle_on_seeded_stars_and_trees_on_cycles(self):
        structures = [seeded(n, seed) for n in (20, 60) for seed in range(4)]
        structures += [star(12), two_level_star(3, 6), hub_heavy(30, 2)]
        structures += [cyclic_input(seed, (1, 2, 3, 4), 24, 9) for seed in range(3)]
        self.assert_moves_match_oracle(structures)

    def test_each_move_entry_built_once(self, monkeypatch):
        # A count guard: one structure typed at ranks 1, 2 and 3 in three
        # fresh tables, then an ldist in a fourth, build each (element,
        # depth) entry once; a second round builds none.
        built = Counter()
        build = localtypes._twin_moves

        def counting(F, code, plain, x, d):
            built[F, x, d] += 1
            return build(F, code, plain, x, d)

        monkeypatch.setattr(localtypes, "_twin_moves", counting)
        F, G = seeded(60, 11), seeded(50, 12)
        for _ in range(2):
            for r in (1, 2, 3):
                type_distribution(F, r, TypeTable())
            ldist(F, G, 2, 1, TypeTable())
            assert set(built) == {(F, x, d) for x in F.elements() for d in range(3)} | {
                (G, x, 0) for x in G.elements()
            }
            assert max(built.values()) == 1

    def test_tables_die_with_their_structure(self):
        # With the collector off and a table alive, dropping the last
        # reference to a typed structure frees it and its shared tables:
        # no structure's tables outlive it, and they build no cycle.
        gc.collect()
        gc.disable()
        try:
            table = TypeTable()
            F = seeded(40, 5)
            type_distribution(F, 3, table)
            ldist(F, F, 2, 1, table)
            table.global_value(F, (0,), 2, None)
            assert localtypes._structure_tables(F)["classes"]
            assert F in table._caches and F in localtypes._STRUCTURE_TABLES
            held = len(localtypes._STRUCTURE_TABLES)
            ref = weakref.ref(F)
            del F
            assert ref() is None
            assert len(localtypes._STRUCTURE_TABLES) == held - 1
            assert len(table._caches) == 0
            assert gc.collect() == 0
        finally:
            gc.enable()


def assert_layers_match_direct_kernel(F, m, type_rank, ranks):
    """Root values of the product equal the direct kernel's on a mirrored
    copy, typed in the same table, for every element at every rank, ranks
    in the given order."""
    table = TypeTable()
    P = cycle_cut_product(F, m, type_rank, table)
    Q = mirrored(P)
    last = P.n - 1
    for r in ranks:
        for v in P.elements():
            got = table.nv_value(P, (v,), r)
            assert got == table.nv_value(Q, (last - v,), r), (m, r, v)
    assert table._structure_cache(P)["layers"] == m
    assert table._structure_cache(Q)["layers"] is None


class TestLayerShift:
    def test_matches_direct_kernel_exhaustive(self):
        # Every function up to relabeling with n <= 3 under every marking by
        # one predicate.  Rank 1 is played first, rank 3 above it, and
        # ranks 0 and 2 are read off rank 3.
        for n in (1, 2, 3):
            for f in functions_up_to_relabeling(n):
                for F in every_marking(f, ("P",)):
                    for m in (2, 3, 6):
                        assert_layers_match_direct_kernel(F, m, 1, (1, 3, 0, 2))

    def test_matches_direct_kernel_seeded_at_sixty_layers(self):
        # The rank-2 pipeline's cut: m = 60, clean rank 5.  The input
        # predicate U is not a layer mark and must keep its name.
        for trial, (n, rank) in enumerate([(3, 5), (4, 5), (5, 5), (7, 3), (8, 3)]):
            F = seeded(n, 700 + trial, Fraction(1, 2))
            assert_layers_match_direct_kernel(F, 60, rank, (rank,))

    def test_unregistered_table_gives_same_canonical_ids(self, monkeypatch):
        # A table that plays every layer, of a mirrored copy typed at the
        # mirrored elements, assigns the same canonical ids given the same
        # history.
        F = seeded(9, 3, Fraction(1, 2))
        home, other = TypeTable(), TypeTable()
        P = cycle_cut_product(F, 6, 3, home)
        for v in F.elements():
            local_type(F, v, 3, other)
        Q, last = mirrored(P), P.n - 1
        played = played_tuples(monkeypatch, Q)
        ids = [
            [local_type(P, v, 3, home).canonical_id for v in P.elements()],
            [local_type(Q, last - v, 3, other).canonical_id for v in P.elements()],
        ]
        assert ids[0] == ids[1]
        assert home._structure_cache(P)["layers"] == 6
        assert other._structure_cache(Q)["layers"] is None
        assert any(len(tup) == 1 and tup[0] % 6 for tup in played)

    def test_plays_root_games_in_layer_zero_only(self, monkeypatch):
        # A count guard: every tuple the kernel plays in a product starts
        # in layer 0.
        table = TypeTable()
        m = 6
        P = cycle_cut_product(seeded(12, 5), m, 3, table)
        played = played_tuples(monkeypatch, P)
        type_distribution(P, 3, table)
        assert played
        assert all(tup[0] % m == 0 for tup in played)

    @pytest.mark.parametrize("source", ["another table", "map file"])
    def test_products_built_elsewhere_play_layer_zero_only(self, source, monkeypatch):
        # A table recognizes a product it did not build: one built with
        # another table, or read back from its map file.  Its histogram
        # equals the one of a mirrored copy, which is played in every layer.
        P = cycle_cut_product(seeded(12, 5), 6, 3, TypeTable())
        if source == "map file":
            P = parse_map(dump_map(P))
        table, oracle = TypeTable(), TypeTable()
        played = played_tuples(monkeypatch, P)
        mu = type_distribution(P, 3, table)
        assert table._structure_cache(P)["layers"] == 6
        assert played
        assert all(tup[0] % 6 == 0 for tup in played)
        Q = mirrored(P)
        assert measure_tv(mu, type_distribution(Q, 3, oracle)) == 0
        assert oracle._structure_cache(Q)["layers"] is None

    @pytest.mark.parametrize("ms", [(6, 12), (12, 6), (2, 3), (6, 6)])
    def test_mixed_layer_counts_give_unregistered_ids(self, ms):
        # A table keeps the first m it claims: a product with another m is
        # played in every layer, and its values, like those of the mirrored
        # copies, are brought to the same normal form.  A table that sees
        # only mirrored copies, and so claims no m, given the same history
        # must assign the same canonical ids.  It types the mirrored copy
        # of each product at the mirrored elements.
        home, plain = TypeTable(), TypeTable()
        typed = []
        for trial, m in enumerate(ms):
            F = seeded(4 + trial, 40 + trial, Fraction(1, 2))
            for v in F.elements():
                local_type(F, v, 1, plain)
            P = cycle_cut_product(F, m, 1, home)
            expected = m if m == ms[0] else None
            assert home._structure_cache(P)["layers"] == expected
            Q, last = mirrored(P), P.n - 1
            typed += [
                (P, Q, [last - v for v in P.elements()]),
                (Q, Q, list(Q.elements())),
            ]
            for r in (3, 1, 2, 0):
                for S, oracle, order in typed:
                    ids = [
                        [local_type(S, v, r, home).canonical_id for v in S.elements()],
                        [local_type(oracle, w, r, plain).canonical_id for w in order],
                    ]
                    assert ids[0] == ids[1], (ms, trial, r)
                    assert plain._structure_cache(oracle)["layers"] is None

    def test_shift_keeps_rows_with_two_layer_marks_sorted(self):
        # The value of (x, s) is the value of (x, 0) with U_j renamed
        # U_{j+s mod m} in every row, kids included.  A row carrying two
        # layer marks can change its sorted order when renamed (U9 -> U10
        # sorts before U3), and the shifted row must still match the
        # played one.
        m, k = 12, 2
        table = TypeTable()
        P = cycle_cut_product(seeded(5, 3), m, k, table)
        assert table._structure_cache(P)["layers"] == m
        # P with U_{i+7 mod m} added to each (x, i), x odd: the layer shift
        # still renames marks only, but no table takes Q for a product.
        marks = dict(P.marks)
        for v in P.elements():
            if v // m % 2:
                name = f"U{(v % m + 7) % m}"
                marks[name] = marks[name] | {v}
        Q = FiniteMapping(f=P.f, marks=marks, signature=P.signature)
        cache = table._structure_cache(Q)
        assert cache["layers"] is None
        for x in range(0, Q.n // m, 2):
            played = list(table._play(Q, cache["moves"], [(x * m + s,) for s in range(m)], k, None))
            assert [table._shifted(played[0], s) for s in range(m)] == played

    def test_lower_ranks_and_transport_build_no_shifted_tree(self):
        # A count guard: a product's values in layers other than
        # 0 are (layer-0 value, layer) pairs, lowered and transported
        # without building any relabelled tree.
        table = TypeTable()
        P = cycle_cut_product(seeded(12, 5), 6, 3, table)
        for v in P.elements():
            t = local_type(P, v, 3, table)
            for r in range(3):
                project(t, r)
            project(transport(t), 0)
        assert not table._shifts

    def test_forget_drops_marks_from_values(self):
        # A value with marks forgotten is the value of the same root in the
        # structure without them: V on seeded mappings, and every layer and
        # type mark on a cut product, whose roots off layer 0 are pairs.
        for seed in range(4):
            F = random_mapping(14, seed, {"U": Fraction(1, 3), "V": Fraction(1, 2)})
            G = FiniteMapping(f=F.f, marks={"U": F.marks["U"]})
            table = TypeTable()
            for r in (1, 2):
                for v in F.elements():
                    value = table.forget(table.nv_value(F, (v,), r), frozenset({"V"}))
                    assert value == table.nv_value(G, (v,), r)
        table = TypeTable()
        P = cycle_cut_product(seeded(10, 3), 6, 3, table)
        Q = FiniteMapping(f=P.f, marks={"U": P.marks["U"]})
        names = frozenset(P.signature.predicates) - {"U"}
        for r in (1, 2, 3):
            values = [table.nv_value(P, (v,), r) for v in P.elements()]
            forgotten = [table.forget(value, names) for value in values]
            assert forgotten == [table.nv_value(Q, (v,), r) for v in Q.elements()]
        assert len(set(forgotten)) < len(set(values))
        # Left a layer mark, a pair would not forget like its layer-0 value.
        with pytest.raises(ValueError):
            table.forget(values[1], names - {"U1"})

    def test_layer_marks_seen_before_registration_block_it(self):
        # Root values with a layer mark handed out before any m is known
        # were not normalized; claiming an m afterwards would split their
        # types, so the product is played in every layer instead.
        home, plain = TypeTable(), TypeTable()
        F = seeded(6, 9, Fraction(1, 2))
        Q = mirrored(cycle_cut_product(F, 6, 2, TypeTable()))
        for table in (home, plain):
            for v in F.elements():
                local_type(F, v, 2, table)
            type_distribution(Q, 2, table)
        P = cycle_cut_product(F, 6, 2, home)
        assert home._structure_cache(P)["layers"] is None
        last = P.n - 1
        ids = [
            [local_type(P, v, 2, home).canonical_id for v in P.elements()],
            [local_type(Q, last - v, 2, plain).canonical_id for v in P.elements()],
        ]
        assert ids[0] == ids[1]
        assert plain._structure_cache(Q)["layers"] is None


class TestUntrackedValues:
    def test_collector_untracks_what_a_table_keeps(self):
        # Values, rows, kept root values and move lists hold only ints,
        # strings, None and tuples, so full collections untrack them and the
        # dicts keyed by them, and no later collection rescans them.  A set
        # or a list kept there would stay tracked.
        table = TypeTable()
        F = seeded(10, 1)
        P = cycle_cut_product(F, 6, 3, table)
        for G in (F, P, mirrored(P)):
            for t in type_distribution(G, 3, table).types():
                project(t, 1)
            table.global_value(G, (0,), 2, None)
        # A collection untracks a tuple only once what it holds is
        # untracked, and may examine it before its parts: a value holds a
        # row, which holds a marks tuple, so three collections suffice.
        for _ in range(3):
            gc.collect()
        assert table._layers == 6 and table._shifts
        assert not any(map(gc.is_tracked, table._meta))
        assert not gc.is_tracked(table._intern)
        assert not gc.is_tracked(table._layer_of)
        cache = table._structure_cache(F)
        assert len(cache["roots"]) == F.n and not gc.is_tracked(cache["roots"])
        moves = [m for d in cache["moves"].values() for m in d.values()]
        assert moves and not any(map(gc.is_tracked, moves))
