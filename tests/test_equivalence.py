"""Global game equivalence and the local/FO pseudometrics."""

import itertools
import random
import sys
import time
import weakref
from fractions import Fraction

import pytest

from helpers import (
    cycle,
    every_marking,
    fixed_point,
    functions_up_to_relabeling,
    hub_heavy,
    seeded,
    star,
    two_level_star,
)
from mapprox import equivalence
from mapprox.equivalence import (
    dist_fo_truncated,
    ef_equivalent,
    fo_dist,
    ldist,
)
from mapprox.errors import BudgetExceeded, GameTooDeep, SignatureMismatch
from mapprox.localtypes import Meter, TypeTable, global_table
from mapprox.randgen import random_mapping
from mapprox.structure import FiniteMapping, ball
from oracles import (
    brute_fo_dist,
    brute_ldist,
    every_ordering_fo_dist,
    every_ordering_ldist,
    global_game,
    global_tuple_game,
    local_game,
    tuple_histograms,
    tv,
)


def relabel(F: FiniteMapping, perm) -> FiniteMapping:
    f = [0] * F.n
    for v in F.elements():
        f[perm[v]] = perm[F.f[v]]
    marks = {
        name: frozenset(perm[v] for v in ext) for name, ext in F.marks.items()
    }
    return FiniteMapping(f=tuple(f), marks=marks)


def marked_fixed_points(marked):
    """Two fixed points 0 and 1, with U on the elements in `marked`."""
    return FiniteMapping(f=(0, 1), marks={"U": frozenset(marked)})


def with_fixed_points(rng, n) -> FiniteMapping:
    """A seeded mapping on n elements with predicates U and V, about a
    third of its elements forced to be fixed points."""
    F = random_mapping(n, rng.randrange(10**6), {"U": Fraction(1, 2), "V": Fraction(1, 3)})
    f = tuple(v if rng.randrange(3) == 0 else w for v, w in enumerate(F.f))
    return FiniteMapping(f=f, marks=F.marks, signature=F.signature)


def nudged(rng, F: FiniteMapping) -> FiniteMapping:
    """F with one element's image and one element's V mark redrawn."""
    f = list(F.f)
    f[rng.randrange(F.n)] = rng.randrange(F.n)
    marks = dict(F.marks)
    marks["V"] = marks["V"] ^ {rng.randrange(F.n)}
    return FiniteMapping(f=tuple(f), marks=marks, signature=F.signature)


def grown(rng, F: FiniteMapping) -> FiniteMapping:
    """F with one more element shaped like a random element v: v's marks,
    and v's image, or itself if v is a fixed point."""
    v = rng.randrange(F.n)
    f = F.f + (F.n if F.f[v] == v else F.f[v],)
    marks = {name: ext | {F.n} if v in ext else ext for name, ext in F.marks.items()}
    return FiniteMapping(f=f, marks=marks, signature=F.signature)


def redrawn_copy(rng, F: FiniteMapping) -> FiniteMapping:
    """F with one element's image redrawn, relabeled at random: close enough
    to F that neither distance is often 0 or 1, with F's elements met in
    another order."""
    f = list(F.f)
    f[rng.randrange(F.n)] = rng.randrange(F.n)
    perm = list(F.elements())
    rng.shuffle(perm)
    return relabel(FiniteMapping(f=tuple(f), marks=F.marks, signature=F.signature), perm)


# Pairs of structures with many equal roots and repeated elements among
# their tuples, each family small enough for the brute-force oracles at
# p = 3, r = 2.
TIED_PAIRS = {
    "star": [(star(3), star(4)), (star(2), star(5))],
    "two_level_star": [
        (two_level_star(2, 1), two_level_star(2, 2)),
        (two_level_star(1, 3), two_level_star(3, 1)),
    ],
    "cycle": [
        (cycle(4, {"P": frozenset()}), cycle(4, {"P": frozenset({0})})),
        (cycle(3), cycle(6)),
    ],
    "marked_fixed_points": [
        (marked_fixed_points({0}), marked_fixed_points({0, 1})),
        (marked_fixed_points(()), marked_fixed_points({1})),
    ],
    "hub_heavy": [(hub_heavy(5, 1), hub_heavy(6, 2)), (hub_heavy(6, 3), hub_heavy(6, 4))],
}


def played_positions(monkeypatch) -> list:
    """A list that gains every position the kernel plays from now on, as
    (structure, tuple, rounds left), recorded by wrapping TypeTable._nv,
    which plays each position once."""
    played = []
    nv = TypeTable._nv

    def recording(self, F, moves, tup, k, *rest):
        played.append((F, tup, k))
        return nv(self, F, moves, tup, k, *rest)

    monkeypatch.setattr(TypeTable, "_nv", recording)
    return played


def pair_games(played, F, r) -> int:
    """How many pair games of F at rank r are among the `played` positions:
    a root game reaches 2-tuples only with fewer rounds left."""
    return sum(1 for G, tup, k in played if G is F and len(tup) == 2 and k == r)


def game_meters(monkeypatch) -> list:
    """A list that gains every Meter equivalence makes from now on: the
    call's game meter, then at p = 2 the ball meter of each structure."""
    meters = []

    class Recorded(Meter):
        def __init__(self, budget):
            super().__init__(budget)
            meters.append(self)

    monkeypatch.setattr(equivalence, "Meter", Recorded)
    return meters


def cache_entries(cache: dict) -> int:
    """How many entries the dicts in a table's structure cache hold, nested
    dicts included."""
    return sum(len(d) + cache_entries(d) for d in cache.values() if isinstance(d, dict))


def small_structures() -> list[FiniteMapping]:
    """Every mapping with n <= 3 up to relabeling, under every marking by
    one predicate."""
    return [
        F
        for n in (1, 2, 3)
        for f in functions_up_to_relabeling(n)
        for F in every_marking(f, ("U",))
    ]


def assert_pairs_match_oracle(distance, game):
    """`distance(A, B, r)`, a distance between the structures' pairs, against
    the oracle `game` for every two of small_structures() and r <= 2.  Game
    equivalence is an equivalence relation, so classes pooled over all the
    structures give the oracle's histograms for every two of them.  The
    distance is 1 when the empty tuples differ in class, that is when a
    sentence separates the structures (the local game has no move from the
    empty tuple, so there they never differ), and otherwise the TV distance
    of the pairs' classes."""
    structures = small_structures()
    for r in (0, 1, 2):
        sentences = tuple_histograms(structures, 0, r, game)
        pairs = tuple_histograms(structures, 2, r, game)
        for i, j in itertools.combinations_with_replacement(range(len(structures)), 2):
            expected = max(tv(sentences[i], sentences[j]), tv(pairs[i], pairs[j]))
            assert distance(structures[i], structures[j], r) == expected, (i, j, r)


class TestEfEquivalent:
    def test_self(self):
        F = seeded(12, 0)
        assert ef_equivalent(F, F, 3)

    def test_isomorphic_cycles(self):
        F = cycle(5)
        G = relabel(F, (2, 4, 1, 0, 3))
        assert ef_equivalent(F, G, 4)

    def test_wide_stars_agree_at_low_rank(self):
        assert ef_equivalent(star(100), star(2), 2)

    def test_narrow_star_separated(self):
        assert not ef_equivalent(star(2), star(1), 2)

    def test_signature_checked(self):
        with pytest.raises(SignatureMismatch):
            ef_equivalent(fixed_point({"P": frozenset({0})}), fixed_point(), 1)

    def test_matches_direct_game_search(self):
        rng = random.Random(21)
        for trial in range(20):
            A = seeded(rng.randrange(2, 6), trial, Fraction(1, 2))
            B = seeded(rng.randrange(2, 6), 77 + trial, Fraction(1, 2))
            for r in (0, 1, 2):
                assert ef_equivalent(A, B, r) == global_game(A, B, r), (trial, r)

    def test_matches_global_game_exhaustive(self):
        structures = small_structures()
        for r in (0, 1, 2):
            sentences = tuple_histograms(structures, 0, r, global_tuple_game)
            for i, j in itertools.combinations_with_replacement(range(len(structures)), 2):
                expected = sentences[i] == sentences[j]
                assert ef_equivalent(structures[i], structures[j], r) == expected, (i, j, r)

    def test_budget_counts_game_positions(self, monkeypatch):
        # A rank-3 game plays 1 + 30 + 870 positions in the first cycle (its
        # last round is counted, not played), which fit in the budget; the
        # second cycle's positions pass it.
        monkeypatch.setattr(equivalence, "GAME_BUDGET", 1000)
        with pytest.raises(BudgetExceeded) as caught:
            ef_equivalent(cycle(30), cycle(30), 3)
        assert caught.value.needed == 1001

    def test_plays_each_sentence_game_once(self, monkeypatch):
        # Each structure's sentence game is played once per call, and once
        # in all when B is A.
        A, B = cycle(6), relabel(cycle(6), (5, 3, 1, 0, 2, 4))
        played = played_positions(monkeypatch)
        for r in (0, 1, 2, 3):
            for pair in ((A, B), (A, A)):
                played.clear()
                assert ef_equivalent(*pair, r)
                sentences = [F for F, tup, k in played if tup == ()]
                assert sentences == list(dict.fromkeys(pair)), r

    def test_keeps_nothing(self):
        # Each call plays in a table of its own: the shared table gains no
        # entry, and the structures are freed once the caller drops them.
        A, B = cycle(6), relabel(cycle(6), (5, 3, 1, 0, 2, 4))
        assert ef_equivalent(A, B, 2)
        assert fo_dist(A, B, 2, 1) == 0
        caches = global_table()._caches
        assert A not in caches and B not in caches
        ref = weakref.ref(A)
        del A
        assert ref() is None


class TestLdist:
    def test_fixed_point_vs_cycle(self):
        F = FiniteMapping(f=(1, 2, 0))
        assert ldist(F, FiniteMapping(f=(0,)), 1, 0) == 1

    def test_star_sizes(self):
        assert ldist(star(3), star(4), 1, 1) == Fraction(1, 20)

    def test_isomorphic_is_zero(self):
        F = cycle(5)
        assert ldist(F, relabel(F, (4, 2, 0, 1, 3)), 2, 2) == 0

    def test_pair_inside_a_twin_in_tree(self):
        # In A, 1 and 2 are interchangeable siblings under the fixed point
        # 0, with in-trees {1, 3} and {2, 4}; in B, 0 has the siblings 1, 2
        # and 5, and 2 and 5 have one child each.  From the pair (0, 3),
        # which has an element inside the in-tree of 1 in A, the siblings
        # are not interchangeable.
        A = FiniteMapping(f=(0, 0, 0, 1, 2))
        B = FiniteMapping(f=(0, 0, 0, 2, 5, 0))
        for r in (1, 2):
            assert ldist(A, B, 2, r) == brute_ldist(A, B, 2, r)

    def test_needs_positive_p(self):
        with pytest.raises(ValueError):
            ldist(cycle(3), cycle(3), 0, 1)

    def test_rejects_negative_rank(self):
        for p in (1, 2, 3):
            with pytest.raises(ValueError, match="rank must be nonnegative"):
                ldist(cycle(3), cycle(5), p, -1, TypeTable())

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(equivalence, "GAME_BUDGET", 1000)
        with pytest.raises(BudgetExceeded):
            ldist(seeded(40, 0), seeded(40, 1), 3, 1)

    def test_earlier_element_marks_count(self):
        # The pairs (0, 1) differ only in the mark of their first element:
        # 3 of 4 pairs of A have a class that B has none of.
        A, B = marked_fixed_points({0}), marked_fixed_points({0, 1})
        assert ldist(A, B, 2, 0) == Fraction(3, 4)
        assert fo_dist(A, B, 2, 0) == Fraction(3, 4)

    def test_pairs_match_oracle_exhaustive(self):
        table = TypeTable()
        assert_pairs_match_oracle(lambda A, B, r: ldist(A, B, 2, r, table), local_game)

    @pytest.mark.parametrize("p, sizes, ranks", [(2, (2, 7), (0, 1, 2)), (3, (2, 5), (0, 1))])
    def test_tuples_match_oracle_seeded(self, p, sizes, ranks):
        rng = random.Random(60 + p)
        for trial in range(40):
            A = seeded(rng.randrange(*sizes), trial, Fraction(1, 2))
            B = seeded(rng.randrange(*sizes), 300 + trial, Fraction(1, 2))
            for r in ranks:
                assert ldist(A, B, p, r) == brute_ldist(A, B, p, r), (trial, r)

    def test_plays_only_near_pair_games(self, monkeypatch):
        # A count guard: at r = 1 a pair game is played only for b in the
        # radius-2 ball of a, about 2% of the n^2 ordered pairs here.
        A, B = seeded(300, 0, Fraction(1, 2)), seeded(300, 1, Fraction(1, 2))
        played = played_positions(monkeypatch)
        ldist(A, B, 2, 1, TypeTable())
        for F in (A, B):
            assert 0 < pair_games(played, F, 1) <= F.n**2 // 25

    def test_pair_budget_counts_ball_sizes(self, monkeypatch):
        # Every radius-2 ball of a star holds all of it, so the ball sizes
        # pass the budget after about a third of the leaves, before any
        # position is played.
        played = played_positions(monkeypatch)
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as caught:
            ldist(star(3000), star(2999), 2, 1, TypeTable())
        assert time.perf_counter() - started < 10
        assert 1_000_000 < caught.value.needed < 1_010_000
        assert played == []

    def test_shared_table_plays_pairs_again(self, monkeypatch):
        # Pair games are not kept, so a second call on one table plays and
        # spends what the first did.  Roots are kept: a p = 1 call plays
        # them first, so neither p = 2 call spends anything on them.
        A, B = seeded(12, 2, Fraction(1, 2)), seeded(14, 3, Fraction(1, 2))
        table = TypeTable()
        ldist(A, B, 1, 1, table)
        played, meters = played_positions(monkeypatch), game_meters(monkeypatch)
        first = ldist(A, B, 2, 1, table)
        spent_first, played_first = meters[0].spent, len(played)
        second = ldist(A, B, 2, 1, table)
        assert first == second == brute_ldist(A, B, 2, 1)
        assert len(meters) == 6
        assert meters[3].spent == spent_first > 0
        assert len(played) == 2 * played_first > 0

    def test_shared_table_keeps_no_triple(self, monkeypatch):
        # At p = 3 no value is kept, of a root or of a triple: each
        # structure's cache keeps no root, and its two move tables, one
        # with twin classes for the roots and one without for the triples,
        # hold about one entry per element each, not one per triple.  A
        # second call on the same table plays and spends what the first did.
        A, B = seeded(5, 2, Fraction(1, 2)), seeded(6, 3, Fraction(1, 2))
        table = TypeTable()
        played, meters = played_positions(monkeypatch), game_meters(monkeypatch)
        first = ldist(A, B, 3, 1, table)
        spent_first, played_first = meters[0].spent, len(played)
        for F in (A, B):
            cache = table._structure_cache(F)
            assert cache["roots"] == {}
            assert cache_entries(cache) <= 2 * (F.n + 1)
        second = ldist(A, B, 3, 1, table)
        assert first == second == brute_ldist(A, B, 3, 1)
        assert len(meters) == 2
        assert meters[1].spent == spent_first > 0
        assert len(played) == 2 * played_first > 0

    def test_singles_play_twin_classes(self):
        # At p >= 3 the 1-tuple values are played under twin classes, as a
        # 1-tuple game starts connected: star(30)'s 31 roots at rank 3
        # spend 124 positions, where exploring every fresh neighbor spends
        # 50,551, and get the same values.  None is kept.
        F, table = star(30), TypeTable()
        twins, every = Meter(10**6), Meter(10**6)
        values = list(table.root_values(F, F.elements(), 3, twins))
        singles = ((a,) for a in F.elements())
        assert values == list(table.tuple_values(F, singles, 3, every))
        assert (twins.spent, every.spent) == (124, 50_551)
        assert table._structure_cache(F)["roots"] == {}

    def test_same_structure_plays_its_pairs_once(self, monkeypatch):
        # ldist(F, F) reads B's pair classes off A's, so each pair game is
        # played, and spent, once.  Only one ordering of a near pair is
        # played: (a, b) with a != b, b in the radius-2 ball of a, and
        # root(a) < root(b), or equal roots.  A fresh table numbers the
        # roots as the call's own fresh table does.
        F = seeded(40, 4, Fraction(1, 2))
        roots = TypeTable()
        root = [roots.nv_value(F, (a,), 1) for a in F.elements()]
        ordered = sum(a != b and root[a] <= root[b] for a in F.elements() for b in ball(F, a, 2))
        played = played_positions(monkeypatch)
        assert ldist(F, F, 2, 1, TypeTable()) == 0
        assert pair_games(played, F, 1) == ordered == 97

    def test_pair_game_too_deep_is_refused_before_play(self, monkeypatch):
        # The depth rule of every game (two frames per round) holds for
        # pair games, under a recursion limit patched low: in a fresh table,
        # and in one that keeps the roots, so that no root game is played.
        A, B = cycle(4), cycle(5)
        kept = TypeTable()
        ldist(A, B, 1, 3, kept)
        played = played_positions(monkeypatch)
        monkeypatch.setattr(sys, "getrecursionlimit", lambda: 5)
        for table in (TypeTable(), kept):
            with pytest.raises(GameTooDeep) as caught:
                ldist(A, B, 2, 3, table)
            assert caught.value.rank == 3
            assert caught.value.budget == 5
        assert played == []

    def test_plays_no_diagonal_pair(self, monkeypatch):
        # A count guard: (a, a) is counted by its root, so no pair game is
        # played from it.  A position below the top of a game only adds
        # fresh elements, so every 2-tuple with a repeated element would
        # be the top of a pair game.
        A, B = star(12, {"U": frozenset({1, 2})}), hub_heavy(30, 1)
        played = played_positions(monkeypatch)
        ldist(A, B, 2, 2, TypeTable())
        pairs = [tup for F, tup, k in played if len(tup) == 2]
        assert pairs
        assert not [tup for tup in pairs if tup[0] == tup[1]]

    def test_budget_counts_game_positions(self, monkeypatch):
        # The ball sizes of two 100-leaf stars (10,302 each) fit in a budget
        # of 100,000, but their rank-2 pair games play about 3 million
        # positions.
        monkeypatch.setattr(equivalence, "GAME_BUDGET", 100_000)
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded) as caught:
            ldist(star(100), star(100), 2, 2)
        assert time.perf_counter() - started < 5
        assert caught.value.needed == 100_001

    def test_large_pair_within_default_budget(self):
        A, B = seeded(2000, 0), seeded(2000, 1)
        assert 0 < ldist(A, B, 2, 1) < 1

    def test_matches_formula_supremum(self):
        rng = random.Random(33)
        for trial in range(15):
            A = seeded(rng.randrange(2, 6), trial, Fraction(1, 2))
            B = seeded(rng.randrange(2, 6), 55 + trial, Fraction(1, 2))
            for p, r in ((1, 0), (1, 1), (1, 2), (2, 1)):
                assert ldist(A, B, p, r) == brute_ldist(A, B, p, r), (trial, p, r)


class TestOneOrdering:
    """Each tuple is played in one ordering: the distances against the
    oracles that play every ordering of every tuple."""

    @pytest.mark.parametrize("family", sorted(TIED_PAIRS))
    def test_ties_match_brute_oracles(self, family):
        for A, B in TIED_PAIRS[family]:
            for p in (2, 3):
                for r in (0, 1, 2):
                    assert ldist(A, B, p, r) == brute_ldist(A, B, p, r), (p, r)
                    assert fo_dist(A, B, p, r) == brute_fo_dist(A, B, p, r), (p, r)

    @pytest.mark.parametrize(
        "p, n, ranks", [(2, 20, (0, 1, 2)), (2, 60, (0, 1)), (3, 20, (0, 1)), (3, 25, (1,))]
    )
    def test_match_every_ordering_oracle_seeded(self, p, n, ranks):
        # Inputs past the brute-force oracles' reach.
        rng = random.Random(70 + p)
        for trial in range(2):
            A = seeded(n, trial, Fraction(1, 2))
            B = redrawn_copy(rng, A)
            for r in ranks:
                assert ldist(A, B, p, r) == every_ordering_ldist(A, B, p, r), (trial, r)
                assert fo_dist(A, B, p, r) == every_ordering_fo_dist(A, B, p, r), (trial, r)

    def test_symmetric(self):
        # The roots' order depends on which structure is typed first, so
        # swapping the structures sorts the tuples another way.
        rng = random.Random(90)
        for trial in range(6):
            A = seeded(rng.randrange(3, 25), trial, Fraction(1, 2))
            B = redrawn_copy(rng, A) if trial % 2 else seeded(A.n + 1, 50 + trial)
            for p, r in ((1, 1), (2, 0), (2, 1), (2, 2), (3, 1)):
                assert ldist(A, B, p, r) == ldist(B, A, p, r), (trial, p, r)
                assert fo_dist(A, B, p, r) == fo_dist(B, A, p, r), (trial, p, r)


class TestSameStructure:
    """When B is A, a distance counts A's classes, and plays A's sentence
    game, once: its spend is one structure's, half of what a copy of A as
    B costs.  Spends on F = seeded(40, 3); at p = 2 B's balls are not
    built either."""

    @pytest.mark.parametrize(
        "distance, spent, meters",
        [
            pytest.param(lambda A, B: ldist(A, B, 1, 1, TypeTable()), 107, 1, id="ldist-p1"),
            pytest.param(lambda A, B: ldist(A, B, 2, 1, TypeTable()), 526, 2, id="ldist-p2"),
            pytest.param(
                lambda A, B: ldist(A, B, 3, 1, TypeTable()), 95_419, 1, id="ldist-p3"
            ),
            pytest.param(lambda A, B: fo_dist(A, B, 2, 2), 33_778, 1, id="fo_dist-p2"),
            pytest.param(lambda A, B: fo_dist(A, B, 0, 3), 1_601, 1, id="fo_dist-p0"),
            pytest.param(lambda A, B: not ef_equivalent(A, B, 3), 1_601, 1, id="ef"),
        ],
    )
    def test_counted_once(self, monkeypatch, distance, spent, meters):
        F = seeded(40, 3)
        copy = FiniteMapping(f=F.f, marks=F.marks, signature=F.signature)
        made = game_meters(monkeypatch)
        assert distance(F, F) == 0
        assert (made[0].spent, len(made)) == (spent, meters)
        made.clear()
        assert distance(F, copy) == 0
        assert made[0].spent == 2 * spent


class TestFoDist:
    def test_sentence_gap(self):
        F = FiniteMapping(f=(1, 2, 0))
        assert fo_dist(F, FiniteMapping(f=(0,)), 0, 1) == 1

    def test_separated_skips_tuples(self, monkeypatch):
        # Separated at rank 1 (a fixed point against none): the distance is
        # 1 without enumerating the 20^3 triples, which the budget forbids.
        monkeypatch.setattr(equivalence, "GAME_BUDGET", 1000)
        A, B = cycle(20), FiniteMapping(f=(0,) * 20)
        assert fo_dist(A, B, 3, 1) == 1
        with pytest.raises(BudgetExceeded):
            fo_dist(A, cycle(20), 3, 1)

    def test_zero_rank_zero_vars(self):
        assert fo_dist(cycle(3), cycle(4), 0, 0) == 0

    def test_isomorphic_is_zero(self):
        F = cycle(5)
        assert fo_dist(F, relabel(F, (1, 3, 0, 4, 2)), 2, 3) == 0

    def test_dominates_ldist(self):
        # local formulas are a subset of the clean ones
        rng = random.Random(40)
        for trial in range(10):
            A = seeded(rng.randrange(3, 7), trial, Fraction(1, 2))
            B = seeded(rng.randrange(3, 7), 99 + trial, Fraction(1, 2))
            for p, r in ((1, 1), (2, 1)):
                assert fo_dist(A, B, p, r) >= ldist(A, B, p, r)

    def test_matches_global_tuple_game_oracle(self):
        rng = random.Random(41)
        for trial in range(40):
            A = seeded(rng.randrange(2, 5), trial, Fraction(1, 2))
            B = seeded(rng.randrange(2, 5), 500 + trial, Fraction(1, 2))
            for r in (0, 1):
                assert fo_dist(A, B, 2, r) == brute_fo_dist(A, B, 2, r), (trial, r)

    def test_pairs_match_oracle_exhaustive(self):
        assert_pairs_match_oracle(lambda A, B, r: fo_dist(A, B, 2, r), global_tuple_game)

    def test_matches_oracle_seeded_two_predicates(self):
        # Two predicates and forced fixed points give the last round's
        # atom-row classes many shapes.  A nudged or grown copy of A is
        # often close enough to it for the distance to lie strictly between
        # 0 and 1, and a grown copy holds one more element of some class.
        rng = random.Random(1)
        for trial in range(30):
            A = with_fixed_points(rng, 1 + rng.randrange(5))
            if trial % 3 == 0:
                B = with_fixed_points(rng, 1 + rng.randrange(6))
            else:
                B = (nudged, grown)[trial % 3 - 1](rng, A)
            for p in (0, 1, 2):
                for r in (0, 1, 2):
                    assert fo_dist(A, B, p, r) == brute_fo_dist(A, B, p, r), (trial, p, r)

    def test_last_round_is_counted_not_played(self):
        # A count guard: with one round left, a position reads its kids off
        # atom rows instead of playing n leaf positions.
        F = seeded(50, 8, Fraction(1, 2))
        for r, spent in ((2, 1 + 50), (3, 1 + 50**2)):
            meter = Meter(10**6)
            TypeTable().global_value(F, (), r, meter)
            assert meter.spent == spent, r


class TestTruncatedSeries:
    def test_isomorphic_lower_zero(self):
        F = cycle(5)
        G = relabel(F, (3, 1, 4, 2, 0))
        lower, upper = dist_fo_truncated(F, G, 4)
        assert lower == 0
        assert upper == Fraction(7, 16)

    def test_brackets_tighten(self):
        A, B = seeded(5, 2), seeded(6, 3)
        prev_lower, prev_upper = Fraction(0), Fraction(4)
        for K in (0, 1, 2, 3, 4):
            lower, upper = dist_fo_truncated(A, B, K)
            assert prev_lower <= lower <= upper <= prev_upper
            assert upper - lower == Fraction(K + 3, 2**K)
            prev_lower, prev_upper = lower, upper

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            dist_fo_truncated(cycle(3), cycle(3), -1)


class TestNegativeArguments:
    def test_fo_dist_and_ef_reject_negative_rank(self):
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            fo_dist(cycle(3), cycle(5), 1, -1)
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            ef_equivalent(cycle(3), cycle(5), -1)

    def test_fo_dist_rejects_negative_p(self):
        with pytest.raises(ValueError, match="p must be nonnegative"):
            fo_dist(cycle(3), cycle(3), -1, 1)



def frame_depth() -> int:
    """How many Python frames are on the caller's stack, itself included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def under_frames(frames: int, call):
    """call() with `frames` more frames on the stack."""
    return under_frames(frames - 1, call) if frames else call()


class TestOutOfStack:
    def test_game_out_of_stack_raises_game_too_deep(self):
        # With d frames on the stack here, a rank-k game, k = d + 20,
        # passes the two-frames-per-round rule under a recursion limit of
        # 2k.  Called under 30 more frames, it finds fewer than k frames
        # left and runs out of stack, while the calls around it fit with d
        # frames to spare.  Each door into the kernel raises GameTooDeep,
        # not RecursionError: a root, a near pair and a sentence.  A
        # star's root games are linear (its leaves are one twin class), so
        # the roots are kept before the limit is lowered, and ldist
        # reaches its pair games.
        k = frame_depth() + 20
        F = star(k + 5)
        kept, fresh = TypeTable(), TypeTable()
        for v in F.elements():
            kept.nv_value(F, (v,), k)
        fresh.nv_value(F, (0,), 0)  # F's structure cache is warm
        doors = {
            "root": lambda: fresh.nv_value(F, (0,), k),
            "near pair": lambda: ldist(F, F, 2, k, kept),
            "sentence": lambda: fo_dist(F, F, 0, k),
        }
        limit = sys.getrecursionlimit()
        for door, call in doors.items():
            sys.setrecursionlimit(2 * k)
            try:
                with pytest.raises(GameTooDeep) as caught:
                    under_frames(30, call)
            finally:
                sys.setrecursionlimit(limit)
            assert (caught.value.rank, caught.value.budget) == (k, 2 * k), door
