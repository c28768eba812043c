"""Global r-equivalence and the convergence pseudometrics.

Two structures are r-equivalent when the second player wins the r-round
back-and-forth game with unrestricted moves.  Its values come from the type
kernel's engine under the whole-domain move rule (localtypes), played in a
fresh TypeTable per call, so nothing is kept once the call returns.

The pseudometrics follow: dist_p^r is the total variation distance between
the two structures' distributions of r-round game classes of p-tuples (every
rank-r definable event is a union of classes, so the supremum over formulas
is attained there), and ldist_p^r is the same with the local game.

The class of a p-tuple is its game value together with the atom rows of its
proper prefixes.  A value records only the atoms its last element adds over
the earlier ones, so without the prefix rows the marks and self-loop of an
earlier element would be lost: fixed points 0 and 1 with U = {0} and with
U = {0, 1} would give their pairs (0, 1) one class.

At p = 2, ldist splits the pairs by Gaifman distance (Gaifman 1982; Hanf
1965).  A far pair, at distance at least r + 2, needs no game:

- Every local move is adjacent to a placed element, so the placed elements
  split into the part around a and the part around b.  After i moves on
  a's side and j <= r - i on b's, the parts are at distance at least
  r + 2 - i - j >= 2, so no atom links them: every move is pinned to one
  side by its atoms.  Duplicator composes the two one-sided strategies,
  and Spoiler may spend all r rounds on either side.  So the class of a
  far pair (a, b) is the pair of rank-r root classes (s, t) of a and b,
  and distinct (s, t) give distinct classes.
- A near pair, at distance d <= r + 1, shows its link within d - 1 <= r
  moves: Spoiler places a shortest path from a to b, whose atoms no far
  pair can mirror.  So no near pair shares a class with a far one.

Each tuple is played in one ordering.  The class of a tuple fixes the
1-tuple class of each of its elements: Duplicator's strategy for the
tuple, restricted to the moves Spoiler makes from one element, is a
strategy for that element alone.  Every answer keeps the atoms, so in the
local game a move next to a placed element is answered next to its image,
and the answers stay within the element's own game.  Permuting a tuple's
positions carries classes to classes bijectively.  So let sigma be the
stable sort of a tuple's positions by its elements' 1-tuple values: the
key (sigma, class of the sorted tuple) is exact, and only a tuple whose
values already run in order needs a game.  The class of a sorted tuple
fixes the run lengths m_v of its values, so in both structures it meets
the same p!/prod(m_v!) orderings sigma, each with the class's own count.
The distance is a sum over keys, so each sorted tuple is counted once for
every ordering whose stable sort it is, under its own class, and sigma
need not be spelled in the key.

ldist therefore takes each element's root value, plays the pair game only
for b in the radius-(r+1) ball of a, and counts the far pairs with roots
(s, t) as count[s] * count[t] minus the near pairs with those roots.  A
near pair (a, b) with roots s < t is played and counted twice, once for
itself and once for (b, a), which is not played; with s = t and a != b
both orders are played, each counted once; and (a, a) plays nothing, as
its class, ("diagonal", s), is its root's.  Balls are symmetric, so every
unordered near pair is met from both ends.  At p >= 3, and in dist_p^r
at p >= 2, the 1-tuple values are read first, and only the tuples whose
values run in order are played.

ldist reads every 1-tuple value, at every p, off TypeTable.nv_value, which
keeps each root's value in the table, the only game values it keeps, so a
second call on the same table plays no root again.  A kept root value is in
layer-0 normal form (localtypes), not the value played, but the proof above
holds for any order on the 1-tuple values as long as both structures use the
same one: the normal form is a bijection on values, and A and B share one
table.  The 1-tuple values of dist_p^r are played under the whole-domain
rule and not kept.  A sorted tuple is asked for once per call, so its game
is played once, straight on the engine, and not kept: a structure's near
pairs stream through one TypeTable.tuple_values call, and nv_value hands
each longer tuple of ldist to tuple_values, so a second call on the same
table plays and spends them again.  Every game of this module enters the
kernel through a TypeTable method, whose one depth guard refuses a game too
deep for the stack with GameTooDeep.

Each call counts each structure's classes once: when B is A, at every p,
B's counts are A's, and dist_p^r plays A's sentence game for both.  At
p = 0, dist_p^r is the comparison of the two sentence values.

Every call has one work budget, the module constant GAME_BUDGET, read when
the call runs; no call takes a budget of its own.  Before any game is
played, ldist at p = 2 checks n plus the ball sizes of each structure
against the budget, summed as the balls are built.  At p = 1 and p >= 3, and
in dist_p^r, whose unrestricted moves reach past any ball, the budget bounds
n^p, the number of p-tuples, though only the sorted ones are played.
dist_p^r is 1 when a sentence of rank r separates the structures, and then
no tuple is enumerated.  Either distance also spends every game position it
plays on one meter per call, and raises BudgetExceeded once the positions
pass the budget.  In dist_p^r a position with one round left is played and
spent, but its extensions by the n elements are not: the engine reads their
values off atom-row classes, so they are neither played nor counted.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Optional

from .errors import BudgetExceeded, SignatureMismatch
from .localtypes import Meter, TypeTable, atom_row, global_table
from .structure import FiniteMapping, ball

GAME_BUDGET = 1_000_000


def ef_equivalent(A: FiniteMapping, B: FiniteMapping, r: int) -> bool:
    """Whether no sentence of quantifier rank <= r separates A from B."""
    return fo_dist(A, B, 0, r) == 0


def _tuple_classes(structures: tuple, p: int, value) -> list[Counter]:
    """Counts of the classes of all p-tuples of each structure, each keyed by
    the atom rows of its proper prefixes and its game value `value(F, tup)`.
    Only the tuples whose 1-tuple values run in order are played, each
    counted once for every ordering whose stable sort it is (module
    docstring); at p = 1 the 1-tuple values are the classes.
    BudgetExceeded when any structure has more than GAME_BUDGET p-tuples."""
    needed = max(F.n for F in structures) ** p
    if needed > GAME_BUDGET:
        raise BudgetExceeded(GAME_BUDGET, needed)
    counts = []
    for F in structures:
        singles = [value(F, (a,)) for a in F.elements()]
        if p == 1:
            counts.append(Counter(singles))
            continue
        order = sorted(F.elements(), key=singles.__getitem__)
        runs = [list(run) for _, run in itertools.groupby(order, key=singles.__getitem__)]
        f, marks, count = F.f, F.mark_sets, Counter()
        for ids in itertools.combinations_with_replacement(range(len(runs)), p):
            orderings = math.factorial(p) // math.prod(map(math.factorial, Counter(ids).values()))
            for tup in itertools.product(*(runs[i] for i in ids)):
                rows = tuple(atom_row(f, marks, tup[:i]) for i in range(1, p))
                count[rows, value(F, tup)] += orderings
        counts.append(count)
    return counts


def _near_balls(F: FiniteMapping, radius: int) -> list[frozenset[int]]:
    """Every element's ball of the given radius, raising BudgetExceeded as
    soon as n plus the ball sizes so far passes GAME_BUDGET."""
    meter = Meter(GAME_BUDGET)
    meter.spend(F.n)
    balls = []
    for a in F.elements():
        balls.append(ball(F, a, radius))
        meter.spend(len(balls[-1]))
    return balls


def _pair_classes(
    F: FiniteMapping, table: TypeTable, r: int, meter: Meter, balls: list[frozenset[int]]
) -> dict:
    """Counts of the local classes of all ordered pairs of F at rank r in
    `table`, every position spent on `meter`.  Far pairs are counted from
    the roots' classes, which the table keeps.  A near pair (b in the
    radius-(r+1) ball of a) with roots s < t is played and counted for
    itself and for (b, a); with s = t and a != b it is played and counted
    once; (a, a) is counted by its root and not played (module docstring).
    Each played pair is asked for once, so it is played straight on the
    engine: F's played pairs stream through one TypeTable.tuple_values
    call, which plays each as its value is read and keeps none."""
    roots = [table.nv_value(F, (a,), r, meter) for a in F.elements()]
    counts: dict = {}
    near_roots: dict = {}
    played = (
        (a, b) for a, near in enumerate(balls) for b in near if a != b and roots[a] <= roots[b]
    )
    values = table.tuple_values(F, played, r, meter)
    for a, near in enumerate(balls):
        row, s = atom_row(F.f, F.mark_sets, (a,)), roots[a]
        for b in near:
            t = roots[b]
            near_roots[s, t] = near_roots.get((s, t), 0) + 1
            if a == b:
                key, orderings = ("diagonal", s), 1
            elif s <= t:
                key, orderings = ("near", row, next(values)), 1 + (s < t)
            else:
                continue  # counted with (b, a)
            counts[key] = counts.get(key, 0) + orderings
    root_counts = Counter(roots)
    for s, count_s in root_counts.items():
        for t, count_t in root_counts.items():
            far = count_s * count_t - near_roots.get((s, t), 0)
            if far:
                counts["far", s, t] = far
    return counts


def _tv(a: dict, total_a: int, b: dict, total_b: int) -> Fraction:
    """TV distance between the class counts a (out of total_a tuples) and
    b (out of total_b)."""
    gap = sum(
        abs(a.get(k, 0) * total_b - b.get(k, 0) * total_a) for k in a.keys() | b.keys()
    )
    return Fraction(gap, 2 * total_a * total_b)


def ldist(
    A: FiniteMapping,
    B: FiniteMapping,
    p: int,
    r: int,
    table: Optional[TypeTable] = None,
) -> Fraction:
    """TV distance between the distributions of local-game classes of
    p-tuples drawn uniformly from each structure."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    if p < 1:
        raise ValueError("ldist needs p >= 1")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    table = table or global_table()
    meter = Meter(GAME_BUDGET)
    structures = (A,) if B is A else (A, B)
    if p == 2:
        balls = [_near_balls(F, r + 1) for F in structures]
        counts = [_pair_classes(F, table, r, meter, near) for F, near in zip(structures, balls)]
    else:
        counts = _tuple_classes(structures, p, partial(table.nv_value, k=r, meter=meter))
    return _tv(counts[0], A.n**p, counts[-1], B.n**p)


def fo_dist(A: FiniteMapping, B: FiniteMapping, p: int, r: int) -> Fraction:
    """sup over p-variable formulas of quantifier rank <= r of the pairing gap.

    1 as soon as a sentence of rank <= r separates A from B; the p-tuples
    are enumerated, and n^p counted against the budget, only otherwise."""
    if not A.same_signature(B):
        raise SignatureMismatch("structures must share a signature")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    value = partial(TypeTable().global_value, k=r, meter=Meter(GAME_BUDGET))
    structures = (A,) if B is A else (A, B)
    sentences = [value(F, ()) for F in structures]
    if sentences[0] != sentences[-1]:
        return Fraction(1)
    if p == 0:
        return Fraction(0)
    counts = _tuple_classes(structures, p, value)
    return _tv(counts[0], A.n**p, counts[-1], B.n**p)


def dist_fo_truncated(
    A: FiniteMapping, B: FiniteMapping, K: int
) -> tuple[Fraction, Fraction]:
    """Partial sum of sum_{p,r} 2^-(p+r) dist_p^r over p+r <= K, with the
    exact tail bound sum_{p+r>K} 2^-(p+r) = (K+3)/2^K as the upper gap."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    lower = Fraction(0)
    for s in range(K + 1):
        for p in range(s + 1):
            lower += Fraction(1, 2**s) * fo_dist(A, B, p, s - p)
    tail = Fraction(K + 3, 2**K)
    return lower, lower + tail
