"""Rank-r local types of pointed mappings.

A rank-r type is the equivalence class of a pointed structure under the
r-round local game: starting from the chosen element, each round adds one
element adjacent to an already-placed one, and two pointed structures have
the same type iff the second player can always mirror moves preserving all
atoms (marks, equalities, f-relations) among the placed elements.

Types are decided by interning game values bottom-up instead of searching
game trees pairwise.  The value of a placed tuple records the atoms its last
element adds plus the set of values of all one-element extensions at one
rank lower; two tuples get the same interned value exactly when the second
player can mirror between them for the remaining rounds.  Re-placing an
already-placed element is never a winning move for the first player (the new
atoms are forced), so extensions range over fresh neighbors only.

Sibling twins are explored once.  In a game that starts from one element,
every placed tuple is connected.  Let y and y' be fresh preimages of the same
placed element, neither on a cycle.  Then the in-tree T(y) of y (every
element some iterate sends to y) meets neither T(y') nor the tuple: a
connected tuple reaches T(y) only through y.  Suppose the two in-trees, cut
off at depth k, are isomorphic with marks, where k is the number of rounds
left once y is placed.  Swapping them maps every position those k rounds can
reach to one with the same atoms and the same fresh moves.  So the tuple
extended by y has the same value as the tuple extended by y', and the set of
extension values loses nothing when only one of them is explored.  Each
in-tree is encoded bottom-up by its marks and the sorted codes of its
children, as Aho, Hopcroft and Ullman (1974) encode trees; the codes are
interned per structure.  A game from a p-tuple with p >= 2 may start
disconnected, with a placed element inside some T(y), so it explores every
fresh neighbor.

Layers of a cut product are played once.  structure.cycle_cut_product
numbers (x, i) as x*m + i and marks it U_i; a table recognizes any
structure laid out so (structure.cut_product_layers) when it first builds
its cache.  Shifting every element by s layers, (x, i) -> (x, i + s mod m),
commutes with f and keeps every input and type mark; it changes only U_j
into U_{j+s mod m}.  So it is an isomorphism from the product onto the
product with its layer marks renamed, and the value of (x, s) is the value
of (x, 0) with U_j renamed U_{j+s mod m} in every row, kids included.

Root values are therefore kept in a layer-0 normal form in a table that
has claimed an m.  A root value whose root row carries exactly one of
U_0..U_{m-1}, say U_j with j != 0, gets the id of the pair (its value
shifted by -j, j), interned as (rank, layer-0 value, j); every other root
value is its own normal form.  A claimed product's root (x, s) is the
pair (value of (x, 0), s), with no tree built and no game played outside
layer 0; a root played on any other structure is brought to normal form by
one memoized walk that shifts it back.  Lowering a pair lowers its layer-0
value, since a shift commutes with lowering.  The normal form is faithful:
a shift renames U_0..U_{m-1}, so it is a bijection on values, and j is read
off the value's own root row, so two root values are equal exactly when
their normal forms are.  Canonical ids are still given in order of first
appearance, to the same values, so they come out the same.  Kid values and
tuples of two or more elements stay as played.

A table claims the m of the first product it sees and keeps it.  A
product with another m is played in every layer; its values are normalized
like any other structure's, so they stay consistent.  Nor is any m claimed
once a root value with a mark U_j, j >= 1, was handed out before any m was
known, since that value was not normalized.

The same engine plays the FO game of equivalence.fo_dist, whose moves range
over the whole domain.  Its values share the intern registry; one (tuple,
rounds) has a different value under each rule, so values are compared only
within one rule.  Lowering holds for both rules, as the set of kid values
does not depend on the rounds left.

Game values are kept for roots only.  A position (tup, k) below the top of
a game is reached only from (tup[:-1], k + 1), which is played once, so a
memo below the top would never be hit.  Roots are asked for again and
again, by histograms, transport and lower ranks, so nv_value keeps each
root's value in layer-0 normal form, and asking for it again plays and
spends nothing.  Any other top-level tuple, such as a sentence or p-tuple
of equivalence's distances (global_value, tuple_values), and a root asked
for through root_values, is played and spent each time it is asked for;
equivalence asks for each once per call.
A Meter passed down counts the positions a call plays, one each.  In the
local game only a top-level tuple's atom row is scanned off the tuple.  A
fresh y equals no placed element, so its row over a placed tuple is its
marks, whether it is fixed, the first index of f(y) in the tuple, and the
indices whose image is y.  A position reads the first off its tuple, which
holds at most k + 1 elements, and the last off the tuple of their images,
which it hands each kid along with the kid's row.  The leaves of the last
round are interned in place from such rows, and the Meter is charged for a
position's leaves at once, one each; a batch that does not fit raises with
the same budget and spend as one charge per leaf would, so the positions
counted are unchanged.

A game of k rounds is refused with GameTooDeep, before any position is
played, when 2k passes Python's recursion limit.  Two frames per round is
what the game took when each position gathered its kids in a set
comprehension, a frame of its own up to Python 3.11, so the ranks refused
are the ones that ran out of stack there.  The rule is written out because
how many frames a round takes depends on the interpreter and the code:
Python 3.12 inlines comprehensions (PEP 709), and a 600-round game on a
1000-cycle, which ran out of stack at once on 3.10 and 3.11, then fit on
3.12 and 3.13 and searched some 2^600 positions.  A game the rule lets
through that still runs out of stack raises GameTooDeep too.  One guard
does both, in TypeTable._play, the door by which every game enters the
engine: roots, sentences and the tuples of tuple_values alike.

The whole-domain game's last round is read off atom rows, not played.
With one round left, the kids of a tuple are the rank-0 values of its
extensions by each unplaced z, and a rank-0 value is z's atom row: its
marks, whether it is fixed, and which placed elements equal it, are its
image, or are its preimages.  An unplaced z that is neither an image nor a
preimage of a placed element has the row (marks, fixed, None, None, 0),
which depends only on its class (marks, fixed).  So the kid set is the row
of every image and preimage of a placed element, plus the free row of each
class with more elements in F than the tuple and those related elements
hold.  Class sizes are counted once per structure.  The position is still
played, and spends one; its n leaf positions are neither played nor
counted, so a game of rank r spends about n^(r-1) positions, not n^r.

The TypeTable assigns session-stable canonical ids on first sight; it is
shared process-wide by default.  What depends on a structure alone lives
per structure and is built once for every table: its in-tree codes, its
move tables with and without twin classes, and its (marks, fixed) class
counts (_structure_tables), each freed with the structure.  What depends
on the table lives per table and structure: the kept root values and the
table's claim on the structure's layers; the values themselves are
interned per table.

What a table keeps holds only ints, strings, None and tuples of these: a
value is (rank, atom row, kids) with its kid set as a sorted tuple of value
ids, an atom row holds its element's marks as a sorted tuple of names and
its preimage indices as a bitmask, and move lists are tuples.  The cyclic
garbage collector untracks such a tuple once what it holds is untracked,
and a full collection then untracks the dicts keyed by them, so the
millions of values a histogram leaves, and the root values it keeps, are
not rescanned by every later collection.  A set or a list stored there
brings those rescans back.
"""

from __future__ import annotations

import math
import sys
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import (
    BudgetExceeded,
    GameTooDeep,
    MeasureError,
    RankIncrease,
    RankMismatch,
    RankTooLow,
    RankZero,
)
from .structure import FiniteMapping, cut_product_layers, layer_index, layer_mark


def atom_row(f, marks, tup: tuple[int, ...]) -> Optional[tuple]:
    """The atoms the last element of `tup` adds over the earlier ones:
    its marks, self-loop flag, first coincidence index, image index, and
    the preimage indices among the earlier elements as a bitmask.  None for
    the empty tuple."""
    if not tup:
        return None
    head, x = tup[:-1], tup[-1]
    fx = f[x]
    # Tuple scans run in C; index() gives the first match, as a scan would.
    eq = head.index(x) if x in head else None
    img = head.index(fx) if fx in head else None
    pre = 0
    bit = 1
    for t in head:
        if f[t] == x:
            pre |= bit
        bit <<= 1
    return (marks[x], fx == x, eq, img, pre)


class _PerElement(dict):
    """key -> value, each value built by `build` on first lookup."""

    __slots__ = ("_build",)

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, key):
        value = self[key] = self._build(key)
        return value


class _InTreeCodes(dict):
    """(y, d) -> the code of y's in-tree cut off at depth d, for y off every
    cycle: its marks and its children's codes at depth d - 1, interned per
    structure.  A dict subclass rather than a closure over itself, so the
    codes are freed by reference counting alone."""

    __slots__ = ("_pre", "_marks", "_interned")

    def __init__(self, pre, marks):
        super().__init__()
        self._pre, self._marks = pre, marks
        self._interned: dict[tuple, int] = {}

    def __missing__(self, key: tuple[int, int]) -> int:
        y, d = key
        children = tuple(sorted(self[c, d - 1] for c in self._pre[y])) if d else ()
        interned = self._interned
        value = self[key] = interned.setdefault(
            (self._marks[y], children), len(interned)
        )
        return value


def _twin_moves(F: FiniteMapping, code: _InTreeCodes, plain: dict, x: int, d: int) -> tuple:
    """The neighbors of x as (singles, twin classes) for a game with d
    rounds left once one of them is placed: a twin class holds two or more
    preimages off every cycle whose in-trees agree to depth d, and singles
    are the other neighbors; plain[x] when there is no twin class.  Twins
    share their marks, so only preimages that share their marks with a
    sibling are checked further, and F's cycle table is read only then."""
    pre, marks = F.pre, F.mark_sets
    by_marks: dict[tuple[str, ...], list[int]] = {}
    for y in pre[x]:
        by_marks.setdefault(marks[y], []).append(y)
    twins = []
    for group in by_marks.values():
        if len(group) < 2:
            continue
        classes: dict[int, list[int]] = {}
        for y in group:
            if not F.cycle_length[y]:
                classes.setdefault(code[y, d], []).append(y)
        twins += (tuple(c) for c in classes.values() if len(c) > 1)
    if not twins:
        return plain[x]
    paired = {y for members in twins for y in members}
    singles = tuple(y for y in pre[x] if y not in paired) + (F.f[x],)
    return singles, tuple(twins)


# Each structure's move tables and class counts, shared by every table.
_STRUCTURE_TABLES: "weakref.WeakKeyDictionary[FiniteMapping, dict]" = weakref.WeakKeyDictionary()


def _structure_tables(F: FiniteMapping) -> dict:
    """What the kernel reads off F alone, built once per structure for
    every TypeTable: "moves"[d][x], x's neighbors with twin classes
    (_twin_moves) for a game with d rounds left once one is placed;
    "all_moves"[d][x], every neighbor of x (x too if it is a fixed point)
    with no twin classes; and "classes", how many elements share each
    (marks, fixed), for the whole-domain game's last round, added on first
    use.  Entries are built per element on first lookup: a pipeline-r1
    job types six structures of 1,000 to 13,000 elements, but a cut
    product plays only its layer-0 roots, and an eager pass over every
    orbit made the realize-roundtrip benchmark 2-3 % slower.  The builders
    hold F weakly, or the tables would keep their own weak key alive."""
    tables = _STRUCTURE_TABLES.get(F)
    if tables is None:
        f, pre, structure = F.f, F.pre, weakref.ref(F)
        code = _InTreeCodes(pre, F.mark_sets)
        plain = _PerElement(lambda x: (pre[x] + (f[x],), ()))
        tables = _STRUCTURE_TABLES[F] = {
            "moves": _PerElement(
                lambda d: _PerElement(lambda x: _twin_moves(structure(), code, plain, x, d))
            ),
            "all_moves": _PerElement(lambda d: plain),
        }
    return tables


class Meter:
    """The work one call may do: BudgetExceeded(budget, spent) is raised
    once what it spends passes the budget.  A game spends one per position
    it plays, each time it is played; a root asked for again is read off
    its kept value and spends nothing."""

    __slots__ = ("budget", "spent")

    def __init__(self, budget: int):
        self.budget, self.spent = budget, 0

    def spend(self, amount: int = 1) -> None:
        self.spent += amount
        if self.spent > self.budget:
            raise BudgetExceeded(self.budget, self.spent)


class TypeTable:
    """Insert-if-absent registry of game values and canonical type ids."""

    def __init__(self):
        self._intern: dict[tuple, int] = {}
        self._meta: list[tuple] = []
        self._lower: dict[int, int] = {}
        self._canonical: dict[int, int] = {}
        self._caches: "weakref.WeakKeyDictionary[FiniteMapping, dict]" = weakref.WeakKeyDictionary()
        self._adm_tables: dict[tuple[int, int], dict] = {}
        # rank-R value -> the rank-(R - 1) value of its witness's image.
        self._images: dict[int, int] = {}
        # shift -> (layer renaming, renamed rows, shifted values), and the
        # same for each set of forgotten names.
        self._shifts: dict[int, tuple[dict, dict, dict]] = {}
        self._forgets: dict[tuple, tuple[dict, dict, dict]] = {}
        # The m this table claimed, and root mark set -> its layer j, or 0
        # when its values are their own normal form.
        self._layers: Optional[int] = None
        self._layer_of: dict[tuple[str, ...], int] = {}
        # Whether a root value carrying some U_j, j >= 1, was handed out
        # before any m was claimed; no m can be claimed after that.
        self._early_layer_marks = False

    # -- interning ---------------------------------------------------------

    def _intern_value(self, key: tuple) -> int:
        found = self._intern.get(key)
        if found is None:
            found = len(self._meta)
            self._meta.append(key)
            self._intern[key] = found
        return found

    def canonical_id(self, nv: int) -> int:
        found = self._canonical.get(nv)
        if found is None:
            found = len(self._canonical)
            self._canonical[nv] = found
        return found

    def rank_of(self, nv: int) -> int:
        return self._meta[nv][0]

    # -- per-structure state ------------------------------------------------

    def _structure_cache(self, F: FiniteMapping) -> dict:
        cache = self._caches.get(F)
        if cache is None:
            # F's move tables are F's alone and shared by every table
            # (_structure_tables); this table keeps its roots and its claim.
            tables = _structure_tables(F)
            cache = self._caches[F] = {
                "moves": tables["moves"],
                "all_moves": tables["all_moves"],
                "roots": {},
                # m when this table plays F as an m-layer cut product.
                "layers": self._claim_layers(F),
            }
        return cache

    def _claim_layers(self, F: FiniteMapping) -> Optional[int]:
        """m when F is an m-layer cut product and m is the one this table
        claimed, claiming it now if none was and none is blocked (module
        docstring); else None, and F is played in every layer."""
        m = cut_product_layers(F)
        if not m:
            return None
        if self._layers is None and not self._early_layer_marks:
            self._layers = m
            self._layer_of.clear()
        return m if m == self._layers else None

    # -- game values ---------------------------------------------------------

    def nv_value(
        self,
        F: FiniteMapping,
        tup: tuple[int, ...],
        k: int,
        meter: Optional[Meter] = None,
    ) -> int:
        """The value of `tup` in F's local game with k rounds left,
        spending every position it plays on `meter`."""
        if len(tup) != 1:
            return next(self.tuple_values(F, (tup,), k, meter))
        # A root's value at a lower rank is read off its highest-rank value
        # already solved; only roots are recorded, to keep the table small.
        cache = self._structure_cache(F)
        roots = cache["roots"]
        v = tup[0]
        best = roots.get(v)
        if best is not None and self.rank_of(best) >= k:
            return self.lower_to(best, k)
        m = cache["layers"]
        if m and v % m:
            layer = v % m
            value = self._pair(self.nv_value(F, (v - layer,), k, meter), layer)
        else:
            value = self._normal(next(self._play(F, cache["moves"], (tup,), k, meter)))
        roots[v] = value
        return value

    def _pair(self, base: int, layer: int) -> int:
        """The id of the root value `base` shifted by `layer` layers, interned
        as (rank, base, layer): no shifted tree is built."""
        return self._intern_value((self.rank_of(base), base, layer))

    def _normal(self, nv: int) -> int:
        """The layer-0 normal form of a played root value: the pair of nv
        shifted back to layer 0 and its layer j, read off nv's root row, when
        that row carries exactly one layer mark U_j with j != 0; else nv."""
        marks = self._meta[nv][1][0]
        layer = self._layer_of.get(marks)
        if layer is None:
            layer = self._layer_of[marks] = self._root_layer(marks)
        if not layer:
            return nv
        return self._pair(self._shifted(nv, self._layers - layer), layer)

    def _root_layer(self, marks: tuple[str, ...]) -> int:
        indices = [j for j in map(layer_index, marks) if j is not None]
        m = self._layers
        if m is None:
            self._early_layer_marks |= any(indices)
            return 0
        layers = [j for j in indices if j < m]
        return layers[0] if len(layers) == 1 else 0

    def global_value(
        self, F: FiniteMapping, tup: tuple[int, ...], k: int, meter: Optional[Meter]
    ) -> int:
        """The value of `tup` in F's game whose moves range over the whole
        domain, with k rounds left, spending every position on `meter`."""
        return next(self._play(F, None, (tup,), k, meter))

    def root_values(
        self, F: FiniteMapping, roots: Iterable[int], k: int, meter: Optional[Meter]
    ) -> Iterator[int]:
        """The values of the 1-tuples of `roots`, in order, in F's local
        game with k rounds left, each played as it is asked for and spent on
        `meter`.  A 1-tuple game starts connected, so each plays F's
        twin-class moves, as nv_value does; unlike nv_value, none is kept
        or brought to layer-0 normal form, so a root asked for again is
        played and spent again."""
        moves = self._structure_cache(F)["moves"]
        return self._play(F, moves, ((v,) for v in roots), k, meter)

    def tuple_values(
        self, F: FiniteMapping, tuples: Iterable[tuple], k: int, meter: Optional[Meter]
    ) -> Iterator[int]:
        """The values of `tuples`, in order, in F's local game with k rounds
        left, each played as it is asked for and spent on `meter`.  Each
        game explores every fresh neighbor, with no twin classes, since a
        game from two or more elements may start inside a twin's in-tree;
        none is kept, so a tuple asked for again is played and spent
        again."""
        return self._play(F, self._structure_cache(F)["all_moves"], tuples, k, meter)

    def _shifted(self, nv: int, s: int) -> int:
        """nv with U_j renamed U_{j+s mod m} in every row, kids included,
        for this table's m: the value of the same tuple shifted by s layers.
        Memoized per (value, s), renamed rows per (row, s)."""
        state = self._shifts.get(s)
        if state is None:
            m = self._layers
            rename = {layer_mark(j): layer_mark((j + s) % m) for j in range(m)}
            state = self._shifts[s] = (rename, {}, {})
        return self._rename(nv, *state)

    def forget(self, nv: int, names: frozenset[str]) -> int:
        """The value of the same root in the same structure with the marks
        in `names` dropped: nv with those names dropped from every row,
        kids included.  Marks decide no move, so the game tree is the same,
        and two kids that differ only in dropped marks become one.  `names`
        must hold every layer mark U0..U{m-1} when this table claimed an m:
        the result then carries none, so it is its own normal form, and a
        root pair, a layer-0 value shifted by layers, forgets like its
        layer-0 value.  Memoized per (value, names, claimed m)."""
        key = (names, self._layers)
        state = self._forgets.get(key)
        if state is None:
            if self._layers and not names >= set(map(layer_mark, range(self._layers))):
                raise ValueError("forget must drop every layer mark")
            state = self._forgets[key] = (dict.fromkeys(names), {}, {})
        row = self._meta[nv][1]
        if type(row) is int:
            nv = row
        return self._rename(nv, *state)

    def _rename(self, nv: int, rename: dict, rows: dict, memo: dict) -> int:
        """nv with each mark name in `rename` replaced by its entry there,
        or dropped where the entry is None, in every row, kids included;
        renamed rows are kept in `rows` and values in `memo`."""
        found = memo.get(nv)
        if found is not None:
            return found
        rank, row, kids = self._meta[nv]
        moved = rows.get(row)
        if moved is None:
            names = (rename.get(name, name) for name in row[0])
            marks = tuple(sorted(name for name in names if name is not None))
            moved = rows[row] = (marks,) + row[1:]
        if kids is not None:
            for c in kids:
                if c not in memo:
                    self._rename(c, rename, rows, memo)
            # A shift keeps the kids distinct; dropping names may merge them.
            kids = tuple(sorted(set(map(memo.__getitem__, kids))))
        value = memo[nv] = self._intern_value((rank, moved, kids))
        return value

    def _play(self, F, moves, tuples, k, meter) -> Iterator[int]:
        """The values of `tuples` with k rounds left, in order, each played
        on _nv under the move table `moves` when it is asked for, and none
        kept: every game enters the engine here, its caller having looked
        the table up once per call (F's twin-class "moves" for roots,
        "all_moves" for other local tuples, None for the whole domain).  A
        game of more rounds than half Python's recursion limit raises
        GameTooDeep, a BudgetExceeded, before any tuple is played (module
        docstring); one that still runs out of stack raises it too."""
        if 2 * k > sys.getrecursionlimit():
            raise GameTooDeep(k)
        try:
            for tup in tuples:
                yield self._nv(F, moves, tup, k, meter)
        except RecursionError:
            raise GameTooDeep(k) from None

    def _nv(self, F, moves, tup, k, meter, row=None, images=None) -> int:
        """The value of `tup` with k rounds left, played with no memo: a
        position (tup, k) below the top is reached only from (tup[:-1],
        k + 1), which plays it once, so each position is played once and
        spends one.  Fresh moves are the neighbors in moves[k - 1] (singles
        and one per twin class), or every element if `moves` is None; that
        rule's last round is read off atom rows (_last_round).  `row` and
        `images` are tup's atom row and the images of its elements, handed
        down by the parent position, or None at the top.  With one local
        round left each kid is a leaf, interned here from its row, and the
        leaves spend one each, charged at once."""
        if meter is not None:
            meter.spend()
        f, marks = F.f, F.mark_sets
        if row is None:
            row = atom_row(f, marks, tup)
            images = tuple(map(f.__getitem__, tup))
        if k == 0:
            return self._intern_value((0, row, None))
        if moves is None and k == 1:
            return self._intern_value((1, row, self._last_round(F, tup)))
        if moves is None:
            ext = set(range(F.n))
        else:
            by_element = moves[k - 1]
            ext = set()
            for a in tup:
                singles, twins = by_element[a]
                ext.update(singles)
                for members in twins:
                    for y in members:
                        if y not in tup:
                            ext.add(y)
                            break
        ext.difference_update(tup)
        if k == 1 and meter is not None:
            # One charge for the leaves; a batch that does not fit raises
            # where its first leaf past the budget would.
            meter.spend(min(len(ext), meter.budget + 1 - meter.spent))
        # A fresh y equals no placed element, so its row over tup is its
        # marks, whether it is fixed, the first index of f(y) in tup and the
        # indices whose image is y, with no pass over tup unless y is an
        # image.  A leaf is interned here (_intern_value inlined: the same
        # keys in the same order), as is this position's own value.
        index, nv = tup.index, self._nv
        table, meta = self._intern, self._meta
        kids = set()
        for y in ext:
            image = f[y]
            if y not in images:
                bits = 0
            elif images.count(y) == 1:
                bits = 1 << images.index(y)
            else:
                bits = sum(1 << i for i, z in enumerate(images) if z == y)
            y_row = (marks[y], image == y, None, index(image) if image in tup else None, bits)
            if k > 1:
                kids.add(nv(F, moves, tup + (y,), k - 1, meter, y_row, images + (image,)))
                continue
            key = (0, y_row, None)
            found = table.get(key)
            if found is None:
                found = table[key] = len(meta)
                meta.append(key)
            kids.add(found)
        key = (k, row, tuple(sorted(kids)))
        found = table.get(key)
        if found is None:
            found = table[key] = len(meta)
            meta.append(key)
        return found

    def _last_round(self, F: FiniteMapping, tup: tuple[int, ...]) -> tuple[int, ...]:
        """The kid values of `tup` with one whole-domain round left, read
        off atom rows instead of played: each image or preimage of a placed
        element gets its own row, and each (marks, fixed) class with an
        element outside those and the tuple gives one shared row (module
        docstring)."""
        f, marks = F.f, F.mark_sets
        tables = _structure_tables(F)
        classes = tables.get("classes")
        if classes is None:
            classes = tables["classes"] = Counter((marks[x], f[x] == x) for x in range(F.n))
        related = {f[t] for t in tup}
        for t in tup:
            related.update(F.pre[t])
        related.difference_update(tup)
        intern = self._intern_value
        kids = {intern((0, atom_row(f, marks, tup + (z,)), None)) for z in related}
        held: dict[tuple, int] = {}
        for x in related.union(tup):
            key = (marks[x], f[x] == x)
            held[key] = held.get(key, 0) + 1
        for key, count in classes.items():
            if count > held.get(key, 0):
                kids.add(intern((0, key + (None, None, 0), None)))
        return tuple(sorted(kids))

    def lower_value(self, nv: int) -> int:
        """The value one rank down for the same tuple in the same structure."""
        found = self._lower.get(nv)
        if found is not None:
            return found
        rank, row, kids = self._meta[nv]
        if rank == 0:
            raise RankZero("rank-0 values have no lower value")
        if type(row) is int:
            # A pair (rank, layer-0 value, layer): lower the layer-0 value.
            lowered = self._pair(self.lower_value(row), kids)
        elif rank == 1:
            lowered = self._intern_value((0, row, None))
        else:
            kids = {self.lower_value(c) for c in kids}
            lowered = self._intern_value((rank - 1, row, tuple(sorted(kids))))
        self._lower[nv] = lowered
        return lowered

    def lower_to(self, nv: int, target_rank: int) -> int:
        rank = self.rank_of(nv)
        if target_rank > rank:
            raise RankIncrease(f"cannot raise rank {rank} to {target_rank}")
        while rank > target_rank:
            nv = self.lower_value(nv)
            rank -= 1
        return nv


_GLOBAL_TABLE = TypeTable()


def global_table() -> TypeTable:
    return _GLOBAL_TABLE


# ---------------------------------------------------------------------------
# local types


class LocalType:
    """A rank plus a pointed witness structure, canonicalized in a table."""

    __slots__ = (
        "rank",
        "structure",
        "element",
        "nv",
        "canonical_id",
        "table",
        "key",
    )

    def __init__(
        self,
        rank: int,
        structure: FiniteMapping,
        element: int,
        nv: int,
        canonical_id: int,
        table: TypeTable,
    ):
        self.rank = rank
        self.structure = structure
        self.element = element
        self.nv = nv
        self.canonical_id = canonical_id
        self.table = table
        # Identity within one table; measures and products key on this.
        self.key = (rank, nv)

    @property
    def witness(self) -> tuple[FiniteMapping, int]:
        return (self.structure, self.element)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalType):
            return NotImplemented
        return (
            self.table is other.table
            and self.rank == other.rank
            and self.nv == other.nv
        )

    def __hash__(self) -> int:
        return hash((id(self.table), self.rank, self.nv))

    def __repr__(self) -> str:
        return f"LocalType(rank={self.rank}, id={self.canonical_id})"


def local_type(
    F: FiniteMapping, v: int, r: int, table: Optional[TypeTable] = None
) -> LocalType:
    """The rank-r local type of v in F, canonicalized against `table`."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    table = table or _GLOBAL_TABLE
    F.check_element(v)
    nv = table.nv_value(F, (v,), r)
    return LocalType(r, F, v, nv, table.canonical_id(nv), table)


def types_equal(t1: LocalType, t2: LocalType) -> bool:
    """Equality as types: the second player wins the rank-round local game
    between the witnesses.  Types from different tables are aligned by
    recomputing the second witness in the first table."""
    if t1.rank != t2.rank:
        raise RankMismatch(f"rank {t1.rank} vs {t2.rank}")
    return t1.key == _key_in(t1.table, t2)


def _key_in(table: TypeTable, t: LocalType) -> tuple[int, int]:
    """The key of t's type in `table`: t.key when t was typed there, else
    (rank, the value of t's witness in `table`)."""
    if t.table is table:
        return t.key
    return (t.rank, table.nv_value(t.structure, (t.element,), t.rank))


def project(t: LocalType, r: int) -> LocalType:
    """The same witness viewed at a lower rank."""
    if r > t.rank:
        raise RankIncrease(f"cannot project rank {t.rank} up to {r}")
    if r < 0:
        raise ValueError("rank must be nonnegative")
    nv = t.table.lower_to(t.nv, r)
    return LocalType(r, t.structure, t.element, nv, t.table.canonical_id(nv), t.table)


def transport(t: LocalType) -> LocalType:
    """The rank-(r-1) type of the image of the witness element.

    The first player may open t's r-round game by placing the image, and
    r - 1 rounds are left, so t's type fixes the image's rank-(r-1) type:
    transport is a function of the type, which one value t.nv names in t's
    table.  The table keeps the image's value per t.nv, as
    adm_minus_table keeps preimage counts, so a repeated call is one dict
    hit; the witness returned is t's own image.
    """
    if t.rank == 0:
        raise RankZero("transport needs rank >= 1")
    table, F = t.table, t.structure
    image = F.f[t.element]
    nv = table._images.get(t.nv)
    if nv is None:
        nv = table._images[t.nv] = table.nv_value(F, (image,), t.rank - 1)
    return LocalType(t.rank - 1, F, image, nv, table.canonical_id(nv), table)


def adm_plus(tau: LocalType, t: LocalType) -> int:
    """1 iff tau forces its element's image to have type t."""
    if tau.rank < t.rank + 1:
        raise RankTooLow(
            f"adm_plus needs source rank >= {t.rank + 1}, got {tau.rank}"
        )
    return 1 if types_equal(project(transport(tau), t.rank), t) else 0


def adm_minus(tau: LocalType, t: LocalType) -> int:
    """The number of t-typed preimages tau forces, capped at t.rank + 1.

    Well-defined on the type (not just the witness) because tau.rank is large
    enough to pin down every preimage's rank-t.rank type together with the
    count up to the cap.
    """
    if tau.rank < 2 * t.rank + 1:
        raise RankTooLow(
            f"adm_minus needs source rank >= {2 * t.rank + 1}, got {tau.rank}"
        )
    return min(t.rank + 1, adm_minus_table(tau, t.rank).get(t.key, 0))


def adm_minus_table(tau: LocalType, r: int) -> dict[tuple[int, int], int]:
    """Preimage counts of tau's witness, grouped by rank-r type key.

    The bulk form of adm_minus: min(r + 1, table.get(t.key, 0)) is
    adm_minus(tau, t) for every rank-r type t.  Cached in tau's type table,
    so sweeping one measure against many target types costs one pass over
    the witness preimages in total.
    """
    if tau.rank < 2 * r + 1:
        raise RankTooLow(
            f"adm_minus needs source rank >= {2 * r + 1}, got {tau.rank}"
        )
    cache = tau.table._adm_tables
    cache_key = (tau.nv, r)
    counts = cache.get(cache_key)
    if counts is None:
        F, w = tau.structure, tau.element
        counts = {}
        for u in F.pre[w]:
            k = local_type(F, u, r, tau.table).key
            counts[k] = counts.get(k, 0) + 1
        cache[cache_key] = counts
    return counts


# ---------------------------------------------------------------------------
# type measures


@dataclass(frozen=True)
class TypeMeasure:
    """A probability measure on rank-R types, entries sorted by canonical id."""

    rank: int
    entries: tuple[tuple[LocalType, Fraction], ...]

    def __post_init__(self):
        seen: set[tuple[int, int]] = set()
        table = None
        for t, mass in self.entries:
            if t.rank != self.rank:
                raise RankMismatch(
                    f"entry of rank {t.rank} in a rank-{self.rank} measure"
                )
            if table is None:
                table = t.table
            elif t.table is not table:
                raise MeasureError("all entries must share one type table")
            if t.key in seen:
                raise MeasureError(f"duplicate type {t!r} in measure")
            seen.add(t.key)
            if mass <= 0:
                raise MeasureError(f"mass of {t!r} must be positive, got {mass}")
        # In integers: each mass is its numerator over the masses' common
        # denominator, not one Fraction addition per entry.
        common = math.lcm(*(mass.denominator for _, mass in self.entries))
        units = sum(m.numerator * (common // m.denominator) for _, m in self.entries)
        if units != common:
            raise MeasureError(f"masses sum to {Fraction(units, common)}, expected 1")

    @staticmethod
    def from_pairs(rank: int, pairs) -> "TypeMeasure":
        ordered = tuple(
            sorted(
                ((t, Fraction(m)) for t, m in pairs),
                key=lambda e: e[0].canonical_id,
            )
        )
        return TypeMeasure(rank=rank, entries=ordered)

    def __iter__(self) -> Iterator[tuple[LocalType, Fraction]]:
        return iter(self.entries)

    def types(self) -> tuple[LocalType, ...]:
        return tuple(t for t, _ in self.entries)

    @cached_property
    def _mass_by_key(self) -> dict[tuple[int, int], Fraction]:
        return {t.key: mass for t, mass in self.entries}

    @cached_property
    def _per_rank(self) -> dict[tuple[str, int], object]:
        """What fmtp derives from this measure at rank r, each built once:
        its support rows, keyed ("rows", r), and its restricted certificate
        or violation, keyed ("certificate", r)."""
        return {}

    @property
    def _table(self) -> TypeTable:
        return self.entries[0][0].table

    def mass(self, t: LocalType) -> Fraction:
        """The mass of t's type: one lookup, after one value of t's witness
        in this measure's table when t comes from another table."""
        if t.rank != self.rank:
            raise RankMismatch(f"rank {self.rank} vs {t.rank}")
        return self._mass_by_key.get(_key_in(self._table, t), Fraction(0))

    def project(self, r: int) -> "TypeMeasure":
        """Push forward along the rank-lowering projection."""
        if r > self.rank:
            raise RankIncrease(f"cannot project rank {self.rank} up to {r}")
        grouped: dict[tuple[int, int], list] = {}
        for t, mass in self.entries:
            low = project(t, r)
            slot = grouped.setdefault(low.key, [low, Fraction(0)])
            slot[1] += mass
        return TypeMeasure.from_pairs(r, (tuple(slot) for slot in grouped.values()))


def type_distribution(
    F: FiniteMapping, r: int, table: Optional[TypeTable] = None
) -> TypeMeasure:
    """Group elements of F by rank-r type; mass of a type = count / n.
    Canonical ids are assigned in order of first appearance."""
    if r < 0:
        raise ValueError("rank must be nonnegative")
    table = table or _GLOBAL_TABLE
    valued = ((v, 1, table.nv_value(F, (v,), r)) for v in F.elements())
    return _valued_distribution(F, r, table, valued)


def _valued_distribution(
    F: FiniteMapping, r: int, table: TypeTable, valued: Iterable[tuple[int, int, int]]
) -> TypeMeasure:
    """type_distribution from (element, weight, value) triples, where value
    is the element's rank-r value in `table`, of its type in F, and each
    triple stands for `weight` elements of that type.  Masses are divided
    by the total weight: the size of the structure F stands for when F is
    a witness."""
    groups: dict[int, list[int]] = {}
    total = 0
    for v, weight, nv in valued:
        total += weight
        group = groups.get(nv)
        if group is None:
            groups[nv] = [v, weight]
        else:
            group[1] += weight
    pairs = []
    for nv, (v, count) in groups.items():
        t = LocalType(r, F, v, nv, table.canonical_id(nv), table)
        pairs.append((t, Fraction(count, total)))
    return TypeMeasure.from_pairs(r, pairs)


def measure_tv(a: TypeMeasure, b: TypeMeasure) -> Fraction:
    """Total variation distance (half L1) between two same-rank measures.

    Both are keyed in a's table: b's entries by their own keys when b
    shares it, else by their witnesses' values there, one each.  The cost
    is |a| + |b| dict entries and at most |b| values, not |a|·|b| type
    comparisons.  Distinct types of b have distinct values, so no two of
    its entries share a key."""
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs {b.rank}")
    masses_a = a._mass_by_key
    masses_b = {_key_in(a._table, u): mass for u, mass in b.entries}
    keys = masses_a.keys() | masses_b.keys()
    gap = sum(
        (abs(masses_a.get(k, 0) - masses_b.get(k, 0)) for k in keys), Fraction(0)
    )
    return gap / 2
