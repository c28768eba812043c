"""Compressing a finite mapping to a bounded-size core with the same
rank-r theory.

A finite mapping is a union of cycles with trees hanging off them.  Two
reductions shrink it without changing anything a rank-r sentence can say:
among the preimages of any element, keep at most r of each class (a rank-r
game cannot tell r + 1 interchangeable siblings apart), and keep at most r
copies of any class of component.  Cyclic elements are never pruned within
a kept component, so the function stays total on the kept set.

An element's class is its marks and the multiset of its tree children's
classes, each count capped at r; a cycle vertex counts only its tree
children, not its cycle predecessor.  A component's key is the least
rotation of its cycle's classes.  One pass classifies bottom-up, keeps
components by key and children by class top-down, and restricts once.

It keeps what pruning by exact counts until nothing is dropped keeps (the
form this module had before, kept in tests/oracles.py).  Each exact-count
pass groups siblings by a partition finer than capped classes and keeps
the r lowest ids of each group, so every pass keeps everything the one
pass keeps.  At that loop's fixpoint no element has more than r children
of one exact class, so, by induction from the leaves, exact and capped
classes coincide there, and the kept children are the same r lowest ids.
Components follow the same way: two components with equal forms after a
pass have equal capped rings.  So the output is never larger than the
input, and compressing it again returns it unchanged.
"""

from __future__ import annotations

from collections import Counter

from .structure import FiniteMapping, restrict

__all__ = ["standard_r_approximation"]


def standard_r_approximation(F: FiniteMapping, r: int) -> FiniteMapping:
    """A mapping with the same rank-r theory and size independent of |F|.

    Keeps the whole cyclic part of each kept component, the r lowest-id
    preimages of each class under each kept element, and the r components
    with the least cycle element of each key.  At r = 0 a game distinguishes
    nothing, and the least cycle stands in for F.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    orbits, on_cycle = F.cycle_table
    if r == 0:
        return restrict(F, orbits[0])
    pre, mark_sets = F.pre, F.mark_sets

    # Classified bottom-up, children first.
    interned: dict[tuple, int] = {}
    cls = [0] * F.n
    for y in reversed(F.forest[0]):
        kids = [cls[x] for x in pre[y] if not on_cycle[x]]
        if kids:
            counts = sorted(Counter(kids).items())
            key = (mark_sets[y], tuple((k, min(c, r)) for k, c in counts))
        else:
            key = (mark_sets[y], ())
        cls[y] = interned.setdefault(key, len(interned))

    by_key: dict[tuple, list[tuple[int, ...]]] = {}
    for orbit in orbits:
        ring = [cls[z] for z in orbit]
        key = min(tuple(ring[i:] + ring[:i]) for i in range(len(ring)))
        by_key.setdefault(key, []).append(orbit)

    kept = [z for group in by_key.values() for orbit in group[:r] for z in orbit]
    for y in kept:  # grows as children are kept
        taken: dict[int, int] = {}
        for x in pre[y]:
            k = cls[x]
            if not on_cycle[x] and taken.get(k, 0) < r:
                taken[k] = taken.get(k, 0) + 1
                kept.append(x)
    return restrict(F, kept)
