"""Compressing a finite mapping to a bounded-size core with the same
rank-r theory.

A finite mapping is a union of cycles with trees hanging off them.  Two
reductions shrink it without changing anything a rank-r sentence can say:
among the preimages of any element, keep at most r representatives of each
equivalence class of a height-indexed refinement (a rank-r game cannot tell
r + 1 interchangeable siblings apart), and keep at most r isomorphic copies
of any connected component.  Cyclic elements are never pruned within a
surviving component, so the function stays total on the kept set.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .structure import FiniteMapping, cycle_orbits, cyclic_part, restrict

__all__ = ["standard_r_approximation"]


def _sibling_classes(
    F: FiniteMapping,
    pre,
    layers: list[list[int]],
) -> dict[int, int]:
    """Equivalence class of every tree element, refined layer by layer.

    Deepest layer first: two elements are equivalent when they carry the
    same marks and their preimages realize each deeper class with exactly
    the same multiplicities.  Classes are interned as integers.
    """
    interned: dict[tuple, int] = {}
    cls: dict[int, int] = {}
    for layer in reversed(layers[1:]):
        for z in layer:
            children = tuple(sorted(Counter(cls[x] for x in pre[z]).items()))
            key = (F.mark_sets[z], children)
            code = interned.get(key)
            if code is None:
                code = len(interned)
                interned[key] = code
            cls[z] = code
    return cls


def _component_form(
    F: FiniteMapping,
    heights: dict[int, int],
    kept: set[int],
    cycle: tuple[int, ...],
    members: list[int],
) -> tuple:
    """Canonical value of one component restricted to the kept elements,
    given as its cycle and its kept members.

    Trees are canonicalized bottom-up with sorted child forms; the cycle
    contributes the lexicographically minimal rotation of its per-vertex
    forms, read along the function.  Equal forms mean isomorphic kept
    components.
    """
    pre = F.pre
    form: dict[int, tuple] = {}
    for x in sorted(members, key=lambda v: -heights[v]):
        if heights[x] == 0:
            continue
        child_forms = sorted(
            form[c] for c in pre[x] if c in kept and heights[c] == heights[x] + 1
        )
        form[x] = (F.mark_sets[x], tuple(child_forms))
    ring = []
    for z in cycle:
        child_forms = sorted(
            form[c] for c in pre[z] if c in kept and heights.get(c) == 1
        )
        ring.append((F.mark_sets[z], tuple(child_forms)))
    doubled = ring + ring
    size = len(ring)
    return min(tuple(doubled[i : i + size]) for i in range(size))


def standard_r_approximation(F: FiniteMapping, r: int) -> FiniteMapping:
    """A mapping with the same rank-r theory and size independent of |F|.

    Keeps the whole cyclic part of each surviving component, at most r
    equivalent preimages per element (lowest ids win), and at most r
    isomorphic components per isomorphism class (components with the
    lowest minimum id win).  Pruning deep multiplicities can merge sibling
    classes that exact counts kept apart, so the pass repeats until nothing
    is dropped; the output is never larger than the input and compressing
    it again returns it unchanged.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    while True:
        reduced = _prune_once(F, r)
        if reduced.n == F.n:
            return reduced
        F = reduced


def _prune_once(F: FiniteMapping, r: int) -> FiniteMapping:
    orbits = cycle_orbits(F)
    if r == 0:
        # A zero-round game distinguishes nothing; the least cycle stands in.
        return restrict(F, orbits[0])
    Z, heights = cyclic_part(F)
    pre = F.pre

    depth = max(heights.values())
    layers: list[list[int]] = [[] for _ in range(depth + 1)]
    for v in F.elements():
        layers[heights[v]].append(v)
    for layer in layers:
        layer.sort()

    cls = _sibling_classes(F, pre, layers)

    kept = set(Z)
    for i in range(1, depth + 1):
        for y in layers[i - 1]:
            if y not in kept:
                continue
            groups: dict[int, list[int]] = {}
            for x in pre[y]:
                if heights[x] == i:
                    groups.setdefault(cls[x], []).append(x)
            for members in groups.values():
                members.sort()
                kept.update(members[:r])

    # The least element of the cycle below each element, layer by layer.
    anchor_of = {z: orbit[0] for orbit in orbits for z in orbit}
    for layer in layers[1:]:
        for x in layer:
            anchor_of[x] = anchor_of[F.f[x]]
    members: dict[int, list[int]] = {orbit[0]: [] for orbit in orbits}
    for x in kept:
        members[anchor_of[x]].append(x)

    by_form: dict[tuple, list[int]] = {}
    for orbit in orbits:
        shape = _component_form(F, heights, kept, orbit, members[orbit[0]])
        by_form.setdefault(shape, []).append(orbit[0])

    final = [x for anchors in by_form.values() for a in anchors[:r] for x in members[a]]
    return restrict(F, final)
