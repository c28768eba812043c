"""Realizing measures as finite mappings, and the surrounding constructions.

The central operation turns a rational measure on rank-R local types into a
concrete finite mapping whose rank-r type distribution matches the measure's
rank-r projection exactly.  Elements are created in blocks, one block per
support type, and images are assigned greedily: an element whose type forces
a t-typed image may point at any element of image type t that still has spare
capacity for a t1-typed preimage, where t1 is the assignee's own projected
type.  Capacity is the capped forced-preimage count of the target's type, so
the flow-balance equations certified beforehand guarantee the greedy never
runs out of targets.

The other operations here are the steps that surround realization in the
approximation pipeline: rewiring layer-marked products back into short
cycles, merging a host structure with copies of an approximation, and the
end-to-end pipeline itself.
"""

from __future__ import annotations

import gc
import hashlib
import math
from collections import Counter
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BudgetExceeded,
    Infeasible,
    MissingCutPredicates,
    PreconditionFailed,
    RankTooLow,
    ScheduleInfeasible,
    SignatureMismatch,
    Stuck,
)
from .fmtp import (
    Violation,
    _support_rows,
    check_realizability_preconditions,
    restricted_fmtp_certificate,
)
from .localtypes import (
    LocalType,
    TypeMeasure,
    TypeTable,
    _valued_distribution,
    adm_minus,
    adm_minus_table,
    measure_tv,
    project,
    transport,
    type_distribution,
)
from .structure import (
    MAX_PRODUCT_SIZE,
    TYPE_MARK,
    FiniteMapping,
    Signature,
    _tile,
    ball,
    cycle_cut_product,
    cycle_lengths,
    disjoint_union,
    layer_mark,
    near,
    recover,
    residualize,
)

__all__ = [
    "realize",
    "verify_upsilon",
    "rewire",
    "merge",
    "pipeline",
    "certificate_digest",
]


# ---------------------------------------------------------------------------
# realization


def _closes_forbidden_cycle(g: list, i: int, j: int, cut: int) -> bool:
    """Would the edge i -> j close a directed cycle of length in (1, cut)?

    Follows the partial assignment from j for at most cut - 2 steps; any
    return to i within that window would create a cycle short enough to be
    visible at the ranks the construction must preserve.
    """
    cur = j
    for steps in range(cut - 1):
        if cur == i:
            return steps > 0
        nxt = g[cur]
        if nxt is None:
            return False
        cur = nxt
    return False


def realize(mu: TypeMeasure, r: int, multiplier: int = 1) -> FiniteMapping:
    """A finite mapping whose rank-r type distribution equals mu's rank-r
    projection, with exact rational equality.

    The domain has N = multiplier * lcm(mass denominators) elements, the
    smallest size on which the measure is integral, scaled by the caller's
    multiplier; N over MAX_REALIZE_SIZE raises BudgetExceeded before
    anything is checked or built.  Marks are copied from the witness of
    each element's type.

    Elements come in one contiguous block per support type, in support
    order, and images are assigned block by block in ascending element
    order.  A target j is eligible for element i when (a) j's projected
    type is the image type forced by i's type, (b) j's type either forces
    the full cap r + 1 of preimages typed like i, or strictly more than j
    has already received, and (c) the edge would not close a cycle of
    length in (1, r + 1], exactly the cycle lengths a rank-r type can
    detect; the band is fixed, and mu's witnesses must avoid it too (the
    no-short-cycles precondition).  Each image is the first eligible target
    of one ordered search: the targets still short of the preimage count
    their type promises, capacity ascending then id ascending, then the
    targets whose type forces the cap, which absorb any surplus.  Types
    whose witness is a fixed point map their elements to themselves.

    The capped preimage-count equation is re-verified on the finished
    mapping rather than trusted; a failure raises PreconditionFailed.
    Measures with terminal types, whose images the paper's construction
    attaches to hub elements of a host, fail the cleanness precondition.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if multiplier < 1:
        raise ValueError("multiplier must be at least 1")
    if mu.rank < 2 * r + 1:
        raise RankTooLow(f"realization needs measure rank >= {2 * r + 1}")
    n_elements = multiplier * math.lcm(*(mass.denominator for _, mass in mu))
    if n_elements > MAX_REALIZE_SIZE:
        raise BudgetExceeded(MAX_REALIZE_SIZE, n_elements)
    cut = r + 2

    report = check_realizability_preconditions(mu, r)
    if not report.passed:
        failure = report.failures()[0]
        raise PreconditionFailed(failure.name, failure.detail)

    # A pipeline measure's entries share one Signature object, so only the
    # predicates of a signature that is not the first entry's are compared.
    entries = mu.entries
    signature = entries[0][0].structure.signature
    for tau, _ in entries:
        other = tau.structure.signature
        if other is not signature and other.predicates != signature.predicates:
            raise SignatureMismatch(
                "witness structures of the measure disagree on predicates"
            )

    # One contiguous block of elements per support type, in support order,
    # as (type, rank-r projection, elements), and the blocks of each
    # projection.  Projections and image types are the certificate's
    # support rows, derived once per measure.
    _, rows = _support_rows(mu, r)
    blocks: list[tuple[LocalType, LocalType, range]] = []
    by_projection: dict[tuple, list] = {}
    for (tau, elements), (_, t1, _, _) in zip(_blocks(mu, n_elements), rows):
        blocks.append((tau, t1, elements))
        by_projection.setdefault(t1.key, []).append(blocks[-1])
    image_keys = [img.key for _, _, img, _ in rows]

    # The targets for a (t1, t2) pair: the blocks projecting to t2, grouped
    # by capacity for t1-typed preimages, ascending, each group with a
    # shared head that skips its saturated prefix once.  Preimages received
    # are kept per (t1, target projection) pair and target id.
    target_groups: dict[tuple, list[list]] = {}
    received: dict[tuple, dict[int, int]] = {}
    g: list[Optional[int]] = [None] * n_elements
    for (tau, t1, elements), t2_key in zip(blocks, image_keys):
        witness_structure, w = tau.witness
        if witness_structure.f[w] == w:
            filled = received.setdefault((t1.key, t1.key), {})
            for i in elements:
                g[i] = i
                filled[i] = filled.get(i, 0) + 1
            continue
        pair = (t1.key, t2_key)
        filled = received.setdefault(pair, {})
        groups = target_groups.get(pair)
        if groups is None:
            by_cap: dict[int, list[int]] = {}
            for target, _, members in by_projection.get(t2_key, ()):
                cap = adm_minus(target, t1)
                if cap > 0:
                    by_cap.setdefault(cap, []).extend(members)
            groups = [[cap, by_cap[cap], 0] for cap in sorted(by_cap)]
            target_groups[pair] = groups
        for i in elements:
            for j in _candidates(groups, filled, r):
                if j != i and not _closes_forbidden_cycle(g, i, j, cut):
                    break
            else:
                pool = by_projection.get(t2_key, ())
                raise Stuck(i, _stuck_diagnostics(tau, t1, pool, filled, cut))
            g[i] = j
            filled[j] = filled.get(j, 0) + 1

    marks: dict[str, set[int]] = {name: set() for name in signature.predicates}
    for tau, _, elements in blocks:
        witness_structure, w = tau.witness
        for name in witness_structure.mark_sets[w]:
            marks[name].update(elements)
    realized = FiniteMapping(
        f=tuple(g),
        marks={name: frozenset(v) for name, v in marks.items()},
        signature=signature,
    )

    upsilon = {i: tau for tau, _, elements in blocks for i in elements}
    if not verify_upsilon(realized, upsilon, r):
        raise PreconditionFailed(
            "post-verification",
            "the finished assignment violates the capped preimage-count "
            "equation; the input measure was not actually feasible",
        )
    return realized


def _blocks(mu: TypeMeasure, n: int) -> list[tuple[LocalType, range]]:
    """The contiguous block of elements each support type of mu labels in
    its realization on n elements, in support order.  n is a multiple of
    every mass's denominator, so each block size is an exact integer."""
    blocks, start = [], 0
    for tau, mass in mu:
        size = n * mass.numerator // mass.denominator
        blocks.append((tau, range(start, start + size)))
        start = blocks[-1][1].stop
    assert start == n
    return blocks


def _candidates(groups: list[list], filled: dict[int, int], r: int):
    """Image candidates in the order they are served: first the targets
    still short of the preimage count their type promises (capacity for a
    type forcing fewer than the cap r + 1, r for one forcing the cap),
    capacity ascending then id ascending; then the cap-typed targets, which
    absorb any surplus."""
    for group in groups:
        cap, members, head = group
        need = min(cap, r)
        while head < len(members) and filled.get(members[head], 0) >= need:
            head += 1
        group[2] = head
        for index in range(head, len(members)):
            j = members[index]
            if filled.get(j, 0) < need:
                yield j
    for cap, members, _ in groups:
        if cap > r:
            yield from members


def _stuck_diagnostics(
    tau: LocalType, t1: LocalType, pool: Sequence[tuple], filled: dict, cut: int
) -> str:
    size = sum(len(elements) for _, _, elements in pool)
    return (
        f"element of type id {tau.canonical_id} needs an image of projected "
        f"type id {t1.canonical_id}; its target pool has {size} elements "
        f"holding {sum(filled.values())} assignments, and every remaining "
        f"candidate is saturated or would close a cycle shorter than {cut}; "
        f"a larger multiplier usually resolves the cycle guard"
    )


def verify_upsilon(F: FiniteMapping, upsilon: dict, r: int) -> bool:
    """Check the four conditions under which a type labelling is faithful.

    upsilon maps every element of F to a rank-R local type with R >= 2r + 1.
    The conditions: (1) each element carries exactly the marks of its label's
    witness; (2) F has no cycle of length in (1, r + 1], the lengths a
    rank-r type can see; (3) each label forces the image's projected label;
    (4) for every element and every relevant rank-r type t, the capped
    count of t-typed preimages matches the capped count the label forces.
    When all four hold, the rank-r type of every element equals the rank-r
    projection of its label.
    """
    for v in F.elements():
        if v not in upsilon:
            raise ValueError(f"upsilon must be total; element {v} is missing")
        if upsilon[v].rank < 2 * r + 1:
            raise RankTooLow(
                f"labels must have rank >= {2 * r + 1}, got {upsilon[v].rank}"
            )

    for length in cycle_lengths(F):
        if 1 < length <= r + 1:
            return False

    for v in F.elements():
        witness_structure, w = upsilon[v].witness
        if F.mark_sets[v] != witness_structure.mark_sets[w]:
            return False

    # Each distinct label's rank-r key and its image type's rank-r key,
    # read through transport's memo; both conditions below use them.
    # adm_plus(tau, t) = 1 exactly when tau's image type projects to t.
    keys: dict[tuple, tuple] = {}
    for tau in map(upsilon.__getitem__, F.elements()):
        if tau.key not in keys:
            keys[tau.key] = (project(tau, r).key, project(transport(tau), r).key)
    for v in F.elements():
        if keys[upsilon[v].key][1] != keys[upsilon[F.f[v]].key][0]:
            return False

    # adm_minus(tau, t) = min(r + 1, count in adm_minus_table(tau, r)), and
    # min(r, min(r + 1, x)) = min(r, x), so the table gives condition (4).
    pre = F.pre
    for v in F.elements():
        actual: dict[tuple, int] = {}
        for u in pre[v]:
            low = keys[upsilon[u].key][0]
            actual[low] = actual.get(low, 0) + 1
        forced = adm_minus_table(upsilon[v], r)
        for t_key in forced.keys() | actual.keys():
            if min(r, forced.get(t_key, 0)) != min(r, actual.get(t_key, 0)):
                return False
    return True


# ---------------------------------------------------------------------------
# rewiring layer-marked products


def rewire(F: FiniteMapping, cut_length: int, clean_rank: int) -> FiniteMapping:
    """Close the recorded short cycles of a layer-marked product.

    Expects the marks laid down by cycle_cut_product: every element carries
    exactly one layer mark U_i (i < cut_length) and one type mark whose name
    records whether the underlying element sat on a cycle, and of which
    length.  An element recorded on an l-cycle jumps to its (cut_length -
    l + 1)-st iterated image whenever its layer index is l - 1 modulo l;
    all other elements keep their image.  One jump fires per l consecutive
    layers, so each rewired orbit closes after exactly l steps, and the
    output restores the source's type distribution at every rank at which
    an l-cycle is distinguishable from a path.

    Only classes with l <= clean_rank + 1 and l dividing cut_length are
    closed: longer classes are invisible at rank clean_rank, and classes not
    dividing the layer count admit no layer-driven closure.  Both layer and
    type marks are dropped from the output.
    """
    if cut_length < 2:
        raise ValueError("cut_length must be at least 2")
    if clean_rank < 0:
        raise ValueError("clean_rank must be nonnegative")
    predicates = F.signature.predicates
    # At most len(predicates) layer names are declared, so one more name
    # than that is enough to find a missing one when cut_length is larger.
    layer_names = list(map(layer_mark, range(min(cut_length, len(predicates) + 1))))
    declared = set(predicates)
    missing = [name for name in layer_names if name not in declared]
    if missing:
        raise MissingCutPredicates(f"missing layer predicates: {missing}")

    class_of_name: dict[str, Optional[int]] = {}
    for name in predicates:
        matched = TYPE_MARK.fullmatch(name)
        if matched:
            class_of_name[name] = int(matched.group(1)) if matched.group(1) else None
    if not class_of_name:
        raise MissingCutPredicates("no type predicates of the form T<k>_cyc<l> or T<k>_acyc")

    layer: list[Optional[int]] = [None] * F.n
    for index, name in enumerate(layer_names):
        for v in F.marks[name]:
            if layer[v] is not None:
                raise MissingCutPredicates(f"element {v} carries two layer marks")
            layer[v] = index
    cycle_class: list[Optional[int]] = [None] * F.n
    classified = [False] * F.n
    for name, length in class_of_name.items():
        for v in F.marks[name]:
            if classified[v]:
                raise MissingCutPredicates(f"element {v} carries two type marks")
            classified[v] = True
            cycle_class[v] = length
    for v in F.elements():
        if layer[v] is None:
            raise MissingCutPredicates(f"element {v} has no layer mark")
        if not classified[v]:
            raise MissingCutPredicates(f"element {v} has no type mark")

    f = list(F.f)
    for v in F.elements():
        length = cycle_class[v]
        if length is None:
            continue
        if length > clean_rank + 1 or cut_length % length != 0:
            continue
        if layer[v] % length == length - 1:
            f[v] = F.iterate(v, cut_length - length + 1)

    dropped = set(layer_names) | set(class_of_name)
    kept = tuple(name for name in predicates if name not in dropped)
    return FiniteMapping(
        f=tuple(f),
        marks={name: F.marks[name] for name in kept},
        signature=Signature(kept),
    )


# ---------------------------------------------------------------------------
# merging


def merge(E: FiniteMapping, F2: FiniteMapping, copies: int) -> FiniteMapping:
    """E followed by `copies` copies of F2, each a separate block of F2.n
    elements that keeps F2's function and marks."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    return disjoint_union(E, *[F2] * copies)


# ---------------------------------------------------------------------------
# the end-to-end pipeline


# Budgets on the sizes the pipeline builds, checked before each is built;
# MAX_PRODUCT_SIZE, which cycle_cut_product enforces, lives in structure.
MAX_REALIZE_SIZE = 4_000_000
MAX_OUTPUT_SIZE = 8_000_000
# n_away = N_AWAY_FACTOR * ceil(1 / eps); the merge lays out n_close * n_away
# copies of the rewired structure.
N_AWAY_FACTOR = 2


def _schedule(
    r: int, factorial_schedule: bool, residual: FiniteMapping
) -> tuple[int, int, int]:
    """(rr, clean_rank, cut_length) for rank r and the residual to be cut:
    rr = r, clean = 2rr + 1 and cut = m, the least multiple of lcm(closed)
    with m >= b = max(clean + 2, 6), where `closed` holds the residual's
    cycle lengths l with 2 <= l <= clean + 1 and l | M = lcm(1..clean); or,
    with factorial_schedule, rr = 4r^2 and cut = clean!, which exceeds
    every budget beyond tiny radii.  Write s = lcm(closed), so s | M.

    Cutting at m serves the pipeline as cutting at M did:
      (i) rewire closes exactly `closed`.  The cut's type marks record the
          residual's cycle lengths l <= clean + 1 = 2r + 2, and rewire
          closes a class when l | m.  Each l in `closed` divides s, so m.
          Every l <= 2r + 1 divides M, and 2r + 2 divides M unless it is a
          power of two, a prime power above 2r + 1; so the only length
          left out of `closed` is such a 2r + 2, and it never divides m.
          At r = 1, s | 6 and b = 6, so m = 6 and 4 does not divide it.
          At r >= 2, b = 2r + 3.  If s >= b, then m = s, which divides M
          while 2r + 2 does not.  Otherwise m < b + s; a multiple of
          2r + 2 that is at least 2r + 3 is at least 4r + 4, so
          2r + 2 | m would give s > 2r + 1, hence s = 2r + 2, which does
          not divide M.
      (ii) an l-cycle of the residual times the m-cycle splits into
          cycles of length lcm(l, m), and a tree element lies on none, so
          every cycle of the product has a length that is a multiple of
          m >= clean + 2, longer than the clean + 1 that a rank-clean game
          can see: the product still shows no cycle at rank clean.
      (iii) realize's cycle band (1, rr + 1] and
          check_realizability_preconditions never read m.
      (iv) m is at most the cut length of the rule this one replaced,
          the least divisor of M that is at least clean + 2 and a
          multiple of s: that divisor is a multiple of s and at least b
          (at r = 1, M = 6 has no other divisor at least 5), and m is the
          least such multiple.  So no input gets a larger product, and
          every r = 1 call keeps m = 6.
    The cycle lengths are read off the residual's cached cycle table."""
    rr = 4 * r * r if factorial_schedule else r
    clean = 2 * rr + 1
    if factorial_schedule:
        return rr, clean, math.factorial(clean)
    full = math.lcm(*range(1, clean + 1))
    closed = {l for l in cycle_lengths(residual) if 2 <= l <= clean + 1 and full % l == 0}
    step = math.lcm(*closed)
    return rr, clean, -(-max(clean + 2, 6) // step) * step


def _sweep(host: int, copy_size: int, copies: int):
    """(element, weight) pairs standing for a structure of `host` elements
    followed by `copies` blocks of `copy_size` elements, any two of which
    an automorphism swaps: the host with weight 1, then the first block
    with weight `copies`.  Exact for every statistic that automorphisms
    preserve, such as types.

    The pipeline retypes an output element in a witness that holds the
    host and only the first w = min(copies, r + 1) blocks; the element has
    the same rank-r type there as in the full output.  The blocks meet
    only the host, and the witness sits in the full output as its host and
    first w blocks, with every atom kept.  Play the r-round game from the
    same element on both sides.  The second player answers a move into a
    block no placed element lies in with such a block of the other side,
    and any other move with its counterpart, offset for offset in the
    matched blocks; the placed elements then always carry the same atoms.
    Before round j, the j placed elements lie in at most j <= r blocks, so
    a side with r + 1 blocks always has a free one."""
    for v in range(host):
        yield v, 1
    for v in range(host, host + copy_size):
        yield v, copies


def _proximity(
    F: FiniteMapping, radius: int, host: int, copy_size: int, copies: int
) -> Fraction:
    """Probability that two independent uniform elements are within radius,
    in the structure _sweep describes, read off F, which holds its host
    and at least its first two blocks when copies > 1.

    A path leaves a block only into the host, and its stretch inside one
    block can be moved into any other block, so F has the full structure's
    distances among its host and first two blocks.  A host element's ball
    then holds its part in the host plus `copies` times its part in the
    first block; a first-block element's ball holds its parts in the host
    and its own block plus `copies - 1` times its part in the second block
    (one block, not the sum over the witness's other blocks)."""
    total = 0
    for v, weight in _sweep(host, copy_size, copies):
        parts = Counter(
            (x - host) // copy_size if x >= host else -1 for x in ball(F, v, radius)
        )
        if v < host:
            size = parts[-1] + copies * parts[0]
        else:
            size = parts[-1] + parts[0] + (copies - 1) * parts[1]
        total += weight * size
    n = host + copies * copy_size
    return Fraction(total, n * n)


def _histogram(dist: TypeMeasure) -> dict[str, str]:
    return {str(t.canonical_id): str(mass) for t, mass in dist}


def certificate_digest(cert) -> str:
    """A stable fingerprint of a certificate: sha256 over its entries in order."""
    lines = [f"rank={cert.R} r={cert.r}"]
    for tau, t, s in cert.entries:
        lines.append(f"{tau.canonical_id}>{t.canonical_id}={s}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _certificate_entry(nu: TypeMeasure, rr: int) -> dict:
    """The report's entry for the certificate of nu at rank rr, which is
    dropped once the entry is read off; a violation raises Infeasible."""
    certificate = restricted_fmtp_certificate(nu, rr)
    if isinstance(certificate, Violation):
        raise Infeasible(str(certificate))
    return {
        "digest": certificate_digest(certificate),
        "rank": certificate.R,
        "r": certificate.r,
        "entries": len(certificate.entries),
    }


def pipeline(
    F: FiniteMapping,
    p: int,
    r: int,
    eps,
    *,
    multiplier: int = 1,
    factorial_schedule: bool = False,
) -> tuple[FiniteMapping, dict]:
    """Residualize, cut, extract, certify, realize, rewire, merge, recover;
    return the approximation and a stage-by-stage report.

    p >= 1 is the tuple size of the reported distance (p >= 2 adds a bound
    built from proximities), r >= 1 the rank, and eps > 0 both the
    residualization threshold and the target of the measured distance.
    The schedule is rr = r, clean rank 2rr + 1 and, read off the residual,
    the cut length m: the least multiple of the lcm of the short cycle
    lengths rewire can close that is at least max(2r + 3, 6) (_schedule),
    so m = 6 at r = 1 and 7 at r = 2 when the residual has no short
    cycle; or with factorial_schedule rr = 4r^2 and cut length clean!.
    multiplier scales the realized structure.  The product, the
    realization and the output are each checked against their budget
    (MAX_PRODUCT_SIZE, MAX_REALIZE_SIZE, MAX_OUTPUT_SIZE) before they are
    built, and a miss raises ScheduleInfeasible.

    The residualized input serves as the host structure for the merge: it
    is finite already, so no separate elementary approximation is needed,
    and the measure extracted from the cut product never has terminals.
    That measure is rational and certified as it is, so it is realized
    without approximation.  The report carries per-stage sizes and rank-r
    type histograms, the certificate digest, and the measured distance of
    the output to the input, which is checked against eps rather than
    assumed.

    Each histogram is summed from per-element rank-r values, and a stage
    types only what it changes.  An r-round game from an element places
    only elements within distance r of it, so an element keeps its type
    when no mark or edge within distance r changes.  So each stage's
    values follow from the stage before: its values forget the predicates
    the stage drops (TypeTable.forget), and the elements within distance
    r of a changed edge end or mark are retyped.  The residual, rewired,
    the stripped copies and the output follow this one rule, except:
      - input and product are typed in full;
      - realized is read off the product's histogram, which realize's
        own verify_upsilon makes exact: each element has the rank-r type
        of its block's label;
      - merged is the union's values, the residual's followed by the
        stripped ones, as a disjoint union changes no type.
    The output follows the merged witness of the host and min(copies,
    r + 1) copies and retypes only the host and the first copy.
    The merged and output histograms sweep the host and the first copy,
    weighted by the number of copies (_sweep).  Canonical ids are handed
    out in first-appearance order, as a full sweep hands them out.

    The merged structure is never built in full, and the output is built
    once, from the witness, after every stage's state is gone.  The output
    is recover(merge(residual, stripped, copies), pairs): the residual
    host, whose B marks recover reads, followed by the stripped copies,
    which carry no B mark.  So recover sends each A element, in the host
    or in any copy, to the one host element that carries its pair's B
    mark, keeps every other image, and changes each copy alike.  The
    witness holds the host and the first copy, both recovered; the output
    is that host followed by `copies` copies of that first copy, each
    image inside the copy shifted with it and each image into the host,
    a recovered A edge, kept (structure._tile).

    The call pauses the cyclic garbage collector and restores its state on
    return, also when it raises, so a caller that paused it finds it
    paused.  This is safe because no stage builds a reference cycle:
    everything the call allocates is freed by reference counting, which
    the pause leaves alone (tests/test_realize.py checks that a collection
    after the call finds nothing).  With the collector on, its hundreds of
    collections over the stages' live types, fractions and measure entries
    free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        report, witness, blocks = _stages(F, p, r, eps, multiplier, factorial_schedule)
        return _tile(witness, *blocks), report
    finally:
        if enabled:
            gc.enable()


def _stages(
    F: FiniteMapping,
    p: int,
    r: int,
    eps,
    multiplier: int,
    factorial_schedule: bool,
) -> tuple[dict, FiniteMapping, tuple[int, int, int]]:
    """pipeline's report, its recovered witness (the host followed by the
    first min(copies, r + 1) copies) and (host size, copy size, copies).
    Nothing else a stage built outlives this call."""
    if p < 1:
        raise ValueError("p must be at least 1")
    if r < 1:
        raise ValueError("r must be at least 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if multiplier < 1:
        raise ValueError("multiplier must be at least 1")
    residual, pairs = residualize(F, eps)
    rr, clean, cut = _schedule(r, factorial_schedule, residual)
    schedule_info = {"r": r, "rr": rr, "clean_rank": clean, "cut_length": cut}

    product_size = residual.n * cut
    if product_size > MAX_PRODUCT_SIZE:
        origin = "cut = clean! = " if factorial_schedule else "cut = "
        raise ScheduleInfeasible(
            f"{origin}{cut} yields a product of {product_size} elements, "
            f"over the budget of {MAX_PRODUCT_SIZE}",
            schedule=schedule_info,
        )

    table = TypeTable()
    stages: list[dict] = []

    def typed(structure: FiniteMapping) -> list[int]:
        """The rank-r value of every element of `structure`."""
        return [table.nv_value(structure, (v,), r) for v in structure.elements()]

    def follow(
        values: list[int], before: FiniteMapping, after: FiniteMapping
    ) -> list[int]:
        """The rank-r values in `after` of the first len(values) elements,
        given their values in `before`, a structure over the same domain.
        Each distinct value forgets the dropped predicates, together with
        the layer marks, which forget needs once the table has claimed the
        product's m.  A predicate is dropped when `after` no longer
        declares it, or declares it but, unlike `before`, holds it nowhere:
        no atom row carries a name that holds nowhere, so forgetting it
        gives the value in `after`.  Then every element within distance r
        of either end of a changed edge, or of a changed mark of any other
        predicate `after` declares, is retyped; further away its r-ball is
        the same in both.  A shortest path to a changed element meets the
        changes only at its end, so that distance is the same in both."""
        values = list(values)
        dropped = set(before.signature.predicates) - set(after.signature.predicates)
        dropped.update(
            name for name, elems in after.marks.items() if before.marks.get(name) and not elems
        )
        if dropped:
            names = frozenset(dropped).union(map(layer_mark, range(cut)))
            forgotten = {nv: table.forget(nv, names) for nv in dict.fromkeys(values)}
            values = [forgotten[nv] for nv in values]
        moved = [v for v in before.elements() if before.f[v] != after.f[v]]
        changed = {x for v in moved for x in (v, before.f[v], after.f[v])}
        for name, elems in after.marks.items():
            if name not in dropped:
                changed.update(elems.symmetric_difference(before.marks.get(name, ())))
        for v in near(after, changed, r):
            if v < len(values):
                values[v] = table.nv_value(after, (v,), r)
        return values

    def record(
        name: str, structure: FiniteMapping, values: list[int], blocks=None
    ) -> TypeMeasure:
        host, copy_size, copies = blocks or (structure.n, 0, 1)
        sweep = _sweep(host, copy_size, copies)
        swept = ((v, weight, values[v]) for v, weight in sweep)
        dist = _valued_distribution(structure, r, table, swept)
        size = host + copies * copy_size
        stages.append({"name": name, "size": size, "histogram": _histogram(dist)})
        return dist

    input_values = typed(F)
    input_dist = record("input", F, input_values)
    residual_values = follow(input_values, F, residual)
    record("residual", residual, residual_values)

    product = cycle_cut_product(residual, cut, clean, table=table)
    product_dist = record("product", product, typed(product))

    nu = type_distribution(product, clean, table)
    certified = _certificate_entry(nu, rr)

    estimated = multiplier * math.lcm(*(mass.denominator for _, mass in nu))
    if estimated > MAX_REALIZE_SIZE:
        raise ScheduleInfeasible(
            f"realization would need {estimated} elements, over the budget "
            f"of {MAX_REALIZE_SIZE}",
            schedule=schedule_info,
        )
    realized = realize(nu, rr, multiplier)
    # realize passed verify_upsilon, so every element's rank-r type is the
    # projection of its label, and the labels carry nu's masses: the
    # histogram is the product's, ids included.
    stages.append(
        {"name": "realized", "size": realized.n, "histogram": _histogram(product_dist)}
    )
    realized_values = []
    for tau, elements in _blocks(nu, realized.n):
        realized_values += [table.lower_to(tau.nv, r)] * len(elements)

    rewired = rewire(realized, cut, clean)
    rewired_values = follow(realized_values, realized, rewired)
    record("rewired", rewired, rewired_values)

    # Copies must not duplicate the recovery targets, so the residual host
    # keeps its B marks and the copies lose theirs.
    b_names = {b for _, b in pairs}
    stripped = FiniteMapping(
        f=rewired.f,
        marks={
            name: (frozenset() if name in b_names else rewired.marks[name])
            for name in rewired.signature.predicates
        },
        signature=rewired.signature,
    )
    stripped_values = follow(rewired_values, rewired, stripped)

    n_away = N_AWAY_FACTOR * math.ceil(1 / eps)
    n_close = math.ceil(Fraction(residual.n, stripped.n) / eps)
    merged_size = residual.n + stripped.n * n_close * n_away
    if merged_size > MAX_OUTPUT_SIZE:
        raise ScheduleInfeasible(
            f"merging would need {merged_size} elements, over the budget "
            f"of {MAX_OUTPUT_SIZE}",
            schedule=schedule_info,
        )
    # Swapping two copies is an automorphism of the merged structure and,
    # since every A-marked copy element is redirected to the same host B
    # element, of the output too.  The host and min(copies, r + 1) >= 2
    # copies stand for all of them, as _sweep and _proximity show.
    copies = n_close * n_away
    blocks = (residual.n, stripped.n, copies)
    witness = merge(residual, stripped, min(copies, r + 1))
    # A disjoint union changes no type.
    merged_values = residual_values + stripped_values
    record("merged", witness, merged_values, blocks)
    # A swept element's distance to what recover changes is the same in
    # the witness as in the full output, as before recover no copy meets
    # the host.
    recovered = recover(witness, pairs)
    output_values = follow(merged_values, witness, recovered)
    witness = recovered
    output_dist = record("output", witness, output_values, blocks)

    final = measure_tv(output_dist, input_dist)
    entry = {
        "final": str(final),
        "target": str(eps),
        "ok": final <= eps,
    }
    if p >= 2:
        prox_out = _proximity(witness, 2 * r, *blocks)
        prox_in = _proximity(F, 2 * r, F.n, 0, 1)
        bound = 2 * p * final + math.comb(p, 2) * (prox_out + prox_in)
        entry.update(
            {
                "p": p,
                "p_bound": str(bound),
                "proximity_output": str(prox_out),
                "proximity_input": str(prox_in),
            }
        )

    report = {
        "version": 2,
        "parameters": {
            "p": p,
            "r": r,
            "eps": str(eps),
            "multiplier": multiplier,
            "n_close": n_close,
            "n_away": n_away,
            "epsilons": {"eps": str(eps), "eps_res": str(eps)},
            "schedule": schedule_info,
        },
        "cut_pairs": [list(pair) for pair in pairs],
        "certificate": certified,
        "stages": stages,
        "ldist": entry,
    }
    return report, witness, blocks
