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
    check_realizability_preconditions,
    restricted_fmtp_certificate,
)
from .localtypes import (
    LocalType,
    TypeMeasure,
    TypeTable,
    _weighted_distribution,
    adm_minus,
    adm_minus_table,
    adm_plus,
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
    ball,
    cycle_cut_product,
    cycle_lengths,
    disjoint_union,
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

    entries = mu.entries
    signature = entries[0][0].structure.signature
    for tau, _ in entries:
        if tau.structure.signature.predicates != signature.predicates:
            raise SignatureMismatch(
                "witness structures of the measure disagree on predicates"
            )

    # One contiguous block of elements per support type, in support order,
    # as (type, rank-r projection, elements), and the blocks of each
    # projection.  Every projection is taken before any image type, as
    # canonical ids are handed out on first use.
    blocks: list[tuple[LocalType, LocalType, range]] = []
    by_projection: dict[tuple, list] = {}
    start = 0
    for tau, mass in entries:
        t1, elements = project(tau, r), range(start, start + int(n_elements * mass))
        blocks.append((tau, t1, elements))
        by_projection.setdefault(t1.key, []).append(blocks[-1])
        start = elements.stop
    assert start == n_elements
    image_keys = [project(transport(tau), r).key for tau, _, _ in blocks]

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

    plus_cache: dict[tuple, bool] = {}
    for v in F.elements():
        tau = upsilon[v]
        image_t = project(upsilon[F.f[v]], r)
        key = (tau.key, image_t.key)
        ok = plus_cache.get(key)
        if ok is None:
            ok = adm_plus(tau, image_t) == 1
            plus_cache[key] = ok
        if not ok:
            return False

    # adm_minus(tau, t) = min(r + 1, count in adm_minus_table(tau, r)), and
    # min(r, min(r + 1, x)) = min(r, x), so the table gives condition (4).
    pre = F.pre
    low_cache: dict[tuple, tuple] = {}
    for v in F.elements():
        actual: dict[tuple, int] = {}
        for u in pre[v]:
            low = low_cache.get(upsilon[u].key)
            if low is None:
                low = low_cache[upsilon[u].key] = project(upsilon[u], r).key
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
    layer_names = [f"U{i}" for i in range(cut_length)]
    missing = [name for name in layer_names if name not in predicates]
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


def _schedule(r: int, factorial_schedule: bool) -> tuple[int, int, int]:
    """(rr, clean_rank, cut_length) for rank r: rr = r, clean = 2rr + 1 and
    cut = lcm(1..clean); or, with factorial_schedule, rr = 4r^2 and
    cut = clean!, which exceeds every budget beyond tiny radii."""
    rr = 4 * r * r if factorial_schedule else r
    clean = 2 * rr + 1
    if factorial_schedule:
        cut = math.factorial(clean)
    else:
        cut = math.lcm(*range(1, clean + 1))
    return rr, clean, cut


def _sweep(host: int, copy_size: int, copies: int):
    """(element, weight) pairs standing for a structure of `host` elements
    followed by `copies` blocks of `copy_size` elements, any two of which
    an automorphism swaps: the host with weight 1, then the first block
    with weight `copies`.  Exact for every statistic that automorphisms
    preserve, such as types.

    The structure swept may be a witness that holds the host and only the
    first w = min(copies, r + 1) blocks: each of its elements has the same
    rank-r type there as in the full structure.  The blocks of merge and
    recover meet only the host, and the witness sits in the full structure
    as its host and first w blocks, with every atom kept.  Play the r-round
    game from the same element on both sides.  The second player answers a
    move into a block no placed element lies in with such a block of the
    other side, and any other move with its counterpart, offset for offset
    in the matched blocks; the placed elements then always carry the same
    atoms.  Before
    round j, the j placed elements lie in at most j <= r blocks, so a side
    with r + 1 blocks always has a free one.  Like a rank-r type's
    preimage counts, the number of blocks is seen only up to the cap
    r + 1."""
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
    The schedule is rr = r, clean rank 2rr + 1 and cut length
    lcm(1..clean), or with factorial_schedule rr = 4r^2 and cut length
    clean!; multiplier scales the realized structure.  The product, the
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
    assumed.  The realized histogram is read off the product's, which
    realize's own verify_upsilon makes exact.  The merged and output
    statistics come from a witness of the host plus min(copies, r + 1)
    copies, the first copy weighted by the number of copies; they equal a
    full sweep's.  The full output is built only to be returned.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if r < 1:
        raise ValueError("r must be at least 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    rr, clean, cut = _schedule(r, factorial_schedule)
    schedule_info = {"r": r, "rr": rr, "clean_rank": clean, "cut_length": cut}

    product_size = F.n * cut
    if product_size > MAX_PRODUCT_SIZE:
        origin = "cut = clean! = " if factorial_schedule else "cut = "
        raise ScheduleInfeasible(
            f"{origin}{cut} yields a product of {product_size} elements, "
            f"over the budget of {MAX_PRODUCT_SIZE}",
            schedule=schedule_info,
        )

    table = TypeTable()
    stages: list[dict] = []

    def record(name: str, structure: FiniteMapping, blocks=None) -> TypeMeasure:
        host, copy_size, copies = blocks or (structure.n, 0, 1)
        sweep = _sweep(host, copy_size, copies)
        dist = _weighted_distribution(structure, r, table, sweep)
        size = host + copies * copy_size
        stages.append({"name": name, "size": size, "histogram": _histogram(dist)})
        return dist

    input_dist = record("input", F)
    residual, pairs = residualize(F, eps)
    record("residual", residual)

    product = cycle_cut_product(residual, cut, clean, table=table)
    product_dist = record("product", product)

    nu = type_distribution(product, clean, table)
    certificate = restricted_fmtp_certificate(nu, rr)
    if isinstance(certificate, Violation):
        raise Infeasible(str(certificate))

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

    rewired = rewire(realized, cut, clean)
    record("rewired", rewired)

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
    record("merged", witness, blocks)
    witness = recover(witness, pairs)
    output_dist = record("output", witness, blocks)

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
        "certificate": {
            "digest": certificate_digest(certificate),
            "rank": certificate.R,
            "r": certificate.r,
            "entries": len(certificate.entries),
        },
        "stages": stages,
        "ldist": entry,
    }
    return recover(merge(residual, stripped, copies), pairs), report
