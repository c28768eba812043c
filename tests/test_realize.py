"""Realization, label verification, rewiring, merging, and the pipeline."""

import functools
import gc
import importlib
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    cycle,
    cyclic_input,
    every_marking,
    fixed_point,
    functions_up_to_relabeling,
    path,
    perturbed_product,
    seeded,
    star,
    structurally_equal,
)
from mapprox.equivalence import ldist
from mapprox.errors import (
    BudgetExceeded,
    Infeasible,
    MapproxError,
    MissingCutPredicates,
    PreconditionFailed,
    RankTooLow,
    ScheduleInfeasible,
    SignatureMismatch,
    Stuck,
)
from mapprox.fmtp import approximate_measure
from mapprox.localtypes import (
    TypeMeasure,
    TypeTable,
    _valued_distribution,
    local_type,
    measure_tv,
    type_distribution,
)
from mapprox.realize import (
    certificate_digest,
    merge,
    pipeline,
    realize,
    rewire,
    verify_upsilon,
)
from mapprox.structure import (
    TYPE_MARK,
    FiniteMapping,
    Signature,
    cycle_cut_product,
    cycle_lengths,
    cycle_orbits,
    recover,
    residualize,
)
from mapprox.mapfile import dump_map, jsonable, measure_from_json, measure_to_json
from oracles import (
    closed_cycle_lengths,
    cut_length_by_divisors,
    cut_length_by_scan,
    least_cut_by_scan,
    least_divisor_cut,
)
from oracles import near as oracle_near
from oracles import output_by_merge
from oracles import proximity as oracle_proximity
from oracles import realize_two_pass

# The package exports the function `realize`, which shadows the module.
fmtp_module = importlib.import_module("mapprox.fmtp")
realize_module = importlib.import_module("mapprox.realize")

TABLE = TypeTable()


def marked_cycle(k=6):
    return cycle(k, {"U": frozenset({0})})


# Self-loops, 2- and 3-cycles that the residual keeps and rewire closes
# again, and a hub whose cut makes a B element with preimages in every copy.
CYCLIC_CASES = [
    (cyclic_input(1, (1, 2, 3), 6, 8), 2, 1, Fraction(1, 4)),
    (cyclic_input(2, (1, 2, 3), 6, 8), 1, 1, Fraction(1, 4)),
    (cyclic_input(3, (1, 2, 3), 4, 6), 2, 2, Fraction(1, 3)),
    (cyclic_input(1, (1, 2), 0, 3), 1, 3, Fraction(2, 7)),
]


# (F, eps) whose residuals keep cycles of every length 2..8 between them:
# cut lengths 9, 12, 20, 30 and 60 at r = 2, and at r = 3 a 7-cycle beside
# an 8-cycle, which no divisor of lcm(1..7) = 420 closes.
CUT_LENGTH_CASES = [
    (seeded(20, 42), Fraction(1, 4)),
    (cyclic_input(1, (3, 4), 2, 10), Fraction(1, 3)),
    (cyclic_input(1, (2, 4, 5), 3, 14), Fraction(1, 4)),
    (cyclic_input(1, (5, 6), 2, 12), Fraction(1, 3)),
    (cyclic_input(1, (2, 3, 4, 5, 6), 4, 30), Fraction(1, 4)),
    (cyclic_input(1, (7, 8), 2, 40), Fraction(1, 3)),
]


# (F, p, r, eps) for the pipeline's full-structure checks.
SWEEP_CASES = [
    (seeded(20, 6), 2, 1, Fraction(1, 6)),
    (seeded(30, 3), 2, 1, Fraction(1, 10)),
    (seeded(24, 9, Fraction(1, 2)), 2, 1, Fraction(1, 5)),
    # Six copies at p = 2: a first-copy ball counts one other copy, not
    # every other copy the witness holds.
    (seeded(4, 2), 2, 2, Fraction(1, 3)),
    (seeded(6, 42), 1, 3, Fraction(1, 4)),
    # Two copies, fewer than r + 1 (eps >= 1 cuts nothing).
    (seeded(4, 1), 2, 2, Fraction(1)),
    (seeded(6, 42), 2, 3, Fraction(2)),
    *CYCLIC_CASES,
]


class TestRealize:
    def test_marked_cycle_exact(self):
        F = marked_cycle()
        mu = type_distribution(F, 3, TABLE)
        assert len(mu.entries) == 6
        out = realize(mu, 1)
        assert out.n == 6
        assert measure_tv(type_distribution(out, 1, TABLE), mu.project(1)) == 0

    def test_multiplier_scales(self):
        mu = type_distribution(marked_cycle(), 3, TABLE)
        out = realize(mu, 1, 2)
        assert out.n == 12
        assert measure_tv(type_distribution(out, 1, TABLE), mu.project(1)) == 0

    def test_cut_product_measure(self):
        H = cycle_cut_product(seeded(12, 9), 6, 3, TABLE)
        mu = type_distribution(H, 3, TABLE)
        for multiplier in (1, 2):
            out = realize(mu, 1, multiplier)
            assert out.n == multiplier * H.n
            assert (
                measure_tv(type_distribution(out, 1, TABLE), mu.project(1)) == 0
            )

    def test_short_cycle_point_mass_stuck(self):
        # one element cannot be its own image unless its type is fixed
        mu = type_distribution(cycle(3), 3, TABLE)
        with pytest.raises(Stuck) as caught:
            realize(mu, 1)
        assert "multiplier" in str(caught.value)

    def test_short_cycle_resolved_by_multiplier(self):
        mu = type_distribution(cycle(3), 3, TABLE)
        out = realize(mu, 1, 3)
        assert cycle_lengths(out) == [3]
        assert measure_tv(type_distribution(out, 1, TABLE), mu.project(1)) == 0

    def test_fixed_point_self_loop(self):
        mu = type_distribution(fixed_point(), 3, TABLE)
        out = realize(mu, 1)
        assert out.f == (0,)

    def test_multiplier_validated(self):
        mu = type_distribution(fixed_point(), 3, TABLE)
        with pytest.raises(ValueError):
            realize(mu, 1, 0)

    def test_negative_rank_rejected(self):
        mu = type_distribution(fixed_point(), 3, TABLE)
        with pytest.raises(ValueError, match="rank must be nonnegative"):
            realize(mu, -1)

    def test_rank_too_low(self):
        with pytest.raises(RankTooLow):
            realize(type_distribution(cycle(6), 2, TABLE), 1)

    def test_precondition_surfaced(self):
        mu = type_distribution(cycle(3), 5, TABLE)
        with pytest.raises(PreconditionFailed) as caught:
            realize(mu, 2)
        assert caught.value.check == "no-short-cycles"

    @pytest.mark.parametrize("multiplier", [1, 4])
    def test_size_over_budget_is_refused_first(self, monkeypatch, multiplier):
        # N = multiplier * 6 elements, one over the budget: refused before
        # the preconditions run.
        def unreachable(*args):
            raise AssertionError("no precondition may run over budget")

        monkeypatch.setattr(realize_module, "MAX_REALIZE_SIZE", 6 * multiplier - 1)
        monkeypatch.setattr(realize_module, "check_realizability_preconditions", unreachable)
        mu = type_distribution(marked_cycle(), 3, TABLE)
        with pytest.raises(BudgetExceeded) as caught:
            realize(mu, 1, multiplier)
        assert (caught.value.budget, caught.value.needed) == (6 * multiplier - 1, 6 * multiplier)

    def rewitnessed(self, mu, extra=()):
        """mu with each entry's witness a copy of its structure holding a
        Signature object of its own, the last one declaring `extra` too."""
        pairs = []
        for i, (tau, mass) in enumerate(mu):
            F = tau.structure
            names = F.signature.predicates + (extra if i == len(mu.entries) - 1 else ())
            copy = FiniteMapping(f=F.f, marks=F.marks, signature=Signature(names))
            pairs.append((local_type(copy, tau.element, mu.rank, TABLE), mass))
        return TypeMeasure.from_pairs(mu.rank, pairs)

    def test_equal_signatures_in_distinct_objects(self):
        mu = type_distribution(marked_cycle(), 3, TABLE)
        out = realize(self.rewitnessed(mu), 1)
        assert out.f == realize(mu, 1).f
        assert measure_tv(type_distribution(out, 1, TABLE), mu.project(1)) == 0

    def test_shared_signature_not_compared(self):
        # A count guard: entries that hold the first entry's Signature
        # object compare no predicate tuples.
        class Counted(tuple):
            compared = 0

            def __eq__(self, other):
                Counted.compared += 1
                return tuple.__eq__(self, other)

            def __ne__(self, other):
                Counted.compared += 1
                return tuple.__ne__(self, other)

            __hash__ = tuple.__hash__

        F = marked_cycle()
        F = FiniteMapping(f=F.f, marks=F.marks, signature=Signature(Counted(("U",))))
        mu = type_distribution(F, 3, TypeTable())
        assert all(tau.structure.signature is F.signature for tau, _ in mu)
        realize(mu, 1)
        assert Counted.compared == 0

    def test_witness_predicates_checked(self):
        mu = self.rewitnessed(type_distribution(marked_cycle(), 3, TABLE), ("V",))
        with pytest.raises(SignatureMismatch) as caught:
            realize(mu, 1)
        assert str(caught.value) == "witness structures of the measure disagree on predicates"


class TestRealizeAgainstTwoPass:
    # realize assigns images block by block from one ordered search; the
    # loop it replaced, one label per element and two searches per image,
    # is the oracle.  Maps must agree image for image, and a Stuck message
    # byte for byte.
    def outcomes(self, mu, r, multiplier=1):
        def outcome(build):
            try:
                out = build(mu, r, multiplier)
            except Stuck as stuck:
                return str(stuck)
            return out.f, out.marks

        return outcome(realize), outcome(realize_two_pass)

    def assert_same(self, mu, r, multiplier=1):
        got, expected = self.outcomes(mu, r, multiplier)
        assert got == expected

    def test_cut_products_rank_one(self):
        for n in range(1, 13):
            for seed in range(6):
                table = TypeTable()
                H = cycle_cut_product(seeded(n, seed), 6, 3, table)
                mu = type_distribution(H, 3, table)
                for multiplier in (1, 2, 3):
                    self.assert_same(mu, 1, multiplier)

    def test_cut_products_rank_zero(self):
        for n in range(1, 9):
            for seed in range(4):
                table = TypeTable()
                H = cycle_cut_product(seeded(n, seed), 6, 3, table)
                mu = type_distribution(H, 1, table)
                for multiplier in (1, 2):
                    self.assert_same(mu, 0, multiplier)

    @pytest.mark.parametrize("n,seed", [(10, 3), (20, 1)])
    def test_cut_products_rank_two(self, n, seed):
        table = TypeTable()
        H = cycle_cut_product(seeded(n, seed), 60, 5, table)
        self.assert_same(type_distribution(H, 5, table), 2)

    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_repaired_perturbed_products(self, n, seed):
        repaired = approximate_measure(perturbed_product(n, seed), Fraction(1, 100), 1)
        self.assert_same(repaired, 1)

    def test_short_cycle_point_masses(self):
        # The cycle guard decides these, and cycle(3) at multiplier 1 is
        # test_short_cycle_point_mass_stuck.
        got, expected = self.outcomes(type_distribution(cycle(3), 3, TABLE), 1)
        assert "no eligible image" in got
        assert got == expected
        for k in (3, 4, 5):
            mu = type_distribution(cycle(k), 3, TABLE)
            for multiplier in (2, 3, 4):
                self.assert_same(mu, 1, multiplier)


class TestVerifyUpsilon:
    def test_faithful_labelling(self):
        F = cycle(6)
        upsilon = {v: local_type(F, v, 3, TABLE) for v in F.elements()}
        assert verify_upsilon(F, upsilon, 1)

    def test_cycle_band_includes_cut_length(self):
        # A 2-cycle labelled with a 6-cycle's types meets every other
        # condition, but its elements' rank-1 types see the 2-cycle: the
        # band (1, r + 1] must include r + 1 = 2.
        F = cycle(2)
        tau = local_type(cycle(6), 0, 3, TABLE)
        assert not verify_upsilon(F, {v: tau for v in F.elements()}, 1)

    def test_image_type_must_be_forced(self):
        F = cycle(6)
        leaf = local_type(star(3), 1, 3, TABLE)
        assert not verify_upsilon(F, {v: leaf for v in F.elements()}, 1)

    def test_marks_must_match_witness(self):
        F = cycle(6)
        labelled = local_type(marked_cycle(), 0, 3, TABLE)
        upsilon = {v: labelled for v in F.elements()}
        assert not verify_upsilon(F, upsilon, 1)

    def test_preimage_counts_checked(self):
        F = FiniteMapping(f=(1, 2, 0, 0))
        tau = local_type(cycle(6), 0, 3, TABLE)
        assert not verify_upsilon(F, {v: tau for v in F.elements()}, 1)

    def test_totality_required(self):
        F = cycle(6)
        upsilon = {v: local_type(F, v, 3, TABLE) for v in range(5)}
        with pytest.raises(ValueError):
            verify_upsilon(F, upsilon, 1)

    def test_label_rank_checked(self):
        F = cycle(6)
        upsilon = {v: local_type(F, v, 2, TABLE) for v in F.elements()}
        with pytest.raises(RankTooLow):
            verify_upsilon(F, upsilon, 1)


class TestRewire:
    def test_closes_recorded_cycles(self):
        H = cycle_cut_product(cycle(3), 6, 3, TABLE)
        out = rewire(H, 6, 3)
        assert out.n == 18
        assert set(cycle_lengths(out)) == {3}
        assert out.signature.predicates == ()
        assert (
            measure_tv(
                type_distribution(out, 2, TABLE),
                type_distribution(cycle(3), 2, TABLE),
            )
            == 0
        )

    def test_fixed_points_restored(self):
        H = cycle_cut_product(fixed_point(), 6, 3, TABLE)
        out = rewire(H, 6, 3)
        assert out.f == tuple(range(6))

    def test_clean_rank_bounds_closure(self):
        H = cycle_cut_product(cycle(3), 6, 1, TABLE)
        out = rewire(H, 6, 1)
        assert set(cycle_lengths(out)) == {6}

    def test_non_divisor_classes_stay_open(self):
        H = cycle_cut_product(cycle(4), 6, 3, TABLE)
        out = rewire(H, 6, 3)
        assert 4 not in set(cycle_lengths(out))

    def test_requires_cut_marks(self):
        with pytest.raises(MissingCutPredicates):
            rewire(cycle(6), 6, 3)

    def test_missing_layer_named(self):
        H = cycle_cut_product(cycle(3), 6, 1, TABLE)
        kept = tuple(name for name in H.signature.predicates if name != "U4")
        marks = {name: H.marks[name] for name in kept}
        G = FiniteMapping(f=H.f, marks=marks, signature=Signature(kept))
        with pytest.raises(MissingCutPredicates, match=re.escape("missing layer predicates: ['U4']")):
            rewire(G, 6, 1)

    def test_realized_orbits_close_after_their_length(self):
        # rewire's closure claim on realized structures, where realize's
        # ordered target search, not the cut product, fixes each orbit:
        # at the pipeline's cut length, every element marked T<k>_cyc<l> of
        # a class rewire closes lies on an l-cycle, and every element of a
        # class it leaves open keeps its image.  Seeded inputs, not a proof.
        inputs = [(F, eps) for F, _, _, eps in CYCLIC_CASES] + CUT_LENGTH_CASES
        for n, seed in [(8, 1), (12, 3), (20, 6)]:
            inputs.append((seeded(n, seed), Fraction(1, 4)))
        lengths = set()
        for F, eps in inputs:
            residual, _ = residualize(F, eps)
            for r in (1, 2):
                _, clean, cut = realize_module._schedule(r, False, residual)
                table = TypeTable()
                product = cycle_cut_product(residual, cut, clean, table=table)
                nu = type_distribution(product, clean, table)
                for multiplier in (1, 2):
                    realized = realize(nu, r, multiplier)
                    rewired = rewire(realized, cut, clean)
                    orbits = cycle_orbits(rewired)
                    on_cycle = {v: len(orbit) for orbit in orbits for v in orbit}
                    for name in realized.signature.predicates:
                        matched = TYPE_MARK.fullmatch(name)
                        if not (matched and matched.group(1)):
                            continue
                        length = int(matched.group(1))
                        for v in realized.marks[name]:
                            if length > clean + 1 or cut % length:
                                assert rewired.f[v] == realized.f[v], (F, r, name, v)
                                continue
                            assert on_cycle.get(v) == length, (F, r, multiplier, name, v)
                            lengths.add(length)
        assert lengths == {1, 2, 3, 4, 5, 6}


class TestTerminalsHubsMerge:
    """Terminal types, whose images would need hub elements of a host, are
    rejected by realize; merge lays out copies without hubs."""

    def test_terminal_type_fails_cleanness(self):
        # A star leaf's image, the centre, has no mass: a terminal type,
        # which would need a hub element outside the realization.
        t_leaf = local_type(star(3), 1, 3, TABLE)
        mu = TypeMeasure.from_pairs(3, [(t_leaf, Fraction(1))])
        with pytest.raises(PreconditionFailed) as caught:
            realize(mu, 1)
        assert caught.value.check == "cleanness"

    def test_merge_shape(self):
        E = cycle(6, {"U": frozenset({0})})
        F2 = FiniteMapping(f=(1, 2, 2), marks={"U": frozenset({2})})
        out = merge(E, F2, 4)
        assert out.n == 6 + 4 * 3
        assert out.f[:6] == E.f
        for k in range(4):
            base = 6 + 3 * k
            assert out.f[base : base + 3] == (base + 1, base + 2, base + 2)
        assert out.marks["U"] == {0} | {6 + 3 * k + 2 for k in range(4)}
        assert out.signature == E.signature

    def test_merge_signature_checked(self):
        with pytest.raises(SignatureMismatch):
            merge(cycle(6), seeded(3, 0), 1)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            merge(cycle(6), path(3), 0)


class TestPipeline:
    def test_report_shape(self):
        F = seeded(24, 5)
        out, report = pipeline(F, 1, 1, Fraction(1, 8))
        assert report["version"] == 2
        assert [stage["name"] for stage in report["stages"]] == [
            "input",
            "residual",
            "product",
            "realized",
            "rewired",
            "merged",
            "output",
        ]
        assert report["stages"][0]["size"] == 24
        assert report["stages"][-1]["size"] == out.n
        final = Fraction(report["ldist"]["final"])
        assert report["ldist"]["ok"] == (final <= Fraction(1, 8))
        digest = report["certificate"]["digest"]
        assert len(digest) == 64 and int(digest, 16) >= 0
        schedule = report["parameters"]["schedule"]
        assert schedule["cut_length"] == math.lcm(1, 2, 3)

    def test_pairs_bound_reported(self):
        F = seeded(20, 6)
        _, report = pipeline(F, 2, 1, Fraction(1, 6))
        entry = report["ldist"]
        assert entry["p"] == 2
        final = Fraction(entry["final"])
        bound = Fraction(entry["p_bound"])
        assert bound >= 4 * final

    def test_every_small_mapping_proximities(self):
        # Every function with n <= 3 under every U-marking, at r = 1, 2,
        # eps = 1/2, 1/4 and p = 2: every call returns, and the reported
        # proximities are the share of ordered pairs within 2r,
        # sum_v |ball(v, 2r)| / N^2, of the input and of the returned output.
        calls = 0
        for n in range(1, 4):
            for f in itertools.product(range(n), repeat=n):
                for F in every_marking(f, ("U",)):
                    for r, eps in itertools.product((1, 2), (Fraction(1, 2), Fraction(1, 4))):
                        out, report = pipeline(F, 2, r, eps)
                        entry = report["ldist"]
                        case = (f, sorted(F.marks["U"]), r, eps)
                        assert Fraction(entry["proximity_input"]) == oracle_proximity(F, 2 * r), case
                        assert Fraction(entry["proximity_output"]) == oracle_proximity(
                            out, 2 * r
                        ), case
                        calls += 1
        assert calls == 936

    def test_copy_sweep_matches_full_sweeps(self, monkeypatch):
        # The report reads the realized histogram off the product's and takes
        # the merged and output statistics from a witness of the host and
        # min(copies, r + 1) copies.  Each is checked against the full
        # structure, typed in the pipeline's own table, ids and order
        # included.
        tables, built, merges = [], [], []

        def new_table():
            tables.append(TypeTable())
            return tables[-1]

        def keeping(build):
            def kept(*args):
                built.append(build(*args))
                return built[-1]

            return kept

        def merging(E, F2, copies):
            merges.append((E, F2))
            return keeping(merge)(E, F2, copies)

        monkeypatch.setattr(realize_module, "TypeTable", new_table)
        monkeypatch.setattr(realize_module, "realize", keeping(realize))
        monkeypatch.setattr(realize_module, "rewire", keeping(rewire))
        monkeypatch.setattr(realize_module, "merge", merging)
        witness_smaller = set()
        for F, p, r, eps in SWEEP_CASES:
            tables.clear()
            built.clear()
            merges.clear()
            out, report = pipeline(F, p, r, eps)
            realized, rewired = built[0], built[1]
            table = tables[0]
            parameters = report["parameters"]
            copies = parameters["n_close"] * parameters["n_away"]
            host = out.n - copies * realized.n
            # The pipeline merges only its witness; the full merged
            # structure is built here, from the parts it merged.
            assert len(built) == 3 and len(merges) == 1
            residual, stripped = merges[0]
            merged = merge(residual, stripped, copies)
            assert merged.n == out.n
            assert built[2].n == host + min(copies, r + 1) * realized.n
            witness_smaller.add(copies > r + 1)

            stages = {stage["name"]: stage for stage in report["stages"]}
            for name, full in [
                ("realized", realized),
                ("rewired", rewired),
                ("merged", merged),
                ("output", out),
            ]:
                assert stages[name]["size"] == full.n
                dist = type_distribution(full, r, table)
                assert list(stages[name]["histogram"].items()) == [
                    (str(t.canonical_id), str(mass)) for t, mass in dist
                ]

            entry = report["ldist"]
            assert Fraction(entry["final"]) == ldist(out, F, 1, r, table=table)
            if p >= 2:
                proximity = Fraction(entry["proximity_output"])
                assert proximity == oracle_proximity(out, 2 * r)
                assert Fraction(entry["proximity_input"]) == oracle_proximity(F, 2 * r)
        assert witness_smaller == {True, False}

    def test_output_tiled_like_full_merge(self, monkeypatch):
        # The output, tiled from the witness, is the merged and recovered
        # structure byte for byte, and its seeded mark sets are the ones
        # the constructor's own pass gives.
        merges = []

        def merging(E, F2, copies):
            merges.append((E, F2))
            return merge(E, F2, copies)

        monkeypatch.setattr(realize_module, "merge", merging)
        cases = [
            (F, p, r, eps, 1)
            for F, p, r, eps in [
                *SWEEP_CASES,
                (seeded(24, 5), 1, 1, Fraction(1, 8)),
                (seeded(10, 0), 1, 1, Fraction(1, 4)),
            ]
        ]
        cases += [(F, p, r, eps, 2) for F, p, r, eps in SWEEP_CASES[:2]]
        for seed in range(200):
            rng = random.Random(seed)
            r = 1 + seed % 2
            F = seeded(rng.randint(1, 10 if r == 1 else 6), seed)
            eps = Fraction(1, rng.choice([2, 3, 4, 6]))
            cases.append((F, 1 + seed % 3 // 2, r, eps, 1))
        seen = set()
        for F, p, r, eps, multiplier in cases:
            merges.clear()
            out, report = pipeline(F, p, r, eps, multiplier=multiplier)
            (residual, stripped), = merges
            parameters = report["parameters"]
            copies = parameters["n_close"] * parameters["n_away"]
            pairs = [tuple(pair) for pair in report["cut_pairs"]]
            expected = output_by_merge(residual, stripped, copies, pairs)
            assert dump_map(out) == dump_map(expected)
            fresh = FiniteMapping(f=out.f, marks=out.marks, signature=out.signature)
            assert out.mark_sets == fresh.mark_sets
            seen.add(("whole witness", copies <= r + 1))
            seen.add(("cut", bool(pairs)))
            seen.add(("multiplier", multiplier))
        assert seen == {
            (kind, value)
            for kind, values in [
                ("whole witness", (True, False)),
                ("cut", (True, False)),
                ("multiplier", (1, 2)),
            ]
            for value in values
        }

    def test_output_built_once(self, monkeypatch):
        # One structure of the output's size is built, by tiling, and the
        # merge runs once, on the witness.
        sizes, merges = [], []
        post_init = FiniteMapping.__post_init__

        def counting(F):
            sizes.append(len(F.f))
            post_init(F)

        def merging(E, F2, copies):
            merges.append(copies)
            return merge(E, F2, copies)

        monkeypatch.setattr(FiniteMapping, "__post_init__", counting)
        monkeypatch.setattr(realize_module, "merge", merging)
        for F, p, r, eps in SWEEP_CASES[:3]:
            sizes.clear()
            merges.clear()
            out, _ = pipeline(F, p, r, eps)
            assert sizes.count(out.n) == 1 and max(sizes) == out.n
            assert merges == [r + 1]

    def test_no_root_game_played_twice(self, monkeypatch):
        # A count guard: the kept root values are the only memo of game
        # values, and they are enough.  One pipeline call on each input,
        # and a cut product, its measure, the measure read back into a
        # fresh table and realize of both, play no game twice, each keyed
        # by (structure, tuple, rounds).
        games = Counter()
        play = TypeTable._play

        def counting(table, F, moves, tuples, k, meter):
            tuples = list(tuples)
            games.update((F, tup, k) for tup in tuples)
            return play(table, F, moves, tuples, k, meter)

        monkeypatch.setattr(TypeTable, "_play", counting)
        for F, p, r, eps in SWEEP_CASES:
            games.clear()
            pipeline(F, p, r, eps)
            assert games and max(games.values()) == 1, (F.n, p, r)
            assert all(len(tup) == 1 for _, tup, _ in games)
        games.clear()
        table = TypeTable()
        mu = type_distribution(cycle_cut_product(seeded(12, 9), 6, 3, table), 3, table)
        read_back = measure_from_json(measure_to_json(mu), TypeTable())
        for measure in (mu, read_back):
            for multiplier in (1, 2):
                realize(measure, 1, multiplier)
        assert games and max(games.values()) == 1

    def test_rewired_read_off_realized_blocks(self):
        # Every element of a realized block has the rank-r type of the
        # block's label (verify_upsilon).  rewire drops the layer and type
        # marks and moves the images of the elements it jumps, so each
        # element farther than r from a moved edge has the label's value
        # with those marks forgotten.
        some_far = some_near = False
        cases = [(seeded(20, 6), 2, 1, Fraction(1, 6)), *CYCLIC_CASES]
        cases += [(F, 1, 2, eps) for F, eps in CUT_LENGTH_CASES[:4]]
        for F, _, r, eps in cases:
            residual, _ = residualize(F, eps)
            _, clean, cut = realize_module._schedule(r, False, residual)
            table = TypeTable()
            product = cycle_cut_product(residual, cut, clean, table=table)
            nu = type_distribution(product, clean, table)
            realized = realize(nu, r)
            rewired = rewire(realized, cut, clean)
            unmarked = frozenset(realized.signature.predicates) - set(
                rewired.signature.predicates
            )
            jumped = [v for v in rewired.elements() if rewired.f[v] != realized.f[v]]
            moved = {*jumped, *(realized.f[v] for v in jumped)}
            moved.update(rewired.f[v] for v in jumped)
            near = oracle_near(rewired, moved, r)
            for tau, elements in realize_module._blocks(nu, realized.n):
                value = table.forget(table.lower_to(tau.nv, r), unmarked)
                for v in elements:
                    if v not in near:
                        assert table.nv_value(rewired, (v,), r) == value
            some_far |= len(near) < rewired.n
            some_near |= bool(near)
        assert some_far and some_near

    def test_root_games_only_where_a_stage_changes(self, monkeypatch):
        # The merged witness is a disjoint union of the residual and
        # stripped copies, so none of its elements is typed, and the
        # stripped copies hold their B marks nowhere, so they forget them
        # and type nothing either.  The residual, rewired and the output
        # witness type at rank r exactly the swept elements within distance
        # r of what they change: the cut edges and the A/B marks, the edges
        # rewire moves, and the A elements, their old images and the B
        # elements that recover rewires.  cycle_cut_product types every
        # residual element again, at the clean rank 2r + 1.
        games = []
        nv_value = TypeTable.nv_value

        def counting(table, F, tup, k, *args, **kwargs):
            if len(tup) == 1:
                games.append((F, tup[0], k))
            return nv_value(table, F, tup, k, *args, **kwargs)

        built = {}

        def keeping(name, build):
            def kept(*args):
                result = build(*args)
                built.setdefault(name, (args, result))
                return result

            return kept

        monkeypatch.setattr(TypeTable, "nv_value", counting)
        monkeypatch.setattr(
            realize_module, "residualize", keeping("residualize", residualize)
        )
        monkeypatch.setattr(realize_module, "realize", keeping("realize", realize))
        monkeypatch.setattr(realize_module, "rewire", keeping("rewire", rewire))
        monkeypatch.setattr(realize_module, "merge", keeping("merge", merge))
        monkeypatch.setattr(realize_module, "recover", keeping("recover", recover))
        cases = [(seeded(20, 6), 2, 1, Fraction(1, 6)), *CYCLIC_CASES]
        retyped, some_far = set(), False
        for F, p, r, eps in cases:
            games.clear()
            built.clear()
            pipeline(F, p, r, eps)
            residual, pairs = built["residualize"][1]
            realized, rewired = built["realize"][1], built["rewire"][1]
            (_, stripped, _), merged = built["merge"]
            output = built["recover"][1]
            swept = residual.n + stripped.n

            def played(structure, rank=r):
                elements = [v for G, v, k in games if G is structure and k == rank]
                assert len(elements) == len(set(elements))
                return set(elements)

            cuts = {v for pair in pairs for name in pair for v in residual.marks[name]}
            cut = [v for v in F.elements() if F.f[v] != residual.f[v]]
            cuts.update(cut, (F.f[v] for v in cut))
            jumped = [v for v in rewired.elements() if rewired.f[v] != realized.f[v]]
            moved = {*jumped, *(realized.f[v] for v in jumped)}
            moved.update(rewired.f[v] for v in jumped)
            lost = {v for _, b in pairs for v in rewired.marks[b]}
            changed = {v for _, b in pairs for v in merged.marks[b]}
            for a, _ in pairs:
                changed.update(merged.marks[a])
                changed.update(merged.f[v] for v in merged.marks[a])
            assert played(residual) == oracle_near(residual, cuts, r)
            assert played(residual, 2 * r + 1) == set(residual.elements())
            assert {k for G, _, k in games if G is residual} == {r, 2 * r + 1}
            assert not any(G is realized or G is merged for G, _, _ in games)
            assert played(rewired) == oracle_near(rewired, moved, r)
            assert not any(G is stripped for G, _, _ in games)
            assert played(output) == {
                v for v in oracle_near(output, changed, r) if v < swept
            }
            some_far = some_far or len(played(residual)) < residual.n
            retyped.add((bool(cuts), bool(moved), bool(lost), bool(changed)))
        assert retyped == {(True, True, True, True)}
        assert some_far

    def test_stripped_values_followed_as_a_full_retyping(self, monkeypatch):
        # The stripped copies hold their B marks nowhere, so their values
        # are followed by forgetting the B marks, with no game played.  The
        # merged stage sweeps them after the host; they must be the values
        # a full rank-r retyping of stripped gives.
        merges, sweeps = [], []
        valued = realize_module._valued_distribution

        def merging(E, F2, copies):
            merges.append((F2, merge(E, F2, copies)))
            return merges[-1][1]

        def recording(structure, r, table, swept):
            swept = list(swept)
            sweeps.append((structure, table, swept))
            return valued(structure, r, table, swept)

        monkeypatch.setattr(realize_module, "merge", merging)
        monkeypatch.setattr(realize_module, "_valued_distribution", recording)
        lost = 0
        for F, p, r, eps in SWEEP_CASES:
            merges.clear()
            sweeps.clear()
            _, report = pipeline(F, p, r, eps)
            (stripped, merged), = merges
            (table, swept), = [(t, s) for G, t, s in sweeps if G is merged]
            followed = [nv for _, _, nv in swept[len(swept) - stripped.n:]]
            assert followed == [
                table.nv_value(stripped, (v,), r) for v in stripped.elements()
            ], (F, p, r, eps)
            lost += bool(report["cut_pairs"])
        assert lost >= len(CYCLIC_CASES)

    def test_changed_by_recover_read_off_its_output(self, monkeypatch):
        # The pipeline finds what recover changed by comparing the merged
        # witness with its recovered form.  That is the set recover's rule
        # names: the A elements, their images before recover and the B
        # elements.
        built, searches = {}, []
        search = realize_module.near

        def keeping(name, build):
            def kept(*args):
                built[name] = (args, build(*args))
                return built[name][1]

            return kept

        def searching(F, seeds, radius):
            searches.append((F, set(seeds)))
            return search(F, seeds, radius)

        monkeypatch.setattr(realize_module, "merge", keeping("merge", merge))
        monkeypatch.setattr(realize_module, "recover", keeping("recover", recover))
        monkeypatch.setattr(realize_module, "near", searching)
        some_cut = False
        for F, p, r, eps in SWEEP_CASES:
            searches.clear()
            pipeline(F, p, r, eps)
            merged = built["merge"][1]
            (_, pairs), output = built["recover"]
            expected = {v for _, b in pairs for v in merged.marks[b]}
            for a, _ in pairs:
                expected.update(merged.marks[a])
                expected.update(merged.f[v] for v in merged.marks[a])
            (changed,) = [seeds for G, seeds in searches if G is output]
            assert changed == expected
            some_cut = some_cut or bool(pairs)
        assert some_cut

    def test_witness_types_like_every_copy(self):
        # A hub whose preimages all lie in the copies, one per copy: its
        # rank-r type counts them up to r, so the witness's
        # min(copies, r + 1) copies stand for any number of them, and
        # fewer than min(copies, r) do not.
        host = FiniteMapping(f=(0,), marks={"A1": frozenset(), "B1": {0}})
        block = FiniteMapping(f=(0,), marks={"A1": {0}, "B1": frozenset()})
        pairs = [("A1", "B1")]
        for r in (1, 2, 3):
            for copies in range(1, 7):
                table = TypeTable()
                full = recover(merge(host, block, copies), pairs)
                expected = type_distribution(full, r, table)
                for w in range(1, copies + 1):
                    witness = recover(merge(host, block, w), pairs)
                    sweep = realize_module._sweep(1, 1, copies)
                    valued = (
                        (v, weight, table.nv_value(witness, (v,), r))
                        for v, weight in sweep
                    )
                    got = _valued_distribution(witness, r, table, valued)
                    assert (got == expected) == (w >= min(copies, r))

    def test_preimage_table_built_once_per_structure(self, monkeypatch):
        built = []
        build = FiniteMapping.__dict__["pre"].func

        def counting(F):
            built.append(F)
            return build(F)

        counted = functools.cached_property(counting)
        counted.__set_name__(FiniteMapping, "pre")
        monkeypatch.setattr(FiniteMapping, "pre", counted)
        typed = set()
        nv_value = TypeTable.nv_value

        def typing(table, F, *args, **kwargs):
            typed.add(F)
            return nv_value(table, F, *args, **kwargs)

        monkeypatch.setattr(TypeTable, "nv_value", typing)
        out, _ = pipeline(seeded(20, 6), 2, 1, Fraction(1, 6))
        # Merged and output statistics come from a witness of the host and
        # r + 1 copies, so no structure the size of the full output is typed
        # or builds its preimage table.
        assert out not in built and out not in typed
        assert max(F.n for F in [*built, *typed]) < out.n
        ids = [id(F) for F in built]  # `built` keeps every structure alive
        assert len(ids) == len(set(ids))

    def test_factorial_schedule_infeasible(self):
        with pytest.raises(ScheduleInfeasible) as caught:
            pipeline(
                seeded(20, 7),
                1,
                2,
                Fraction(1, 10),
                factorial_schedule=True,
            )
        assert "cut = clean! =" in str(caught.value)
        assert caught.value.schedule["cut_length"] == math.factorial(33)

    def test_parameters_validated(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("no stage may run on a bad parameter")

        monkeypatch.setattr(realize_module, "residualize", unreachable)
        with pytest.raises(ValueError):
            pipeline(seeded(10, 0), 0, 1, Fraction(1, 4))
        with pytest.raises(ValueError):
            pipeline(seeded(10, 0), 1, 1, 0)
        with pytest.raises(ValueError, match="multiplier must be at least 1"):
            pipeline(seeded(10, 0), 1, 1, Fraction(1, 4), multiplier=0)

    @pytest.mark.parametrize("factorial", [False, True])
    @pytest.mark.parametrize("r", [0, -1])
    def test_rank_validated(self, r, factorial):
        with pytest.raises(ValueError, match="r must be at least 1"):
            pipeline(seeded(10, 0), 1, r, Fraction(1, 4), factorial_schedule=factorial)

    @pytest.mark.parametrize(
        "budget, message",
        [
            ("MAX_REALIZE_SIZE", "realization would need"),
            ("MAX_OUTPUT_SIZE", "merging would need"),
        ],
    )
    def test_budget_exceeded(self, monkeypatch, budget, message):
        monkeypatch.setattr(realize_module, budget, 10)
        with pytest.raises(ScheduleInfeasible, match=message) as caught:
            pipeline(seeded(10, 0), 1, 1, Fraction(1, 4))
        assert "over the budget of 10" in str(caught.value)
        assert caught.value.schedule == {
            "r": 1,
            "rr": 1,
            "clean_rank": 3,
            "cut_length": 6,
        }

    def test_no_collection_during_call(self):
        # Every allocation the call makes is freed by reference counting,
        # so the cyclic collector is paused for it.
        starts = []

        def counting(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        assert gc.isenabled()
        for F, p, r, eps in SWEEP_CASES:
            gc.collect()  # no allocation count left over to trigger one
            gc.callbacks.append(counting)
            try:
                pipeline(F, p, r, eps)
            finally:
                gc.callbacks.remove(counting)
        assert starts == []

    @pytest.mark.parametrize("enabled", [False, True])
    def test_collector_state_restored(self, monkeypatch, enabled):
        F = seeded(10, 0)
        (gc.enable if enabled else gc.disable)()
        try:
            pipeline(F, 1, 1, Fraction(1, 4))
            assert gc.isenabled() == enabled
            with pytest.raises(ValueError, match="p must be at least 1"):
                pipeline(F, 0, 1, Fraction(1, 4))
            assert gc.isenabled() == enabled
            monkeypatch.setattr(realize_module, "MAX_OUTPUT_SIZE", 10)
            with pytest.raises(ScheduleInfeasible, match="merging would need"):
                pipeline(F, 1, 1, Fraction(1, 4))
            assert gc.isenabled() == enabled
        finally:
            gc.enable()

    def test_no_cyclic_garbage(self, monkeypatch):
        # With the collector off, a collection after the call finds nothing
        # unreachable: the call built no reference cycle, which is what
        # makes pausing the collector for it safe.
        def garbage(F, p, r, eps, raises=False, **options):
            gc.collect()
            gc.disable()
            try:
                try:
                    pipeline(F, p, r, eps, **options)
                except ScheduleInfeasible:
                    assert raises
                else:
                    assert not raises
                return gc.collect()
            finally:
                gc.enable()

        for F, p, r, eps in SWEEP_CASES:
            assert garbage(F, p, r, eps) == 0, (F, p, r, eps)
        for F, p, r, eps in SWEEP_CASES[:2] + CYCLIC_CASES[2:3]:
            assert garbage(F, p, r, eps, multiplier=2) == 0, (F, p, r, eps)
        F = seeded(20, 7)
        assert garbage(F, 1, 2, Fraction(1, 10), True, factorial_schedule=True) == 0
        for budget in ("MAX_REALIZE_SIZE", "MAX_OUTPUT_SIZE"):
            with monkeypatch.context() as patched:
                patched.setattr(realize_module, budget, 10)
                assert garbage(seeded(10, 0), 1, 1, Fraction(1, 4), True) == 0

    def test_pair_numbering_reaches_no_output(self, monkeypatch):
        # residualize numbers its pairs in cut order; renumbering them in
        # reverse changes no map byte and no report byte.
        def renumbered(F, eps):
            residual, pairs = residualize(F, eps)
            marks = dict(residual.marks)
            for (a, b), (a_old, b_old) in zip(pairs, reversed(pairs)):
                marks[a], marks[b] = residual.marks[a_old], residual.marks[b_old]
            return (
                FiniteMapping(f=residual.f, marks=marks, signature=residual.signature),
                pairs,
            )

        def written(F, p, r, eps):
            out, report = pipeline(F, p, r, eps)
            return dump_map(out), json.dumps(jsonable(report), indent=2)

        # Reversing fewer than two pairs renames nothing.
        cases = [
            (F, p, r, eps)
            for F, p, r, eps in SWEEP_CASES
            if len(residualize(F, eps)[1]) >= 2
        ]
        assert cases
        before = [written(*case) for case in cases]
        monkeypatch.setattr(realize_module, "residualize", renumbered)
        assert [written(*case) for case in cases] == before

    def test_certificate_computed_once(self, monkeypatch):
        # The pipeline's report and realize's preconditions share one solve.
        calls = []
        solve = fmtp_module._solve_certificate

        def counting(mu, r):
            calls.append(r)
            return solve(mu, r)

        monkeypatch.setattr(fmtp_module, "_solve_certificate", counting)
        pipeline(seeded(10, 0), 1, 1, Fraction(1, 4))
        assert calls == [1]

    def test_violation_raises_infeasible(self, monkeypatch):
        violation = fmtp_module.Violation("balance", "lhs 1/2 != rhs 1/3")
        monkeypatch.setattr(
            realize_module, "restricted_fmtp_certificate", lambda mu, r: violation
        )
        with pytest.raises(Infeasible) as caught:
            pipeline(seeded(10, 0), 1, 1, Fraction(1, 4))
        assert str(caught.value) == str(violation)

    def test_digest_stability(self):
        from mapprox.fmtp import restricted_fmtp_certificate

        mu = type_distribution(cycle_cut_product(seeded(10, 1), 6, 3, TABLE), 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        assert certificate_digest(cert) == certificate_digest(cert)


class TestCutLength:
    """The pipeline cuts at the least multiple m >= max(2r + 3, 6) of the
    lcm of the short cycle lengths of its residual that rewire closes
    (oracles.cut_length_by_scan), never above the least divisor of
    lcm(1..2r + 1) the rule before it took (oracles.cut_length_by_divisors)."""

    def test_rank_one_cuts_at_six(self):
        for F, p, r, eps in SWEEP_CASES:
            if r != 1:
                continue
            residual, _ = residualize(F, eps)
            assert cut_length_by_scan(residual, 1) == 6
            _, report = pipeline(F, p, r, eps)
            assert report["parameters"]["schedule"]["cut_length"] == 6

    def test_rule_on_every_set_of_closable_lengths(self, monkeypatch):
        # For r = 1..7 and every set S of the lengths 2 <= l <= 2r + 2 with
        # l | lcm(1..2r + 1), a residual with fixed points, S and the one
        # length such a set leaves out (2r + 2 when it is a power of two)
        # is cut at m >= 2r + 3 that rewire's test l | m passes for exactly
        # the lengths in S, and at no more than the divisor rule's m.
        lengths = []
        monkeypatch.setattr(realize_module, "cycle_lengths", lambda residual: lengths)
        calls = 0
        for r in range(1, 8):
            full = math.lcm(*range(1, 2 * r + 2))
            closable = [l for l in range(2, 2 * r + 3) if full % l == 0]
            left_out = [l for l in range(2, 2 * r + 3) if full % l]
            assert left_out == ([] if r & (r + 1) else [2 * r + 2])
            for size in range(len(closable) + 1):
                for closed in itertools.combinations(closable, size):
                    lengths[:] = [1, *closed, *left_out]
                    _, _, m = realize_module._schedule(r, False, None)
                    calls += 1
                    assert m >= 2 * r + 3
                    assert {l for l in lengths[1:] if m % l == 0} == set(closed)
                    assert m <= least_divisor_cut(closed, r)
                    if r <= 4:
                        assert m == least_cut_by_scan(closed, r)
                    assert r > 1 or m == 6
        assert calls == 4 + 32 + 64 + 512 + 2048 + 8192 + 16384

    def test_cut_length_matches_oracle(self):
        seen = {2: set(), 3: set()}
        for F, eps in CUT_LENGTH_CASES:
            residual, _ = residualize(F, eps)
            for r in (2, 3):
                _, report = pipeline(F, 1, r, eps)
                m = report["parameters"]["schedule"]["cut_length"]
                assert m == cut_length_by_scan(residual, r), (F, r)
                assert m <= cut_length_by_divisors(residual, r), (F, r)
                assert m >= 2 * r + 3
                assert all(m % l == 0 for l in closed_cycle_lengths(residual, r))
                seen[r].update(l for l in cycle_lengths(residual) if l <= 2 * r + 2)
        assert seen == {2: {1, 2, 3, 4, 5, 6}, 3: {1, 2, 3, 4, 5, 6, 7, 8}}
        _, report = pipeline(seeded(20, 42), 1, 2, Fraction(1, 4))
        assert report["parameters"]["schedule"]["cut_length"] == 9

    def test_odd_rank_leaves_the_longest_class_open(self):
        # At odd r, 2r + 2 does not divide lcm(1..2r + 1), so rewire leaves
        # a (2r + 2)-cycle class open at every cut length, 420 as well as m:
        # its elements keep their images, while the 7-cycle class closes.
        F, eps = CUT_LENGTH_CASES[-1]
        residual, _ = residualize(F, eps)
        assert {7, 8} <= set(cycle_lengths(residual))
        assert 420 % 8 != 0 and 8 not in closed_cycle_lengths(residual, 3)
        _, clean, cut = realize_module._schedule(3, False, residual)
        assert cut == 14
        table = TypeTable()
        product = cycle_cut_product(residual, cut, clean, table=table)
        realized = realize(type_distribution(product, clean, table), 3)
        rewired = rewire(realized, cut, clean)
        on_cycle = {v: len(orbit) for orbit in cycle_orbits(rewired) for v in orbit}
        classes = Counter()
        for name in realized.signature.predicates:
            matched = TYPE_MARK.fullmatch(name)
            length = int(matched.group(1)) if matched and matched.group(1) else None
            for v in realized.marks[name] if length in (7, 8) else ():
                if length == 8:
                    assert rewired.f[v] == realized.f[v]
                else:
                    assert on_cycle.get(v) == 7
                classes[length] += 1
        assert classes[7] and classes[8]

    def test_product_budget_checked_at_the_residual_cut(self, monkeypatch):
        # The one product-size check reads the rule's m off the residual,
        # and a miss raises before any game is played or product built.
        def unreachable(*args, **kwargs):
            raise AssertionError("no game or product past a missed budget")

        monkeypatch.setattr(realize_module, "cycle_cut_product", unreachable)
        F = seeded(20, 42)
        m = cut_length_by_scan(residualize(F, Fraction(1, 4))[0], 2)
        assert m == 9
        monkeypatch.setattr(realize_module, "MAX_PRODUCT_SIZE", F.n * m - 1)
        with monkeypatch.context() as patched:
            patched.setattr(TypeTable, "_play", unreachable)
            with pytest.raises(ScheduleInfeasible) as caught:
                pipeline(F, 1, 2, Fraction(1, 4))
            assert str(caught.value) == (
                f"cut = 9 yields a product of {F.n * m} elements, "
                f"over the budget of {F.n * m - 1}"
            )
            assert caught.value.schedule == {"r": 2, "rr": 2, "clean_rank": 5, "cut_length": 9}
            with pytest.raises(ScheduleInfeasible) as caught:
                pipeline(F, 1, 1, Fraction(1, 4), factorial_schedule=True)
            assert caught.value.schedule["cut_length"] == math.factorial(9)
        # At the budget itself the check passes, so the product is cut.
        monkeypatch.setattr(realize_module, "MAX_PRODUCT_SIZE", F.n * m)
        with pytest.raises(AssertionError, match="no game or product"):
            pipeline(F, 1, 2, Fraction(1, 4))

    def test_every_small_mapping(self):
        # Every function with n <= 4, and every function with n = 5 up to
        # relabelling, each with one seeded U marking, at r = 1, 2,
        # eps = 1/2, 1/4 and p = 1: each call returns or raises a named
        # MapproxError, its residual recovers the input, the realized
        # histogram is the product's, and the cut length is the oracle's.
        functions = [
            f for n in range(1, 5) for f in itertools.product(range(n), repeat=n)
        ]
        functions += functions_up_to_relabeling(5)
        calls = 0
        for f in functions:
            n = len(f)
            rng = random.Random(repr(f))
            F = FiniteMapping(
                f=f, marks={"U": frozenset(v for v in range(n) if rng.random() < 0.5)}
            )
            for eps in (Fraction(1, 2), Fraction(1, 4)):
                residual, pairs = residualize(F, eps)
                assert structurally_equal(recover(residual, pairs), F), (f, eps)
                for r in (1, 2):
                    calls += 1
                    try:
                        _, report = pipeline(F, 1, r, eps)
                    except MapproxError:
                        continue
                    stages = {stage["name"]: stage for stage in report["stages"]}
                    assert stages["realized"]["histogram"] == stages["product"]["histogram"]
                    m = report["parameters"]["schedule"]["cut_length"]
                    assert m == cut_length_by_scan(residual, r), (f, r, eps)
        assert calls == 4 * (256 + 27 + 4 + 1 + 47)
