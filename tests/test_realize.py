"""Realization, label verification, rewiring, merging, and the pipeline."""

import functools
import importlib
import math
from fractions import Fraction

import pytest

from helpers import cycle, fixed_point, path, perturbed_product, seeded, star
from mapprox.equivalence import ldist
from mapprox.errors import (
    BudgetExceeded,
    Infeasible,
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
    _weighted_distribution,
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
    FiniteMapping,
    cycle_cut_product,
    cycle_lengths,
    recover,
)
from oracles import proximity as oracle_proximity
from oracles import realize_two_pass

# The package exports the function `realize`, which shadows the module.
fmtp_module = importlib.import_module("mapprox.fmtp")
realize_module = importlib.import_module("mapprox.realize")

TABLE = TypeTable()


def marked_cycle(k=6):
    return cycle(k, {"U": frozenset({0})})


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

    def test_copy_sweep_matches_full_sweeps(self, monkeypatch):
        # The report reads the realized histogram off the product's and takes
        # the merged and output statistics from a witness of the host and
        # min(copies, r + 1) copies.  Each is checked against the full
        # structure, typed in the pipeline's own table, ids and order
        # included.
        cases = [
            (seeded(20, 6), 2, 1, Fraction(1, 6)),
            (seeded(30, 3), 2, 1, Fraction(1, 10)),
            (seeded(24, 9, Fraction(1, 2)), 2, 1, Fraction(1, 5)),
            # Six copies at p = 2: a first-copy ball counts one other copy,
            # not every other copy the witness holds.
            (seeded(4, 2), 2, 2, Fraction(1, 3)),
            (seeded(6, 42), 1, 3, Fraction(1, 4)),
            # Two copies, fewer than r + 1 (eps >= 1 cuts nothing).
            (seeded(4, 1), 2, 2, Fraction(1)),
            (seeded(6, 42), 2, 3, Fraction(2)),
        ]
        tables, built = [], []

        def new_table():
            tables.append(TypeTable())
            return tables[-1]

        def keeping(build):
            def kept(*args):
                built.append(build(*args))
                return built[-1]

            return kept

        monkeypatch.setattr(realize_module, "TypeTable", new_table)
        monkeypatch.setattr(realize_module, "realize", keeping(realize))
        monkeypatch.setattr(realize_module, "merge", keeping(merge))
        witness_smaller = set()
        for F, p, r, eps in cases:
            tables.clear()
            built.clear()
            out, report = pipeline(F, p, r, eps)
            realized, merged = built[0], built[-1]
            table = tables[0]
            parameters = report["parameters"]
            copies = parameters["n_close"] * parameters["n_away"]
            host = out.n - copies * realized.n
            assert len(built) == 3 and merged.n == out.n
            assert built[1].n == host + min(copies, r + 1) * realized.n
            witness_smaller.add(copies > r + 1)

            stages = {stage["name"]: stage for stage in report["stages"]}
            for name, full in [
                ("realized", realized),
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
                    got = _weighted_distribution(witness, r, table, sweep)
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

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            pipeline(seeded(10, 0), 0, 1, Fraction(1, 4))
        with pytest.raises(ValueError):
            pipeline(seeded(10, 0), 1, 1, 0)

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
