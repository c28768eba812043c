"""Transport identity, restricted certificates, measure approximation."""

import random
from fractions import Fraction

import pytest

from helpers import cycle, fixed_point, path, perturbed, perturbed_product, seeded, star
from mapprox import fmtp, simplex
from mapprox.errors import BudgetExceeded, ElementOutOfRange, Infeasible, RankTooLow
from mapprox.fmtp import (
    CompanionCertificate,
    Violation,
    approximate_measure,
    check_fmtp,
    check_realizability_preconditions,
    exhaustive_fmtp_check,
    restricted_fmtp_certificate,
    verify_certificate,
)
from mapprox.localtypes import (
    TypeMeasure,
    TypeTable,
    local_type,
    measure_tv,
    project,
    transport,
    type_distribution,
)
from mapprox.realize import realize
from mapprox.structure import FiniteMapping, cycle_cut_product

TABLE = TypeTable()


class TestTransportIdentity:
    def test_path_example(self):
        F = path(3)
        result = check_fmtp(F, {0}, {1})
        assert result.lhs == result.rhs == Fraction(1, 3)
        assert result.equal and bool(result)

    def test_random_subsets(self):
        rng = random.Random(5)
        for trial in range(50):
            F = seeded(rng.randrange(2, 30), trial)
            A = {v for v in F.elements() if rng.random() < 0.5}
            B = {v for v in F.elements() if rng.random() < 0.5}
            assert check_fmtp(F, A, B)

    def test_element_range_checked(self):
        with pytest.raises(ElementOutOfRange):
            check_fmtp(cycle(3), {0}, {5})

    def test_exhaustive(self):
        assert exhaustive_fmtp_check(cycle(3))
        assert exhaustive_fmtp_check(star(3))
        assert exhaustive_fmtp_check(seeded(6, 11))


class TestCertificates:
    def test_cycle_certificate(self):
        mu = type_distribution(cycle(6), 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        assert isinstance(cert, CompanionCertificate)
        assert cert.R == 3 and cert.r == 1
        tau = mu.entries[0][0]
        assert cert.value(tau, project(tau, 1)) == 1
        assert verify_certificate(mu, cert)

    def test_rank_zero_certificate(self):
        mu = type_distribution(seeded(15, 2), 1, TABLE)
        cert = restricted_fmtp_certificate(mu, 0)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(mu, cert)

    def test_value_lookup(self):
        H = cycle_cut_product(seeded(12, 5), 6, 3, TABLE)
        mu = type_distribution(H, 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        assert len(cert.entries) > 1
        for tau, t, s in cert.entries:
            assert cert.value(tau, t) == s
        present = {(tau, t) for tau, t, _ in cert.entries}
        taus = {tau for tau, _, _ in cert.entries}
        ts = {t for _, t, _ in cert.entries}
        absent = [(tau, t) for tau in taus for t in ts if (tau, t) not in present]
        assert absent
        for tau, t in absent:
            assert cert.value(tau, t) == 0
        other = TypeTable()
        for tau, t, _ in cert.entries:
            assert cert.value(local_type(tau.structure, tau.element, 3, other), t) == 0
            assert cert.value(tau, local_type(t.structure, t.element, 1, other)) == 0

    def test_cut_product_certificate(self):
        H = cycle_cut_product(seeded(12, 5), 6, 3, TABLE)
        mu = type_distribution(H, 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(mu, cert)

    def test_rank_too_low(self):
        mu = type_distribution(cycle(6), 2, TABLE)
        with pytest.raises(RankTooLow):
            restricted_fmtp_certificate(mu, 1)

    def test_star_leaf_point_mass_violates(self):
        t = local_type(star(3), 1, 3, TABLE)
        mu = TypeMeasure.from_pairs(3, [(t, Fraction(1))])
        outcome = restricted_fmtp_certificate(mu, 1)
        assert isinstance(outcome, Violation)
        assert outcome.check == "balance"
        assert str(outcome).startswith("balance:")
        assert outcome.lhs != outcome.rhs

    def test_perturbed_masses_violate(self):
        # at r=2 the star center promises >= 2 leaf preimages per unit of
        # mass, so moving mass from the leaf class onto the center breaks
        # the balance floor; the true masses stay feasible
        mu = type_distribution(star(3), 5, TABLE)
        assert isinstance(
            restricted_fmtp_certificate(mu, 2), CompanionCertificate
        )
        swapped = TypeMeasure.from_pairs(
            5, [(t, Fraction(1, 2)) for t, _ in mu.entries]
        )
        assert isinstance(restricted_fmtp_certificate(swapped, 2), Violation)

    def test_verify_rejects_cross_measure(self):
        marked = cycle(6, {"U": frozenset({0, 2, 4})})
        mu_marked = type_distribution(marked, 3, TABLE)
        cert = restricted_fmtp_certificate(mu_marked, 1)
        plain = type_distribution(
            cycle(6, {"U": frozenset()}), 3, TABLE
        )
        assert not verify_certificate(plain, cert)

    def test_verify_rejects_tampered_value(self):
        mu = type_distribution(cycle(6), 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        tau, t, s = cert.entries[0]
        bad = CompanionCertificate(
            R=cert.R, r=cert.r, entries=((tau, t, s + 1),)
        )
        assert not verify_certificate(mu, bad)

    def test_verify_rejects_wrong_rank(self):
        mu = type_distribution(cycle(6), 3, TABLE)
        cert = restricted_fmtp_certificate(mu, 1)
        assert not verify_certificate(
            mu, CompanionCertificate(R=5, r=1, entries=cert.entries)
        )


class TestApproximateMeasure:
    def test_fast_path_returns_input(self):
        mu = type_distribution(cycle(6), 3, TABLE)
        assert approximate_measure(mu, Fraction(1, 100), 1) is mu

    def test_lp_path(self):
        mu = perturbed_product(3, 1)
        assert isinstance(restricted_fmtp_certificate(mu, 1), Violation)
        out = approximate_measure(mu, Fraction(1, 100), 1)
        assert {t.key for t, _ in out} == {t.key for t, _ in mu}
        assert all(mass > 0 for _, mass in out)
        assert sum(mass for _, mass in out) == 1
        assert measure_tv(mu, out) < Fraction(1, 100)
        cert = restricted_fmtp_certificate(out, 1)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(out, cert)

    def test_eps_positive(self):
        mu = type_distribution(cycle(6), 3, TABLE)
        with pytest.raises(ValueError):
            approximate_measure(mu, 0, 1)

    def test_infeasible_support(self):
        t = local_type(star(3), 1, 3, TABLE)
        mu = TypeMeasure.from_pairs(3, [(t, Fraction(1))])
        with pytest.raises(Infeasible):
            approximate_measure(mu, Fraction(1, 10), 1)

    def test_rank_zero_violation_reaches_the_lp(self):
        # The leaf maps onto the marked center, and no mass is marked: at
        # r = 0 the flow goes into a class without mass, which no repair on
        # the same support can fill.
        t = local_type(star(3, {"U": {0}}), 1, 1, TABLE)
        mu = TypeMeasure.from_pairs(1, [(t, Fraction(1))])
        violation = restricted_fmtp_certificate(mu, 0)
        assert isinstance(violation, Violation)
        assert str(violation).endswith("is forced to 0, needed 1")
        with pytest.raises(Infeasible) as caught:
            approximate_measure(mu, Fraction(1, 10), 0)
        assert str(caught.value).startswith(str(violation))

    def test_rank_zero_violation_skips_the_simplex(self, monkeypatch):
        # At r = 0 a violated row has a flow and no unknown, which no
        # positive masses balance: the answer needs no LP solve.
        def unreachable(rows, num_vars):
            raise AssertionError("no r = 0 repair exists; the simplex must not run")

        monkeypatch.setattr(simplex, "solve_equalities", unreachable)
        t = local_type(star(3, {"U": {0}}), 1, 1, TABLE)
        mu = TypeMeasure.from_pairs(1, [(t, Fraction(1))])
        with pytest.raises(Infeasible, match="no measure on the same support"):
            approximate_measure(mu, Fraction(1, 10), 0)

    @pytest.mark.parametrize("n,seed", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_repair_certifies_and_realizes(self, n, seed):
        # A seeded perturbed measure is repaired on its support, and the
        # repair is a measure that realize turns into a mapping exactly.
        mu = perturbed_product(n, seed)
        assert isinstance(restricted_fmtp_certificate(mu, 1), Violation)
        eps = Fraction(1, 100)
        out = approximate_measure(mu, eps, 1)
        assert [t.key for t, _ in out] == [t.key for t, _ in mu]
        assert all(mass > 0 for _, mass in out)
        assert sum(mass for _, mass in out) == 1
        assert measure_tv(mu, out) < eps
        cert = restricted_fmtp_certificate(out, 1)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(out, cert)
        realized = realize(out, 1)
        table = out.entries[0][0].table
        assert measure_tv(type_distribution(realized, 1, table), out.project(1)) == 0

    def test_repair_with_forced_unknowns(self):
        # At r = 2 an unknown s(tau, t) is forced when tau's witness has one
        # t-typed preimage, as do the 5-cycle's vertices 2, 3 and 4, whose
        # only preimage is their cycle predecessor.  At r = 1 every listed
        # count is >= r, so the cut-product repairs above have none.
        F = FiniteMapping(f=(1, 2, 3, 4, 0, 0, 0, 1))
        mu = perturbed(type_distribution(F, 5, TypeTable()))
        assert isinstance(restricted_fmtp_certificate(mu, 2), Violation)
        equations = fmtp._balance_equations(mu, 2)[3]
        assert any(count == 1 for _, forced, _ in equations.values() for _, count in forced)
        eps = Fraction(1, 100)
        out = approximate_measure(mu, eps, 2)
        assert [t.key for t, _ in out] == [t.key for t, _ in mu]
        assert measure_tv(mu, out) < eps
        cert = restricted_fmtp_certificate(out, 2)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(out, cert)

    def test_repair_is_a_pinned_lp_vertex(self):
        # The rows and the variable order decide which vertex the simplex
        # returns; this pin shows any change to them.  Here the vertex is
        # not the unperturbed measure: its TV is 1/1200 and its lcm 18,000.
        out = approximate_measure(perturbed_product(3, 3), Fraction(1, 100), 1)
        assert [mass for _, mass in out] == (
            [Fraction(1003, 18000)] * 6 + [Fraction(991, 9000)] + [Fraction(1, 9)] * 5
        )

    @pytest.mark.parametrize(
        "n, seed, eps, solves",
        [(3, 1, Fraction(1, 100), 1), (3, 7, Fraction(1, 100), 1),
         (4, 3, Fraction(1, 100), 1), (3, 1, Fraction(1, 10**6), 2)],
    )
    def test_solve_count(self, monkeypatch, n, seed, eps, solves):
        # A repair found at the first delta costs one solve; one with no
        # repair costs two, at the first delta and the last, since
        # feasibility is monotone in delta.
        real, calls = simplex.solve_equalities, []

        def counted(rows, num_vars):
            calls.append(num_vars)
            return real(rows, num_vars)

        monkeypatch.setattr(simplex, "solve_equalities", counted)
        try:
            approximate_measure(perturbed_product(n, seed), eps, 1)
        except Infeasible:
            assert solves == 2
        assert len(calls) == solves

    def test_repair_found_after_halvings(self, monkeypatch):
        # A solver that finds nothing while delta > delta_0 / 8 makes k = 3
        # the first feasible halving: the repair tries k = 0, the last k
        # (19), then k = 1, 2, 3 in turn.  At k = 19 the stub answers x = 0,
        # which is no repair at all, so the test fails if that answer comes
        # back instead of the one at k = 3.  Masses pinned from the halving
        # loop that tried k = 0, 1, 2, 3 in turn.
        mu = perturbed_product(3, 3)
        S, delta_0 = len(mu.entries), min(mass for _, mass in mu) / 2
        real, tried = simplex.solve_equalities, []

        def late(rows, num_vars):
            # The row sum(x) = 1 - S delta comes just before the S mass rows
            # and the proximity row.
            delta = (1 - rows[-S - 2][1]) / S
            tried.append(delta_0 / delta)
            if delta == delta_0 / 2**19:
                return [Fraction(0)] * num_vars
            return None if delta > delta_0 / 8 else real(rows, num_vars)

        monkeypatch.setattr(simplex, "solve_equalities", late)
        out = approximate_measure(mu, Fraction(1, 100), 1)
        assert tried == [1, 2**19, 2, 4, 8]
        assert [mass for _, mass in out] == (
            [Fraction(1003, 18000)] * 6 + [Fraction(991, 9000)] + [Fraction(1, 9)] * 5
        )

    def test_unrepairable_names_the_violation(self):
        mu = perturbed_product(3, 1)
        violation = restricted_fmtp_certificate(mu, 1)
        with pytest.raises(Infeasible) as caught:
            approximate_measure(mu, Fraction(1, 10**6), 1)
        assert str(violation) in str(caught.value)

    def test_lp_over_budget_is_refused_before_solving(self, monkeypatch):
        def unreachable(rows, num_vars):
            raise AssertionError("the simplex must not run over budget")

        monkeypatch.setattr(simplex, "solve_equalities", unreachable)
        mu = perturbed_product(8, 1)
        with pytest.raises(BudgetExceeded) as caught:
            approximate_measure(mu, Fraction(1, 100), 1)
        assert caught.value.budget == fmtp.LP_MAX_CELLS
        assert caught.value.needed > fmtp.LP_MAX_CELLS


class TestPreconditions:
    def test_cut_product_passes(self):
        # the product's shortest cycle has length 6, above the checked band
        H = cycle_cut_product(seeded(10, 7), 6, 3, TABLE)
        report = check_realizability_preconditions(type_distribution(H, 3, TABLE), 1)
        assert report.passed
        assert report.certificate is not None
        assert [c.name for c in report.checks] == [
            "cleanness",
            "no-short-cycles",
            "certificate",
        ]
        assert report.failures() == ()

    def test_short_cycle_named(self):
        report = check_realizability_preconditions(type_distribution(cycle(3), 5, TABLE), 2)
        assert not report.passed
        assert not report.check("no-short-cycles").passed
        assert "cycle of length 3" in report.check("no-short-cycles").detail
        assert report.check("cleanness").passed

    def test_cycle_band_is_closed_on_the_right(self):
        # The band is (1, r + 1]: a 3-cycle lies on its right end at r = 2
        # and past it at r = 1.
        mu = type_distribution(cycle(3), 5, TABLE)
        at_bound = check_realizability_preconditions(mu, 2)
        assert not at_bound.check("no-short-cycles").passed
        below = check_realizability_preconditions(mu, 1)
        assert below.check("no-short-cycles").passed

    def test_uncleanness_named(self):
        t = local_type(path(4), 0, 3, TABLE)
        mu = TypeMeasure.from_pairs(3, [(t, Fraction(1))])
        report = check_realizability_preconditions(mu, 1)
        assert not report.check("cleanness").passed

    def test_certificate_failure_named(self):
        t = local_type(star(3), 1, 3, TABLE)
        mu = TypeMeasure.from_pairs(3, [(t, Fraction(1))])
        report = check_realizability_preconditions(mu, 1)
        assert not report.check("certificate").passed
        assert report.certificate is None

    def test_fixed_point_passes(self):
        mu = type_distribution(fixed_point(), 3, TABLE)
        report = check_realizability_preconditions(mu, 1)
        assert report.passed
