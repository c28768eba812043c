"""Acceptance checks: exact identities, certificates, and one sampling law.

Each test prints one summary line with its measured numbers and asserts the
stated tolerance and time budget.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from helpers import cycle, fixed_point, path, perturbed, star
from mapprox.compress import standard_r_approximation
from mapprox.equivalence import ef_equivalent, ldist
from mapprox.errors import ScheduleInfeasible
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
    types_equal,
)
from mapprox.logic import (
    Eq,
    Interpretation,
    Term,
    apply_interpretation,
    build_delta,
    stone_pairing,
    translate,
)
from mapprox.randgen import cycle_statistics, random_mapping
from mapprox.realize import pipeline, realize, rewire
from mapprox.structure import (
    FiniteMapping,
    cycle_cut_product,
    cycle_lengths,
)
from oracles import random_clean_formula

import pytest


def test_realization_matches_source_distribution_exactly():
    worst_run = 0.0
    for seed in range(20):
        started = time.perf_counter()
        table = TypeTable()
        F = random_mapping(200, seed, {"U": Fraction(1, 4)})
        H = cycle_cut_product(F, 6, 3, table)
        mu = type_distribution(H, 3, table)
        for multiplier in (1, 2):
            out = realize(mu, 1, multiplier)
            tv = measure_tv(type_distribution(out, 1, table), mu.project(1))
            assert tv == 0, (seed, multiplier, tv)
        elapsed = time.perf_counter() - started
        worst_run = max(worst_run, elapsed)
        assert elapsed < 60
    print(
        f"PASS realization: 20 seeds x 2 multipliers, every TV exactly 0, "
        f"slowest run {worst_run:.2f}s"
    )


def test_mass_transport_identity_holds_universally():
    started = time.perf_counter()
    for case in range(2000):
        n = case % 6 + 1
        assert exhaustive_fmtp_check(random_mapping(n, case)), case
    rng = random.Random(2)
    for trial in range(1000):
        F = random_mapping(rng.randrange(1, 51), 10_000 + trial)
        A = {v for v in F.elements() if rng.random() < 0.5}
        B = {v for v in F.elements() if rng.random() < 0.5}
        result = check_fmtp(F, A, B)
        assert result.lhs == result.rhs, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS transport identity: 2000 exhaustive cases (n <= 6) and 1000 "
        f"sampled triples (n <= 50), zero failures, {elapsed:.2f}s"
    )


def test_image_types_follow_the_transport_operator():
    started = time.perf_counter()
    table = TypeTable()
    rng = random.Random(0)
    checked = 0
    for seed in range(100):
        F = random_mapping(rng.randrange(2, 41), seed)
        for v in F.elements():
            for r in (0, 1, 2):
                lhs = local_type(F, F.f[v], r, table)
                rhs = project(transport(local_type(F, v, r + 1, table)), r)
                assert types_equal(lhs, rhs), (seed, v, r)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"PASS transport operator: {checked} element/rank checks across 100 "
        f"mappings, zero failures, {elapsed:.2f}s"
    )


def test_extracted_measures_certify_and_bad_measures_name_their_check():
    started = time.perf_counter()
    table = TypeTable()
    rng = random.Random(4)
    for seed in range(50):
        F = random_mapping(rng.randrange(2, 41), 200 + seed, {"U": Fraction(1, 4)})
        mu = type_distribution(F, 3, table)
        cert = restricted_fmtp_certificate(mu, 1)
        assert isinstance(cert, CompanionCertificate), seed
        assert verify_certificate(mu, cert), seed

    leaf_mass = TypeMeasure.from_pairs(
        3, [(local_type(star(3), 1, 3, table), Fraction(1))]
    )
    outcome = restricted_fmtp_certificate(leaf_mass, 1)
    assert isinstance(outcome, Violation)
    assert outcome.check == "balance"
    assert not check_realizability_preconditions(leaf_mass, 1).check(
        "certificate"
    ).passed

    short_cycles = type_distribution(cycle(3), 5, table)
    report = check_realizability_preconditions(short_cycles, 2)
    assert not report.check("no-short-cycles").passed

    unclean = TypeMeasure.from_pairs(
        3, [(local_type(path(4), 0, 3, table), Fraction(1))]
    )
    report = check_realizability_preconditions(unclean, 1)
    assert not report.check("cleanness").passed

    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS certificates: 50 extracted measures verified; point mass on a "
        f"star leaf, short-cycle mass, and an unclean measure each rejected "
        f"by the named check, {elapsed:.2f}s"
    )


def test_measure_approximation_stays_close_and_feasible():
    started = time.perf_counter()
    table = TypeTable()
    eps = Fraction(1, 100)
    inputs = [
        cycle(6, {"U": frozenset({0, 2, 4})}),
        cycle(6, {"U": frozenset({0, 3})}),
    ]
    sizes = []
    exact = [type_distribution(F, 3, table) for F in inputs]
    product = cycle_cut_product(random_mapping(4, 1, {"U": Fraction(1, 4)}), 6, 3, table)
    # The LP half: measures moved 1/1000 of mass off the transport
    # equations, which the LP must repair.
    near = [perturbed(mu) for mu in exact]
    near.append(perturbed(type_distribution(product, 3, table)))
    for index, mu in enumerate(exact + near):
        sizes.append(len(mu.entries))
        violation = restricted_fmtp_certificate(mu, 1)
        assert isinstance(violation, Violation) == (index >= len(exact))
        out = approximate_measure(mu, eps, 1)
        assert {t.key for t, _ in out} == {t.key for t, _ in mu}
        assert all(mass > 0 for _, mass in out)
        assert sum(mass for _, mass in out) == 1
        assert measure_tv(mu, out) < eps
        cert = restricted_fmtp_certificate(out, 1)
        assert isinstance(cert, CompanionCertificate)
        assert verify_certificate(out, cert)
    assert sizes == [2, 3, 2, 3, 24]
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    print(
        f"PASS approximation: two- and three-type measures returned as they "
        f"are, their perturbations and a perturbed 24-type cut-product measure "
        f"repaired by the LP, support/positivity/sum/TV and certificate all "
        f"hold, "
        f"{elapsed:.2f}s"
    )


def test_cut_and_rewire_preserve_low_rank_distributions():
    started = time.perf_counter()
    rng = random.Random(6)
    corpus = [cycle(3), fixed_point()]
    corpus += [random_mapping(rng.randrange(2, 61), 100 + s) for s in range(10)]
    for index, F in enumerate(corpus):
        table = TypeTable()
        H = cycle_cut_product(F, 6, 3, table)
        lengths = cycle_lengths(H)
        assert all(length >= 6 for length in lengths), (index, lengths)
        assert all(length % 6 == 0 for length in lengths), (index, lengths)
        back = rewire(H, 6, 3)
        for r in (0, 1, 2):
            tv = measure_tv(
                type_distribution(back, r, table), type_distribution(F, r, table)
            )
            assert tv == 0, (index, r, tv)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS cut and rewire: 12 structures, rank 0..2 distributions exact, "
        f"all cut cycles positive multiples of 6, {elapsed:.2f}s"
    )


def test_compression_preserves_rank_r_theory():
    started = time.perf_counter()
    rng = random.Random(1)
    for seed in range(100):
        F = random_mapping(rng.randrange(2, 61), 1000 + seed, {"U": Fraction(1, 4)})
        for r in (1, 2):
            out = standard_r_approximation(F, r)
            assert out.n <= F.n, (seed, r)
            assert ef_equivalent(F, out, r), (seed, r)
            again = standard_r_approximation(out, r)
            assert again.f == out.f and again.marks == out.marks, (seed, r)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(
        f"PASS compression: 100 mappings x r in (1, 2): equivalent, never "
        f"larger, idempotent, {elapsed:.2f}s"
    )


def test_pair_distance_bound_and_product_tv_bound():
    started = time.perf_counter()
    rng = random.Random(2)
    delta2 = build_delta(2)
    for seed in range(100):
        M = random_mapping(rng.randrange(2, 21), seed)
        N = random_mapping(rng.randrange(2, 21), 5000 + seed)
        lhs = ldist(M, N, 2, 1)
        rhs = (
            4 * ldist(M, N, 1, 1)
            + stone_pairing(M, delta2)
            + stone_pairing(N, delta2)
        )
        assert lhs <= rhs, (seed, lhs, rhs)

    def tv(a, b):
        return sum(abs(x - y) for x, y in zip(a, b)) / 2

    for case in range(50):
        k = rng.randrange(1, 6)
        rho = [Fraction(rng.randrange(1, 10)) for _ in range(k)]
        lam = [Fraction(rng.randrange(1, 10)) for _ in range(k)]
        rho = [w / sum(rho) for w in rho]
        lam = [w / sum(lam) for w in lam]
        for p in (1, 2, 3):
            prod_rho = [math.prod(tup) for tup in itertools.product(rho, repeat=p)]
            prod_lam = [math.prod(tup) for tup in itertools.product(lam, repeat=p)]
            assert tv(prod_rho, prod_lam) <= p * tv(rho, lam), (case, p)
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(
        f"PASS pair bounds: 100 structure pairs satisfy the proximity bound; "
        f"150 product-measure cases satisfy the factor-p bound, {elapsed:.2f}s"
    )


def test_cycle_count_law_at_scale():
    started = time.perf_counter()
    rows = cycle_statistics(2000, 2000, 2, seed=20260815)
    by_r = {r: (empirical, exact) for r, empirical, exact in rows}
    assert by_r[1][1] == 1
    assert by_r[2][1] == Fraction(1999, 4000)
    for r in (1, 2):
        empirical, exact = by_r[r]
        assert abs(empirical - exact) <= exact / 20, (r, empirical, exact)
    n = 2000
    assert by_r[2][1] == Fraction(n * (n - 1), 2 * n**2)
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(
        f"PASS cycle law: n=2000, 2000 samples, 1-cycle mean "
        f"{float(by_r[1][0]):.4f} (exact 1), 2-cycle mean "
        f"{float(by_r[2][0]):.4f} (exact {float(by_r[2][1]):.5f}), both "
        f"within 5%, {elapsed:.2f}s"
    )


def test_interpretation_duality_exact():
    started = time.perf_counter()
    rng = random.Random(21)
    etas = [Eq(Term("x1", 1), Term("x2")), Eq(Term("x1", 2), Term("x2"))]
    for trial in range(20):
        n = rng.randrange(2, 11)
        A = random_mapping(n, trial, {"M1": Fraction(1, 2)})
        free = ["x1", "x2"][: rng.randrange(1, 3)]
        phi = random_clean_formula(rng, ["M1"], free, 2)
        I = Interpretation(
            eta=rng.choice(etas),
            kappa={"M1": random_clean_formula(rng, ["M1"], ["x1"], 1)}
            if rng.random() < 0.7
            else {},
        )
        left = stone_pairing(A, translate(I, phi))
        right = stone_pairing(apply_interpretation(I, A), phi)
        assert left == right, trial
    elapsed = time.perf_counter() - started
    assert elapsed < 30
    print(
        f"PASS duality: 20 random (structure, formula, interpretation) "
        f"triples pair equally on both sides, {elapsed:.2f}s"
    )


def test_pipeline_meets_target_and_factorial_schedule_overflows():
    started = time.perf_counter()
    F = random_mapping(300, 42, {"U": Fraction(1, 4)})
    out, report = pipeline(F, 2, 1, Fraction(1, 10))
    final = Fraction(report["ldist"]["final"])
    assert final <= Fraction(1, 10), final
    assert report["ldist"]["ok"] is True
    assert out.n == report["stages"][-1]["size"]

    with pytest.raises(ScheduleInfeasible) as caught:
        pipeline(F, 2, 2, Fraction(1, 10), factorial_schedule=True)
    assert "cut = clean! =" in str(caught.value)
    elapsed = time.perf_counter() - started
    assert elapsed < 300
    print(
        f"PASS pipeline: n=300 reaches final distance {final} <= 1/10; the "
        f"factorial schedule at r=2 reports its cut as infeasible, "
        f"{elapsed:.2f}s"
    )
