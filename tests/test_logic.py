"""Formula parsing, evaluation, Stone pairings, ranks, substitution,
interpretations."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import cycle, fixed_point, seeded, star
from mapprox import logic
from mapprox.errors import (
    BudgetExceeded,
    EtaNotFunctional,
    NotClean,
    NotGuarded,
    ParseError,
    UnknownPredicate,
)
from mapprox.logic import (
    And,
    Eq,
    Exists,
    Forall,
    Interpretation,
    Not,
    Or,
    Pred,
    Term,
    apply_interpretation,
    build_delta,
    evaluate,
    formula_to_text,
    free_variables,
    is_clean,
    parse,
    rank,
    stone_pairing,
    substitute,
    translate,
    trivial_interpretation,
)
from mapprox.structure import FiniteMapping, Signature, distance
from oracles import random_clean_formula

SIG = Signature(("M1",))
PLAIN = Signature(())


class TestParse:
    def test_exists_shape(self):
        phi = parse("exists y (f(y)=x1 & M1(y))", SIG)
        assert isinstance(phi, Exists)
        assert phi.guard is None
        assert isinstance(phi.body, And)

    def test_iterated_term_not_clean(self):
        phi = parse("f(f(x1))=x1", PLAIN)
        assert isinstance(phi, Eq) and phi.left.depth == 2
        assert not is_clean(phi)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("exists y (f(y)=x1", SIG)

    def test_unknown_predicate(self):
        with pytest.raises(UnknownPredicate):
            parse("M9(x1)", SIG)

    def test_guarded_syntax(self):
        phi = parse("exists y ~ x1 (f(y)=x1)", SIG)
        assert phi.guard == Term("x1")

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(40):
            phi = random_clean_formula(rng, ["M1"], ["x1", "x2"], 3)
            assert parse(formula_to_text(phi), SIG) == phi

    def test_round_trip_printer(self):
        for text in (
            "exists y (f(y)=x1 & M1(y))",
            "forall z ~ x1 (M1(z) -> f(z)=x1)",
            "!(x1=x2 | f(x1)=x2)",
        ):
            phi = parse(text, SIG)
            assert parse(formula_to_text(phi), SIG) == phi


class TestEvaluate:
    def test_square_on_two_cycle(self):
        assert evaluate(cycle(2), parse("f(f(x1))=x1", PLAIN), {"x1": 0})

    def test_fixed_point(self):
        assert evaluate(fixed_point(), parse("f(x1)=x1", PLAIN), {"x1": 0})

    def test_mutual_images_on_three_cycle(self):
        phi = parse("exists y (f(y)=x1 & f(x1)=y)", PLAIN)
        assert not evaluate(cycle(3), phi, {"x1": 0})

    def test_guard_excludes_self(self):
        # neighbors of a fixed point exclude the element itself
        phi = parse("exists y ~ x1 (y=y)", PLAIN)
        assert not evaluate(fixed_point(), phi, {"x1": 0})
        assert evaluate(cycle(2), phi, {"x1": 0})


class TestStonePairing:
    def test_equality_pair(self):
        F = seeded(4, 0, Fraction(0))
        assert stone_pairing(F, parse("x1=x2", Signature(("U",)))) == Fraction(1, 4)

    def test_mark_count(self):
        F = FiniteMapping(f=(0, 0, 0, 0, 0), marks={"M1": frozenset({1, 2})})
        assert stone_pairing(F, parse("M1(x1)", SIG)) == Fraction(2, 5)

    def test_surjective_on_cycle(self):
        assert stone_pairing(cycle(3), parse("exists y f(y)=x1", PLAIN)) == 1

    def test_sentence_is_zero_or_one(self):
        phi = parse("exists y f(y)=y", PLAIN)
        assert stone_pairing(cycle(3), phi) == 0
        assert stone_pairing(fixed_point(), phi) == 1

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(logic, "EVALUATION_BUDGET", 100)
        with pytest.raises(BudgetExceeded):
            stone_pairing(cycle(30), parse("x1=x2", PLAIN))


class TestRank:
    def test_quantifier_free(self):
        assert rank(parse("M1(x1)", SIG)) == 0
        assert rank(parse("f(x1)=x1", SIG)) == 0

    def test_guarded_rank_one(self):
        phi = parse("exists y ~ x1 (f(y)=x1 & M1(y))", SIG)
        assert rank(phi) == 1
        assert rank(phi, kind="local") == 1

    def test_not_clean(self):
        with pytest.raises(NotClean):
            rank(parse("f(f(x1))=x1", SIG))

    def test_unguarded_has_no_local_rank(self):
        with pytest.raises(NotGuarded):
            rank(parse("exists y f(y)=x1", SIG), kind="local")


class TestBuildDelta:
    def test_radius_zero(self):
        assert build_delta(0) == Eq(Term("x1"), Term("x2"))

    def test_cycle_all_close(self):
        assert stone_pairing(cycle(3), build_delta(1)) == 1

    def test_identity_only_self(self):
        F = FiniteMapping(f=tuple(range(5)))
        assert stone_pairing(F, build_delta(1)) == Fraction(1, 5)

    def test_agrees_with_distance(self):
        F = seeded(12, 8)
        for r in (0, 1, 2):
            delta = build_delta(r)
            assert rank(delta, kind="local") <= r
            for u in F.elements():
                for v in F.elements():
                    want = distance(F, u, v) <= r
                    assert evaluate(F, delta, {"x1": u, "x2": v}) == want


class TestSubstitute:
    def test_bound_variable_is_renamed_to_avoid_capture(self):
        # Substituting a term in y for x under a quantifier that binds y
        # renames the bound y to the first v<i> the formula does not use
        # (v2, as v1 is taken), so the result holds exactly where the
        # original does with x set to the term's value.
        phis = [
            Exists("y", None, And(Eq(Term("y", 1), Term("x")), Pred("U", Term("v1")))),
            Forall("y", Term("x"), Or(Eq(Term("y"), Term("x", 1)), Pred("U", Term("v1")))),
        ]
        for phi in phis:
            for term in (Term("y"), Term("y", 1)):
                psi = substitute(phi, {"x": term})
                assert psi.var == "v2"
                for seed in range(6):
                    F = seeded(7, seed, Fraction(1, 2))
                    for a, c in itertools.product(F.elements(), repeat=2):
                        want = evaluate(F, phi, {"x": F.iterate(a, term.depth), "v1": c})
                        assert evaluate(F, psi, {"y": a, "v1": c}) == want, (phi, term, seed)


class TestInterpretation:
    def test_identity_eta(self):
        identity = Interpretation(eta=Eq(Term("x1"), Term("x2")))
        F = seeded(8, 2)
        G = apply_interpretation(identity, F)
        assert G.f == tuple(range(8))
        assert G.marks == F.marks

    def test_square_eta_splits_four_cycle(self):
        square = Interpretation(eta=Eq(Term("x1", 2), Term("x2")))
        G = apply_interpretation(square, cycle(4))
        assert sorted((v, G.f[v]) for v in range(4)) == [(0, 2), (1, 3), (2, 0), (3, 1)]

    def test_eta_not_functional(self):
        relation = Interpretation(
            eta=Not(And(Not(Eq(Term("x1", 1), Term("x2"))), Not(Eq(Term("x2", 1), Term("x1")))))
        )
        with pytest.raises(EtaNotFunctional):
            apply_interpretation(relation, cycle(3))

    def test_kappa_redefines(self):
        I = Interpretation(
            eta=Eq(Term("x1", 1), Term("x2")),
            kappa={"M1": Eq(Term("x1", 1), Term("x1"))},
        )
        F = FiniteMapping(f=(0, 0, 2), marks={"M1": frozenset({1})})
        G = apply_interpretation(I, F)
        assert G.marks["M1"] == frozenset({0, 2})

    def test_translate_trivial(self):
        phi = parse("exists y (f(y)=x1 & M1(y))", SIG)
        assert translate(trivial_interpretation(), phi) == phi

    def test_translate_kappa_substitution(self):
        I = Interpretation(
            eta=Eq(Term("x1", 1), Term("x2")),
            kappa={"M1": Eq(Term("x1", 1), Term("x1"))},
        )
        out = translate(I, parse("M1(x1)", SIG))
        assert evaluate(fixed_point({"M1": frozenset()}), out, {"x1": 0})

    def test_translate_requires_clean(self):
        with pytest.raises(NotClean):
            translate(trivial_interpretation(), parse("f(f(x1))=x1", SIG))


class TestDuality:
    def test_exact_on_random_triples(self):
        rng = random.Random(21)
        etas = [
            Eq(Term("x1", 1), Term("x2")),
            Eq(Term("x1", 2), Term("x2")),
        ]
        for trial in range(12):
            n = rng.randrange(2, 9)
            A = seeded(n, trial, Fraction(1, 2))
            A = FiniteMapping(f=A.f, marks={"M1": A.marks["U"]})
            phi = random_clean_formula(rng, ["M1"], ["x1", "x2"][: rng.randrange(1, 3)], 2)
            I = Interpretation(
                eta=rng.choice(etas),
                kappa={"M1": random_clean_formula(rng, ["M1"], ["x1"], 1)}
                if rng.random() < 0.7
                else {},
            )
            left = stone_pairing(A, translate(I, phi))
            right = stone_pairing(apply_interpretation(I, A), phi)
            assert left == right, (trial, formula_to_text(phi))
