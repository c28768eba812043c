"""First-order formulas over mapping signatures.

Terms are iterated applications of the function symbol to a variable,
``f(f(x1))``; atoms are term equalities and unary predicate applications.
Quantifiers come in an unguarded form ranging over the whole domain and a
guarded form ``exists y ~ t`` ranging over the Gaifman neighbors of the value
of ``t`` (image and preimages, the value itself excluded).

The concrete syntax is ASCII: ``exists``/``forall``, ``&``, ``|``, ``!``,
``->``, ``=``, ``~``.  ``parse`` and ``formula_to_text`` round-trip.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from .errors import (
    BudgetExceeded,
    EtaNotFunctional,
    FreeVariableMismatch,
    NotClean,
    NotGuarded,
    ParseError,
    RankError,
    UnboundVariable,
    UnknownPredicate,
)
from .structure import FiniteMapping, Signature, neighbors

EVALUATION_BUDGET = 10_000_000


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Term:
    """The term f^depth(var)."""

    var: str
    depth: int = 0

    def __str__(self) -> str:
        return "f(" * self.depth + self.var + ")" * self.depth


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term

    def __str__(self) -> str:
        return f"{self.left}={self.right}"


@dataclass(frozen=True)
class Pred:
    name: str
    term: Term

    def __str__(self) -> str:
        return f"{self.name}({self.term})"


@dataclass(frozen=True)
class Not:
    body: "Formula"

    def __str__(self) -> str:
        return "!" + _wrap(self.body)


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({_sub(self.left)} & {_sub(self.right)})"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({_sub(self.left)} | {_sub(self.right)})"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return f"({_sub(self.left)} -> {_sub(self.right)})"


@dataclass(frozen=True)
class Exists:
    var: str
    guard: Optional[Term]
    body: "Formula"

    def __str__(self) -> str:
        return _quantifier_str("exists", self)


@dataclass(frozen=True)
class Forall:
    var: str
    guard: Optional[Term]
    body: "Formula"

    def __str__(self) -> str:
        return _quantifier_str("forall", self)


Formula = Union[Eq, Pred, Not, And, Or, Implies, Exists, Forall]


def _sub(phi: "Formula") -> str:
    return str(phi)


def _wrap(phi: "Formula") -> str:
    # Negation binds tighter than quantifiers, so quantified bodies get parens.
    if isinstance(phi, (Exists, Forall)):
        return f"({phi})"
    return str(phi)


def _quantifier_str(word: str, phi) -> str:
    guard = f" ~ {phi.guard}" if phi.guard is not None else ""
    return f"{word} {phi.var}{guard} {phi.body}"


def formula_to_text(phi: Formula) -> str:
    return str(phi)


def _var_sort_key(name: str) -> tuple[int, str]:
    # Orders x2 before x10; plain lexicographic would not.
    return (len(name), name)


def free_variables(phi: Formula) -> frozenset[str]:
    def walk(node: Formula, bound: frozenset[str]) -> frozenset[str]:
        if isinstance(node, Eq):
            return frozenset(
                v for v in (node.left.var, node.right.var) if v not in bound
            )
        if isinstance(node, Pred):
            return frozenset() if node.term.var in bound else frozenset({node.term.var})
        if isinstance(node, Not):
            return walk(node.body, bound)
        if isinstance(node, (And, Or, Implies)):
            return walk(node.left, bound) | walk(node.right, bound)
        if isinstance(node, (Exists, Forall)):
            out = walk(node.body, bound | {node.var})
            if node.guard is not None and node.guard.var not in bound:
                out |= {node.guard.var}
            return out
        raise TypeError(f"not a formula node: {node!r}")

    return walk(phi, frozenset())


def all_variables(phi: Formula) -> frozenset[str]:
    if isinstance(phi, Eq):
        return frozenset({phi.left.var, phi.right.var})
    if isinstance(phi, Pred):
        return frozenset({phi.term.var})
    if isinstance(phi, Not):
        return all_variables(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return all_variables(phi.left) | all_variables(phi.right)
    if isinstance(phi, (Exists, Forall)):
        out = all_variables(phi.body) | {phi.var}
        if phi.guard is not None:
            out |= {phi.guard.var}
        return out
    raise TypeError(f"not a formula node: {phi!r}")


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<arrow>->)|(?P<sym>[()&|!=~])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[at]!r}", at)
        if m.group("arrow"):
            tokens.append(("->", "->", m.start("arrow")))
        elif m.group("sym"):
            tokens.append((m.group("sym"), m.group("sym"), m.start("sym")))
        else:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, signature: Signature):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.predicates = set(signature.predicates)

    def peek(self) -> Optional[tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError(f"expected {kind!r} at end of input", len(self.text))
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse_formula(self) -> Formula:
        left = self.parse_or()
        tok = self.peek()
        if tok is not None and tok[0] == "->":
            self.next()
            right = self.parse_formula()
            return Implies(left, right)
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "|":
                return node
            self.next()
            node = Or(node, self.parse_and())

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok is None or tok[0] != "&":
                return node
            self.next()
            node = And(node, self.parse_unary())

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        kind, value, at = tok
        if kind == "!":
            self.next()
            return Not(self.parse_unary())
        if kind == "(":
            self.next()
            node = self.parse_formula()
            self.expect(")")
            return node
        if kind == "ident" and value in ("exists", "forall"):
            self.next()
            var_tok = self.next()
            if var_tok[0] != "ident" or var_tok[1] in ("exists", "forall"):
                raise ParseError("expected variable after quantifier", var_tok[2])
            var = var_tok[1]
            if var in self.predicates or var == "f":
                raise ParseError(f"{var!r} cannot be used as a variable", var_tok[2])
            guard = None
            nxt = self.peek()
            if nxt is not None and nxt[0] == "~":
                self.next()
                guard = self.parse_term()
            body = self.parse_unary()
            cls = Exists if value == "exists" else Forall
            return cls(var, guard, body)
        if kind == "ident":
            return self.parse_atom()
        raise ParseError(f"unexpected token {value!r}", at)

    def parse_atom(self) -> Formula:
        kind, value, at = self.tokens[self.pos]
        following = (
            self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
        )
        if value != "f" and following is not None and following[0] == "(":
            if value not in self.predicates:
                raise UnknownPredicate(value)
            self.next()
            self.next()
            term = self.parse_term()
            self.expect(")")
            return Pred(value, term)
        if value in self.predicates:
            raise ParseError(f"predicate {value!r} requires an argument", at)
        left = self.parse_term()
        self.expect("=")
        right = self.parse_term()
        return Eq(left, right)

    def parse_term(self) -> Term:
        tok = self.next()
        if tok[0] != "ident":
            raise ParseError(f"expected a term, found {tok[1]!r}", tok[2])
        name = tok[1]
        nxt = self.peek()
        if name == "f" and nxt is not None and nxt[0] == "(":
            self.next()
            inner = self.parse_term()
            self.expect(")")
            return Term(inner.var, inner.depth + 1)
        if name == "f" or name in ("exists", "forall"):
            raise ParseError(f"{name!r} cannot be used as a variable", tok[2])
        if name in self.predicates:
            raise ParseError(f"predicate {name!r} used as a variable", tok[2])
        return Term(name, 0)


def parse(text: str, signature: Signature) -> Formula:
    """Parse concrete syntax into a Formula; positions index into `text`."""
    parser = _Parser(text, signature)
    node = parser.parse_formula()
    tok = parser.peek()
    if tok is not None:
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return node


# ---------------------------------------------------------------------------
# evaluation


def term_value(F: FiniteMapping, term: Term, env: Mapping[str, int]) -> int:
    try:
        base = env[term.var]
    except KeyError:
        raise UnboundVariable(term.var) from None
    return F.iterate(base, term.depth)


def evaluate(F: FiniteMapping, phi: Formula, assignment: Mapping[str, int]) -> bool:
    """Tarskian satisfaction; quantifiers range over the full domain unless
    guarded, in which case they range over Gaifman neighbors of the guard."""

    def ev(node: Formula, env: Mapping[str, int]) -> bool:
        if isinstance(node, Eq):
            return term_value(F, node.left, env) == term_value(F, node.right, env)
        if isinstance(node, Pred):
            if node.name not in F.marks:
                raise UnknownPredicate(node.name)
            return term_value(F, node.term, env) in F.marks[node.name]
        if isinstance(node, Not):
            return not ev(node.body, env)
        if isinstance(node, And):
            return ev(node.left, env) and ev(node.right, env)
        if isinstance(node, Or):
            return ev(node.left, env) or ev(node.right, env)
        if isinstance(node, Implies):
            return (not ev(node.left, env)) or ev(node.right, env)
        if isinstance(node, (Exists, Forall)):
            if node.guard is not None:
                domain = neighbors(F, term_value(F, node.guard, env))
            else:
                domain = range(F.n)
            results = (ev(node.body, {**env, node.var: d}) for d in domain)
            return any(results) if isinstance(node, Exists) else all(results)
        raise TypeError(f"not a formula node: {node!r}")

    return ev(phi, dict(assignment))


def stone_pairing(F: FiniteMapping, phi: Formula) -> Fraction:
    """Satisfaction probability |phi(F)| / n^p over uniform iid assignments.

    BudgetExceeded when the n^p assignments pass EVALUATION_BUDGET."""
    variables = sorted(free_variables(phi), key=_var_sort_key)
    p = len(variables)
    n = F.n
    total = n**p
    if total > EVALUATION_BUDGET:
        raise BudgetExceeded(EVALUATION_BUDGET, total)
    count = 0
    for values in itertools.product(range(n), repeat=p):
        if evaluate(F, phi, dict(zip(variables, values))):
            count += 1
    return Fraction(count, total)


# ---------------------------------------------------------------------------
# clean forms and ranks


def is_clean(phi: Formula) -> bool:
    """No composed terms: atoms are x=y, f(x)=y, or P(x); guards are plain
    variables."""
    if isinstance(phi, Eq):
        return phi.left.depth + phi.right.depth <= 1
    if isinstance(phi, Pred):
        return phi.term.depth == 0
    if isinstance(phi, Not):
        return is_clean(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return is_clean(phi.left) and is_clean(phi.right)
    if isinstance(phi, (Exists, Forall)):
        if phi.guard is not None and phi.guard.depth != 0:
            return False
        return is_clean(phi.body)
    raise TypeError(f"not a formula node: {phi!r}")


def rank(phi: Formula, kind: str = "quantifier") -> int:
    """Quantifier nesting depth of the presented clean form.

    kind="local" additionally requires every quantifier to be guarded by an
    in-scope variable.
    """
    if kind not in ("quantifier", "local"):
        raise RankError(f"unknown rank kind {kind!r}")
    if not is_clean(phi):
        raise NotClean(f"formula is not clean: {phi}")

    def depth(node: Formula, scope: frozenset[str]) -> int:
        if isinstance(node, (Eq, Pred)):
            return 0
        if isinstance(node, Not):
            return depth(node.body, scope)
        if isinstance(node, (And, Or, Implies)):
            return max(depth(node.left, scope), depth(node.right, scope))
        if isinstance(node, (Exists, Forall)):
            if kind == "local":
                if node.guard is None:
                    raise NotGuarded(f"unguarded quantifier over {node.var!r}")
                if node.guard.var not in scope:
                    raise NotGuarded(
                        f"guard variable {node.guard.var!r} is not in scope"
                    )
            return 1 + depth(node.body, scope | {node.var})
        raise TypeError(f"not a formula node: {node!r}")

    return depth(phi, free_variables(phi))


def build_delta(r: int, left: str = "x1", right: str = "x2") -> Formula:
    """Clean guarded formula true on (u, v) iff dist(u, v) <= r."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if r == 0:
        return Eq(Term(left), Term(right))
    var = f"y{r}"
    closer = build_delta(r - 1, left, var)
    return Or(build_delta(r - 1, left, right), Exists(var, Term(right), closer))


# ---------------------------------------------------------------------------
# substitution


def _fresh_name(used: set[str]) -> str:
    i = 1
    while f"v{i}" in used:
        i += 1
    used.add(f"v{i}")
    return f"v{i}"


def substitute(phi: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Capture-avoiding substitution of terms for free variables."""
    used = set(all_variables(phi)) | {t.var for t in mapping.values()}

    def sub_term(term: Term, subst: Mapping[str, Term]) -> Term:
        if term.var in subst:
            target = subst[term.var]
            return Term(target.var, target.depth + term.depth)
        return term

    def walk(node: Formula, subst: Mapping[str, Term]) -> Formula:
        if isinstance(node, Eq):
            return Eq(sub_term(node.left, subst), sub_term(node.right, subst))
        if isinstance(node, Pred):
            return Pred(node.name, sub_term(node.term, subst))
        if isinstance(node, Not):
            return Not(walk(node.body, subst))
        if isinstance(node, (And, Or, Implies)):
            return type(node)(walk(node.left, subst), walk(node.right, subst))
        if isinstance(node, (Exists, Forall)):
            guard = sub_term(node.guard, subst) if node.guard is not None else None
            inner = {k: v for k, v in subst.items() if k != node.var}
            var = node.var
            body = node.body
            if any(v.var == var for v in inner.values()):
                fresh = _fresh_name(used)
                body = walk(body, {var: Term(fresh)})
                var = fresh
            return type(node)(var, guard, walk(body, inner))
        raise TypeError(f"not a formula node: {node!r}")

    return walk(phi, dict(mapping))


# ---------------------------------------------------------------------------
# basic interpretations


@dataclass(frozen=True)
class Interpretation:
    """Defines a mapping from the extensions of formulas over another one.

    eta has exactly two free variables (source, target in sorted order) and
    must define the graph of a total function on every structure it is
    applied to.  kappa redefines predicate extensions; predicates absent from
    kappa and from dropped keep their extensions unchanged.
    """

    eta: Formula
    kappa: Mapping[str, Formula] = field(default_factory=dict)
    dropped: frozenset[str] = frozenset()

    def __post_init__(self):
        eta_vars = sorted(free_variables(self.eta), key=_var_sort_key)
        if len(eta_vars) != 2:
            raise FreeVariableMismatch(
                f"eta needs exactly two free variables, got {eta_vars}"
            )
        for name, phi in self.kappa.items():
            if len(free_variables(phi)) != 1:
                raise FreeVariableMismatch(
                    f"kappa[{name!r}] needs exactly one free variable"
                )
        object.__setattr__(self, "dropped", frozenset(self.dropped))

    def eta_variables(self) -> tuple[str, str]:
        source, target = sorted(free_variables(self.eta), key=_var_sort_key)
        return source, target


def trivial_interpretation() -> Interpretation:
    return Interpretation(eta=Eq(Term("x1", 1), Term("x2")))


def _is_trivial_eta(eta: Formula) -> bool:
    if not isinstance(eta, Eq):
        return False
    left, right = eta.left, eta.right
    if left.depth == 0 and right.depth == 1:
        left, right = right, left
    return left.depth == 1 and right.depth == 0 and left.var != right.var


def apply_interpretation(I: Interpretation, F: FiniteMapping) -> FiniteMapping:
    """Evaluate eta and kappa on F to build the interpreted structure."""
    source, target = I.eta_variables()
    f = []
    for u in F.elements():
        images = [
            v for v in F.elements() if evaluate(F, I.eta, {source: u, target: v})
        ]
        if len(images) != 1:
            raise EtaNotFunctional(u, images)
        f.append(images[0])

    names = [q for q in F.signature.predicates if q not in I.dropped]
    names += [q for q in sorted(I.kappa) if q not in names]
    marks: dict[str, frozenset[int]] = {}
    for name in names:
        if name in I.kappa:
            phi = I.kappa[name]
            (var,) = free_variables(phi)
            marks[name] = frozenset(
                v for v in F.elements() if evaluate(F, phi, {var: v})
            )
        else:
            marks[name] = F.marks[name]
    return FiniteMapping(f=tuple(f), marks=marks, signature=Signature(tuple(names)))


def translate(I: Interpretation, phi: Formula) -> Formula:
    """Rewrite phi so that evaluating it on F agrees with evaluating phi on
    apply_interpretation(I, F).

    f(x)=y atoms become eta(x, y); predicate atoms become their kappa
    definitions.  Guards survive only under the trivial eta, where adjacency
    is unchanged; otherwise they expand into explicit adjacency formulas and
    the output is no longer guarded.
    """
    if not is_clean(phi):
        raise NotClean(f"formula is not clean: {phi}")
    source, target = I.eta_variables()
    trivial = _is_trivial_eta(I.eta)

    def eta_at(u: Term, v: Term) -> Formula:
        return substitute(I.eta, {source: u, target: v})

    def kappa_at(name: str, term: Term) -> Formula:
        if name in I.dropped:
            raise UnknownPredicate(f"{name} is dropped by the interpretation")
        if name not in I.kappa:
            return Pred(name, term)
        body = I.kappa[name]
        (var,) = free_variables(body)
        return substitute(body, {var: term})

    def walk(node: Formula) -> Formula:
        if isinstance(node, Eq):
            depths = (node.left.depth, node.right.depth)
            if depths == (0, 0):
                return node
            if depths == (1, 0):
                return eta_at(Term(node.left.var), node.right)
            return eta_at(Term(node.right.var), node.left)
        if isinstance(node, Pred):
            return kappa_at(node.name, node.term)
        if isinstance(node, Not):
            return Not(walk(node.body))
        if isinstance(node, (And, Or, Implies)):
            return type(node)(walk(node.left), walk(node.right))
        if isinstance(node, (Exists, Forall)):
            body = walk(node.body)
            if node.guard is None or trivial:
                return type(node)(node.var, node.guard, body)
            # Expand the guard: y is adjacent to t iff eta relates them
            # either way and they differ.
            y, t = Term(node.var), node.guard
            adjacency = And(
                Or(eta_at(t, y), eta_at(y, t)),
                Not(Eq(y, t)),
            )
            if isinstance(node, Exists):
                return Exists(node.var, None, And(adjacency, body))
            return Forall(node.var, None, Implies(adjacency, body))
        raise TypeError(f"not a formula node: {node!r}")

    return walk(phi)
