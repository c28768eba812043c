"""Mass transport on finite mappings and certificates for type measures.

The transport identity itself, nu(A intersect f^-1(B)) = sum over y in B of
|f^-1(y) intersect A| / n, holds for every finite mapping; check_fmtp
evaluates both sides independently.  For a measure on rank-R types the
restricted analog asks for a companion function s assigning each (tau, t)
pair the number of t-typed preimages tau promises: values below r are fully
determined by tau, larger ones are only known to be at least r.  A measure
satisfies the restricted principle when the balance equations

    sum_{tau < t1} adm_plus(tau, t2) mu(tau)
        = sum_{tau < t2} s(tau, t1) mu(tau)

hold for all rank-r types t1, t2 (tau < t means the rank-r projection of tau
is t).  Because each unknown s(tau, t1) with pi(tau) = t2 occurs in exactly
one equation, certification reduces to independent one-equation feasibility
checks; no search is involved.  The harder problem, repairing a measure
that breaks an equation by moving its masses, within a given distance, to
ones that keep them all, is the linear program in approximate_measure; a
measure that already certifies never reaches it.  The certificate solver
and the linear program read the same equations from one builder,
_balance_equations.  Its one rule for r = 0, where min(r, s) says nothing
about s, makes every rank-0 type a free unknown of every support type.

Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Union

from . import simplex
from .errors import BudgetExceeded, ElementOutOfRange, Infeasible, RankTooLow
from .localtypes import (
    LocalType,
    TypeMeasure,
    adm_minus_table,
    measure_tv,
    project,
    transport,
)
from .structure import FiniteMapping


# ---------------------------------------------------------------------------
# the transport identity


@dataclass(frozen=True)
class FmtpCheck:
    """Both sides of the transport identity, evaluated independently."""

    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs

    def __bool__(self) -> bool:
        return self.equal


def check_fmtp(F: FiniteMapping, A: Iterable[int], B: Iterable[int]) -> FmtpCheck:
    """nu(A intersect f^-1(B)) vs the preimage-count sum over B."""
    A, B = set(A), set(B)
    for v in A | B:
        F.check_element(v)
    n = F.n
    lhs = Fraction(sum(1 for u in A if F.f[u] in B), n)
    rhs = Fraction(0)
    for y in B:
        rhs += Fraction(sum(1 for u in range(n) if F.f[u] == y and u in A), n)
    return FmtpCheck(lhs, rhs)


def exhaustive_fmtp_check(F: FiniteMapping) -> bool:
    """The identity over every subset pair, with bitmask counting.

    Both sides are still computed by different routes: the left through the
    union of preimage masks, the right by per-element preimage counts.
    """
    n = F.n
    premask = [0] * n
    for u, y in enumerate(F.f):
        premask[y] |= 1 << u
    full = 1 << n
    for B in range(full):
        sel = 0
        pres = []
        y_bits = B
        while y_bits:
            low = y_bits & -y_bits
            y = low.bit_length() - 1
            sel |= premask[y]
            pres.append(premask[y])
            y_bits ^= low
        for A in range(full):
            lhs = (A & sel).bit_count()
            rhs = sum((p & A).bit_count() for p in pres)
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# restricted certificates


@dataclass(frozen=True)
class Violation:
    """A named failed check with the concrete equation that broke."""

    check: str
    detail: str
    t1: Optional[LocalType] = None
    t2: Optional[LocalType] = None
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None

    def __str__(self) -> str:
        return f"{self.check}: {self.detail}"


@dataclass(frozen=True)
class CompanionCertificate:
    """Companion values s(tau, t) certifying the restricted principle.

    Entries hold the nonzero values only; a pair that does not appear has
    s(tau, t) = 0.
    """

    R: int
    r: int
    entries: tuple[tuple[LocalType, LocalType, Fraction], ...]

    @cached_property
    def _values(self) -> dict[tuple[LocalType, LocalType], Fraction]:
        values: dict[tuple[LocalType, LocalType], Fraction] = {}
        for tau, t, s in self.entries:
            values.setdefault((tau, t), s)
        return values

    def value(self, tau: LocalType, t: LocalType) -> Fraction:
        return self._values.get((tau, t), Fraction(0))


def _support_universe(mu: TypeMeasure, r: int):
    """Rank-r types under the support plus the transport images, keyed,
    and (tau, its rank-r projection, its image's rank-r type, mass) per
    support type."""
    reps: dict[tuple[int, int], LocalType] = {}
    proj: list[tuple[LocalType, LocalType, LocalType, Fraction]] = []
    images: dict[tuple[int, int], LocalType] = {}
    for tau, mass in mu.entries:
        low = project(tau, r)
        reps.setdefault(low.key, low)
        img = project(transport(tau), r)
        images.setdefault(img.key, img)
        proj.append((tau, low, img, mass))
    for key, t in images.items():
        reps.setdefault(key, t)
    universe = sorted(reps.values(), key=lambda t: t.canonical_id)
    return universe, proj


def restricted_fmtp_certificate(
    mu: TypeMeasure, r: int
) -> Union[CompanionCertificate, Violation]:
    """Solve for a companion function, or name the equation that fails.

    Each measure solves once per r and hands the same result to every
    later call, so the pipeline's report and realize's preconditions share
    one solve.
    """
    found = mu._certificates.get(r)
    if found is None:
        found = mu._certificates[r] = _solve_certificate(mu, r)
    return found


def _balance_equations(mu: TypeMeasure, r: int):
    """The balance equations of mu at rank r, as the solver and the LP read
    them: (universe, support rows as _support_universe gives them, number
    of free unknowns, equations), the equations keyed (j1, j2) by universe
    index in ascending order.

    Only the equations a flow or a preimage count touches are listed; any
    other holds as 0 = 0.  Each is (flow, forced, free): the support
    indices whose type projects to t1 with image type t2; (i, count) for
    the unknowns s(tau_i, t1) whose witness has count < r t1-typed
    preimages, which fix them; and (i, x) for those with count >= r, which
    only bound them below by r, numbered x = 0, 1, ... in (i, j1) order.
    At r = 0 every universe type is an unknown of every support type, with
    count 0, so no preimage is typed.
    """
    universe, proj = _support_universe(mu, r)
    order = {t.key: index for index, t in enumerate(universe)}
    equations: dict[tuple[int, int], tuple[list, list, list]] = {}
    num_free = 0
    for i, (tau, low, img, _) in enumerate(proj):
        j2 = order[low.key]
        equations.setdefault((j2, order[img.key]), ([], [], []))[0].append(i)
        if r == 0:
            counts = dict.fromkeys(range(len(universe)), 0)
        else:
            table = adm_minus_table(tau, r)
            counts = {order[k]: c for k, c in table.items() if k in order}
        for j1 in sorted(counts):
            _, forced, free = equations.setdefault((j1, j2), ([], [], []))
            if counts[j1] < r:
                forced.append((i, counts[j1]))
            else:
                free.append((i, num_free))
                num_free += 1
    return universe, proj, num_free, dict(sorted(equations.items()))


def _solve_certificate(
    mu: TypeMeasure, r: int
) -> Union[CompanionCertificate, Violation]:
    """The balance equations decouple: the unknowns of equation (t1, t2) are
    the s(tau, t1) with tau projecting to t2, and they appear in no other
    equation.  Each equation is solvable iff the forced flow does not
    overshoot the left side and the free weight can absorb the remainder
    at values >= r.  The head free unknown takes the remainder, the others
    r, and zero values are left out of the entries.
    """
    if mu.rank < 2 * r + 1:
        raise RankTooLow(f"certificates need measure rank >= {2 * r + 1}")
    universe, proj, _, equations = _balance_equations(mu, r)
    taus = [tau for tau, *_ in proj]
    masses = [mass for *_, mass in proj]
    zero = Fraction(0)
    entries: list[tuple[LocalType, LocalType, Fraction]] = []
    for (j1, j2), (flow, forced, free) in equations.items():
        t1, t2 = universe[j1], universe[j2]
        lhs = sum((masses[i] for i in flow), zero)
        pinned = sum((count * masses[i] for i, count in forced), zero)
        entries.extend((taus[i], t1, Fraction(count)) for i, count in forced)
        remainder = lhs - pinned
        if not free:
            if remainder != 0:
                return Violation(
                    check="balance",
                    detail=(
                        f"flow into {t1!r} from {t2!r}-typed mass is "
                        f"forced to {pinned}, needed {lhs}"
                    ),
                    t1=t1,
                    t2=t2,
                    lhs=lhs,
                    rhs=pinned,
                )
            continue
        floor = r * sum(masses[i] for i, _ in free)
        if remainder < floor:
            return Violation(
                check="balance",
                detail=(
                    f"flow into {t1!r} from {t2!r}-typed mass is at "
                    f"least {pinned + floor}, but the left side is {lhs}"
                ),
                t1=t1,
                t2=t2,
                lhs=lhs,
                rhs=pinned + floor,
            )
        head = Fraction(r) + (remainder - floor) / masses[free[0][0]]
        values = [head] + [Fraction(r)] * (len(free) - 1)
        entries.extend((taus[i], t1, s) for (i, _), s in zip(free, values) if s)
    return CompanionCertificate(R=mu.rank, r=r, entries=tuple(entries))


def verify_certificate(mu: TypeMeasure, cert: CompanionCertificate) -> bool:
    """Re-evaluate both certificate conditions from scratch.

    Certificates are sparse: a (tau, t) pair without an entry claims
    s(tau, t) = 0.  Pairs outside the support-and-images universe are not
    part of the restricted principle and are ignored.
    """
    r = cert.r
    if cert.R != mu.rank:
        return False
    universe, proj = _support_universe(mu, r)
    universe_keys = {t.key for t in universe}
    zero = Fraction(0)
    s_by_tau: dict[tuple, dict[tuple, Fraction]] = {}
    for tau, t, s in cert.entries:
        s_by_tau.setdefault(tau.key, {})[t.key] = s

    for tau, _, _, _ in proj:
        minus = adm_minus_table(tau, r)
        claimed = s_by_tau.get(tau.key, {})
        touched = {k for k in minus if k in universe_keys}
        touched.update(k for k in claimed if k in universe_keys)
        for k in touched:
            a = min(r + 1, minus.get(k, 0))
            s = claimed.get(k, zero)
            if min(r, a) != min(r, s):
                return False
            if a < r and s != a:
                return False

    lhs: dict[tuple, Fraction] = {}
    rhs: dict[tuple, Fraction] = {}
    for tau, low, img, mass in proj:
        pair = (low.key, img.key)
        lhs[pair] = lhs.get(pair, zero) + mass
        for t_key, s in s_by_tau.get(tau.key, {}).items():
            if s != 0 and t_key in universe_keys:
                pair = (t_key, low.key)
                rhs[pair] = rhs.get(pair, zero) + s * mass
    for pair in lhs.keys() | rhs.keys():
        if lhs.get(pair, zero) != rhs.get(pair, zero):
            return False
    return True


# ---------------------------------------------------------------------------
# rational approximation over the feasible polytope


# The lower bound on every mass is tried down to its first value over
# 2^(LP_RETRIES - 1).
LP_RETRIES = 20

# Largest LP (constraint rows times variables) approximate_measure hands to
# the exact simplex.  A measure that cannot be repaired costs two
# infeasible solves, one at the first and one at the last lower bound.
LP_MAX_CELLS = 12_000


def approximate_measure(mu: TypeMeasure, eps, r: int) -> TypeMeasure:
    """A rational measure with the same support, restricted-FMTP feasible,
    within total variation eps of mu.

    A measure that certifies, as every measure extracted from a finite
    mapping does, comes back as it is.  Any other measure is repaired by a
    linear program: masses x >= delta > 0, the certificate's balance
    equations from _balance_equations (a free unknown s(tau_i, t1) enters
    as r x_i plus an excess variable, to stay linear), sum 1, and L1
    distance to mu at most eps.  delta is the first of min(mu) / 2^(k + 1),
    k = 0 .. LP_RETRIES - 1, at which the LP is feasible.  A repair with
    every mass >= delta also has every mass >= any smaller delta, so
    feasibility is monotone in k: after k = 0 fails, the LP is solved at
    the last k, and only if that succeeds at k = 1, 2, ... in turn, so a
    measure with no repair costs two solves.  The masses are an LP vertex,
    so their denominators, and with them the size lcm(denominators) that
    realize builds, are not bounded here: realize.MAX_REALIZE_SIZE is the
    guard, checked by realize before it builds anything.

    Raises BudgetExceeded, before any row is built, when the LP would have
    more than LP_MAX_CELLS cells, and Infeasible, naming the balance
    equation mu breaks, when no repair exists; at r = 0 none ever does, so
    a failed certificate raises it before any row is built.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if mu.rank < 2 * r + 1:
        raise RankTooLow(f"approximation needs measure rank >= {2 * r + 1}")
    violation = restricted_fmtp_certificate(mu, r)
    if not isinstance(violation, Violation):
        return mu
    no_repair = (
        f"{violation}; no measure on the same support with positive masses "
        f"meets the balance equations within L1 distance {eps}"
    )
    # At r = 0 a free unknown enters its row only through its excess
    # variable, so every row that has one holds for any masses.  The
    # violated row has a nonempty flow and no unknown, and masses >= delta
    # > 0 on the same support never bring its flow to 0.
    if r == 0:
        raise Infeasible(no_repair)

    _, proj, num_free, equations = _balance_equations(mu, r)
    S = len(proj)

    # One row per listed balance equation that is not all zeros, as sparse
    # coefficients over the variables: masses x, then one excess variable
    # per free unknown, then p/q splittings of x - mu, then the proximity
    # slack.
    balance = []
    for flow, forced, free in equations.values():
        coeffs = dict.fromkeys(flow, 1)
        for i, count in forced:
            coeffs[i] = coeffs.get(i, 0) - count
        for i, x in free:
            coeffs[i] = coeffs.get(i, 0) - r
            coeffs[S + x] = -1
        if any(coeffs.values()):
            balance.append(coeffs)
    p_base = S + num_free
    q_base = p_base + S
    num_vars = q_base + S + 1
    cells = (len(balance) + S + 2) * num_vars
    if cells > LP_MAX_CELLS:
        raise BudgetExceeded(LP_MAX_CELLS, cells)

    sparse = balance + [dict.fromkeys(range(S), 1)]
    sparse += [{i: 1, p_base + i: -1, q_base + i: 1} for i in range(S)]
    sparse.append(dict.fromkeys(range(p_base, num_vars), 1))
    rows = [[Fraction(0)] * num_vars for _ in sparse]
    for row, coeffs in zip(rows, sparse):
        for var, c in coeffs.items():
            row[var] = Fraction(c)
    # x_i enters shifted by delta: a balance row's right side is -delta
    # times the sum of its mass coefficients.
    x_sums = [sum(c for var, c in coeffs.items() if var < S) for coeffs in balance]

    masses = [mass for _, _, _, mass in proj]

    def solve(k: int):
        """(delta, LP solution) at delta = min(masses) / 2^(k + 1), or None."""
        delta = min(masses) / 2 ** (k + 1)
        rhs = [-delta * total for total in x_sums]
        rhs += [1 - S * delta] + [mass - delta for mass in masses] + [eps]
        solution = simplex.solve_equalities(list(zip(rows, rhs)), num_vars)
        return None if solution is None else (delta, solution)

    found = solve(0)
    if found is None:
        last = solve(LP_RETRIES - 1)
        if last is None:
            raise Infeasible(no_repair)
        found = next(filter(None, map(solve, range(1, LP_RETRIES - 1))), last)
    delta, solution = found
    repaired = [(tau, delta + x) for (tau, *_), x in zip(proj, solution)]
    result = TypeMeasure.from_pairs(mu.rank, repaired)
    check = restricted_fmtp_certificate(result, r)
    if isinstance(check, Violation):
        raise Infeasible(f"solver returned an infeasible point: {check}")
    if measure_tv(mu, result) >= eps:
        raise Infeasible("solver exceeded the proximity target")
    return result


# ---------------------------------------------------------------------------
# realizability preconditions


@dataclass(frozen=True)
class PreconditionCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class PreconditionReport:
    checks: tuple[PreconditionCheck, ...]
    certificate: Optional[CompanionCertificate] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> PreconditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def failures(self) -> tuple[PreconditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


def check_realizability_preconditions(mu: TypeMeasure, r: int) -> PreconditionReport:
    """The three hypotheses of the realization construction, as a report.

    (1) cleanness: every positive-mass type sends its image type to positive
        projected mass; (2) no positive-mass type forces a cycle of length in
        (1, r + 1], the lengths a rank-r type can see; (3) a companion
        certificate exists.
    """
    if mu.rank < 2 * r + 1:
        raise RankTooLow(f"preconditions need measure rank >= {2 * r + 1}")
    checks: list[PreconditionCheck] = []

    positive = {project(t, mu.rank - 1).key for t, _ in mu.entries}
    clean_fail = None
    for tau, _ in mu.entries:
        img = transport(tau)
        if img.key not in positive:
            clean_fail = f"image type of {tau!r} carries zero projected mass"
            break
    checks.append(
        PreconditionCheck("cleanness", clean_fail is None, clean_fail or "")
    )

    cycle_fail = None
    for tau, _ in mu.entries:
        F, v = tau.witness
        length = F.cycle_length[v]
        if 1 < length <= r + 1:
            cycle_fail = f"witness of {tau!r} lies on a cycle of length {length}"
            break
    checks.append(
        PreconditionCheck("no-short-cycles", cycle_fail is None, cycle_fail or "")
    )

    cert = restricted_fmtp_certificate(mu, r)
    if isinstance(cert, Violation):
        checks.append(PreconditionCheck("certificate", False, str(cert)))
        cert = None
    else:
        checks.append(PreconditionCheck("certificate", True))

    return PreconditionReport(checks=tuple(checks), certificate=cert)
