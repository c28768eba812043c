"""Exception hierarchy for mapping construction, logic, and realization failures.

Every operation that can reject its input raises a subclass of MapproxError
carrying enough context to reconstruct the failure (element ids, predicate
names, the offending equation, ...).  Callers that need exit-code style
handling can catch the base class.
"""

from __future__ import annotations

import sys


class MapproxError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# structure


class EmptyDomain(MapproxError):
    """A mapping must have at least one element."""


class OutOfRangeImage(MapproxError):
    """The function table sends an element outside the domain."""

    def __init__(self, element: int, image: int, n: int):
        self.element, self.image, self.n = element, image, n
        super().__init__(f"f({element}) = {image} is outside the domain [0, {n})")


class ElementOutOfRange(MapproxError):
    """An element id argument is outside the domain."""

    def __init__(self, element: int, n: int):
        self.element, self.n = element, n
        super().__init__(f"element {element} is outside the domain [0, {n})")


class UnknownPredicate(MapproxError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"predicate {name!r} is not declared in the signature")


class DuplicatePredicate(MapproxError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"predicate {name!r} declared or generated twice")


class SignatureMismatch(MapproxError):
    """Two structures were combined but their signatures disagree."""


class MissingCutPredicates(MapproxError):
    """Rewiring needs the layer/type predicates produced by the cycle cut."""


class NotResidual(MapproxError):
    """The operation requires an input whose components are all small."""


# ---------------------------------------------------------------------------
# logic


class LogicError(MapproxError):
    pass


class ParseError(LogicError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class NotClean(LogicError):
    """The formula uses composed terms where a clean formula is required."""


class NotGuarded(LogicError):
    """Local rank is only defined for formulas with guarded quantifiers."""


class FreeVariableMismatch(LogicError):
    """A formula's free variables do not match what the operation expects."""


class UnboundVariable(LogicError):
    """Evaluation met a variable with no value in the assignment."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} has no assigned value")


class BudgetExceeded(MapproxError):
    """An enumeration exceeded its configured work budget."""

    def __init__(self, budget: int, needed: int | None = None):
        self.budget, self.needed = budget, needed
        detail = f" (needed >= {needed})" if needed is not None else ""
        super().__init__(f"work budget {budget} exceeded{detail}")


class GameTooDeep(BudgetExceeded):
    """A game has more rounds than Python's recursion limit lets it play:
    a game of k rounds is refused before it starts when 2k, two frames per
    round, passes the limit, or when it runs out of stack anyway.  The
    budget is that limit."""

    def __init__(self, rank: int):
        super().__init__(sys.getrecursionlimit())
        self.rank = rank
        self.args = (
            f"a rank-{rank} game recurses deeper than Python's recursion "
            f"limit of {self.budget} frames",
        )


class EtaNotFunctional(MapproxError):
    """The relation defining the new function is not a function on this input."""

    def __init__(self, element: int, images: tuple[int, ...]):
        self.element, self.images = element, images
        super().__init__(
            f"eta defines {len(images)} images for element {element}: {images}"
        )


# ---------------------------------------------------------------------------
# types


class RankError(MapproxError):
    pass


class RankIncrease(RankError):
    """Projection can only lower the rank."""


class RankZero(RankError):
    """Transport consumes one rank and needs rank >= 1."""


class RankTooLow(RankError):
    """An admissibility query needs a higher-rank source type."""


class RankMismatch(RankError):
    """Two types or measures were combined at incompatible ranks."""


# ---------------------------------------------------------------------------
# measures / certificates / realization


class MeasureError(MapproxError):
    pass


class Infeasible(MapproxError):
    """No exact-rational solution satisfies the requested constraint system."""


class PreconditionFailed(MapproxError):
    """A documented precondition of the operation does not hold."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"precondition {check!r} failed" + (f": {detail}" if detail else ""))


class Stuck(MapproxError):
    """The greedy realization found no eligible image for an element.

    This indicates a violated precondition (the measure was not actually
    feasible) or an implementation bug; diagnostics carry the blocked element
    and the capacity table at the moment of failure.
    """

    def __init__(self, element: int, diagnostics: str):
        self.element = element
        self.diagnostics = diagnostics
        super().__init__(f"no eligible image for element {element}: {diagnostics}")


class ScheduleInfeasible(MapproxError):
    """The requested parameter schedule exceeds the configured budgets."""

    def __init__(self, message: str, schedule: dict | None = None):
        self.schedule = dict(schedule or {})
        super().__init__(message)


# ---------------------------------------------------------------------------
# serialization


class FormatError(MapproxError):
    """A serialized mapping, measure, or report does not match its format."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
