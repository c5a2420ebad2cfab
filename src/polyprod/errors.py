"""Exception hierarchy shared by all modules."""


class PolytopeError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateId(PolytopeError):
    pass


class DanglingCover(PolytopeError):
    pass


class NotGraded(PolytopeError):
    pass


class NotBounded(PolytopeError):
    pass


class UnknownId(PolytopeError):
    pass


class NotComparable(PolytopeError):
    pass


class NonPositiveExponent(PolytopeError):
    pass


class BudgetExceeded(PolytopeError):
    """Some budget (element count, search size, closure size) was exceeded."""


class SearchBudgetExceeded(BudgetExceeded):
    pass


class ClosureBudgetExceeded(BudgetExceeded):
    pass


class ParseError(PolytopeError):
    """Malformed input: expression text (with the position of the fault) or
    a stored poset."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class MixedOperatorsWithoutParens(ParseError):
    pass
