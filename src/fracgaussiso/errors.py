"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateSetError(DomainError):
    """A set of Gaussian measure 0 or 1 where a proper set is required."""


class ResolutionError(RuntimeError):
    """A value lies below the resolution of the rule that computes it: a level-set
    threshold or an extension order below the Mehler rule's, or a perimeter that
    underflows to 0."""


class SetParseError(ValueError):
    """Malformed set-description text; ``offset`` is the character index of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset
