"""Shared exception types."""


class ParameterError(ValueError):
    """Invalid user-supplied parameter, literal, or argument combination.

    A refusal made by ``named`` also keeps its parts, so that a front end can
    word it with its own flags and values: ``names``, the parameters its
    message starts with; ``rest``, what it says of them; and ``limit``, the
    (name, value) of a bound that ``rest`` names without stating it."""

    names: tuple[str, ...] = ()
    rest = ""
    limit = None

    @classmethod
    def named(cls, names: tuple[str, ...], rest: str, note: str = "", limit=None):
        """The refusal "<names joined by 'and'> <rest> (<note>)"."""
        exc = cls(" and ".join(names) + f" {rest}" + (f" ({note})" if note else ""))
        exc.names, exc.rest, exc.limit = names, rest, limit
        return exc


class NumberParseError(ParameterError):
    """Syntax error in a number literal; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class FieldMismatchError(ParameterError):
    """Operands lie in incompatible quadratic fields (different radicands)."""


class InsufficientCoefficientsError(ParameterError):
    """A continued-fraction expansion does not reach the requested depth."""


class BlockParseError(Exception):
    """A word could not be decomposed into the two expected block shapes."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position
