"""Exception types shared across the engine, and the bounded quote their messages use."""


def quote(value):
    """repr of a string or str of another value, bounded: past 60 characters,
    a string shows the repr of its first 60 and another value the first 60 of
    its str, then the length.  The str of a JSON value is its repr."""
    try:
        text, show = (value, repr) if isinstance(value, str) else (str(value), str)
    except ValueError:  # a number longer than the interpreter prints
        return "a number past the interpreter's digit limit"
    return show(text) if len(text) <= 60 else f"{show(text[:60])}… ({len(text)} characters)"


class MilnorkError(Exception):
    """Base class for all engine errors."""


class ParseError(MilnorkError):
    """Input does not conform to the expression or file grammar."""


class InvalidSpec(MilnorkError):
    """Structurally bad algebra spec (duplicate names, misplaced sigma, ...)."""


class NotArtinian(MilnorkError):
    """The quotient ring has an infinite monomial staircase."""


class NotLocal(MilnorkError):
    """The relations generate the unit ideal, or some non-constant standard
    monomial is not nilpotent."""


class OutOfDomain(MilnorkError):
    """A level n or degree p below the least one the construction is defined for."""


class NotAUnit(MilnorkError):
    pass


class AlgebraMismatch(MilnorkError):
    pass


class NonUnitEntry(MilnorkError):
    pass


class NotGeneratorShape(MilnorkError):
    pass


class SigmaNotDesignated(MilnorkError):
    pass


class NonUnitC(MilnorkError):
    pass


class SideConditionFailed(MilnorkError):
    """A rewrite step's side condition does not hold; message carries the failed identity."""


class PositionInvalid(MilnorkError):
    pass


class NotASplittingChain(MilnorkError):
    """A certificate extended to eq8 is not an eq7 chain whose replay reaches its goal."""


class PrecisionTooLarge(MilnorkError):
    """The crosscheck ring would exceed the precision cap."""
