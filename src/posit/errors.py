"""Exception types shared across the package."""


class PositError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PositError):
    """A .dpa or .arena file violates the expected format."""


class MalformedLasso(PositError):
    """Lasso text is not of the form prefix:period with a nonempty period."""


class UnknownLetter(PositError):
    """A word uses a letter outside the declared alphabet."""


class AlphabetMismatch(PositError):
    """Two objects that must share an alphabet do not."""


class InvalidSetting(PositError):
    """A command-line option holds a value the package cannot use."""


class MonoidTooLarge(PositError):
    """Word behavior closure exceeded the element cap, MONOID_CAP."""


class ResidualGraphTooLarge(PositError):
    """The residual graph explored more pairs than its cap, RESIDUAL_CAP."""


class TooManyPriorities(PositError):
    """An automaton has more distinct priorities than the game solver's
    recursion allows."""


class SinkVertex(PositError):
    """An arena vertex has no outgoing edge."""


class NotEveOnly(PositError):
    """An operation that needs a protagonist-only arena got mixed ownership."""


class InvalidStrategy(PositError):
    """A strategy violates its structural invariants for the given game."""


class InvalidPlan(PositError):
    """A merge plan does not apply to the given strategy."""


class InvalidWitness(PositError):
    """A counterexample record cannot be turned into a gadget game."""


class IncomparableLassos(PositError):
    """Two candidate lassos are inclusion-incomparable, so no merge is safe."""


class MergeBrokeWinning(PositError):
    """Internal check: a merge produced a strategy that no longer wins."""


class SearchSpaceTooLarge(PositError):
    """Exhaustive positional-strategy search would exceed the choice cap."""


class PreconditionViolated(PositError):
    """An operation was called on inputs outside its documented domain."""


class WitnessRecheckFailed(PositError):
    """Internal check: a reported witness failed its membership re-check."""
