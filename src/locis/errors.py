"""Exception types shared across the package.

Every failure that a caller might want to catch and inspect carries a
structured payload (usually a witness: an element, a tuple, a word) rather
than only a message string.
"""


class LocisError(Exception):
    """Base class for all package errors."""


class UnknownSymbol(LocisError):
    def __init__(self, symbol, language):
        self.symbol = symbol
        self.language = language
        super().__init__(f"symbol {symbol!r} not in language {sorted(language.arities)}")


class ArityMismatch(LocisError):
    def __init__(self, symbol, expected, got):
        self.symbol = symbol
        self.expected = expected
        self.got = got
        super().__init__(f"symbol {symbol!r} has arity {expected}, got tuple of length {got}")


class DanglingElement(LocisError):
    """An element id that the window does not hold: an argument of a tuple
    (`tup`), or an id given to a lookup (`lookup` names it)."""

    def __init__(self, element, tup=None, lookup=None):
        self.element = element
        self.tuple = tup
        self.lookup = lookup
        if lookup is not None:
            super().__init__(f"element {element!r} is not in the window ({lookup})")
        else:
            super().__init__(f"tuple {tup!r} mentions element {element!r} absent from the universe")


class UnfaithfulRadius(LocisError):
    def __init__(self, element, radius, depth):
        self.element = element
        self.radius = radius
        self.depth = depth
        super().__init__(
            f"ball of radius {radius} at {element!r} is not faithful: "
            f"frontier is at distance {depth}"
        )


class LanguageMismatch(LocisError):
    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(f"languages differ: {sorted(left.arities)} vs {sorted(right.arities)}")


class NoFaithfulElements(LocisError):
    def __init__(self, radius):
        self.radius = radius
        super().__init__(f"no element has a faithful ball of radius {radius}")


class WindowExhausted(LocisError):
    """A search needed data beyond the window frontier to reach a verdict."""

    def __init__(self, message, needed_radius=None):
        self.needed_radius = needed_radius
        super().__init__(message)


class NotFunctional(LocisError):
    def __init__(self, symbol, element, images):
        self.symbol = symbol
        self.element = element
        self.images = images
        super().__init__(
            f"symbol {symbol!r} is not functional at {element!r}: images {sorted(images)}"
        )


class NotEquational(LocisError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"structure is not equational, witness {witness!r}")


class NotAutomorphism(LocisError):
    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"map is not an automorphism: {reason} (witness {witness!r})")


class NonClosedWindow(LocisError):
    def __init__(self, operation):
        self.operation = operation
        super().__init__(f"operation {operation!r} requires a closed window (empty frontier)")


class GroupClosureExceedsBound(LocisError):
    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"group closure exceeds bound {bound}")


class GluingConflict(LocisError):
    """Two partial maps disagree on the overlap of their domains.

    ``witness`` is an element where they differ; ``word`` is a certificate
    word that transports the base point to the witness.
    """

    def __init__(self, witness, images, word=None):
        self.witness = witness
        self.images = images
        self.word = word
        super().__init__(
            f"partial maps conflict at {witness!r}: images {images!r}"
            + (f", reached by word {word!r}" if word is not None else "")
        )


class NoOrbitRepresentative(LocisError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"no orbit representative found for {element!r}")


class VerificationFailed(LocisError):
    def __init__(self, stage, detail):
        self.stage = stage
        self.detail = detail
        super().__init__(f"independent verification failed at {stage!r}: {detail}")


class RankBoundExceeded(LocisError):
    def __init__(self, bound):
        self.bound = bound
        super().__init__(f"period rank exceeds bound {bound}")


class CharacterizationFails(LocisError):
    """The rigidity construction cannot continue; carries the failing stage."""

    def __init__(self, stage, detail, witness=None):
        self.stage = stage
        self.detail = detail
        self.witness = witness
        super().__init__(f"characterization fails at {stage!r}: {detail}")


class RationalSlope(LocisError):
    def __init__(self, value):
        self.value = value
        super().__init__(f"slope {value!r} is rational; the coding degenerates")


class BadAddressEntry(LocisError):
    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"bad address entry at {index}: {value!r}")


class ParseError(LocisError):
    def __init__(self, line_no, line, reason):
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}: {line!r}")


class InvariantViolation(LocisError):
    def __init__(self, invariant, detail):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"invariant {invariant!r} violated: {detail}")


class HypothesisUnverified(LocisError):
    def __init__(self, hypothesis, detail):
        self.hypothesis = hypothesis
        self.detail = detail
        super().__init__(f"hypothesis {hypothesis!r} could not be verified: {detail}")
