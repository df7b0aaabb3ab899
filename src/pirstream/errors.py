"""Exception hierarchy shared by all pirstream modules."""


class PirstreamError(Exception):
    """Base class for all library errors."""


# --- finite field ---------------------------------------------------------

class NonPrimeCharacteristic(PirstreamError):
    pass


class ReducibleModulus(PirstreamError):
    pass


class ZeroInverse(PirstreamError):
    pass


class ZeroElement(PirstreamError):
    pass


class OrderNotDividing(PirstreamError):
    pass


# --- codes ----------------------------------------------------------------

class LengthMismatch(PirstreamError):
    pass


class TooManyErasures(PirstreamError):
    pass


class InconsistentWord(PirstreamError):
    pass


class DecodingFailure(PirstreamError):
    pass


class LocatorMismatch(PirstreamError):
    pass


class DegenerateProduct(PirstreamError):
    pass


class SymbolOutsideField(PirstreamError):
    """A word holds an integer that is no symbol of the field."""


# --- protocol -------------------------------------------------------------

class ShapeMismatch(PirstreamError):
    pass


class SupportTooLarge(PirstreamError):
    pass


class SupportTooSmall(PirstreamError):
    pass


class InvalidParams(PirstreamError):
    pass


# --- channels -------------------------------------------------------------

class ChannelGeneratorError(PirstreamError):
    """A channel generator drew a schedule that breaks its own contract."""


# --- recovery -------------------------------------------------------------

class RankDeficient(PirstreamError):
    pass


class InconsistentBlock(PirstreamError):
    pass


class InconsistentSystem(PirstreamError):
    """A linear system admits no solution; usually a corrupted input word."""


class UncorrectablePattern(PirstreamError):
    pass


# --- recovering sets ------------------------------------------------------

class DuplicateLocators(PirstreamError):
    pass


class TooFewLocators(PirstreamError):
    pass


class NoSuitableSubgroup(PirstreamError):
    pass


class OddGamma(NoSuitableSubgroup):
    """Char-2 fields only admit subgroups of odd order, so even gamma fails."""


class FieldTooSmall(PirstreamError):
    pass


# --- CLI ------------------------------------------------------------------

class ConfigError(PirstreamError):
    pass
