"""Exception types shared across the package."""


class ZariskiError(Exception):
    """Base class for every error raised by this package."""


class IrreducibleSignature(ZariskiError):
    """Group word of degree >= 4 with mixed exponent signs cannot be
    rewritten as a pair of positive words by the rotation trick."""


class NotNormalized(ZariskiError):
    """Matrix pair does not satisfy the normal-form conditions required
    by the witness construction."""


class InvalidAdjuster(ZariskiError):
    """The adjuster element passed to normalization equals the identity."""


class OracleExhausted(ZariskiError):
    """The group oracle could not produce an admissible fresh image,
    i.e. it does not model a group with no algebraicity."""


class InvalidPair(ZariskiError):
    """Two-point operation called with x == y."""


class FixedPoint(ZariskiError):
    """Decomposition at a base point requires permutations moving it."""


class UnknownGroup(ZariskiError):
    """Name does not match any built-in group table."""


class TooLarge(ZariskiError):
    """Exhaustive enumeration would exceed the configured guard."""


class CarrierMismatch(ZariskiError):
    """Set families live on carriers of different sizes."""


class InfeasibleBounds(ZariskiError):
    """A sampler was asked for objects its bounds can never produce."""


class EmptyInput(ZariskiError):
    """The basic open set normalizes to Empty, so no witness exists."""
