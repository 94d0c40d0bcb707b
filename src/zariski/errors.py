"""Exception types shared across the package.

An argument that breaks a stated precondition (an improper normal form, a
base point a permutation fixes, two equal points, families on carriers of
different sizes) raises ``ValueError``.  A ``ZariskiError`` subclass names
a condition that valid input can still meet: ``EmptyInput`` and
``OracleExhausted``, which the CLI maps to exit 1; ``TooLarge`` and
``UnknownGroup``, which it maps to exit 2; and ``IrreducibleSignature``,
a word with more than two cyclic sign changes.
"""


class ZariskiError(Exception):
    """Base class for the conditions that valid input can meet."""


class IrreducibleSignature(ZariskiError):
    """Group word with more than two cyclic sign changes, which no rotation
    splits into a positive half and a negative half."""


class OracleExhausted(ZariskiError):
    """The group oracle could not produce an admissible fresh image,
    i.e. it does not model a group with no algebraicity."""


class UnknownGroup(ZariskiError):
    """Name does not match any built-in group table."""


class TooLarge(ZariskiError):
    """Exhaustive enumeration would exceed the configured guard."""


class EmptyInput(ZariskiError):
    """The basic open set normalizes to Empty, so no witness exists."""
