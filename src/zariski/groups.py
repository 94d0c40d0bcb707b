"""The carriers that word evaluation runs over.

Word and matrix operations are generic over the carrier and duck-typed:
a monoid is any object with ``one()`` and ``mul(a, b)``, and a group is
a monoid that also has ``inv(a)``.  No base class enforces this.  The
implementations are ``SymOmega`` and ``NatPlus`` here, ``TableGroup`` in
``zariski.finite``, and the numpy table lookups that
``finite.reduction_mismatches`` passes.  Cancellativity is assumed by the
normalization algorithm but never checked at runtime.
"""

from zariski.perm import IDENTITY, FinPermutation


class SymOmega:
    """The finitary symmetric group on N; elements are FinPermutation."""

    def one(self) -> FinPermutation:
        return IDENTITY

    def mul(self, a: FinPermutation, b: FinPermutation) -> FinPermutation:
        return a * b

    def inv(self, a: FinPermutation) -> FinPermutation:
        return a.inv()


class NatPlus:
    """The naturals under addition: a cancellative monoid with no inverses.

    Used to exercise the normalization code path on a carrier where only
    cancellativity (not invertibility) is available.
    """

    def one(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        return a + b


SYM = SymOmega()
NAT_PLUS = NatPlus()
