"""Brute-force ground truth on small finite groups.

The theorems this package makes executable concern infinite groups; this
module pins the definitional code paths (word evaluation, basic-set
families, topology closure) against exhaustive enumeration on groups small
enough to enumerate completely.

Families of basic sets are sets of int64 bitmasks over the carrier
{0, ..., order-1}, so a carrier of more than 63 elements is refused, and
the value tables are uint8.  Both families enumerate the words w with
leading coefficient 1, from the identity row up; any other word is a*w.
Only those whose trailing coefficient is 1 too are compared: any word is
a*w*c with such a w.  A pair's difference set does not change when both
words are multiplied by one element on the left, or on the right, so the
semigroup family pairs each such w with every word a*w'; and
a*w*c(x) != 1 exactly when w(x) != a^-1*c^-1, so the group family compares
each such w with every constant.  The tests check both against the fully
naive enumeration.

The functions that build the families import numpy on their first call,
so importing this module (and ``zariski.cli``) does not load it: numpy is
most of the package's import time and about 13 MB of resident memory, and
only ``finite-check`` needs it.

A topology on a finite carrier is generated from its smallest open sets:
the one around x is the intersection of the generators that contain x, and
every open set is a union of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from zariski.errors import CarrierMismatch, TooLarge, UnknownGroup
from zariski.groups import Group

ENUMERATION_GUARD = 10 ** 6
PAIR_GUARD = 5 * 10 ** 7
CLOSURE_GUARD = 2 ** 20
# the guards compare powers with exponents capped here: capping leaves a
# power of 1 unchanged and keeps one of a base >= 2 at least 2 ** 64, above
# every guard, so a huge degree is refused without building a huge integer
_EXPONENT_CAP = 64


class FiniteGroupTable:
    """A group given by its Cayley table; the axioms are checked eagerly."""

    def __init__(self, mul):
        self.mul = tuple(tuple(row) for row in mul)
        self.order = len(self.mul)
        if any(len(row) != self.order for row in self.mul):
            raise ValueError("multiplication table must be square")
        if any(not 0 <= v < self.order for row in self.mul for v in row):
            raise ValueError("table entries out of range")
        self.id = self._find_identity()
        self.inv = self._find_inverses()
        self._check_associative()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.mul[e][a] == a and self.mul[a][e] == a
                   for a in range(self.order)):
                return e
        raise ValueError("no identity element")

    def _find_inverses(self) -> tuple:
        inv = []
        for a in range(self.order):
            partners = [b for b in range(self.order)
                        if self.mul[a][b] == self.id and self.mul[b][a] == self.id]
            if len(partners) != 1:
                raise ValueError(f"element {a} has no unique inverse")
            inv.append(partners[0])
        return tuple(inv)

    def _check_associative(self):
        m = self.mul
        n = self.order
        for a in range(n):
            for b in range(n):
                ab = m[a][b]
                for c in range(n):
                    if m[ab][c] != m[a][m[b][c]]:
                        raise ValueError("multiplication is not associative")

    def is_abelian(self) -> bool:
        return all(self.mul[a][b] == self.mul[b][a]
                   for a in range(self.order) for b in range(self.order))


class TableGroup(Group):
    """Group interface over table indices, for the generic word evaluators."""

    def __init__(self, table: FiniteGroupTable):
        self.table = table

    def one(self) -> int:
        return self.table.id

    def mul(self, a: int, b: int) -> int:
        return self.table.mul[a][b]

    def inv(self, a: int) -> int:
        return self.table.inv[a]


def _cyclic(n: int) -> FiniteGroupTable:
    mul = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroupTable(mul)


def _symmetric(k: int) -> FiniteGroupTable:
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    # left-to-right composition, consistent with the rest of the package
    mul = [[index[tuple(b[a[x]] for x in range(k))] for b in perms]
           for a in perms]
    return FiniteGroupTable(mul)


_BUILTINS = {
    "Z2": lambda: _cyclic(2),
    "Z3": lambda: _cyclic(3),
    "Z4": lambda: _cyclic(4),
    "Z5": lambda: _cyclic(5),
    "Z6": lambda: _cyclic(6),
    "S3": lambda: _symmetric(3),
    "S4": lambda: _symmetric(4),
}


def builtin(name: str) -> FiniteGroupTable:
    key = name.upper()
    if key not in _BUILTINS:
        raise UnknownGroup(f"{name!r}; available: {sorted(_BUILTINS)}")
    return _BUILTINS[key]()


@dataclass(frozen=True)
class SetFamily:
    """A deduplicated family of subsets of {0, ..., order-1}, each stored
    as a bitmask."""

    order: int
    masks: frozenset

    def __len__(self) -> int:
        return len(self.masks)


def _word_vectors(M: np.ndarray, one: int, occurrences, d: int) -> np.ndarray:
    """Value vectors of the words of degree <= d with leading coefficient
    ``one`` (the identity), one row per word and one column per value of x.
    Each x occurrence reads one of the ``occurrences`` arrays (x itself, or
    x and x^-1) and is followed by every coefficient in turn, so a level is
    laid out by occurrence, then by trailing coefficient: block a holds every
    shorter word times an occurrence times a.  The levels come in order of
    degree, so the words of degree <= d-1 are the leading rows."""
    import numpy as np

    n = M.shape[0]
    levels = [np.full((1, n), one, dtype=np.uint8)]
    for _ in range(d):
        vx = [M[levels[-1], occ[None, :]] for occ in occurrences]
        levels.append(np.concatenate([M[v, a] for v in vx for a in range(n)]))
    return np.concatenate(levels)


def _trailing_one(M: np.ndarray, F: np.ndarray, occurrences) -> np.ndarray:
    """The rows of the words in ``F`` whose trailing coefficient is 1 too:
    the word 1, and w times an occurrence of x for every shorter w.  With k
    occurrences and n coefficients, F has 1 + k*n rows per word of degree
    <= d-1, and those words lead it.  In the last level the words ending
    in 1 are the identity's block, not every n-th row, so they are built
    from the shorter words instead of sliced out."""
    import numpy as np

    shorter = F[:(len(F) - 1) // (len(occurrences) * M.shape[0])]
    return np.concatenate([F[:1]] + [M[shorter, occ[None, :]]
                                     for occ in occurrences])


def semigroup_family(table: FiniteGroupTable, d: int) -> SetFamily:
    """All sets {x : f(x) != g(x)} over pairs of semigroup words of degree
    at most d."""
    import numpy as np

    n = table.order
    if n > 63:
        raise TooLarge(f"carrier of size {n} for 63-bit masks")
    if n ** min(d + 1, _EXPONENT_CAP) > ENUMERATION_GUARD:
        raise TooLarge(f"order {n} at degree {d}")
    # the guard counts the words with leading coefficient 1 against all
    # words, more pairs than are built below (only the left words ending
    # in 1 too), so that the degrees it refuses do not depend on that trim
    left = d + 1 if n == 1 else (n ** (d + 1) - 1) // (n - 1)
    if left * n * left > PAIR_GUARD:
        raise TooLarge(f"{left} x {n * left} word pairs")
    M = np.array(table.mul, dtype=np.uint8)
    occurrences = (np.arange(n),)
    F = _word_vectors(M, table.id, occurrences, d)
    G = M[:, F].reshape(-1, n)  # row (a, w) holds a*w
    pow2 = 1 << np.arange(n, dtype=np.int64)
    masks = set()
    # f*c differs from g*c where f differs from g, so f may end in 1
    for f in _trailing_one(M, F, occurrences):
        masks.update(np.unique((f != G) @ pow2).tolist())
    return SetFamily(n, frozenset(masks))


def group_family(table: FiniteGroupTable, d: int) -> SetFamily:
    """All sets {x : w(x) != 1} over group words of degree at most d."""
    import numpy as np

    n = table.order
    if n > 63:
        raise TooLarge(f"carrier of size {n} for 63-bit masks")
    if (n ** min(d + 1, _EXPONENT_CAP) * 2 ** min(d, _EXPONENT_CAP)
            > ENUMERATION_GUARD):
        raise TooLarge(f"order {n} at degree {d} with signs")
    M = np.array(table.mul, dtype=np.uint8)
    occurrences = (np.arange(n), np.array(table.inv, dtype=np.uint8))
    F = _trailing_one(M, _word_vectors(M, table.id, occurrences, d),
                      occurrences)
    # a*w*c(x) != 1 exactly when w(x) != a^-1*c^-1, and a^-1*c^-1 runs
    # over the carrier
    pow2 = 1 << np.arange(n, dtype=np.int64)
    masks = np.unique((F[:, None, :] != np.arange(n, dtype=np.uint8)[:, None])
                      @ pow2)
    return SetFamily(n, frozenset(masks.tolist()))


def topology_close(fam: SetFamily) -> SetFamily:
    """The topology generated by the family, as an explicit set family.

    On a finite carrier the smallest open set around x is the intersection
    of the members that contain x (the whole carrier if none does), and the
    open sets are exactly the unions of these smallest sets."""
    if fam.order > 24:
        raise TooLarge(f"carrier of size {fam.order}")
    full = (1 << fam.order) - 1
    opens = {0}
    for x in range(fam.order):
        u = full
        for m in fam.masks:
            if m >> x & 1:
                u &= m
        opens |= {o | u for o in opens}
        if len(opens) > CLOSURE_GUARD:
            raise TooLarge("closure exceeds the size guard")
    return SetFamily(fam.order, frozenset(opens))


def family_subset(F1: SetFamily, F2: SetFamily) -> bool:
    if F1.order != F2.order:
        raise CarrierMismatch(f"{F1.order} vs {F2.order}")
    return F1.masks <= F2.masks
