"""Brute-force ground truth on small finite groups.

The theorems this package makes executable concern infinite groups; this
module pins the definitional code paths (word evaluation, basic-set
families, topology closure) against exhaustive enumeration on groups small
enough to enumerate completely.

Families of basic sets are sets of int64 bitmasks over the carrier
{0, ..., order-1}, so a carrier of more than 63 elements is refused, and
the value tables are uint8.  Both families build the value rows of the
words t whose leading and trailing coefficients are 1, since every word is
a*t*b with such a t and constants a and b.  A pair's difference set does
not change when both words are multiplied by one element on the left, or
on the right, so the semigroup family compares each t with every word
a*t'*b, and repeated value rows of t, which give equal sets, are
compared once; and a*t*b(x) != 1 exactly when t(x) != a^-1*b^-1, so the
group family compares each t with every constant.  The tests check both
against the fully naive enumeration.  Each enumeration, the reduction sweep
included, checks its own guard before it builds anything.

The families and the reduction sweep import numpy on their first call, so
importing this module (and ``zariski.cli``) does not load it: numpy is
most of the package's import time and about 13 MB of resident memory, and
only ``finite-check`` needs it.

A topology on a finite carrier is generated from its smallest open sets:
the one around x is the intersection of the generators that contain x, and
every open set is a union of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

from zariski import words
from zariski.errors import IrreducibleSignature, TooLarge, UnknownGroup

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


class TableGroup:
    """The table's group on its indices, for the generic word evaluators."""

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


def _word_vectors(M, one: int, occurrences, d: int):
    """Value vectors of the words t of degree <= d whose leading and
    trailing coefficients are both ``one`` (the identity), one row per word
    and one column per value of x; every word of degree <= d is a*t*b for
    such a t and constants a and b.  Each x occurrence reads one of the
    ``occurrences`` arrays (x itself, or x and x^-1).  The t of degree k+1
    are w times an occurrence, for the words w = t*a of degree k."""
    import numpy as np

    n = M.shape[0]
    levels = [np.full((1, n), one, dtype=np.uint8)]
    lead = levels[0]
    for _ in range(d):
        levels.append(np.concatenate([M[lead, occ[None, :]]
                                      for occ in occurrences]))
        lead = M[levels[-1][:, None, :], np.arange(n)[:, None]].reshape(-1, n)
    return np.concatenate(levels)


def semigroup_family(table: FiniteGroupTable, d: int) -> SetFamily:
    """All sets {x : f(x) != g(x)} over pairs of semigroup words of degree
    at most d."""
    import numpy as np

    n = table.order
    if n > 63:
        raise TooLarge(f"carrier of size {n} for 63-bit masks")
    # the guard counts the words with leading coefficient 1 against all
    # words, not the pairs built below (each t against every a*t'*b, fewer
    # from degree 1 on), so that the degrees it refuses do not depend on
    # that reduction
    left = (d + 1 if n == 1
            else (n ** min(d + 1, _EXPONENT_CAP) - 1) // (n - 1))
    if left * n * left > PAIR_GUARD:
        raise TooLarge(f"{left} x {n * left} word pairs")
    M = np.array(table.mul, dtype=np.uint8)
    T = _word_vectors(M, table.id, (np.arange(n),), d)
    # a*t*b differs from g where t differs from a^-1*g*b^-1, so each t is
    # compared with every word: row (a, t, b) of G holds a*t*b
    G = M[M[:, T][:, :, None, :], np.arange(n)[:, None]].reshape(-1, n)
    pow2 = 1 << np.arange(n, dtype=np.int64)
    masks = set()
    # words with equal value vectors give equal sets
    for t in {t.tobytes(): t for t in T}.values():
        masks.update(np.unique((t != G) @ pow2).tolist())
    return SetFamily(n, frozenset(masks))


def _check_group_words(n: int, d: int) -> None:
    """Refuse the n ** (d + 1) * 2 ** d group words of degree <= d."""
    e = min(d, _EXPONENT_CAP)
    if n ** (e + 1) * 2 ** e > ENUMERATION_GUARD:
        raise TooLarge(f"order {n} at degree {d} with signs")


def group_family(table: FiniteGroupTable, d: int) -> SetFamily:
    """All sets {x : w(x) != 1} over group words of degree at most d."""
    import numpy as np

    n = table.order
    if n > 63:
        raise TooLarge(f"carrier of size {n} for 63-bit masks")
    _check_group_words(n, d)
    M = np.array(table.mul, dtype=np.uint8)
    T = _word_vectors(M, table.id,
                      (np.arange(n), np.array(table.inv, dtype=np.uint8)), d)
    # a*t*b(x) != 1 exactly when t(x) != a^-1*b^-1, and a^-1*b^-1 runs
    # over the carrier
    pow2 = 1 << np.arange(n, dtype=np.int64)
    masks = np.unique((T[:, None, :] != np.arange(n, dtype=np.uint8)[:, None])
                      @ pow2)
    return SetFamily(n, frozenset(masks.tolist()))


def reduction_mismatches(table: FiniteGroupTable, d: int) -> list:
    """Group words w of degree <= d whose {x : w(x) != 1} differs from the
    set of their ``words.group_ineq_to_semigroup_pair`` reduction, by degree,
    then sign pattern (``itertools.product`` order), then coefficients.  The
    ``words`` functions run once per sign pattern the reduction accepts, on
    an open mesh of indices (coefficient i along axis i, x along the last),
    of order ** (d + 2) entries, under the guard of ``group_family``."""
    import numpy as np

    _check_group_words(table.order, d)
    M = np.array(table.mul, dtype=np.uint8)
    G = SimpleNamespace(one=lambda: table.id, mul=lambda a, b: M[a, b],
                        inv=np.array(table.inv, dtype=np.uint8).take)
    mismatches = []
    for degree in range(d + 1):
        *coeffs, x = np.ix_(*[np.arange(table.order)] * (degree + 2))
        for signs in itertools.product((1, -1), repeat=degree):
            w = words.GroupWord(tuple(coeffs), signs)
            try:
                pair = words.group_ineq_to_semigroup_pair(w, G)
            except IrreducibleSignature:
                continue
            direct = words.eval_group(w, x, G) != table.id
            bad = direct != words.holds_ineq(pair, x, G)
            mismatches += [{"coeffs": c, "signs": list(signs)}
                           for c in np.argwhere(bad.any(-1)).tolist()]
    return mismatches


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
        raise ValueError(f"{F1.order} vs {F2.order}")
    return F1.masks <= F2.masks
