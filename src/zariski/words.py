"""Group and semigroup words, their evaluation, and the reduction of
low-degree group inequations to pairs of positive words.

A semigroup word with coefficients (a0, ..., an) is the map
x -> a0*x*a1*...*x*an; a group word additionally carries a sign for each
occurrence of x.  ``group_ineq_to_semigroup_pair`` rewrites a group
inequation ``w(x) != 1`` of degree at most 3 as ``u(x) != v(x)`` with u, v
positive, which is what makes degree-3 group-Zariski basic sets visible to
the semigroup Zariski topology.
"""

from __future__ import annotations

from dataclasses import dataclass

from zariski.errors import IrreducibleSignature
from zariski.groups import Group, Monoid


@dataclass(frozen=True)
class SemigroupWord:
    """Word a0 x a1 ... x an; degree = number of x occurrences."""

    coefficients: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a word needs at least one coefficient")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


@dataclass(frozen=True)
class GroupWord:
    """Word a0 x^e1 a1 ... x^en an with each sign in {-1, +1}."""

    coefficients: tuple
    signs: tuple

    def __post_init__(self):
        if not self.coefficients:
            raise ValueError("a word needs at least one coefficient")
        if len(self.signs) != len(self.coefficients) - 1:
            raise ValueError("need exactly one sign per x occurrence")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")

    @property
    def degree(self) -> int:
        return len(self.signs)


@dataclass(frozen=True)
class IneqPair:
    """The basic set {x : lhs(x) != rhs(x)}."""

    lhs: SemigroupWord
    rhs: SemigroupWord


def eval_semigroup(w: SemigroupWord, x, G: Monoid):
    acc = w.coefficients[0]
    for c in w.coefficients[1:]:
        acc = G.mul(G.mul(acc, x), c)
    return acc


def eval_group(w: GroupWord, x, G: Group):
    xinv = None
    acc = w.coefficients[0]
    for sign, c in zip(w.signs, w.coefficients[1:]):
        if sign > 0:
            acc = G.mul(acc, x)
        else:
            if xinv is None:
                xinv = G.inv(x)
            acc = G.mul(acc, xinv)
        acc = G.mul(acc, c)
    return acc


def holds_ineq(pair: IneqPair, x, G: Monoid) -> bool:
    return eval_semigroup(pair.lhs, x, G) != eval_semigroup(pair.rhs, x, G)


def formal_inverse(w: GroupWord, G: Group) -> GroupWord:
    """The word computing x -> w(x)^{-1}: coefficients reversed and
    inverted, signs reversed and flipped."""
    coeffs = tuple(G.inv(c) for c in reversed(w.coefficients))
    signs = tuple(-s for s in reversed(w.signs))
    return GroupWord(coeffs, signs)


def _rotate_unique_negative(w: GroupWord, G: Group) -> IneqPair:
    # w = p x^{ -1} q with p, q positive; w(x) = 1 iff q(x)p(x) = x.
    i = w.signs.index(-1) + 1  # coefficient index right of the negative x
    p = w.coefficients[:i]
    q = w.coefficients[i:]
    fused = q[:-1] + (G.mul(q[-1], p[0]),) + p[1:]
    u = SemigroupWord(fused)
    v = SemigroupWord((G.one(), G.one()))  # the word x
    return IneqPair(u, v)


def group_ineq_to_semigroup_pair(w: GroupWord, G: Group) -> IneqPair:
    """Positive words (u, v) with w(x) = 1 iff u(x) = v(x), for every x.

    Accepts any degree when all signs agree, and mixed signs up to degree 3.
    The rewriting: a word with exactly one negative occurrence is rotated
    (uv = 1 iff vu = 1) so the lone x^{-1} moves to the front and cancels
    against a plain x on the other side; more negatives than positives are
    first cleared by passing to the formal inverse.  Degree >= 4 with mixed
    signs has no such rewriting here and raises IrreducibleSignature.
    """
    negs = sum(1 for s in w.signs if s < 0)
    if w.degree >= 4 and 0 < negs < w.degree:
        raise IrreducibleSignature(
            f"degree {w.degree} with {negs} negative signs")
    if negs == 0:
        return IneqPair(SemigroupWord(w.coefficients), SemigroupWord((G.one(),)))
    if negs == 1:
        return _rotate_unique_negative(w, G)
    inv = formal_inverse(w, G)
    remaining = sum(1 for s in inv.signs if s < 0)
    if remaining == 0:
        return IneqPair(SemigroupWord(inv.coefficients),
                        SemigroupWord((G.one(),)))
    if remaining == 1:
        return _rotate_unique_negative(inv, G)
    raise IrreducibleSignature(  # unreachable for degree <= 3
        f"degree {w.degree} with {negs} negative signs")

