"""Group words, their evaluation, and the reduction of low-degree group
inequations to pairs of positive words.

A group word with coefficients (a0, ..., an) and signs (e1, ..., en) is
the map x -> a0*x^e1*a1*...*x^en*an.  ``group_ineq_to_semigroup_pair``
rewrites a group inequation ``w(x) != 1`` of degree at most 3 as
``u(x) != v(x)`` with u, v positive words.  That is the one-row matrix pair
``((u), (v))`` of ``zariski.ragged``, a basic set of the semigroup Zariski
topology, which ``normalize`` and the witness accept like any other pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from zariski.errors import IrreducibleSignature
from zariski.groups import Group, Monoid
from zariski.ragged import MatrixPair, RaggedMatrix, row_eval


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


def holds_ineq(pair: MatrixPair, x, G: Monoid) -> bool:
    """Is x in the basic set of a one-row pair, i.e. is u(x) != v(x)?"""
    (u,), (v,) = pair.A.rows, pair.B.rows
    return row_eval(u, x, G) != row_eval(v, x, G)


def formal_inverse(w: GroupWord, G: Group) -> GroupWord:
    """The word computing x -> w(x)^{-1}: coefficients reversed and
    inverted, signs reversed and flipped."""
    coeffs = tuple(G.inv(c) for c in reversed(w.coefficients))
    signs = tuple(-s for s in reversed(w.signs))
    return GroupWord(coeffs, signs)


def _one_row(u: tuple, v: tuple) -> MatrixPair:
    return MatrixPair(RaggedMatrix((u,)), RaggedMatrix((v,)))


def _rotate_unique_negative(w: GroupWord, G: Group) -> MatrixPair:
    # w = p x^{ -1} q with p, q positive; w(x) = 1 iff q(x)p(x) = x.
    i = w.signs.index(-1) + 1  # coefficient index right of the negative x
    p = w.coefficients[:i]
    q = w.coefficients[i:]
    fused = q[:-1] + (G.mul(q[-1], p[0]),) + p[1:]
    return _one_row(fused, (G.one(), G.one()))  # the word x on the right


def group_ineq_to_semigroup_pair(w: GroupWord, G: Group) -> MatrixPair:
    """The one-row pair ((u), (v)) of positive words with w(x) = 1 iff
    u(x) = v(x), for every x.

    Accepts any degree when all signs agree, and mixed signs up to degree 3.
    A word with more than one negative occurrence is first replaced by its
    formal inverse (w = 1 iff w^-1 = 1), which leaves at most one negative
    occurrence up to degree 3.  A positive word is then paired with the
    constant 1, and a word with one negative occurrence is rotated
    (uv = 1 iff vu = 1) so the lone x^{-1} moves to the front and cancels
    against a plain x on the other side.  Degree >= 4 with mixed signs has
    no such rewriting here and raises IrreducibleSignature.
    """
    negs = w.signs.count(-1)
    if w.degree >= 4 and 0 < negs < w.degree:
        raise IrreducibleSignature(
            f"degree {w.degree} with {negs} negative signs")
    if negs > 1:
        w = formal_inverse(w, G)
    if -1 not in w.signs:
        return _one_row(w.coefficients, (G.one(),))
    return _rotate_unique_negative(w, G)
