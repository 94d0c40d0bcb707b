"""Group words, their evaluation, and the reduction of low-degree group
inequations to pairs of positive words.

A group word with coefficients (a0, ..., an) and signs (e1, ..., en) is
the map x -> a0*x^e1*a1*...*x^en*an.  ``group_ineq_to_semigroup_pair``
rewrites a group inequation ``w(x) != 1`` of degree at most 3 as
``u(x) != v(x)`` with u, v positive words.  That is the one-row matrix pair
``((u), (v))`` of ``zariski.ragged``, a basic set of the semigroup Zariski
topology, which ``normalize`` and the witness accept like any other pair.

The carrier G is duck-typed as in ``zariski.groups``: ``eval_group`` and
the reduction call ``one()``, ``mul(a, b)`` and ``inv(a)``, and
``holds_ineq`` only ``mul``.
"""

from __future__ import annotations

from dataclasses import dataclass

from zariski.errors import IrreducibleSignature
from zariski.ragged import MatrixPair, pair_of_rows, row_eval


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


def eval_group(w: GroupWord, x, G):
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


def holds_ineq(pair: MatrixPair, x, G) -> bool:
    """Is x in the basic set of a one-row pair, i.e. is u(x) != v(x)?"""
    (u,), (v,) = pair.A.rows, pair.B.rows
    return row_eval(u, x, G) != row_eval(v, x, G)


def group_ineq_to_semigroup_pair(w: GroupWord, G) -> MatrixPair:
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
    coeffs, signs = w.coefficients, w.signs
    if negs > 1:
        # the formal inverse: coefficients reversed and inverted, signs
        # reversed and flipped
        coeffs = tuple(map(G.inv, reversed(coeffs)))
        signs = tuple(-s for s in reversed(signs))
    if -1 not in signs:
        return pair_of_rows((coeffs,), ((G.one(),),))
    # w = p x^-1 q with p, q positive; w(x) = 1 iff q(x)p(x) = x
    i = signs.index(-1) + 1  # coefficient index right of the negative x
    p, q = coeffs[:i], coeffs[i:]
    fused = q[:-1] + (G.mul(q[-1], p[0]),) + p[1:]
    return pair_of_rows((fused,), ((G.one(), G.one()),))  # x on the right
