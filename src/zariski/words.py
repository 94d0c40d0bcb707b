"""Group words, their evaluation, and the reduction of group inequations to
pairs of positive words.

A group word with coefficients (a0, ..., an) and signs (e1, ..., en) is
the map x -> a0*x^e1*a1*...*x^en*an.  ``group_ineq_to_semigroup_pair``
rewrites a group inequation ``w(x) != 1`` with at most two cyclic sign
changes as ``u(x) != v(x)``, u and v positive: the one-row matrix pair
``((u), (v))`` of ``zariski.ragged``, a basic set of the semigroup Zariski
topology, which ``normalize`` and the witness accept like any other pair.

The carrier G is duck-typed as in ``zariski.groups``: ``eval_group`` and
the reduction call ``one()``, ``mul(a, b)`` and ``inv(a)``, and
``holds_ineq`` only ``mul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


@lru_cache
def _rotation(signs: tuple) -> tuple:
    """(r, i) such that signs[r:] + signs[:r] reads i pluses, then minuses."""
    starts = [k for k, s in enumerate(signs) if s > 0 > signs[k - 1]] or [0]
    if len(starts) > 1:
        raise IrreducibleSignature(f"{signs}: over two cyclic sign changes")
    return starts[0], signs.count(1)


def group_ineq_to_semigroup_pair(w: GroupWord, G) -> MatrixPair:
    """The one-row pair ((u), (v)) of positive words with w(x) = 1 iff
    u(x) = v(x), for every x.

    Conjugated by a0, w = 1 iff the cyclic word (x^e1 b1)...(x^en bn) = 1,
    where b_k = a_k for k < n and bn = an*a0.  Rotated left by r, its signs
    read i pluses, then minuses (no r does if they change sign more than
    twice around the cycle, and IrreducibleSignature is raised), so P*Q = 1
    with P = x b_{r+1} ... x b_{r+i} and Q^-1 = b_{r+n}^-1 x ...
    b_{r+i+1}^-1 x, indices mod n, both positive.  Degree 0 pairs a0 with 1."""
    a = w.coefficients
    if not w.signs:
        return pair_of_rows((a,), ((G.one(),),))
    r, i = _rotation(w.signs)
    b = a[1:-1] + (G.mul(a[-1], a[0]),)
    b = b[r:] + b[:r]
    return pair_of_rows(((G.one(),) + b[:i],),
                        (tuple(map(G.inv, reversed(b[i:]))) + (G.one(),),))
