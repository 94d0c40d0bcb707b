"""Ragged matrices, the basic open sets they denote, and their normal form.

A pair (A, B) of ragged matrices with k rows each denotes the basic open
set N_{A,B} of all x whose row evaluations differ in every coordinate:
a row of coefficients (c0, ..., cn) is the positive word
x -> c0 * x * c1 * ... * x * cn, and ``row_eval`` evaluates it in any
monoid.  A single inequation u(x) != v(x) between positive words is the
one-row pair ((u), (v)); ``zariski.words`` reduces low-degree group
inequations to such pairs.

Over Sym(N), ``membership`` never builds a row's value.  Two words
agree off the points that x and their coefficients move, so it walks
each paired row point by point over those points only, on moved-point
dicts, and stops at the first point where the two sides' images differ.
Other monoids go through ``row_eval``.

``normalize`` rewrites a pair over a cancellative monoid into one of three
normal forms without changing the denoted set:

* ``Empty``   -- some row is an identically false constant inequation;
* ``Full``    -- every row is identically true and was deleted;
* ``Proper``  -- every surviving row has positive degree on some side and
  distinct leading coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from zariski.errors import InvalidAdjuster, NotNormalized
from zariski.groups import Monoid, SymOmega
from zariski.perm import FinPermutation


@dataclass(frozen=True)
class RaggedMatrix:
    """Rows of coefficient tuples; row i has degree len(rows[i]) - 1."""

    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a ragged matrix needs at least one row")
        if not all(self.rows):
            raise ValueError("every row needs at least one entry")

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def degrees(self) -> tuple:
        return tuple(len(row) - 1 for row in self.rows)


@dataclass(frozen=True)
class MatrixPair:
    A: RaggedMatrix
    B: RaggedMatrix

    def __post_init__(self):
        if len(self.A.rows) != len(self.B.rows):
            raise ValueError("A and B must have the same number of rows")

    @property
    def num_rows(self) -> int:
        return self.A.num_rows

    def degree_sum(self) -> int:
        return sum(self.A.degrees()) + sum(self.B.degrees())


def pair_of_rows(a_rows, b_rows) -> MatrixPair:
    """Convenience constructor from row iterables."""
    return MatrixPair(RaggedMatrix(tuple(tuple(r) for r in a_rows)),
                      RaggedMatrix(tuple(tuple(r) for r in b_rows)))


def row_eval(row: tuple, x, G: Monoid):
    """The value c0 * x * c1 * ... * x * cn of a row of coefficients."""
    acc = row[0]
    for c in row[1:]:
        acc = G.mul(G.mul(acc, x), c)
    return acc


def _image(row, x: dict, t):
    """Image of the point t under c0 * x * c1 * ... * x * cn, for a row of
    coefficient moved-point dicts and x as a moved-point dict."""
    t = row[0].get(t, t)
    for c in row[1:]:
        t = x.get(t, t)
        t = c.get(t, t)
    return t


def membership(P: MatrixPair, x, G: Monoid) -> bool:
    """Is x in N_{A,B}, i.e. do all paired row evaluations differ?"""
    if isinstance(G, SymOmega):
        xm = x._map
        for arow, brow in zip(P.A.rows, P.B.rows):
            ra = [c._map for c in arow]
            rb = [c._map for c in brow]
            # both words fix every point that neither x nor a coefficient
            # moves, so they differ iff they differ at one of the others
            for t in chain(xm, *ra, *rb):
                if _image(ra, xm, t) != _image(rb, xm, t):
                    break
            else:
                return False
        return True
    return all(row_eval(arow, x, G) != row_eval(brow, x, G)
               for arow, brow in zip(P.A.rows, P.B.rows))


def stack(P1: MatrixPair, P2: MatrixPair) -> MatrixPair:
    """Row concatenation; the denoted set is the intersection."""
    return MatrixPair(RaggedMatrix(P1.A.rows + P2.A.rows),
                      RaggedMatrix(P1.B.rows + P2.B.rows))


def signature(P: MatrixPair) -> tuple:
    """(k, degrees of A, degrees of B) -- compared lexicographically, this
    is the quantity the normalization rewriting strictly decreases."""
    return (P.num_rows,) + P.A.degrees() + P.B.degrees()


@dataclass(frozen=True)
class NormalForm:
    tag: str  # "empty" | "full" | "proper"
    pair: MatrixPair | None = None

    @classmethod
    def empty(cls) -> "NormalForm":
        return cls("empty")

    @classmethod
    def full(cls) -> "NormalForm":
        return cls("full")

    @classmethod
    def proper(cls, pair: MatrixPair) -> "NormalForm":
        for i, (arow, brow) in enumerate(zip(pair.A.rows, pair.B.rows)):
            if len(arow) == 1 and len(brow) == 1:
                raise NotNormalized(f"row {i} has degree 0 on both sides")
            if arow[0] == brow[0]:
                raise NotNormalized(f"row {i} has equal leading entries")
        return cls("proper", pair)

    @property
    def is_empty(self) -> bool:
        return self.tag == "empty"

    @property
    def is_full(self) -> bool:
        return self.tag == "full"

    @property
    def is_proper(self) -> bool:
        return self.tag == "proper"


@dataclass(frozen=True)
class NormStep:
    """One rewriting event, with the signature of the surviving rows after it.

    ``cancel``, ``delete`` and ``empty`` strictly decrease the signature
    (the last two drop their row); ``adjust_a`` and ``adjust_b`` rewrite
    entries only (the signature is unchanged) and fire at most once per
    row.  ``empty`` aborts the whole rewriting.
    """

    kind: str  # "cancel" | "adjust_a" | "adjust_b" | "delete" | "empty"
    row: int
    signature: tuple


def _live_signature(rows, alive) -> tuple:
    live = [i for i, ok in enumerate(alive) if ok]
    return (len(live),
            *(len(rows[i][0]) - 1 for i in live),
            *(len(rows[i][1]) - 1 for i in live))


def normalize_steps(P: MatrixPair, G: Monoid, adjuster):
    """Normalize and return ``(NormalForm, steps)``.

    The rewriting is applied row by row in ascending order:

    * equal leading entries and both degrees positive: left-cancel the
      common coefficient together with one x (``cancel``);
    * equal leading entries, one side constant: multiply that constant and
      the other side's last entry by the adjuster on the right
      (``adjust_a``/``adjust_b``); the leading entries now differ;
    * both sides constant: equal constants make the whole set empty
      (``empty``), distinct constants make the row vacuous (``delete``).

    Membership in the denoted set is preserved at every step; that is
    exactly where cancellativity of G is used.
    """
    if adjuster == G.one():
        raise InvalidAdjuster("adjuster must differ from the identity")
    k = P.num_rows
    rows = [[list(a), list(b)] for a, b in zip(P.A.rows, P.B.rows)]
    alive = [True] * k
    steps = []
    for i in range(k):
        while True:
            a, b = rows[i]
            if len(a) == 1 and len(b) == 1:
                alive[i] = False
                if a[0] == b[0]:
                    steps.append(NormStep("empty", i, _live_signature(rows, alive)))
                    return NormalForm.empty(), tuple(steps)
                steps.append(NormStep("delete", i, _live_signature(rows, alive)))
                break
            if a[0] != b[0]:
                break
            if len(a) > 1 and len(b) > 1:
                del a[0]
                del b[0]
                steps.append(NormStep("cancel", i, _live_signature(rows, alive)))
                continue
            if len(a) == 1:
                a[0] = G.mul(a[0], adjuster)
                b[-1] = G.mul(b[-1], adjuster)
                steps.append(NormStep("adjust_a", i, _live_signature(rows, alive)))
            else:
                b[0] = G.mul(b[0], adjuster)
                a[-1] = G.mul(a[-1], adjuster)
                steps.append(NormStep("adjust_b", i, _live_signature(rows, alive)))
            break
    if not any(alive):
        return NormalForm.full(), tuple(steps)
    pair = pair_of_rows((rows[i][0] for i in range(k) if alive[i]),
                        (rows[i][1] for i in range(k) if alive[i]))
    return NormalForm.proper(pair), tuple(steps)


def normalize(P: MatrixPair, G: Monoid, adjuster) -> NormalForm:
    form, _ = normalize_steps(P, G, adjuster)
    return form


def normal_membership(form: NormalForm, x, G: Monoid) -> bool:
    """Membership in the set denoted by a normal form."""
    if form.is_empty:
        return False
    if form.is_full:
        return True
    return membership(form.pair, x, G)


def matrix_to_json(R: RaggedMatrix) -> list:
    return [[c.to_json() for c in row] for row in R.rows]


def matrix_from_json(data) -> RaggedMatrix:
    return RaggedMatrix(tuple(tuple(FinPermutation.from_json(c) for c in row)
                              for row in data))


def pair_to_json(P: MatrixPair) -> dict:
    return {"A": matrix_to_json(P.A), "B": matrix_to_json(P.B)}


def pair_from_json(data) -> MatrixPair:
    return MatrixPair(matrix_from_json(data["A"]), matrix_from_json(data["B"]))
