"""Ragged matrices, the basic open sets they denote, and their normal form.

A pair (A, B) of ragged matrices with k rows each denotes the basic open
set N_{A,B} of all x whose row evaluations differ in every coordinate:
a row of coefficients (c0, ..., cn) is the positive word
x -> c0 * x * c1 * ... * x * cn, and ``row_eval`` evaluates it in any
monoid G, duck-typed as in ``zariski.groups``: any object with ``one()``
and ``mul(a, b)``.  A single inequation u(x) != v(x) between positive
words is the one-row pair ((u), (v)); ``zariski.words`` reduces
low-degree group inequations to such pairs.

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

from zariski.groups import SymOmega
from zariski.perm import FinPermutation, _json_list


@dataclass(frozen=True)
class RaggedMatrix:
    """Rows of coefficient tuples; row i has degree len(rows[i]) - 1."""

    rows: tuple

    def __post_init__(self):
        if not self.rows:
            raise ValueError("a ragged matrix needs at least one row")
        if not all(self.rows):
            raise ValueError("every row needs at least one entry")

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
        return len(self.A.rows)

    def degree_sum(self) -> int:
        return sum(self.A.degrees()) + sum(self.B.degrees())


def pair_of_rows(a_rows, b_rows) -> MatrixPair:
    """The pair with these rows of coefficients on the A and B sides; any
    iterables will do, and a row that is already a tuple is not copied."""
    return MatrixPair(RaggedMatrix(tuple(map(tuple, a_rows))),
                      RaggedMatrix(tuple(map(tuple, b_rows))))


def row_eval(row: tuple, x, G):
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


def membership(P: MatrixPair, x, G) -> bool:
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
    return pair_of_rows(P1.A.rows + P2.A.rows, P1.B.rows + P2.B.rows)


def signature(P: MatrixPair) -> tuple:
    """(k, degrees of A, degrees of B) -- compared lexicographically, this
    is the quantity the normalization rewriting strictly decreases."""
    return (P.num_rows,) + P.A.degrees() + P.B.degrees()


@dataclass(frozen=True)
class NormalForm:
    tag: str  # "empty" | "full" | "proper"
    pair: MatrixPair | None = None

    @classmethod
    def proper(cls, pair: MatrixPair) -> "NormalForm":
        for i, (arow, brow) in enumerate(zip(pair.A.rows, pair.B.rows)):
            if len(arow) == 1 and len(brow) == 1:
                raise ValueError(f"row {i} has degree 0 on both sides")
            if arow[0] == brow[0]:
                raise ValueError(f"row {i} has equal leading entries")
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
    """One rewriting event on ``row`` (an index of the input), with the
    signature of the rows still alive after it.

    A row takes zero or more ``cancel`` steps, then at most one of
    ``delete``, ``empty``, ``adjust_a`` or ``adjust_b``.  ``cancel``,
    ``delete`` and ``empty`` strictly decrease the signature (the last two
    drop their row); the adjustments rewrite entries only, so the
    signature is unchanged.  ``empty`` ends the whole rewriting.
    """

    kind: str  # "cancel" | "adjust_a" | "adjust_b" | "delete" | "empty"
    row: int
    signature: tuple


def normalize_steps(P: MatrixPair, G, adjuster):
    """Normalize and return ``(NormalForm, steps)``.

    Each row is rewritten once, in ascending order:

    * while the leading entries agree and both degrees are positive,
      left-cancel the common coefficient together with one x (``cancel``);
    * then, if both sides are constant, equal constants make the whole set
      empty (``empty``) and distinct ones make the row vacuous (``delete``);
    * otherwise, if the leading entries still agree, one side is constant:
      multiply that constant and the other side's last entry by the
      adjuster on the right (``adjust_a``/``adjust_b``), after which the
      leading entries differ.

    Membership in the denoted set is preserved at every step; that is
    exactly where cancellativity of G is used.
    """
    if adjuster == G.one():
        raise ValueError("adjuster must differ from the identity")
    live = {i: (list(a), list(b))
            for i, (a, b) in enumerate(zip(P.A.rows, P.B.rows))}
    steps = []

    def record(kind, i):
        steps.append(NormStep(kind, i, (
            len(live), *(len(a) - 1 for a, _ in live.values()),
            *(len(b) - 1 for _, b in live.values()))))

    for i, (a, b) in list(live.items()):
        while a[0] == b[0] and len(a) > 1 and len(b) > 1:
            del a[0], b[0]
            record("cancel", i)
        if len(a) == 1 and len(b) == 1:
            del live[i]
            if a[0] == b[0]:
                record("empty", i)
                return NormalForm("empty"), tuple(steps)
            record("delete", i)
        elif a[0] == b[0]:
            if len(a) == 1:
                a[0], b[-1] = G.mul(a[0], adjuster), G.mul(b[-1], adjuster)
                record("adjust_a", i)
            else:
                b[0], a[-1] = G.mul(b[0], adjuster), G.mul(a[-1], adjuster)
                record("adjust_b", i)
    if not live:
        return NormalForm("full"), tuple(steps)
    return NormalForm.proper(pair_of_rows(*zip(*live.values()))), tuple(steps)


def normalize(P: MatrixPair, G, adjuster) -> NormalForm:
    form, _ = normalize_steps(P, G, adjuster)
    return form


def normal_membership(form: NormalForm, x, G) -> bool:
    """Membership in the set denoted by a normal form."""
    if form.is_empty:
        return False
    if form.is_full:
        return True
    return membership(form.pair, x, G)


def pair_to_json(P: MatrixPair) -> dict:
    return {k: [[c.to_json() for c in row] for row in R.rows]
            for k, R in (("A", P.A), ("B", P.B))}


def pair_from_json(data) -> MatrixPair:
    """Decode the ``pair_to_json`` format; keys other than "A" and "B" are
    ignored.  Raises ValueError on any other shape, naming the part that
    is wrong."""
    if not isinstance(data, dict):
        raise ValueError('a matrix pair is a JSON object with keys "A" and '
                         f'"B", not a {type(data).__name__}')
    missing = " or ".join(f'"{k}"' for k in ("A", "B") if k not in data)
    if missing:
        raise ValueError(f"the matrix pair has no key {missing}")
    A, B = ([[FinPermutation.from_json(c)
              for c in _json_list(row, f'a row of "{k}"')]
             for row in _json_list(data[k], f'"{k}"')] for k in ("A", "B"))
    return pair_of_rows(A, B)
