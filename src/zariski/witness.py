"""Witness construction certifying hyperconnectedness of the semigroup
Zariski topology on permutation groups with no algebraicity.

Given a normalized matrix pair (A, B) over such a group, the construction
extends a finite partial bijection step by step until every row evaluation
at its separator point is fully defined, then completes it to a group
element.  The completed element lies in N_{A,B}; stacking two pairs first
therefore produces a point in the intersection of two arbitrary nonempty
basic open sets.

Each fresh image avoids one forbidden set: the translates, under the
seven-part product set of the entries, of every separator, every stuck
point and every image chosen so far.  The set only grows, so each step
adds the translates of its stuck point before the image is chosen and
those of the image after.

The group enters only through a small oracle interface, so the loop
itself is group-agnostic; the shipped oracle models the finitary symmetric
group on N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from zariski.errors import NotNormalized, OracleExhausted
from zariski.perm import FinPermutation, extend, invert_map
from zariski.ragged import MatrixPair, NormalForm, stack


def pick_separators(P: MatrixPair) -> tuple:
    """For each row, the smallest point where the leading coefficients of
    the A and B sides disagree."""
    seps = []
    for i, (arow, brow) in enumerate(zip(P.A.rows, P.B.rows)):
        a0, b0 = arow[0], brow[0]
        if a0 == b0:
            raise NotNormalized(f"row {i} has equal leading entries")
        diff = [x for x in a0.support() | b0.support()
                if a0.apply(x) != b0.apply(x)]
        seps.append(min(diff))
    return tuple(seps)


def _entries(P: MatrixPair) -> tuple:
    """The entry set C of A and B, sorted by canonical pair encoding."""
    return tuple(sorted({c for row in P.A.rows + P.B.rows for c in row},
                        key=FinPermutation.to_pairs))


def _count_seven_parts(entries) -> int:
    """|{1} u C u C^-1 u CC u CC^-1 u C^-1C u C^-1C^-1| for the entry set C.

    Each part fixes every point outside the support S of C, so an element
    is determined by its image row on S, with every point relabelled by its
    index in S; the count is the number of distinct rows, and the identity
    is the row 0..|S|-1."""
    support = sorted(set().union(*(e._map for e in entries)))
    n = len(support)
    if n == 0:  # C holds at most the identity
        return 1
    index = {s: i for i, s in enumerate(support)}
    ident = np.arange(n, dtype=np.min_scalar_type(n - 1))
    c = np.tile(ident, (len(entries), 1))
    for row, e in zip(c, entries):
        for x, y in e._map.items():
            row[index[x]] = index[y]
    moves = np.concatenate([c, np.argsort(c, axis=1).astype(c.dtype)])
    # products[p, q, x] = moves[q, moves[p, x]]: the left-to-right product
    # of every ordered pair of moves
    m = len(moves)
    products = moves[np.arange(m)[None, :, None], moves[:, None, :]]
    rows = np.concatenate([ident[None], moves, products.reshape(m * m, n)])
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * n)))
    return len(np.unique(keys))


@dataclass(frozen=True)
class WitnessStep:
    case: str  # "alpha" | "beta"
    row: int
    point: int  # q: where the stuck row evaluation stopped
    image: int  # q': the freshly chosen image
    counters_a: tuple  # per-row longest defined prefix, after the step
    counters_b: tuple


@dataclass(frozen=True)
class WitnessTrace:
    separators: tuple
    entries: tuple  # the entry set C, sorted by canonical pair encoding
    steps: tuple
    final: FinPermutation

    # Counted on first access, since the construction itself only needs
    # the translates of the forbidden set.
    @cached_property
    def forbidden_size(self) -> int:
        """The number of elements of the seven-part product set."""
        return _count_seven_parts(self.entries)

    def to_json(self) -> dict:
        return {
            "separators": list(self.separators),
            "forbidden_size": self.forbidden_size,
            "steps": [{"case": s.case, "row": s.row,
                       "point": s.point, "image": s.image,
                       "counters_a": list(s.counters_a),
                       "counters_b": list(s.counters_b)}
                      for s in self.steps],
            "witness": self.final.to_json(),
        }


class SymOmegaOracle:
    """No-algebraicity oracle for the finitary symmetric group on N.

    Both methods get the partial map ``b`` built so far as a dict, point ->
    image; ``choose_image`` also gets the ``forbidden`` set of translates.
    The construction keeps growing both after the call, so an oracle must
    not change either of them or keep a reference to it.  Every finite
    injective partial map extends, and a fresh image for q is simply the
    smallest natural avoiding the forbidden translates and the image of
    ``b``.
    """

    def choose_image(self, b: dict, q: int, forbidden) -> int:
        banned = set(forbidden)
        banned.update(b.values())
        a = 0
        while a in banned:
            a += 1
        return a

    def complete(self, b: dict) -> FinPermutation:
        return extend(b)


def symw_oracle() -> SymOmegaOracle:
    return SymOmegaOracle()


def _partial_eval(row_maps, m, xmap):
    """Longest defined prefix of c0 x c1 ... x cp at the point m.

    Returns (p, value): p is the largest coefficient index reached, value
    the point after applying c_p.  The prefix extends past c_p only when
    the current value lies in the domain of the partial map x.
    """
    v = row_maps[0].get(m, m)
    p = 0
    for c in row_maps[1:]:
        if v not in xmap:
            break
        v = xmap[v]
        v = c.get(v, v)
        p += 1
    return p, v


def construct_witness(P: MatrixPair, oracle) -> tuple:
    """Build an element of N_{A,B} together with its construction trace.

    ``P`` must be a proper normal form.  Loop: take the smallest row whose
    A-side evaluation at its separator is not yet defined (case alpha),
    else the smallest with the B side undefined (case beta); the stuck
    point q receives a fresh image q' outside the forbidden set.  Each
    step pushes one row's defined prefix strictly forward, so the loop
    ends after at most sum(d_A + d_B) steps.
    """
    NormalForm.proper(P)
    seps = pick_separators(P)
    entries = _entries(P)
    cmaps = [c._map for c in entries]
    moves = cmaps + [invert_map(m) for m in cmaps]
    # Every part of the forbidden set fixes each point outside the support
    # S of the entries, and (t)(fg) = ((t)f)g, so the translates of s in S
    # are the points reachable from s in at most two steps under C u C^-1;
    # a point outside S is its own only translate.
    one_step = {s: {m.get(s, s) for m in moves} for s in set().union(*cmaps)}
    reach = {s: set().union({s}, nb, *(one_step[t] for t in nb))
             for s, nb in one_step.items()}

    forbidden = set()
    for s in seps:
        forbidden |= reach.get(s, {s})
    sides = [(case, [[c._map for c in row] for row in R.rows], R.degrees())
             for case, R in (("alpha", P.A), ("beta", P.B))]
    budget = P.degree_sum()
    xmap: dict = {}
    steps = []
    pending = None
    while True:
        # one pass over every row gives the counters after the pending
        # step and the next stuck row, alpha side before beta side
        evals = [[_partial_eval(row, m, xmap) for row, m in zip(rows, seps)]
                 for _, rows, _ in sides]
        if pending:
            steps.append(WitnessStep(
                *pending, *(tuple(p for p, _ in ev) for ev in evals)))
            if len(steps) > budget:
                raise OracleExhausted(
                    f"{len(steps)} steps exceed the step budget of {budget}")
        pending = next(((case, j, v)
                        for (case, _, degs), ev in zip(sides, evals)
                        for j, ((p, v), d) in enumerate(zip(ev, degs))
                        if p < d), None)
        if pending is None:
            break
        q = pending[2]
        forbidden |= reach.get(q, {q})
        q_img = oracle.choose_image(xmap, q, forbidden)
        if q_img is None or q_img in forbidden:
            raise OracleExhausted("oracle returned no admissible image")
        xmap[q] = q_img
        forbidden |= reach.get(q_img, {q_img})
        pending += (q_img,)

    g = oracle.complete(xmap)
    trace = WitnessTrace(
        separators=seps,
        entries=entries,
        steps=tuple(steps),
        final=g,
    )
    return g, trace


def intersect_witness(P1: MatrixPair, P2: MatrixPair, oracle) -> tuple:
    """A common point of N_{A1,B1} and N_{A2,B2}: stack the rows and run
    the witness construction on the combined pair."""
    return construct_witness(stack(P1, P2), oracle)
