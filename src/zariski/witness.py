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

from zariski.errors import NotNormalized, OracleExhausted, TooLarge
from zariski.perm import FinPermutation, extend, invert_map
from zariski.ragged import MatrixPair, NormalForm, stack

COUNT_GUARD = 2 ** 28  # bytes of the forbidden-set count's row table


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


def _entries(P: MatrixPair) -> frozenset:
    """The entry set C of A and B."""
    return frozenset(c for row in P.A.rows + P.B.rows for c in row)


def _count_seven_parts(entries) -> int:
    """|{1} u C u C^-1 u CC u CC^-1 u C^-1C u C^-1C^-1| for the entry set C.

    Each part fixes every point outside the support S of C, so an element
    is determined by its image row on S, with every point relabelled by its
    index in S; the count is the number of distinct rows, and the identity
    is the row 0..|S|-1.

    Each row is padded with fixed points to a whole number of 8-byte words
    and read as uint64 keys: one word per row (|S| <= 8 on uint8 entries)
    is sorted directly, more words are sorted with ``np.lexsort``, and the
    count is 1 plus the number of adjacent rows that differ.  The padded
    width still fits the entry dtype, since 256 and 65,536 are multiples
    of the 8 and 4 entries of a word.  The table holds 1 + m + m^2 rows for
    the m = 2|C| moves, and one of more than COUNT_GUARD bytes raises
    TooLarge before anything is built."""
    support = sorted(set().union(*(e._map for e in entries)))
    n = len(support)
    if n == 0:  # C holds at most the identity
        return 1
    index = {s: i for i, s in enumerate(support)}
    dtype = np.min_scalar_type(n - 1)
    per_word = 8 // dtype.itemsize
    ident = np.arange(-(-n // per_word) * per_word, dtype=dtype)
    m = 2 * len(entries)
    size = (1 + m + m * m) * ident.nbytes
    if size > COUNT_GUARD:
        raise TooLarge(f"forbidden-set count of {len(entries)} entries "
                       f"needs {size} bytes")
    c = np.tile(ident, (len(entries), 1))
    for row, e in zip(c, entries):
        for x, y in e._map.items():
            row[index[x]] = index[y]
    moves = np.concatenate([c, np.argsort(c, axis=1).astype(dtype)])
    width = moves.shape[1]
    rows = np.empty((1 + m + m * m, width), dtype)
    rows[0] = ident
    rows[1:m + 1] = moves
    # rows[1 + m + q*m + p, x] = moves[q, moves[p, x]]: the left-to-right
    # product of every ordered pair of moves, written in place; every index
    # is in range, and mode="clip" skips the buffered copy of "raise"
    np.take(moves, moves, axis=1, out=rows[1 + m:].reshape(m, m, width),
            mode="clip")
    keys = rows.view(np.uint64)
    if keys.shape[1] == 1:
        keys.sort(axis=0)
    else:
        keys = keys[np.lexsort(keys.T)]
    return 1 + int(np.count_nonzero((keys[1:] != keys[:-1]).any(axis=1)))


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
    entries: frozenset  # the entry set C
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
        used = set(b.values())
        a = 0
        while a in forbidden or a in used:
            a += 1
        return a

    def complete(self, b: dict) -> FinPermutation:
        return extend(b)


def symw_oracle() -> SymOmegaOracle:
    return SymOmegaOracle()


def _advance(row, p, v, xmap):
    """Push a row's evaluation state forward while it is defined.

    The state (p, v) says that c0 x c1 ... x cp takes the separator to v;
    the next coefficient applies once v lies in the domain of the partial
    map x.  Returns the state where the row is finished or stuck.
    """
    while p + 1 < len(row) and v in xmap:
        p += 1
        v = xmap[v]
        v = row[p].get(v, v)
    return p, v


def construct_witness(P: MatrixPair, oracle) -> tuple:
    """Build an element of N_{A,B} together with its construction trace.

    ``P`` must be a proper normal form.  Each row keeps its evaluation
    state at its separator from one step to the next.  Loop: take the
    smallest row whose A-side evaluation is not yet defined (case alpha),
    else the smallest with the B side undefined (case beta); the stuck
    point q receives a fresh image q' outside the forbidden set, and only
    the rows stuck at q move on.  Each step pushes at least the chosen
    row strictly forward, so the loop ends after at most sum(d_A + d_B)
    steps.
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
    sides = [(case, [[c._map for c in row] for row in R.rows])
             for case, R in (("alpha", P.A), ("beta", P.B))]
    states = [[(0, row[0].get(m, m)) for row, m in zip(rows, seps)]
              for _, rows in sides]
    budget = P.degree_sum()
    xmap: dict = {}
    steps = []
    while True:
        stuck = next(((case, j, v)
                      for (case, rows), state in zip(sides, states)
                      for j, (row, (p, v)) in enumerate(zip(rows, state))
                      if p + 1 < len(row)), None)
        if stuck is None:
            break
        if len(steps) == budget:
            raise OracleExhausted(
                f"{len(steps) + 1} steps exceed the step budget of {budget}")
        case, j, q = stuck
        forbidden |= reach.get(q, {q})
        q_img = oracle.choose_image(xmap, q, forbidden)
        if q_img is None or q_img in forbidden:
            raise OracleExhausted("oracle returned no admissible image")
        xmap[q] = q_img
        forbidden |= reach.get(q_img, {q_img})
        for (_, rows), state in zip(sides, states):
            for i, (row, (p, v)) in enumerate(zip(rows, state)):
                if v == q:
                    state[i] = _advance(row, p, v, xmap)
        steps.append(WitnessStep(case, j, q, q_img, *(
            tuple(p for p, _ in state) for state in states)))

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
