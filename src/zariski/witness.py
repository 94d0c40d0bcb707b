"""Witness construction certifying hyperconnectedness of the semigroup
Zariski topology on permutation groups with no algebraicity.

Given a normalized matrix pair (A, B) over such a group, the construction
extends a finite partial bijection step by step until every row evaluation
at its separator point is fully defined, then completes it to a group
element.  The completed element lies in N_{A,B}; stacking two pairs first
therefore produces a point in the intersection of two arbitrary nonempty
basic open sets.

The group enters only through a small oracle interface, so the loop
itself is group-agnostic; the shipped oracle models the finitary symmetric
group on N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from zariski.errors import NotNormalized, OracleExhausted
from zariski.perm import FinPermutation, PartialBijection, extend, invert_map
from zariski.ragged import MatrixPair, stack


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


def _seven_parts(entries) -> tuple:
    """{1} u C u C^-1 u CC u CC^-1 u C^-1C u C^-1C^-1 for the entry set C,
    as ``(support, rows)``: the sorted support S of C as a list, and one
    distinct image row per element, with every point relabelled by its
    index in S.  Each part fixes every point outside S, so the rows lose
    nothing, and the identity is the row 0..|S|-1."""
    support = sorted(set().union(*(e._map for e in entries)))
    n = len(support)
    if n == 0:  # C holds at most the identity
        return support, np.empty((1, 0), dtype=np.uint8)
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
    return support, np.unique(keys).view(rows.dtype).reshape(-1, n)


def _permutations(support, rows) -> tuple:
    """The image rows of ``_seven_parts`` as FinPermutations on the
    original points, sorted by canonical pair encoding."""
    perms = [FinPermutation._trusted({support[x]: support[y]
                                      for x, y in enumerate(row) if x != y})
             for row in rows.tolist()]
    return tuple(sorted(perms, key=FinPermutation.to_pairs))


def forbidden_set(P: MatrixPair) -> frozenset:
    """{1} u C u C^-1 u CC u CC^-1 u C^-1C u C^-1C^-1, where C is the set
    of entries of A and B.  Image points are kept away from the translates
    of this set so that no partial row evaluation can collide."""
    return frozenset(_permutations(*_seven_parts(_entries(P))))


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

    # Both are derived on first access, since the construction itself only
    # needs the translates of the forbidden set.
    @cached_property
    def forbidden_size(self) -> int:
        """The number of elements of the seven-part product set."""
        return len(_seven_parts(self.entries)[1])

    @cached_property
    def forbidden(self) -> tuple:
        """The seven-part product set of the entries, sorted by canonical
        pair encoding."""
        return _permutations(*_seven_parts(self.entries))

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

    Every finite injective partial map extends, and a fresh image for q is
    simply the smallest natural avoiding the forbidden set and the image of
    the map built so far.
    """

    def choose_image(self, b: PartialBijection, q: int, forbidden) -> int:
        banned = set(forbidden)
        banned.update(b.image())
        a = 0
        while a in banned:
            a += 1
        return a

    def complete(self, b: PartialBijection) -> FinPermutation:
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


def _check_proper(P: MatrixPair):
    for i, (arow, brow) in enumerate(zip(P.A.rows, P.B.rows)):
        if len(arow) == 1 and len(brow) == 1:
            raise NotNormalized(f"row {i} has degree 0 on both sides")
        if arow[0] == brow[0]:
            raise NotNormalized(f"row {i} has equal leading entries")


def construct_witness(P: MatrixPair, oracle) -> tuple:
    """Build an element of N_{A,B} together with its construction trace.

    ``P`` must be a proper normal form.  Loop: take the smallest row whose
    A-side evaluation at its separator is not yet defined (case alpha),
    else the smallest with the B side undefined (case beta); the stuck
    point q receives a fresh image q' outside every forbidden translate of
    the working set.  Each step pushes one row's defined prefix strictly
    forward, so the loop ends after at most sum(d_A + d_B) steps.
    """
    _check_proper(P)
    seps = pick_separators(P)
    entries = _entries(P)
    cmaps = [c._map for c in entries]
    moves = cmaps + [invert_map(m) for m in cmaps]
    # Every part of the forbidden set fixes each point outside the support
    # S of the entries, and (t)(fg) = ((t)f)g, so the translates of s in S
    # are the points reachable from s in at most two steps under C u C^-1.
    support = set().union(*cmaps)
    one_step = {s: {m.get(s, s) for m in moves} for s in support}
    reach = {s: set().union({s}, nb, *(one_step[t] for t in nb))
             for s, nb in one_step.items()}

    def forbidden_translates(points: set) -> set:
        out = points - support
        for s in points & support:
            out |= reach[s]
        return out

    arows = [[c._map for c in row] for row in P.A.rows]
    brows = [[c._map for c in row] for row in P.B.rows]
    da = [len(r) - 1 for r in arows]
    db = [len(r) - 1 for r in brows]
    k = len(arows)

    xmap: dict = {}
    steps = []
    budget = sum(da) + sum(db)

    while True:
        selected = None
        for j in range(k):
            p, v = _partial_eval(arows[j], seps[j], xmap)
            if p < da[j]:
                selected = ("alpha", j, v)
                break
        if selected is None:
            for j in range(k):
                p, v = _partial_eval(brows[j], seps[j], xmap)
                if p < db[j]:
                    selected = ("beta", j, v)
                    break
        if selected is None:
            break
        case, j, q = selected
        working = set(xmap)
        working.update(xmap.values())
        working.add(q)
        working.update(seps)
        tp = forbidden_translates(working)
        q_img = oracle.choose_image(PartialBijection._from_dict(xmap), q, tp)
        if q_img is None or q_img in tp:
            raise OracleExhausted("oracle returned no admissible image")
        xmap[q] = q_img
        steps.append(WitnessStep(
            case, j, q, q_img,
            tuple(_partial_eval(arows[i], seps[i], xmap)[0] for i in range(k)),
            tuple(_partial_eval(brows[i], seps[i], xmap)[0] for i in range(k)),
        ))
        if len(steps) > budget:
            raise OracleExhausted(
                f"{len(steps)} steps exceed the step budget of {budget}")

    g = oracle.complete(PartialBijection._from_dict(dict(xmap)))
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
