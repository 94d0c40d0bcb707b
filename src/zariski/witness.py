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
those of the image after.  The trace reports the number of points in the
set when the loop ends as ``forbidden_size``.

Only the fresh images and the completion go through the oracle
(``choose_image``, ``complete``); the shipped oracle models the finitary
symmetric group on N.  Everything else reads each coefficient's
moved-point dict ``_map``, and ``pick_separators`` and the translate
table rely on that dict being finite.
"""

from __future__ import annotations

from dataclasses import dataclass

from zariski.errors import OracleExhausted
from zariski.perm import FinPermutation, extend
from zariski.ragged import MatrixPair, NormalForm, stack


def pick_separators(P: MatrixPair) -> tuple:
    """For each row, the smallest point where the leading coefficients of
    the A and B sides disagree.  ``P`` must be a proper normal form, as
    ``construct_witness`` checks, so that every row has such a point."""
    seps = []
    for arow, brow in zip(P.A.rows, P.B.rows):
        a0, b0 = arow[0]._map, brow[0]._map
        seps.append(min(x for x in a0.keys() | b0.keys()
                        if a0.get(x, x) != b0.get(x, x)))
    return tuple(seps)


@dataclass(frozen=True)
class WitnessTrace:
    """One construction: separators, forbidden-set size, steps, witness.

    Each step is its certificate entry: ``case`` ("alpha" | "beta"), ``row``,
    the stuck ``point`` q and its fresh ``image`` q'.  Each row's longest
    defined prefix after a step is not recorded: replaying the steps over
    the stacked pair derives it.  ``to_json`` returns these entries
    themselves, not copies, so callers must not mutate them.
    """

    separators: tuple
    forbidden_size: int  # points in the forbidden set when the loop ends
    steps: tuple
    final: FinPermutation

    def to_json(self) -> dict:
        return {
            "separators": list(self.separators),
            "forbidden_size": self.forbidden_size,
            "steps": list(self.steps),
            "witness": self.final.to_json(),
        }


class SymOmegaOracle:
    """No-algebraicity oracle for the finitary symmetric group on N.

    Both methods get the partial map ``b`` built so far as a dict, point ->
    image; ``choose_image`` also gets the ``forbidden`` set of translates,
    which already holds every image of ``b`` (each point is its own
    translate).  The construction keeps growing both after the call, so an
    oracle must not change either of them or keep a reference to it.
    Every finite injective partial map extends, and a fresh image for q is
    simply the smallest natural outside ``forbidden``.

    The scan for it starts just above the last image of ``b``: the
    construction chose that image the same way, as the smallest natural
    outside the forbidden set of its step, and the set only grows, so every
    natural up to it is still forbidden.
    """

    def choose_image(self, b: dict, q: int, forbidden) -> int:
        a = next(reversed(b.values())) + 1 if b else 0
        while a in forbidden:
            a += 1
        return a

    def complete(self, b: dict) -> FinPermutation:
        return extend(b)


def symw_oracle() -> SymOmegaOracle:
    return SymOmegaOracle()


def construct_witness(P: MatrixPair, oracle) -> tuple:
    """Build an element of N_{A,B} together with its construction trace.

    ``P`` must be a proper normal form.  The rows are walked once each,
    the k A rows (case alpha) and then the k B rows (case beta), each from
    its separator: c0 x c1 ... x cd.  Where the partial map x is defined at
    the current point v, the walk applies x and the next coefficient;
    where it is not, v is stuck and first receives a fresh image outside
    the forbidden set, which is one step.  A point gets an image only as
    the stuck point of the row being walked, and an earlier row reads x
    only where it was already defined, so a finished row stays finished.
    Each pass of the walk moves past one coefficient and takes at most one
    step, so a row of degree d takes at most d steps and the loop ends
    after at most sum(d_A + d_B) steps.
    """
    NormalForm.proper(P)
    seps = pick_separators(P)
    k = len(seps)
    rows = [[c._map for c in row] for row in P.A.rows + P.B.rows]
    # Every part of the forbidden set fixes each point outside the support
    # S of the entries, and (t)(fg) = ((t)f)g, so the translates of a point
    # are the points at most two steps from it under C u C^-1, C the
    # entries; a point outside S is its own only translate.  ``one_step``
    # maps each point s of S to s and its neighbours: each moved-point pair
    # (s, t) of an entry makes t a neighbour of s under the entry and s one
    # of t under its inverse, and a repeated entry adds nothing new.
    # ``near`` holds the points at most one step from the working set and
    # the forbidden set those one step from ``near``, so each point's
    # neighbours are added only once.
    one_step: dict = {}
    for row in rows:
        for m in row:
            for s, t in m.items():
                if s in one_step:
                    one_step[s].add(t)
                else:
                    one_step[s] = {s, t}
                if t in one_step:
                    one_step[t].add(s)
                else:
                    one_step[t] = {t, s}
    near: set = set()
    forbidden: set = set()

    def avoid(x):
        for t in one_step.get(x, (x,)):
            if t not in near:
                near.add(t)
                forbidden.update(one_step.get(t, (t,)))

    for s in seps:
        avoid(s)
    xmap: dict = {}
    steps = []
    for i, row in enumerate(rows):
        m = seps[i % k]
        v = row[0].get(m, m)
        for c in row[1:]:
            if v not in xmap:
                avoid(v)
                w = oracle.choose_image(xmap, v, forbidden)
                if w is None or w in forbidden:
                    raise OracleExhausted(
                        "oracle returned no admissible image")
                xmap[v] = w
                avoid(w)
                steps.append({"case": "alpha" if i < k else "beta",
                              "row": i % k, "point": v, "image": w})
            w = xmap[v]
            v = c.get(w, w)

    g = oracle.complete(xmap)
    return g, WitnessTrace(separators=seps, forbidden_size=len(forbidden),
                           steps=tuple(steps), final=g)


def intersect_witness(P1: MatrixPair, P2: MatrixPair, oracle) -> tuple:
    """A common point of N_{A1,B1} and N_{A2,B2}: stack the rows and run
    the witness construction on the combined pair."""
    return construct_witness(stack(P1, P2), oracle)
