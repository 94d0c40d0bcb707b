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


def _advance(row, p, v, xmap):
    """Push one row's evaluation state forward while it is defined.

    The state is the row's entries of ``ps`` and ``vs`` in
    ``construct_witness``: c0 x c1 ... x cp takes the separator to v.  The
    next coefficient applies once v lies in the domain of the partial map
    x.  Returns the new (p, v), where the row is finished or stuck.
    """
    while p + 1 < len(row) and v in xmap:
        p += 1
        v = xmap[v]
        v = row[p].get(v, v)
    return p, v


def construct_witness(P: MatrixPair, oracle) -> tuple:
    """Build an element of N_{A,B} together with its construction trace.

    ``P`` must be a proper normal form.  Each of the 2k rows, the k A rows
    (case alpha) and then the k B rows (case beta), keeps its evaluation
    state at its separator from one step to the next.  The rows are
    finished in that order: while the current row's evaluation is not yet
    defined, its stuck point q receives a fresh image q' outside the
    forbidden set, and only the rows stuck at q move on.  A finished row
    stays finished, so the row each step works on is the first unfinished
    one.  Each step pushes at least that row strictly forward, so the loop
    ends after at most sum(d_A + d_B) steps.
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
    # c0 x c1 ... x cp of row i, with p = ps[i], takes the row's separator
    # seps[i % k] to vs[i]
    ps = [0] * (2 * k)
    vs = [row[0].get(m, m) for row, m in zip(rows, seps + seps)]
    budget = P.degree_sum()
    xmap: dict = {}
    steps = []
    for i, row in enumerate(rows):
        while ps[i] + 1 < len(row):
            if len(steps) == budget:
                raise OracleExhausted(
                    f"{len(steps) + 1} steps exceed the step budget of "
                    f"{budget}")
            q = vs[i]
            avoid(q)
            q_img = oracle.choose_image(xmap, q, forbidden)
            if q_img is None or q_img in forbidden:
                raise OracleExhausted("oracle returned no admissible image")
            xmap[q] = q_img
            avoid(q_img)
            # only the rows stuck at q move on
            for j, v in enumerate(vs):
                if v == q:
                    ps[j], vs[j] = _advance(rows[j], ps[j], q, xmap)
            steps.append({"case": "alpha" if i < k else "beta",
                          "row": i % k, "point": q, "image": q_img})

    g = oracle.complete(xmap)
    return g, WitnessTrace(separators=seps, forbidden_size=len(forbidden),
                           steps=tuple(steps), final=g)


def intersect_witness(P1: MatrixPair, P2: MatrixPair, oracle) -> tuple:
    """A common point of N_{A1,B1} and N_{A2,B2}: stack the rows and run
    the witness construction on the combined pair."""
    return construct_witness(stack(P1, P2), oracle)
