"""Constructive ingredients of the pointwise-convergence analysis on
symmetric groups: subbasic sets, the commutation test for two-point
setwise stabilizers, and the maximal-subsemigroup decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from zariski.perm import FinPermutation, IDENTITY, transposition


@dataclass(frozen=True)
class SubbasicSet:
    """U_{x,y} = all permutations sending x to y."""

    x: int
    y: int


def in_U(s: SubbasicSet, f: FinPermutation) -> bool:
    return f.apply(s.x) == s.y


def setwise_stabilizes(f: FinPermutation, x: int, y: int) -> bool:
    """Does f map the pair {x, y} onto itself?  Used as the independent
    check against the commutation characterization."""
    return {f.apply(x), f.apply(y)} == {x, y}


def stab_by_commutation(f: FinPermutation, x: int, y: int) -> bool:
    """Membership in the setwise stabilizer of {x, y}, decided by whether
    f commutes with the transposition of x and y."""
    phi = transposition(x, y)
    return phi * f == f * phi


def maximal_decompose(f: FinPermutation, g: FinPermutation, x: int) -> tuple:
    """Factor g = phi * f * h^{-1} with phi and h fixing x.

    Requires f and g to move x.  h is the canonical element of U_{x,x}
    carrying (x)g to (x)f: their transposition when they differ, else the
    identity; phi is then forced to g * h * f^{-1} and fixes x.  This is
    the computation behind U_{x,x} being a maximal subsemigroup.
    """
    if f.apply(x) == x:
        raise ValueError(f"f fixes {x}")
    if g.apply(x) == x:
        raise ValueError(f"g fixes {x}")
    xf, xg = f.apply(x), g.apply(x)
    h = IDENTITY if xf == xg else transposition(xg, xf)
    phi = g * h * f.inv()
    return phi, h
