"""Exact arithmetic in the countable abelian group that separates all
bounded Zariski topologies, and the solvers behind the separation
experiment.

The group is a direct sum over k of quotients of the free abelian group on
generators x0, x1, ...: in the k-th component every even-indexed generator
is killed to order k (no relation for k = 0), odd-indexed generators stay
free.  An element is stored as one normal-form map (k, n) -> e, the
exponent of generator n in component k: even-index exponents are reduced
into [0, k) for k >= 1, and zero exponents are dropped.

The test sets T_m consist of the elements supported on component m alone
and equal there to a single generator coset.  On T_m, an inequation
a*x^p != 1 with p < m misses only finitely many points, while x^m = 1
carves out exactly the even-indexed generators -- an infinite, co-infinite
set.  That dichotomy is what ``solve_on_Tm`` and ``finiteness_bound``
make checkable.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

from zariski.perm import _json_list


def _reduce(k: int, n: int, e: int) -> int:
    # even-index exponents live in Z_k for k >= 1; everything else in Z
    if k >= 1 and n % 2 == 0:
        return e % k
    return e


class GElement:
    """Element of the direct sum, as its normal-form map (k, n) -> e.

    Build one with ``g_element``; the constructor takes the map as given.
    """

    __slots__ = ("_exp",)

    def __init__(self, exp: dict):
        self._exp = exp

    def is_identity(self) -> bool:
        return not self._exp

    def __eq__(self, other) -> bool:
        return isinstance(other, GElement) and self._exp == other._exp

    def __hash__(self) -> int:
        return hash(frozenset(self._exp.items()))

    def __repr__(self) -> str:
        return f"GElement({dict(sorted(self._exp.items()))!r})"


def g_identity() -> GElement:
    return GElement({})


def g_element(spec) -> GElement:
    """Build from {k: {n: e}} plain dicts, normalizing everything."""
    exp = {}
    for k, exponents in dict(spec).items():
        if k < 0:
            raise ValueError("component index must be non-negative")
        for n, e in dict(exponents).items():
            if n < 0:
                raise ValueError("generator indices must be non-negative")
            e = _reduce(k, n, e)
            if e != 0:
                exp[k, n] = e
    return GElement(exp)


def mul_pow(a: GElement, x: GElement, p: int) -> GElement:
    """The value a * x^p in normal form, for any integer p."""
    exp = dict(a._exp)
    for kn, e in x._exp.items():
        s = _reduce(kn[0], kn[1], exp.get(kn, 0) + p * e)
        if s == 0:
            exp.pop(kn, None)
        else:
            exp[kn] = s
    return GElement(exp)


def tm_point(m: int, n: int) -> GElement:
    """The element of T_m equal to the n-th generator coset at component m
    and trivial elsewhere."""
    if m < 1:
        raise ValueError("T_m is defined for m >= 1")
    if n < 0:
        raise ValueError("generator index must be non-negative")
    return g_element({m: {n: 1}})


@dataclass(frozen=True)
class AllEven:
    """Tag: the solution set is exactly the even generator indices
    (the torsion case p = 0 mod m with trivial coefficient)."""


@dataclass(frozen=True)
class FiniteCandidates:
    """Finite superset of the solution indices: the support of the
    coefficient's component-m exponent vector."""

    indices: frozenset


def finiteness_bound(a: GElement, p: int, m: int):
    """Classify a * x^p = 1 on T_m: AllEven when a is the identity and
    m divides p, else the finite candidate set of generator indices that
    can possibly solve it."""
    if m < 1 or p < 1:
        raise ValueError("need m >= 1 and p >= 1")
    if a.is_identity() and p % m == 0:
        return AllEven()
    return FiniteCandidates(frozenset(n for k, n in a._exp if k == m))


def solve_on_Tm(a: GElement, p: int, m: int, bound: int) -> frozenset:
    """All generator indices n <= bound with a * x^p = 1 at x = T_m point n.

    Closed form on the finite case of ``finiteness_bound``: a candidate j
    solves iff a is a single exponent e at (m, j) and e + p is zero (odd
    j: in Z; even j: mod m).
    """
    bnd = finiteness_bound(a, p, m)
    if isinstance(bnd, AllEven):
        return frozenset(range(0, bound + 1, 2))
    if len(a._exp) != 1 or not bnd.indices:
        return frozenset()
    (j,) = bnd.indices
    e = a._exp[m, j]
    residue = e + p if j % 2 == 1 else (e + p) % m
    return frozenset({j}) if j <= bound and residue == 0 else frozenset()


def brute_solve_on_Tm(a: GElement, p: int, m: int, bound: int) -> frozenset:
    """Independent enumeration oracle: evaluate a * x^p at every T_m point
    with index up to the bound and test for the identity."""
    if m < 1 or p < 1:
        raise ValueError("need m >= 1 and p >= 1")
    return frozenset([n for n, x in enumerate(_tm_points(m, bound))
                      if mul_pow(a, x, p).is_identity()])


@lru_cache(maxsize=1)
def _tm_points(m: int, bound: int) -> tuple:
    """The T_m points with index 0..bound, built once per (m, bound)
    rather than once per call of the enumeration oracle.  Callers walk m
    in order, so only the latest table is kept."""
    return tuple(tm_point(m, n) for n in range(bound + 1))


def commutative_reduce(a: GElement, n: int) -> tuple:
    """Rewrite the inequation a * x^n != 1 with a non-negative exponent:
    for n < 0 the solution set equals that of a^{-1} * x^{|n|} != 1."""
    if n >= 0:
        return a, n
    return mul_pow(g_identity(), a, -1), -n


def g_to_json(u: GElement) -> dict:
    by_k = groupby(sorted(u._exp.items()), key=lambda item: item[0][0])
    return {"components": [[k, [[n, e] for (_, n), e in items]]
                           for k, items in by_k]}


def _json_int(item, what: str) -> int:
    if not isinstance(item, int) or isinstance(item, bool):
        raise ValueError(
            f"{what} must be an integer, got {reprlib.repr(item)}")
    return item


def g_from_json(data) -> GElement:
    """Decode the ``g_to_json`` format.  Raises ValueError on any other
    shape, and on a repeated component or generator index, which would
    otherwise silently drop an exponent."""
    if not isinstance(data, dict) or "components" not in data:
        raise ValueError('expected an object with a "components" key')
    spec = {}
    for comp in _json_list(data["components"], '"components"'):
        k, pairs = _json_list(comp, "a component", 2)
        k = _json_int(k, "a component index")
        if k in spec:
            raise ValueError(f"component index {k} repeats")
        exponents = spec[k] = {}
        for pair in _json_list(pairs, f"the pairs of component {k}"):
            n, e = _json_list(pair, f"a pair of component {k}", 2)
            n = _json_int(n, "a generator index")
            if n in exponents:
                raise ValueError(
                    f"generator index {n} repeats in component {k}")
            exponents[n] = _json_int(e, "an exponent")
    return g_element(spec)
