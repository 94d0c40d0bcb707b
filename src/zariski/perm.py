"""Finitely supported permutations of the naturals.

Composition is left to right throughout the package: ``(x)(p * q) = ((x)p)q``.
Only moved points are stored, so two permutations are equal exactly when
their stored maps are equal, and the identity is the empty map.  The
moved-point dict is also the format that ``ragged.membership`` walks point
by point, reading images with ``dict.get``; ``compose_maps`` and
``invert_map`` are its arithmetic.  A finite injective partial map is a
plain dict too, which ``extend`` completes to a permutation.
"""

from __future__ import annotations

import reprlib


def _json_list(item, what: str, length=None) -> list:
    if not isinstance(item, list) or length not in (None, len(item)):
        shape = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{what} must be {shape}, got {reprlib.repr(item)}")
    return item


def compose_maps(p: dict, q: dict) -> dict:
    """Compose two moved-point dicts left to right, x -> q(p(x)), pruning
    fixed points."""
    r = {}
    for x, y in p.items():
        z = q.get(y, y)
        if z != x:
            r[x] = z
    for x, y in q.items():
        if x not in p:
            r[x] = y
    return r


def invert_map(p: dict) -> dict:
    return {y: x for x, y in p.items()}


class FinPermutation:
    """A permutation of N moving only finitely many points.

    Immutable.  The constructor accepts any mapping or iterable of pairs,
    prunes fixed points, and validates that the rest is a bijection of its
    own domain.
    """

    __slots__ = ("_map",)

    def __init__(self, mapping=()):
        m = dict(mapping)
        for x in [x for x, y in m.items() if x == y]:
            del m[x]
        if any(x < 0 or y < 0 for x, y in m.items()):
            raise ValueError("points must be non-negative integers")
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        if set(m.values()) != set(m):
            raise ValueError("moved points must map onto themselves as a set")
        self._map = m

    @classmethod
    def _trusted(cls, m: dict) -> "FinPermutation":
        # internal: m already satisfies the invariants
        p = object.__new__(cls)
        p._map = m
        return p

    def apply(self, x: int) -> int:
        """The image (x)p; fixed points map to themselves."""
        return self._map.get(x, x)

    def __mul__(self, other: "FinPermutation") -> "FinPermutation":
        if not isinstance(other, FinPermutation):
            return NotImplemented
        return FinPermutation._trusted(compose_maps(self._map, other._map))

    def inv(self) -> "FinPermutation":
        return FinPermutation._trusted(invert_map(self._map))

    def support(self) -> frozenset:
        return frozenset(self._map)

    def to_json(self) -> list:
        """Canonical encoding: [point, image] pairs sorted by point."""
        return [[x, y] for x, y in sorted(self._map.items())]

    @classmethod
    def from_json(cls, data) -> "FinPermutation":
        """Decode the ``to_json`` format.  Raises ValueError on any other
        shape, and on a repeated point or a map that is not a bijection."""
        try:
            pairs = [(x, y) for x, y in _json_list(data, "a permutation")]
        except (TypeError, ValueError):
            raise ValueError("a permutation must be a list of [point, image] "
                             f"pairs, got {reprlib.repr(data)}") from None
        if any(type(v) is not int for pair in pairs for v in pair):
            raise ValueError("points must be integers")
        m = dict(pairs)
        if len(m) != len(pairs):
            raise ValueError("a point is listed twice")
        return cls(m)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinPermutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._map:
            return "FinPermutation()"
        body = ", ".join(f"{x}: {y}" for x, y in sorted(self._map.items()))
        return f"FinPermutation({{{body}}})"


IDENTITY = FinPermutation()


def transposition(x: int, y: int) -> FinPermutation:
    """The permutation swapping x and y and fixing everything else."""
    if x == y:
        raise ValueError("transposition needs two distinct points")
    if x < 0 or y < 0:
        raise ValueError("points must be non-negative integers")
    return FinPermutation._trusted({x: y, y: x})


def extend(b: dict) -> FinPermutation:
    """Canonical extension of a finite injective partial map, given as a
    dict, to a finitely supported permutation.

    Every maximal chain x0 -> x1 -> ... -> xr of the partial map (x0 not in
    the image, xr not in the domain) is closed into a cycle by adding
    xr -> x0.  This is the minimal-support completion; restricted to the
    domain of ``b`` the result equals ``b``.  A map that is not injective,
    or has a negative point, raises ``ValueError``.
    """
    img = set(b.values())
    if len(img) != len(b):
        raise ValueError("partial map is not injective")
    out = dict(b)
    for x0 in b:
        if x0 in img:
            continue
        end = x0
        while end in b:
            end = b[end]
        out[end] = x0
    return FinPermutation(out)
