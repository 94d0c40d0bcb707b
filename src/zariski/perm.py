"""Finitely supported permutations of the naturals and finite partial bijections.

Composition is left to right throughout the package: ``(x)(p * q) = ((x)p)q``.
Only moved points are stored, so two permutations are equal exactly when
their stored maps are equal, and the identity is the empty map.  The
moved-point dict is also the format that ``ragged.membership`` walks point
by point, reading images with ``dict.get``; ``compose_maps`` and
``invert_map`` are its arithmetic.
"""

from __future__ import annotations


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

    @classmethod
    def from_cycles(cls, *cycles) -> "FinPermutation":
        """Build from disjoint cycles, e.g. ``from_cycles((0, 1), (2, 3, 4))``."""
        m = {}
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                if a in m:
                    raise ValueError("cycles are not disjoint")
                m[a] = b
        return cls(m)

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

    def is_identity(self) -> bool:
        return not self._map

    def moved(self) -> dict:
        """Copy of the moved-point map."""
        return dict(self._map)

    def to_pairs(self) -> tuple:
        """Canonical encoding: (point, image) pairs sorted by point."""
        return tuple(sorted(self._map.items()))

    def to_json(self) -> list:
        return [[x, y] for x, y in self.to_pairs()]

    @classmethod
    def from_json(cls, data) -> "FinPermutation":
        return cls((int(x), int(y)) for x, y in data)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinPermutation) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        if not self._map:
            return "FinPermutation()"
        body = ", ".join(f"{x}: {y}" for x, y in self.to_pairs())
        return f"FinPermutation({{{body}}})"


IDENTITY = FinPermutation()


def transposition(x: int, y: int) -> FinPermutation:
    """The permutation swapping x and y and fixing everything else."""
    if x == y:
        raise ValueError("transposition needs two distinct points")
    return FinPermutation._trusted({x: y, y: x})


def compose(p: FinPermutation, q: FinPermutation) -> FinPermutation:
    """Left-to-right composition, same as ``p * q``."""
    return p * q


class PartialBijection:
    """A finite injective partial map on the naturals.

    Unlike :class:`FinPermutation`, the domain and image need not coincide
    and a point may map to itself.
    """

    __slots__ = ("_map",)

    def __init__(self, pairs=()):
        m = dict(pairs)
        if any(x < 0 or y < 0 for x, y in m.items()):
            raise ValueError("points must be non-negative integers")
        if len(set(m.values())) != len(m):
            raise ValueError("pairs are not injective")
        self._map = m

    def domain(self) -> frozenset:
        return frozenset(self._map)

    def image(self) -> frozenset:
        return frozenset(self._map.values())

    def get(self, x: int):
        """Image of x, or None when x is outside the domain."""
        return self._map.get(x)

    def with_pair(self, x: int, y: int) -> "PartialBijection":
        """Extended copy with the pair (x, y); validates injectivity."""
        if x in self._map:
            raise ValueError(f"{x} already in domain")
        if y in self._map.values():
            raise ValueError(f"{y} already in image")
        m = dict(self._map)
        m[x] = y
        return PartialBijection._from_dict(m)

    @classmethod
    def _from_dict(cls, m: dict) -> "PartialBijection":
        b = object.__new__(cls)
        b._map = m
        return b

    def items(self) -> tuple:
        return tuple(sorted(self._map.items()))

    def to_json(self) -> list:
        return [[x, y] for x, y in self.items()]

    @classmethod
    def from_json(cls, data) -> "PartialBijection":
        return cls((int(x), int(y)) for x, y in data)

    def __len__(self) -> int:
        return len(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, PartialBijection) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        body = ", ".join(f"{x}: {y}" for x, y in self.items())
        return f"PartialBijection({{{body}}})"


def extend(b: PartialBijection) -> FinPermutation:
    """Canonical extension of a finite injective partial map to a finitely
    supported permutation.

    Every maximal chain x0 -> x1 -> ... -> xr of the partial map (x0 not in
    the image, xr not in the domain) is closed into a cycle by adding
    xr -> x0.  This is the minimal-support completion; restricted to the
    domain of ``b`` the result equals ``b``.
    """
    m = dict(b.items())
    img = set(m.values())
    out = dict(m)
    for x0 in m:
        if x0 in img:
            continue
        end = x0
        while end in m:
            end = m[end]
        out[end] = x0
    return FinPermutation(out)
