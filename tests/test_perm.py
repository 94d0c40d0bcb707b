"""Finitely supported permutations: examples and algebraic laws."""

import pytest
from hypothesis import given, strategies as st

from zariski.perm import FinPermutation, IDENTITY, extend, transposition


def perm(mapping):
    return FinPermutation(mapping)


def brute_compose(p, q, window=20):
    """Oracle: pointwise function composition on an explicit window."""
    return FinPermutation({x: q.apply(p.apply(x)) for x in range(window)
                           if q.apply(p.apply(x)) != x})


def brute_invert(p, window=20):
    """Oracle: pointwise inversion on an explicit window."""
    out = {}
    for x in range(window):
        y = p.apply(x)
        if y != x:
            out[y] = x
    return FinPermutation(out)


perms = st.permutations(list(range(8))).map(
    lambda img: FinPermutation({i: y for i, y in enumerate(img) if i != y}))


@st.composite
def partial_bijections(draw):
    dom = draw(st.lists(st.integers(0, 12), unique=True, max_size=6))
    img = draw(st.lists(st.integers(0, 12), unique=True,
                        min_size=len(dom), max_size=len(dom)))
    return dict(zip(dom, img))


def test_apply_examples():
    assert IDENTITY.apply(5) == 5
    assert perm({0: 1, 1: 0}).apply(0) == 1
    assert perm({0: 1, 1: 2, 2: 0}).apply(2) == 0


def test_compose_examples():
    sigma = perm({0: 1, 1: 2, 2: 0})
    assert IDENTITY * sigma == sigma
    # derived: pointwise composition oracle
    p, q = perm({0: 1, 1: 0}), perm({1: 2, 2: 1})
    assert p * q == brute_compose(p, q)
    assert p * q == perm({0: 2, 1: 0, 2: 1})
    assert sigma * sigma.inv() == IDENTITY


def test_invert_examples():
    assert IDENTITY.inv() == IDENTITY
    t = perm({0: 1, 1: 0})
    assert t.inv() == t
    c = perm({0: 1, 1: 2, 2: 0})
    assert c.inv() == brute_invert(c)
    assert c.inv() == perm({0: 2, 1: 0, 2: 1})


def test_extend_examples():
    assert extend({}) == IDENTITY
    assert extend({0: 1}) == perm({0: 1, 1: 0})
    assert extend({0: 3, 1: 2}) == perm({0: 3, 3: 0, 1: 2, 2: 1})
    assert extend({0: 1, 1: 2}) == perm({0: 1, 1: 2, 2: 0})
    assert extend({4: 4, 0: 1}) == perm({0: 1, 1: 0})  # fixed pairs allowed


def test_support_examples():
    assert IDENTITY.support() == frozenset()
    assert perm({0: 1, 1: 0}).support() == {0, 1}
    assert perm({4: 7, 7: 4}).support() == {4, 7}


def test_fixed_points_pruned():
    assert perm({3: 3}) == IDENTITY
    assert perm({3: 3, 0: 1, 1: 0}) == transposition(0, 1)


def test_validation():
    with pytest.raises(ValueError):
        FinPermutation({0: 1, 2: 1})  # not injective
    with pytest.raises(ValueError):
        FinPermutation({0: 1})  # 1 not moved back
    with pytest.raises(ValueError):
        FinPermutation({-1: 0, 0: -1})
    with pytest.raises(ValueError):
        transposition(2, 2)
    with pytest.raises(ValueError, match="non-negative"):
        transposition(-1, 2)
    with pytest.raises(ValueError):
        extend({0: 5, 1: 5})  # not injective
    with pytest.raises(ValueError):
        extend({0: 1, 1: 0, 2: 0})  # not injective, and closes a cycle
    with pytest.raises(ValueError):
        extend({0: -1})


@given(perms, perms, perms)
def test_associativity(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(perms, perms, st.integers(0, 10))
def test_left_to_right_convention(p, q, x):
    assert (p * q).apply(x) == q.apply(p.apply(x))


@given(perms, perms)
def test_support_of_product(p, q):
    assert (p * q).support() <= p.support() | q.support()


@given(partial_bijections())
def test_extend_restricts_to_input(b):
    before = dict(b)
    g = extend(b)
    assert b == before  # the partial map is read, not mutated
    for x, y in b.items():
        assert g.apply(x) == y


@given(perms)
def test_json_roundtrip(p):
    assert FinPermutation.from_json(p.to_json()) == p
    data = p.to_json()
    assert data == sorted(data)  # sorted by point

