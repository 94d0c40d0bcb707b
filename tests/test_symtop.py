"""Subbasic sets, the commutation stabilizer test, and the
maximal-subsemigroup decomposition."""

import itertools
import random

import pytest

from zariski.errors import FixedPoint, InvalidPair
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.randgen import rand_moving_perm
from zariski.symtop import (SubbasicSet, in_U, maximal_decompose,
                            setwise_stabilizes, stab_by_commutation)

T01 = transposition(0, 1)


def all_perms_on(points):
    for img in itertools.permutations(points):
        yield FinPermutation({x: y for x, y in zip(points, img) if x != y})


def test_in_U_examples():
    assert in_U(SubbasicSet(0, 0), IDENTITY)
    assert in_U(SubbasicSet(0, 1), T01)
    assert not in_U(SubbasicSet(0, 0), T01)


def test_stab_by_commutation_examples():
    assert stab_by_commutation(T01, 0, 1)
    assert not stab_by_commutation(transposition(1, 2), 0, 1)
    for x, y in ((0, 1), (2, 7), (3, 4)):
        assert stab_by_commutation(IDENTITY, x, y)
    with pytest.raises(InvalidPair):
        stab_by_commutation(T01, 3, 3)


def test_commutation_equals_stabilizer_exhaustively():
    # every permutation of {0..4} against every pair x < y < 5
    checked = 0
    for f in all_perms_on(range(5)):
        for x in range(5):
            for y in range(x + 1, 5):
                assert stab_by_commutation(f, x, y) == \
                    setwise_stabilizes(f, x, y)
                checked += 1
    assert checked == 120 * 10


def test_maximal_decompose_example():
    f, g = transposition(0, 1), transposition(0, 2)
    phi, h = maximal_decompose(f, g, 0)
    assert h == transposition(1, 2)
    assert phi.apply(0) == 0
    assert phi * f * h.inv() == g


def test_maximal_decompose_degenerate():
    f = transposition(0, 5)
    phi, h = maximal_decompose(f, f, 0)
    assert h == IDENTITY and phi == IDENTITY


def test_maximal_decompose_random():
    rng = random.Random(77)
    for _ in range(200):
        x = rng.randint(0, 5)
        f = rand_moving_perm(rng, 8, x)
        g = rand_moving_perm(rng, 8, x)
        phi, h = maximal_decompose(f, g, x)
        assert in_U(SubbasicSet(x, x), phi)
        assert in_U(SubbasicSet(x, x), h)
        assert phi * f * h.inv() == g


def test_maximal_decompose_fixed_point_errors():
    f = transposition(0, 1)
    with pytest.raises(FixedPoint):
        maximal_decompose(IDENTITY, f, 0)
    with pytest.raises(FixedPoint):
        maximal_decompose(f, transposition(1, 2), 0)
