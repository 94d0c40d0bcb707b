"""Word evaluation and the degree-3 reduction of group inequations."""

import itertools

import pytest
from hypothesis import given, strategies as st

from zariski.errors import IrreducibleSignature
from zariski.finite import TableGroup, builtin
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.words import (GroupWord, IneqPair, SemigroupWord,
                           eval_group, eval_semigroup, formal_inverse,
                           group_ineq_to_semigroup_pair, holds_ineq)

T01 = transposition(0, 1)
T12 = transposition(1, 2)


def test_eval_semigroup_examples():
    a = FinPermutation({0: 3, 3: 0})
    assert eval_semigroup(SemigroupWord((a,)), T01, SYM) == a
    t = T01
    assert eval_semigroup(SemigroupWord((IDENTITY,) * 3), t, SYM) == IDENTITY
    x = transposition(0, 2)
    w = SemigroupWord((T01, IDENTITY))
    assert eval_semigroup(w, x, SYM) == T01 * x


def test_eval_group_examples():
    a0, a1 = transposition(0, 4), transposition(2, 5)
    w = GroupWord((a0, IDENTITY, a1), (1, -1))
    for x in (IDENTITY, T01, FinPermutation({0: 1, 1: 2, 2: 0})):
        assert eval_group(w, x, SYM) == a0 * a1  # x cancels against x^-1
    c = FinPermutation({0: 1, 1: 2, 2: 0})
    w = GroupWord((IDENTITY, IDENTITY), (-1,))
    assert eval_group(w, c, SYM) == c.inv()
    a = T01
    w = GroupWord((a, a.inv()), (1,))
    assert eval_group(w, T12, SYM) == a * T12 * a.inv()
    assert eval_group(w, T12, SYM) == transposition(0, 2)


def test_holds_ineq_examples():
    w = SemigroupWord((T01, IDENTITY))
    assert not holds_ineq(IneqPair(w, w), T12, SYM)
    a, b = SemigroupWord((T01,)), SemigroupWord((T12,))
    assert holds_ineq(IneqPair(a, b), IDENTITY, SYM)
    comm = IneqPair(SemigroupWord((T01, IDENTITY)),
                    SemigroupWord((IDENTITY, T01)))
    assert not holds_ineq(comm, IDENTITY, SYM)


def s3_elements():
    table = builtin("S3")
    return TableGroup(table), range(table.order)


def equivalent_on(G, elems, w, pair):
    one = G.one()
    return all((eval_group(w, x, G) == one)
               == (eval_semigroup(pair.lhs, x, G)
                   == eval_semigroup(pair.rhs, x, G))
               for x in elems)


def test_reduction_all_positive():
    a, b = T01, T12
    w = GroupWord((a, b, IDENTITY), (1, 1))
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair.lhs == SemigroupWord((a, b, IDENTITY))
    assert pair.rhs == SemigroupWord((IDENTITY,))


def test_reduction_single_inverse():
    # w = a x^-1 b  ->  (b*a, x); checked exhaustively over S3
    G, elems = s3_elements()
    for a in elems:
        for b in elems:
            w = GroupWord((a, b), (-1,))
            pair = group_ineq_to_semigroup_pair(w, G)
            assert pair.lhs == SemigroupWord((G.mul(b, a),))
            assert pair.rhs == SemigroupWord((G.one(), G.one()))
            assert equivalent_on(G, elems, w, pair)


def test_reduction_mixed_degree_two():
    # w = a x b x^-1 c  ->  (c*a x b, x); checked exhaustively over S3
    G, elems = s3_elements()
    for a, b, c in itertools.product(elems, repeat=3):
        w = GroupWord((a, b, c), (1, -1))
        pair = group_ineq_to_semigroup_pair(w, G)
        assert pair.lhs == SemigroupWord((G.mul(c, a), b))
        assert pair.rhs == SemigroupWord((G.one(), G.one()))
        assert equivalent_on(G, elems, w, pair)


def test_reduction_majority_negative():
    G, elems = s3_elements()
    # two negatives out of three: pass to the formal inverse first
    for a, b in itertools.product(elems, repeat=2):
        w = GroupWord((a, b, G.one(), G.one()), (-1, 1, -1))
        pair = group_ineq_to_semigroup_pair(w, G)
        assert equivalent_on(G, elems, w, pair)
    # all negative, any degree
    w = GroupWord(tuple(range(4)) + (0,), (-1, -1, -1, -1))
    pair = group_ineq_to_semigroup_pair(w, G)
    assert equivalent_on(G, elems, w, pair)


def test_reduction_on_random_sym_words():
    # pointwise soundness on the infinite group as well
    import random
    from zariski.randgen import rand_perm
    rng = random.Random(6)
    one = SYM.one()
    for _ in range(300):
        degree = rng.randint(0, 3)
        coeffs = tuple(rand_perm(rng, 7) for _ in range(degree + 1))
        signs = tuple(rng.choice((1, -1)) for _ in range(degree))
        w = GroupWord(coeffs, signs)
        pair = group_ineq_to_semigroup_pair(w, SYM)
        for _ in range(10):
            x = rand_perm(rng, 7)
            assert (eval_group(w, x, SYM) == one) == (
                eval_semigroup(pair.lhs, x, SYM)
                == eval_semigroup(pair.rhs, x, SYM))


def test_reduction_errors_and_degrees():
    w = GroupWord((IDENTITY,) * 5, (1, 1, -1, 1))
    with pytest.raises(IrreducibleSignature):
        group_ineq_to_semigroup_pair(w, SYM)
    # all-positive degree >= 4 stays fine
    w = GroupWord((IDENTITY,) * 5, (1, 1, 1, 1))
    assert group_ineq_to_semigroup_pair(w, SYM).lhs.degree == 4


@given(st.integers(0, 5))
def test_degree_bookkeeping(seed):
    import random
    rng = random.Random(seed)
    from zariski.randgen import rand_perm
    degree = rng.randint(0, 3)
    coeffs = tuple(rand_perm(rng, 6) for _ in range(degree + 1))
    signs = tuple(rng.choice((1, -1)) for _ in range(degree))
    w = GroupWord(coeffs, signs)
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair.lhs.degree + pair.rhs.degree == w.degree


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_formal_inverse_property(img_a, img_x):
    a = FinPermutation({i: y for i, y in enumerate(img_a) if i != y})
    x = FinPermutation({i: y for i, y in enumerate(img_x) if i != y})
    w = GroupWord((a, IDENTITY, a.inv()), (1, -1))
    winv = formal_inverse(w, SYM)
    assert eval_group(winv, x, SYM) == eval_group(w, x, SYM).inv()


def test_word_validation():
    with pytest.raises(ValueError):
        SemigroupWord(())
    with pytest.raises(ValueError):
        GroupWord((IDENTITY,), (1,))
    with pytest.raises(ValueError):
        GroupWord((IDENTITY, IDENTITY), (2,))
