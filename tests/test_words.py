"""Word evaluation and the degree-3 reduction of group inequations to
one-row matrix pairs."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from zariski.errors import IrreducibleSignature
from zariski.finite import TableGroup, builtin
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.ragged import normalize, pair_of_rows, row_eval
from zariski.randgen import DEFAULT_ADJUSTER, rand_perm
from zariski.witness import construct_witness, symw_oracle
from zariski.words import (GroupWord, eval_group, formal_inverse,
                           group_ineq_to_semigroup_pair, holds_ineq)

T01 = transposition(0, 1)
T12 = transposition(1, 2)


def test_eval_semigroup_examples():
    # a positive word is a coefficient row, evaluated by ragged.row_eval
    a = FinPermutation({0: 3, 3: 0})
    assert row_eval((a,), T01, SYM) == a
    assert row_eval((IDENTITY,) * 3, T01, SYM) == IDENTITY
    x = transposition(0, 2)
    assert row_eval((T01, IDENTITY), x, SYM) == T01 * x


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
    w = (T01, IDENTITY)
    assert not holds_ineq(pair_of_rows([w], [w]), T12, SYM)
    assert holds_ineq(pair_of_rows([[T01]], [[T12]]), IDENTITY, SYM)
    comm = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])
    assert not holds_ineq(comm, IDENTITY, SYM)


def s3_elements():
    table = builtin("S3")
    return TableGroup(table), range(table.order)


def equivalent_on(G, elems, w, pair):
    one = G.one()
    return all((eval_group(w, x, G) == one) != holds_ineq(pair, x, G)
               for x in elems)


def test_reduction_all_positive():
    a, b = T01, T12
    w = GroupWord((a, b, IDENTITY), (1, 1))
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair == pair_of_rows([[a, b, IDENTITY]], [[IDENTITY]])


def test_reduction_single_inverse():
    # w = a x^-1 b  ->  (b*a, x); checked exhaustively over S3
    G, elems = s3_elements()
    for a in elems:
        for b in elems:
            w = GroupWord((a, b), (-1,))
            pair = group_ineq_to_semigroup_pair(w, G)
            assert pair == pair_of_rows([[G.mul(b, a)]], [[G.one(), G.one()]])
            assert equivalent_on(G, elems, w, pair)


def test_reduction_mixed_degree_two():
    # w = a x b x^-1 c  ->  (c*a x b, x); checked exhaustively over S3
    G, elems = s3_elements()
    for a, b, c in itertools.product(elems, repeat=3):
        w = GroupWord((a, b, c), (1, -1))
        pair = group_ineq_to_semigroup_pair(w, G)
        assert pair == pair_of_rows([[G.mul(c, a), b]], [[G.one(), G.one()]])
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


def _rand_group_word(rng, support):
    degree = rng.randint(0, 3)
    return GroupWord(tuple(rand_perm(rng, support) for _ in range(degree + 1)),
                     tuple(rng.choice((1, -1)) for _ in range(degree)))


def test_reduction_on_random_sym_words():
    # pointwise soundness on the infinite group as well
    rng = random.Random(6)
    one = SYM.one()
    for _ in range(300):
        w = _rand_group_word(rng, 7)
        pair = group_ineq_to_semigroup_pair(w, SYM)
        for _ in range(10):
            x = rand_perm(rng, 7)
            assert (eval_group(w, x, SYM) == one) != holds_ineq(pair, x, SYM)


def test_reduced_pairs_normalize_and_witness():
    # the reduction's output is an ordinary matrix pair: normalize it and,
    # when the form is proper, build an x over Sym(N) with w(x) != 1
    rng = random.Random(11)
    tags = {"empty": 0, "full": 0, "proper": 0}
    for _ in range(2000):
        w = _rand_group_word(rng, 6)
        form = normalize(group_ineq_to_semigroup_pair(w, SYM), SYM,
                         DEFAULT_ADJUSTER)
        tags[form.tag] += 1
        if form.is_proper:
            g, _ = construct_witness(form.pair, symw_oracle())
            assert eval_group(w, g, SYM) != IDENTITY
        else:
            x = rand_perm(rng, 6)
            assert (eval_group(w, x, SYM) != IDENTITY) == form.is_full
    assert tags["proper"] > 1000 and tags["full"] > 0
    # w(x) = a x x^-1 a^-1 is 1 everywhere, a constant other than 1 nowhere
    a = FinPermutation({0: 1, 1: 2, 2: 0})
    w = GroupWord((a, IDENTITY, a.inv()), (1, -1))
    assert normalize(group_ineq_to_semigroup_pair(w, SYM), SYM,
                     DEFAULT_ADJUSTER).is_empty
    w = GroupWord((T01,), ())
    assert normalize(group_ineq_to_semigroup_pair(w, SYM), SYM,
                     DEFAULT_ADJUSTER).is_full


def test_reduction_errors_and_degrees():
    w = GroupWord((IDENTITY,) * 5, (1, 1, -1, 1))
    with pytest.raises(IrreducibleSignature):
        group_ineq_to_semigroup_pair(w, SYM)
    # all-positive degree >= 4 stays fine
    w = GroupWord((IDENTITY,) * 5, (1, 1, 1, 1))
    assert group_ineq_to_semigroup_pair(w, SYM).degree_sum() == 4


@given(st.integers(0, 5))
def test_degree_bookkeeping(seed):
    w = _rand_group_word(random.Random(seed), 6)
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair.num_rows == 1
    assert pair.degree_sum() == w.degree


@given(st.permutations(list(range(6))), st.permutations(list(range(6))))
def test_formal_inverse_property(img_a, img_x):
    a = FinPermutation({i: y for i, y in enumerate(img_a) if i != y})
    x = FinPermutation({i: y for i, y in enumerate(img_x) if i != y})
    w = GroupWord((a, IDENTITY, a.inv()), (1, -1))
    winv = formal_inverse(w, SYM)
    assert eval_group(winv, x, SYM) == eval_group(w, x, SYM).inv()


def test_word_validation():
    with pytest.raises(ValueError):
        GroupWord((IDENTITY,), (1,))
    with pytest.raises(ValueError):
        GroupWord((IDENTITY, IDENTITY), (2,))
