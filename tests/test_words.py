"""Word evaluation and the reduction of group inequations to one-row matrix
pairs."""

import hashlib
import itertools
import json
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
from zariski.words import (GroupWord, eval_group,
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


def test_reduction_rotates_and_splits():
    # w = a0 x^-1 a1 x a2 x a3 x^-1 a4 = 1 iff, conjugated by a0,
    # x^-1 a1 x a2 x a3 x^-1 (a4 a0) = 1; rotated left by r = 1 its signs
    # read + + - -, and x a2 x a3 = (x^-1 (a4 a0) x^-1 a1)^-1
    a0, a1, a2, a4 = (transposition(0, 1), transposition(1, 2),
                      transposition(2, 3), transposition(0, 4))
    a3 = FinPermutation({0: 2, 2: 3, 3: 0})
    w = GroupWord((a0, a1, a2, a3, a4), (-1, 1, 1, -1))
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair == pair_of_rows([[IDENTITY, a2, a3]],
                                [[a1.inv(), (a4 * a0).inv(), IDENTITY]])


def test_reduction_s3_digest():
    # the reduced rows of every S3 word of degree <= 3, pinned against any
    # change to the rotate-and-split rule
    table = builtin("S3")
    G, elems = TableGroup(table), range(table.order)
    rows = []
    for degree in range(4):
        for signs in itertools.product((1, -1), repeat=degree):
            for coeffs in itertools.product(elems, repeat=degree + 1):
                pair = group_ineq_to_semigroup_pair(GroupWord(coeffs, signs), G)
                rows.append([pair.A.rows, pair.B.rows])
    assert len(rows) == 11310
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
        "d05204140e7826573bda5363b22d612a07513861c8d55f90900b0682709a9f6b")


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


def cyclic_sign_changes(signs):
    return sum(s != signs[k - 1] for k, s in enumerate(signs))


def cycle_lengths(p, points=7):
    # the length of the cycle through each point; conjugates agree on it
    def length(t):
        k, y = 1, p.apply(t)
        while y != t:
            k, y = k + 1, p.apply(y)
        return k
    return sorted(map(length, range(points)))


@given(st.lists(st.sampled_from((1, -1)), max_size=8), st.integers(0, 2 ** 32))
def test_reduction_errors_and_degrees(signs, seed):
    # the rule refuses exactly the words whose cyclic sign sequence changes
    # sign more than twice, and otherwise keeps the degree and the set; as
    # u*v^-1 is a rotation of w conjugated by a0, it is conjugate to w
    rng = random.Random(seed)
    w = GroupWord(tuple(rand_perm(rng, 5) for _ in range(len(signs) + 1)),
                  tuple(signs))
    if cyclic_sign_changes(signs) > 2:
        with pytest.raises(IrreducibleSignature):
            group_ineq_to_semigroup_pair(w, SYM)
        return
    pair = group_ineq_to_semigroup_pair(w, SYM)
    assert pair.num_rows == 1
    assert pair.degree_sum() == w.degree
    (u,), (v,) = pair.A.rows, pair.B.rows
    for _ in range(10):
        x = rand_perm(rng, 7)
        wx = eval_group(w, x, SYM)
        assert (wx != IDENTITY) == holds_ineq(pair, x, SYM)
        assert cycle_lengths(wx) == cycle_lengths(
            row_eval(u, x, SYM) * row_eval(v, x, SYM).inv())


@pytest.mark.parametrize("degree,refused", [(3, 0), (4, 2), (5, 10),
                                            (6, 32)])
def test_reduction_refusal_counts(degree, refused):
    # how many of the 2 ** degree sign patterns the rule refuses
    ones = (IDENTITY,) * (degree + 1)
    count = 0
    for signs in itertools.product((1, -1), repeat=degree):
        try:
            group_ineq_to_semigroup_pair(GroupWord(ones, signs), SYM)
        except IrreducibleSignature:
            count += 1
    assert count == refused


def test_word_validation():
    with pytest.raises(ValueError, match="at least one coefficient"):
        GroupWord((), ())
    with pytest.raises(ValueError):
        GroupWord((IDENTITY,), (1,))
    with pytest.raises(ValueError):
        GroupWord((IDENTITY, IDENTITY), (2,))
