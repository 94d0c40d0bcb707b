"""Ragged matrix pairs, basic-set membership, and normalization."""

import hashlib
import operator
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from zariski.errors import InvalidAdjuster
from zariski.groups import NAT_PLUS, SYM
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.ragged import (MatrixPair, RaggedMatrix, membership,
                            normal_membership, normalize, normalize_steps,
                            pair_from_json, pair_of_rows, pair_to_json,
                            row_eval, signature, stack)
from zariski.randgen import DEFAULT_ADJUSTER, rand_pair, rand_perm
from zariski.sepgroup import g_from_json

T01 = transposition(0, 1)
T12 = transposition(1, 2)
COMMUTE_T01 = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])


def test_row_eval_examples():
    a = FinPermutation({0: 5, 5: 0})
    assert row_eval((a,), T01, SYM) == a
    sigma = FinPermutation({0: 1, 1: 2, 2: 0})
    assert row_eval((IDENTITY, IDENTITY), sigma, SYM) == sigma
    x = transposition(0, 2)
    assert row_eval((T01, IDENTITY, T12), x, SYM) == T01 * x * IDENTITY * x * T12


def test_membership_examples():
    same = pair_of_rows([[T01, IDENTITY]], [[T01, IDENTITY]])
    for x in (IDENTITY, T01, T12):
        assert not membership(same, x, SYM)
    assert not membership(COMMUTE_T01, IDENTITY, SYM)
    witness = FinPermutation({0: 3, 3: 0, 1: 2, 2: 1})
    assert membership(COMMUTE_T01, witness, SYM)
    # the sides differ only at points that x and one side's coefficients fix
    for a, b in ((IDENTITY, T01), (T01, IDENTITY)):
        assert membership(pair_of_rows([[a]], [[b]]), IDENTITY, SYM)


def test_membership_matches_generic_path():
    # the pointwise walk over Sym(N) must agree with the generic row
    # evaluator; coefficients on 2 points and x on 4 often give rows whose
    # sides differ only where x or one side alone moves a point
    rng = random.Random(7)
    for _ in range(200):
        P = rand_pair(rng, 1, 1, 2)
        x = rand_perm(rng, 4)
        generic = all(row_eval(a, x, SYM) != row_eval(b, x, SYM)
                      for a, b in zip(P.A.rows, P.B.rows))
        assert membership(P, x, SYM) == generic


def shifted(p, k):
    return FinPermutation({a + k: b + k for a, b in p._map.items()})


def shifted_pair(P, k):
    return pair_of_rows(([shifted(c, k) for c in row] for row in P.A.rows),
                        ([shifted(c, k) for c in row] for row in P.B.rows))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       degree=st.integers(0, 3), support=st.integers(0, 6),
       x_support=st.integers(0, 8), shift=st.integers(0, 10 ** 6))
def test_membership_walk_property(seed, rows, degree, support, x_support,
                                  shift):
    # x may move points no coefficient moves and vice versa; the walk must
    # look at both
    rng = random.Random(seed)
    P = shifted_pair(rand_pair(rng, rows, degree, support), shift)
    x = shifted(rand_perm(rng, x_support), shift)
    generic = all(row_eval(a, x, SYM) != row_eval(b, x, SYM)
                  for a, b in zip(P.A.rows, P.B.rows))
    assert membership(P, x, SYM) == generic


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       degree=st.integers(0, 3), support=st.integers(0, 6),
       shift=st.integers(0, 10 ** 6))
def test_membership_equal_row_property(seed, rows, degree, support, shift):
    rng = random.Random(seed)
    P = shifted_pair(rand_pair(rng, rows, degree, support), shift)
    x = shifted(rand_perm(rng, support + 2), shift)
    i = rng.randrange(P.num_rows)
    b_rows = list(P.B.rows)
    b_rows[i] = (row_eval(P.A.rows[i], x, SYM),)
    assert not membership(pair_of_rows(P.A.rows, b_rows), x, SYM)


def test_stack():
    P = COMMUTE_T01
    doubled = stack(P, P)
    assert doubled.num_rows == 2
    three = stack(doubled, P)
    assert three.num_rows == 3
    rng = random.Random(1)
    for _ in range(100):
        P1 = rand_pair(rng, 2, 2, 6)
        P2 = rand_pair(rng, 2, 2, 6)
        x = rand_perm(rng, 6)
        assert membership(stack(P1, P2), x, SYM) == (
            membership(P1, x, SYM) and membership(P2, x, SYM))
    rng2 = random.Random(2)
    for _ in range(50):
        x = rand_perm(rng2, 6)
        assert membership(doubled, x, SYM) == membership(P, x, SYM)


def test_signature():
    P = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])
    assert signature(P) == (1, 1, 1)
    P = pair_of_rows([[T01], [T01, IDENTITY, T12]],
                     [[IDENTITY, T01], [T12]])
    assert signature(P) == (2, 0, 2, 1, 0)


def test_normalize_empty():
    a = T01
    P = pair_of_rows([[a]], [[a]])
    assert normalize(P, SYM, DEFAULT_ADJUSTER).is_empty
    # the empty step drops its row, so it lowers the signature even after
    # a cancel has reached the same row
    P = pair_of_rows([[IDENTITY, a], [a, a]], [[T12, a], [a, a]])
    form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
    assert form.is_empty
    assert [(s.kind, s.signature) for s in steps] == [
        ("cancel", (2, 1, 0, 1, 0)), ("empty", (1, 1, 1))]


def test_normalize_full():
    g, h, k = T01, T12, transposition(2, 3)
    P = pair_of_rows([[g, h]], [[g, k]])
    form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
    assert form.is_full
    assert [s.kind for s in steps] == ["cancel", "delete"]
    rng = random.Random(3)
    for _ in range(1000):
        x = rand_perm(rng, 8)
        assert membership(P, x, SYM) == normal_membership(form, x, SYM)
        assert membership(P, x, SYM)  # h != k makes the row always true


def test_normalize_adjust_case():
    # constant A row against a longer B row with the same leading entry:
    # both get multiplied by the adjuster on the correct side
    a, b = T01, T12
    f = transposition(4, 5)
    P = pair_of_rows([[a]], [[a, b]])
    form = normalize(P, SYM, f)
    assert form.is_proper
    assert form.pair.A.rows == ((a * f,),)
    assert form.pair.B.rows == ((a, b * f),)
    # and symmetrically on the B side
    P = pair_of_rows([[a, b]], [[a]])
    form = normalize(P, SYM, f)
    assert form.is_proper
    assert form.pair.A.rows == ((a, b * f),)
    assert form.pair.B.rows == ((a * f,),)


def _membership_draw(seed, pairs, support):
    """Check membership agreement on ``pairs`` random pairs with 100 points
    each; return the counts of the answers and of the step kinds."""
    rng = random.Random(seed)
    answers, kinds = Counter(), Counter()
    for _ in range(pairs):
        P = rand_pair(rng, 3, 4, support)
        form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
        kinds.update(s.kind for s in steps)
        for _ in range(100):
            x = rand_perm(rng, support)
            answer = membership(P, x, SYM)
            assert answer == normal_membership(form, x, SYM), \
                f"draw {seed}: the normal form changes membership at {x}"
            answers[answer] += 1
    return answers, kinds


def test_normalize_preserves_membership():
    _membership_draw(11, 60, 8)
    # on 8 points every point is a member and only deletes occur; on 3
    # points both answers and every step kind occur, so a rewrite that
    # changes the denoted set disagrees somewhere
    answers, kinds = _membership_draw(7_2024, 200, 3)
    assert answers == {True: 14_228, False: 5_772}
    assert kinds == {"cancel": 49, "delete": 14, "adjust_a": 13,
                     "adjust_b": 13, "empty": 2}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       degree=st.integers(0, 4), support=st.integers(0, 8))
def test_normalize_membership_property(seed, rows, degree, support):
    rng = random.Random(seed)
    P = rand_pair(rng, rows, degree, support)
    form = normalize(P, SYM, DEFAULT_ADJUSTER)
    for _ in range(20):
        x = rand_perm(rng, support)
        assert membership(P, x, SYM) == normal_membership(form, x, SYM)


def rand_nat_pair(rng):
    k = rng.randint(1, 3)
    return pair_of_rows(
        ([rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
         for _ in range(k)),
        ([rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
         for _ in range(k)))


def test_normalize_step_signatures():
    # on 6 points the rows' leading entries almost never agree, so only
    # delete fires; on 2 points every rewrite does
    kinds = set()
    for support in (6, 2):
        rng = random.Random(13)
        for _ in range(200):
            P = rand_pair(rng, 3, 4, support)
            form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
            prev = signature(P)
            adjusted_rows = set()
            for s in steps:
                kinds.add(s.kind)
                if s.kind in ("cancel", "delete", "empty"):
                    assert s.signature < prev
                else:
                    assert s.signature == prev
                    assert s.row not in adjusted_rows
                    adjusted_rows.add(s.row)
                prev = s.signature
            if form.is_proper:
                for arow, brow in zip(form.pair.A.rows, form.pair.B.rows):
                    assert len(arow) > 1 or len(brow) > 1
                    assert arow[0] != brow[0]
    assert kinds == {"cancel", "adjust_a", "adjust_b", "delete", "empty"}


def test_normalize_steps_pinned():
    # every form and step of a seeded corpus: Sym on 0-3 points, where
    # leading entries often agree, and the additive naturals
    rng = random.Random(23)
    corpus = [(rand_pair(rng, 3, 4, support), SYM, DEFAULT_ADJUSTER,
               pair_to_json)
              for support in range(4) for _ in range(250)]
    corpus += [(rand_nat_pair(rng), NAT_PLUS, 1,
                lambda P: [P.A.rows, P.B.rows]) for _ in range(500)]
    digest = hashlib.sha256()
    for P, G, adjuster, encode in corpus:
        form, steps = normalize_steps(P, G, adjuster)
        digest.update(repr((
            form.tag, encode(form.pair) if form.is_proper else None,
            [(s.kind, s.row, s.signature) for s in steps])).encode())
    assert digest.hexdigest() == (
        "37c2d106b10c705c7be012880a339120d254724783199090648814b1382cee78")


def test_normalize_on_additive_naturals():
    # same code path over a cancellative monoid without inverses
    P = pair_of_rows([[2, 3]], [[2, 5]])
    form = normalize(P, NAT_PLUS, 1)
    assert form.is_full  # 3 != 5 after cancelling "2 + x"
    P = pair_of_rows([[4]], [[4]])
    assert normalize(P, NAT_PLUS, 1).is_empty
    P = pair_of_rows([[3]], [[3, 0]])
    form = normalize(P, NAT_PLUS, 1)
    assert form.is_proper
    assert form.pair.A.rows == ((4,),)
    assert form.pair.B.rows == ((3, 1),)
    rng = random.Random(17)
    for _ in range(200):
        P = rand_nat_pair(rng)
        form = normalize(P, NAT_PLUS, 1)
        for x in range(30):
            assert membership(P, x, NAT_PLUS) == \
                normal_membership(form, x, NAT_PLUS)


def test_duck_typed_monoid_matches_nat_plus():
    """The carrier is any object with one() and mul(a, b): a bare namespace
    gives the same forms, steps and membership answers as NAT_PLUS."""
    bare = SimpleNamespace(one=lambda: 0, mul=operator.add)
    rng = random.Random(17)
    kinds = set()
    for _ in range(200):
        P = rand_nat_pair(rng)
        form, steps = normalize_steps(P, bare, 1)
        assert (form, steps) == normalize_steps(P, NAT_PLUS, 1)
        kinds.update(s.kind for s in steps)
        for x in range(30):
            assert membership(P, x, bare) == membership(P, x, NAT_PLUS)
            assert normal_membership(form, x, bare) == \
                normal_membership(form, x, NAT_PLUS)
    assert kinds == {"cancel", "adjust_a", "adjust_b", "delete", "empty"}
    with pytest.raises(InvalidAdjuster):
        normalize(P, bare, 0)


def test_invalid_adjuster():
    with pytest.raises(InvalidAdjuster):
        normalize(COMMUTE_T01, SYM, IDENTITY)
    with pytest.raises(InvalidAdjuster):
        normalize(pair_of_rows([[1]], [[2]]), NAT_PLUS, 0)


def test_pair_validation_and_json():
    with pytest.raises(ValueError):
        RaggedMatrix(())
    with pytest.raises(ValueError):
        RaggedMatrix(((),))
    with pytest.raises(ValueError):
        MatrixPair(RaggedMatrix(((IDENTITY,),)),
                   RaggedMatrix(((IDENTITY,), (IDENTITY,))))
    data = pair_to_json(COMMUTE_T01)
    assert pair_from_json(data) == COMMUTE_T01


JSON_VALUES = st.recursive(
    st.integers(min_value=-2, max_value=4) | st.floats() | st.booleans()
    | st.none() | st.text(max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(
                          st.sampled_from(["A", "B", "components"])
                          | st.text(max_size=3), children, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(data=JSON_VALUES)
@example(data=[1, 2])
@example(data=5)
@example(data={"A": 5, "B": 5})
def test_decoders_raise_only_value_error(data):
    """Every JSON decoder returns a value or raises ValueError."""
    for decode in (pair_from_json, FinPermutation.from_json, g_from_json):
        try:
            decode(data)
        except ValueError:
            pass
