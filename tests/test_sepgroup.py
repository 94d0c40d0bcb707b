"""Exact arithmetic in the separating group and the dichotomy solvers."""

import random

import pytest
from hypothesis import example, given, strategies as st

from zariski import sepgroup
from zariski.randgen import rand_gelement
from zariski.sepgroup import (AllEven, FiniteCandidates, brute_solve_on_Tm,
                              commutative_reduce, finiteness_bound, g_element,
                              g_from_json, g_identity, g_to_json, mul_pow,
                              solve_on_Tm, tm_point)


def _component(k, exponents):
    """The JSON of the element supported on component k alone."""
    return g_to_json(g_element({k: exponents}))["components"]


def test_normal_form_examples():
    assert _component(3, {0: 4, 1: 2}) == [[3, [[0, 1], [1, 2]]]]
    # even generators die at k = 1
    assert _component(1, {2: 5, 3: 1}) == [[1, [[3, 1]]]]
    # no reduction at k = 0
    assert _component(0, {0: 7, 5: -2}) == [[0, [[0, 7], [5, -2]]]]
    # components and generators in ascending order, whatever the input order
    u = g_element({4: {7: 2, 0: 1}, 0: {2: -3}})
    assert g_to_json(u) == {"components": [[0, [[2, -3]]],
                                           [4, [[0, 1], [7, 2]]]]}
    assert g_to_json(g_identity()) == {"components": []}


def test_even_exponents_in_range():
    assert _component(4, {0: -1, 2: 9, 1: -3}) == [[4, [[0, 3], [1, -3],
                                                        [2, 1]]]]


def test_group_ops_examples():
    u = g_element({2: {0: 1, 3: 2}, 5: {1: -1}})
    assert mul_pow(u, u, -1) == g_identity()
    v = g_element({2: {0: 1}})
    # x0^2 = 1 in component 2
    assert mul_pow(v, v, 1) == g_element({2: {3: 0}})
    assert mul_pow(v, v, 1).is_identity()
    w = g_element({0: {0: 1}})
    assert not mul_pow(w, w, 1).is_identity()  # component 0 is free


elements = st.integers(0, 10 ** 6).map(
    lambda s: rand_gelement(random.Random(s), max_k=4, max_gen=8, max_exp=4))


@given(elements, elements)
def test_commutativity(u, v):
    assert mul_pow(u, v, 1) == mul_pow(v, u, 1)


@given(elements, elements, elements)
def test_cancellativity(u, v, w):
    assert (u == v) == (mul_pow(u, w, 1) == mul_pow(v, w, 1))


@given(elements, elements, elements)
def test_associativity(u, v, w):
    assert (mul_pow(mul_pow(u, v, 1), w, 1)
            == mul_pow(u, mul_pow(v, w, 1), 1))


def test_mul_pow_examples():
    a = g_element({3: {1: 2}})
    assert mul_pow(a, g_element({3: {0: 1}}), 0) == a
    # negative exponents: odd generators in Z, even ones mod k
    assert mul_pow(a, g_element({3: {1: 1}}), -2) == g_identity()
    assert mul_pow(g_identity(), tm_point(3, 0), -1) == g_element({3: {0: 2}})
    x = g_element({2: {4: 1}})
    assert mul_pow(g_identity(), x, 1) == x
    a = g_element({5: {3: -2}})
    assert mul_pow(a, tm_point(5, 3), 2) == g_identity()


def test_solve_examples_against_brute_oracle():
    cases = [
        (g_identity(), 2, 5, 100, frozenset()),
        (g_element({5: {3: -2}}), 2, 5, 100, frozenset({3})),
        (g_identity(), 5, 5, 10, frozenset({0, 2, 4, 6, 8, 10})),
    ]
    for a, p, m, bound, expected in cases:
        assert brute_solve_on_Tm(a, p, m, bound) == expected
        assert solve_on_Tm(a, p, m, bound) == expected


def test_brute_oracle_needs_no_closed_form(monkeypatch):
    """The enumeration oracle stays independent of the solver it checks:
    with the closed form and the bound unavailable, it still answers."""
    def unavailable(*args):
        raise AssertionError("the oracle called the closed form")

    monkeypatch.setattr(sepgroup, "solve_on_Tm", unavailable)
    monkeypatch.setattr(sepgroup, "finiteness_bound", unavailable)
    cases = [
        # x^6 = 1 on T_3 exactly at the even generators (6 = 0 mod 3)
        (g_identity(), 6, 3, 9, frozenset({0, 2, 4, 6, 8})),
        # a's odd generator survives; at n = 1 its exponent 1 + 2 != 0 in Z
        (g_element({3: {1: 1}}), 2, 3, 9, frozenset()),
        # only n = 4 cancels: 1 + 5 = 0 mod 3
        (g_element({3: {4: 1}}), 5, 3, 9, frozenset({4})),
    ]
    for a, p, m, bound, expected in cases:
        assert brute_solve_on_Tm(a, p, m, bound) == expected


def test_solver_edge_cases():
    # coefficient supported away from component m: no solutions
    a = g_element({2: {1: -3}})
    assert solve_on_Tm(a, 3, 5, 50) == frozenset()
    assert brute_solve_on_Tm(a, 3, 5, 50) == frozenset()
    # even-index coefficient with matching residue
    a = g_element({4: {6: 1}})
    assert solve_on_Tm(a, 3, 4, 50) == frozenset({6})
    assert brute_solve_on_Tm(a, 3, 4, 50) == frozenset({6})
    # two-generator support can never vanish against a single generator
    a = g_element({4: {0: 1, 1: 1}})
    assert solve_on_Tm(a, 4, 4, 50) == frozenset()
    with pytest.raises(ValueError):
        solve_on_Tm(a, 0, 4, 50)
    with pytest.raises(ValueError):
        solve_on_Tm(a, 1, 0, 50)
    for p, m in ((0, 4), (1, 0)):
        with pytest.raises(ValueError, match="need m >= 1 and p >= 1"):
            brute_solve_on_Tm(a, p, m, 50)


def test_closed_form_equals_brute_on_random_inputs():
    rng = random.Random(23)
    for _ in range(300):
        a = rand_gelement(rng, max_k=6, max_gen=12, max_exp=5)
        m = rng.randint(1, 6)
        p = rng.randint(1, 8)
        brute = brute_solve_on_Tm(a, p, m, 40)
        assert solve_on_Tm(a, p, m, 40) == brute
        # the tag agrees with the enumeration
        bnd = finiteness_bound(a, p, m)
        if isinstance(bnd, AllEven):
            assert brute == frozenset(range(0, 41, 2))
        else:
            assert brute <= bnd.indices


def test_finiteness_bound_examples():
    assert finiteness_bound(g_identity(), 2, 5) == FiniteCandidates(frozenset())
    a = g_element({5: {3: -2}})
    assert finiteness_bound(a, 2, 5) == FiniteCandidates(frozenset({3}))
    assert finiteness_bound(g_identity(), 5, 5) == AllEven()
    # m | p with a coefficient off component m: no solution, not AllEven
    a = g_element({3: {1: 1}})
    assert finiteness_bound(a, 2, 2) == FiniteCandidates(frozenset())


def test_commutative_reduce():
    a = g_element({2: {1: 3}})
    assert commutative_reduce(a, 3) == (a, 3)
    assert commutative_reduce(a, -2) == (mul_pow(g_identity(), a, -1), 2)
    assert commutative_reduce(g_identity(), 0) == (g_identity(), 0)
    # solution sets of "!= 1" agree pointwise
    rng = random.Random(31)
    for _ in range(100):
        a = rand_gelement(rng, max_k=4, max_gen=6, max_exp=3)
        n = rng.randint(-4, -1)
        b, q = commutative_reduce(a, n)
        x = rand_gelement(rng, max_k=4, max_gen=6, max_exp=3)
        lhs = mul_pow(a, mul_pow(g_identity(), x, -n), -1)
        assert lhs.is_identity() == mul_pow(b, x, q).is_identity()


def test_tm_point_validation():
    with pytest.raises(ValueError):
        tm_point(0, 1)
    with pytest.raises(ValueError):
        tm_point(2, -1)
    # T_1 collapses even generators to the identity
    assert tm_point(1, 4) == g_identity()
    assert tm_point(1, 3) == g_element({1: {3: 1}})


def test_component_validation():
    with pytest.raises(ValueError):
        g_element({-1: {}})
    with pytest.raises(ValueError):
        g_element({2: {-1: 1}})


@given(elements)
@example(g_element({0: {2: -3}, 4: {0: 1, 7: 2}}))
def test_json_roundtrip(u):
    v = g_from_json(g_to_json(u))
    assert v == u and hash(v) == hash(u)


def test_json_rejects_repeats_and_bad_shapes():
    with pytest.raises(ValueError, match="component index 1 repeats"):
        g_from_json({"components": [[1, [[2, 1]]], [1, [[3, 1]]]]})
    with pytest.raises(ValueError,
                       match="generator index 2 repeats in component 1"):
        g_from_json({"components": [[1, [[2, 1], [2, 3]]]]})
    for data in ([], "components", None,  # not an object
                 {}, {"comps": []},  # no "components" key
                 {"components": 5}, {"components": [[1]]},
                 {"components": [[1, [[2, 1]], 0]]},
                 {"components": [[1, 5]]},  # malformed components
                 {"components": [[1, [[2]]]]},
                 {"components": [[1, [[2, 1, 0]]]]},
                 {"components": [[1, [5]]]},  # malformed pairs
                 {"components": [["1", [[2, 1]]]]},
                 {"components": [[1, [[2, None]]]]}):  # non-integers
        with pytest.raises(ValueError):
            g_from_json(data)
    # a huge bad value is echoed abbreviated
    with pytest.raises(ValueError, match="component index") as info:
        g_from_json({"components": [["x" * 100000, []]]})
    assert len(str(info.value)) < 200
