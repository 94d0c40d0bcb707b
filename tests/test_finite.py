"""Exhaustive finite-group oracles: tables, families, closures."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from zariski import finite, words
from zariski.errors import TooLarge, UnknownGroup
from zariski.finite import (FiniteGroupTable, SetFamily, TableGroup, builtin,
                            family_subset, group_family, reduction_mismatches,
                            semigroup_family, topology_close)


def test_builtin_examples():
    z2 = builtin("Z2")
    assert z2.order == 2 and z2.mul[1][1] == 0
    s3 = builtin("S3")
    assert s3.order == 6 and not s3.is_abelian()
    assert builtin("S4").order == 24
    assert builtin("z6").is_abelian()
    with pytest.raises(UnknownGroup):
        builtin("Q8")


def test_table_validation():
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(ValueError):
        FiniteGroupTable([[1, 0], [1, 0]])  # no identity
    with pytest.raises(ValueError):
        FiniteGroupTable([[0, 1], [1, 2]])  # out of range
    with pytest.raises(ValueError, match="square"):
        FiniteGroupTable([[0, 1], [1]])
    # a loop with identity 0 and inverses whose product is not associative
    with pytest.raises(ValueError, match="associative"):
        FiniteGroupTable([[0, 1, 2, 3, 4], [1, 0, 4, 2, 3], [2, 3, 0, 4, 1],
                          [3, 4, 1, 0, 2], [4, 2, 3, 1, 0]])


def test_table_group_interface():
    s3 = builtin("S3")
    G = TableGroup(s3)
    for a in range(s3.order):
        assert G.mul(a, G.inv(a)) == G.one()


def masks_by_size(fam):
    return sorted(bin(m).count("1") for m in fam.masks)


def test_semigroup_family_degree_zero():
    for name in ("Z2", "S3"):
        table = builtin(name)
        fam = semigroup_family(table, 0)
        full = (1 << table.order) - 1
        assert fam.masks == {0, full}


def test_semigroup_family_degree_one_z2():
    fam = semigroup_family(builtin("Z2"), 1)
    # {x : a + x != b} is the complement of one point
    assert any(bin(m).count("1") == 1 for m in fam.masks)


def test_group_family_degree_examples():
    table = builtin("Z3")
    assert group_family(table, 0).masks == {0, (1 << 3) - 1}
    fam = group_family(table, 1)
    # complements of singletons appear: {x : a * x != 1}
    assert sorted(bin(m).count("1") for m in fam.masks) == [0, 2, 2, 2, 3]


def naive_semigroup_family(table, d):
    """Naive double enumeration over all word pairs (oracle for the
    translation-reduced enumeration used by the module).  Words with the
    same value vector give the same sets, so the distinct vectors are
    built once and every two of them are compared."""
    n = table.order
    vectors = set()
    for degree in range(d + 1):
        for word in itertools.product(range(n), repeat=degree + 1):
            vector = []
            for x in range(n):
                acc = word[0]
                for c in word[1:]:
                    acc = table.mul[table.mul[acc][x]][c]
                vector.append(acc)
            vectors.add(tuple(vector))
    masks = {sum(1 << x for x in range(n) if f[x] != g[x])
             for f in vectors for g in vectors}
    return SetFamily(n, frozenset(masks))


def relabelled_s3():
    """S3 with its elements permuted so that the identity is not 0."""
    s3 = builtin("S3")
    sigma = (3, 5, 0, 4, 1, 2)
    mul = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            mul[sigma[a]][sigma[b]] = sigma[s3.mul[a][b]]
    table = FiniteGroupTable(mul)
    assert table.id == 3
    return table


def table_named(name):
    return relabelled_s3() if name == "S3-relabelled" else builtin(name)


# the cases above degree 2 extend a lead row by a coefficient more than once
@pytest.mark.parametrize("name,d", [("Z2", 1), ("Z3", 1), ("S3", 1), ("Z4", 1),
                                    ("S3-relabelled", 1), ("S3", 2),
                                    ("S3-relabelled", 2), ("Z6", 2),
                                    ("Z3", 3), ("Z4", 3), ("Z2", 4),
                                    ("Z6", 3)])
def test_semigroup_family_matches_naive_enumeration(name, d):
    table = table_named(name)
    assert semigroup_family(table, d).masks == \
        naive_semigroup_family(table, d).masks


def test_semigroup_family_compares_each_value_vector_once(monkeypatch):
    # over Z3 a leading-1 word of degree <= 7 is x -> c + k*x, so its 1,094
    # words have 9 distinct value vectors, and each is compared once
    import numpy as np

    unique, calls = np.unique, []

    def counting(*args, **kwargs):
        calls.append(None)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    assert semigroup_family(builtin("Z3"), 7).masks == {0, 3, 5, 6, 7}
    assert len(calls) == 9


def naive_group_family(table, d):
    n = table.order
    masks = set()
    for degree in range(d + 1):
        for coeffs in itertools.product(range(n), repeat=degree + 1):
            for signs in itertools.product((1, -1), repeat=degree):
                mask = 0
                for x in range(n):
                    acc = coeffs[0]
                    for s, c in zip(signs, coeffs[1:]):
                        occ = x if s > 0 else table.inv[x]
                        acc = table.mul[table.mul[acc][occ]][c]
                    if acc != table.id:
                        mask |= 1 << x
                masks.add(mask)
    return SetFamily(n, frozenset(masks))


@pytest.mark.parametrize("name,d", [("Z3", 1), ("S3", 1), ("Z4", 2),
                                    ("S3-relabelled", 1), ("S3", 2),
                                    ("S3-relabelled", 2), ("Z6", 2),
                                    ("S3", 3), ("S3-relabelled", 3),
                                    ("Z6", 3)])
def test_group_family_matches_naive_enumeration(name, d):
    table = table_named(name)
    assert group_family(table, d).masks == naive_group_family(table, d).masks


def naive_reduction_mismatches(table, d):
    """Per-point oracle for reduction_mismatches: each word and its
    reduction evaluated at one point at a time, in the same order."""
    n, mul, G = table.order, table.mul, TableGroup(table)

    def value(row, x):
        acc = row[0]
        for c in row[1:]:
            acc = mul[mul[acc][x]][c]
        return acc

    found = []
    for degree in range(d + 1):
        for signs in itertools.product((1, -1), repeat=degree):
            for coeffs in itertools.product(range(n), repeat=degree + 1):
                w = words.GroupWord(coeffs, signs)
                pair = words.group_ineq_to_semigroup_pair(w, G)
                (u,), (v,) = pair.A.rows, pair.B.rows
                for x in range(n):
                    acc = coeffs[0]
                    for s, c in zip(signs, coeffs[1:]):
                        occ = x if s > 0 else table.inv[x]
                        acc = mul[mul[acc][occ]][c]
                    if (acc != table.id) != (value(u, x) != value(v, x)):
                        found.append({"coeffs": list(coeffs),
                                      "signs": list(signs)})
                        break
    return found


def drop_inverses(monkeypatch):
    real = words.group_ineq_to_semigroup_pair

    def reduce(w, G):
        # wrong for every word with an x^-1: it reads x in its place
        return real(words.GroupWord(w.coefficients, (1,) * w.degree), G)

    monkeypatch.setattr(words, "group_ineq_to_semigroup_pair", reduce)


@pytest.mark.parametrize("name,d,count", [("Z3", 1, 6), ("S3", 2, 264),
                                          ("S3-relabelled", 2, 264)])
def test_reduction_mismatches_match_per_point_oracle(monkeypatch, name, d,
                                                     count):
    # the sweep evaluates whole sign patterns at once; under a wrong
    # reduction it must find exactly the words the per-point oracle finds,
    # in the same order, and also where the identity is not 0
    drop_inverses(monkeypatch)
    table = table_named(name)
    found = reduction_mismatches(table, d)
    assert len(found) == count
    assert found == naive_reduction_mismatches(table, d)


@pytest.mark.parametrize("name,d", [("Z2", 9), ("Z3", 7), ("Z4", 5),
                                    ("Z5", 4), ("Z6", 4), ("S3", 4),
                                    ("S4", 2), ("S3-relabelled", 4)])
def test_reduction_has_no_mismatch(name, d):
    # each built-in at its guard edge, the degree finite-check sweeps there
    assert reduction_mismatches(table_named(name), d) == []


def test_family_monotone_in_degree():
    for name in ("Z2", "Z5", "S3"):
        table = builtin(name)
        for d in (0, 1):
            assert family_subset(semigroup_family(table, d),
                                 semigroup_family(table, d + 1))
            assert family_subset(group_family(table, d),
                                 group_family(table, d + 1))


def test_enumeration_guards(monkeypatch):
    s4 = builtin("S4")
    # the pair guard counts the words before building their value vectors
    monkeypatch.setattr(finite, "_word_vectors", None)
    with pytest.raises(TooLarge, match="14425 x 346200 word pairs"):
        semigroup_family(s4, 3)
    with pytest.raises(TooLarge):
        group_family(s4, 3)


def test_reduction_sweep_checks_its_guard(monkeypatch):
    # S4 at degree 3 would build a 24 ** 5-entry mesh per sign pattern;
    # the guard must refuse it before the first mesh
    monkeypatch.setattr("numpy.ix_", None)
    with pytest.raises(TooLarge, match="order 24 at degree 3 with signs"):
        reduction_mismatches(builtin("S4"), 3)


def test_semigroup_guard_counts_pairs(monkeypatch):
    # the pair guard refuses exactly when left * n * left passes it, and
    # at every degree it admits there are at most ENUMERATION_GUARD words
    class Reached(Exception):
        pass

    def reached(*args):
        raise Reached

    monkeypatch.setattr(finite, "_word_vectors", reached)
    for n in (1, 2, 3, 6, 24, 63):
        table = finite._cyclic(n)
        for d in range(71):
            left = d + 1 if n == 1 else (n ** (d + 1) - 1) // (n - 1)
            if left * n * left > finite.PAIR_GUARD:
                # above the exponent cap the count named is capped too
                count = (f"^{left} x {n * left} "
                         if d < finite._EXPONENT_CAP else "")
                with pytest.raises(TooLarge, match=f"{count}word pairs$"):
                    semigroup_family(table, d)
            else:
                assert n ** (d + 1) <= finite.ENUMERATION_GUARD
                with pytest.raises(Reached):
                    semigroup_family(table, d)


def test_semigroup_family_s4_degree_two():
    # the largest family inside the guards: 26 x 14,976 word pairs
    assert len(semigroup_family(builtin("S4"), 2)) == 4411
    assert len(group_family(builtin("S4"), 2)) == 163


@pytest.mark.parametrize("family,name,d,digest", [
    (semigroup_family, "S4", 2,
     "3f6250238d07b1c3921dce2085dc683cb0f4024921fb28b62c53f7ffd66ee3f1"),
    (group_family, "S4", 2,
     "8e13d513cdbb294b01c2bf47a5fbababb732a1d698426913146d7c482c6d3776"),
    (semigroup_family, "S3", 4,
     "56d2092af6d57876cd8f77ccbcf3f7b7433ef63b1eef01271d8b7590e291ea4f"),
    (group_family, "S3", 4,
     "56d2092af6d57876cd8f77ccbcf3f7b7433ef63b1eef01271d8b7590e291ea4f"),
], ids=["semigroup", "group", "semigroup-S3-4", "group-S3-4"])
def test_s4_degree_two_masks_pinned(family, name, d, digest):
    # the naive enumerations are too slow on S4, and on S3 above degree 2,
    # so these families are pinned as the enumeration over every leading-1
    # word built them; degree 4 is the largest S3's guards admit
    masks = sorted(family(builtin(name), d).masks)
    assert hashlib.sha256(repr(masks).encode()).hexdigest() == digest


def test_families_refuse_carriers_wider_than_masks():
    # masks are int64 bit sets: 63 points fit, 64 do not
    for n in (63, 64):
        table = FiniteGroupTable([[(i + j) % n for j in range(n)]
                                  for i in range(n)])
        for family in (semigroup_family, group_family):
            if n == 63:
                assert family(table, 0).masks == {0, (1 << 63) - 1}
            else:
                with pytest.raises(TooLarge, match="carrier of size 64"):
                    family(table, 0)


def test_topology_close():
    trivial = SetFamily(4, frozenset({0, 0b1111}))
    assert topology_close(trivial).masks == {0, 0b1111}
    # complements of singletons on 6 points generate the discrete topology
    n = 6
    co_singletons = frozenset(((1 << n) - 1) ^ (1 << i) for i in range(n))
    closed = topology_close(SetFamily(n, co_singletons))
    assert len(closed) == 2 ** n
    again = topology_close(closed)
    assert again.masks == closed.masks  # idempotent


def definitional_topology(fam):
    """A subset is open iff it is the union of the finite intersections of
    members that it contains; the whole carrier is the empty intersection."""
    full = (1 << fam.order) - 1
    meets = {full}
    while True:
        more = meets | {a & m for a in meets for m in fam.masks}
        if more == meets:
            break
        meets = more
    opens = set()
    for o in range(full + 1):
        union = 0
        for i in meets:
            if i & ~o == 0:
                union |= i
        if union == o:
            opens.add(o)
    return opens


@st.composite
def families(draw):
    n = draw(st.integers(0, 6))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    return SetFamily(n, frozenset(masks))


@settings(max_examples=200, deadline=None)
@given(fam=families())
def test_topology_close_matches_definition(fam):
    assert topology_close(fam).masks == definitional_topology(fam)


def test_closure_guard(monkeypatch):
    monkeypatch.setattr(finite, "CLOSURE_GUARD", 100)
    n = 8
    co_singletons = frozenset(((1 << n) - 1) ^ (1 << i) for i in range(n))
    with pytest.raises(TooLarge, match="closure exceeds the size guard"):
        topology_close(SetFamily(n, co_singletons))


def test_family_subset():
    s3 = builtin("S3")
    sem = topology_close(semigroup_family(s3, 2))
    grp = topology_close(group_family(s3, 2))
    assert family_subset(sem, sem)
    assert family_subset(sem, grp)
    z6 = builtin("Z6")
    d1 = topology_close(group_family(z6, 1))
    d2 = topology_close(group_family(z6, 2))
    assert family_subset(d1, d2)
    z4 = topology_close(group_family(builtin("Z4"), 1))
    with pytest.raises(ValueError, match="^6 vs 4$"):
        family_subset(sem, z4)


def test_commutative_identity_small():
    for name in ("Z2", "Z3", "Z4"):
        table = builtin(name)
        for d in (0, 1, 2):
            # equal families generate equal topologies
            assert semigroup_family(table, d).masks == \
                group_family(table, d).masks

