"""Witness construction: spec'd traces, membership, loop bound, and the
inductive invariants of the extension argument, replayed from traces."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from zariski.errors import NotNormalized, OracleExhausted
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.ragged import membership, pair_of_rows, stack
from zariski.randgen import rand_proper_pair
from zariski.witness import (SymOmegaOracle, WitnessTrace, construct_witness,
                             intersect_witness, pick_separators, symw_oracle)

T01 = transposition(0, 1)
T12 = transposition(1, 2)
C3 = FinPermutation.from_cycles((0, 1, 2))
COMMUTE_T01 = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])


def test_pick_separators():
    assert pick_separators(COMMUTE_T01) == (0,)
    a, b = FinPermutation({3: 4, 4: 3}), FinPermutation({3: 5, 5: 3})
    P = pair_of_rows([[a, IDENTITY]], [[b, IDENTITY]])
    assert pick_separators(P) == (3,)
    bad = pair_of_rows([[T01, IDENTITY]], [[T01, T12]])
    with pytest.raises(NotNormalized):
        pick_separators(bad)


def _brute_seven_parts(entries) -> set:
    c = set(entries)
    out = {IDENTITY} | c | {p.inv() for p in c}
    for p in c:
        for q in c:
            out |= {p * q, p * q.inv(), p.inv() * q, p.inv() * q.inv()}
    return out


def _forbidden_size(P) -> int:
    entries = tuple(sorted({c for row in P.A.rows + P.B.rows for c in row},
                           key=FinPermutation.to_pairs))
    return WitnessTrace(separators=(), entries=entries, steps=(),
                        final=IDENTITY).forbidden_size


def test_forbidden_set_examples():
    all_id = pair_of_rows([[IDENTITY, IDENTITY]], [[IDENTITY, IDENTITY]])
    assert _forbidden_size(all_id) == 1  # {1}
    assert _forbidden_size(COMMUTE_T01) == 2  # {1, (0 1)}
    P = pair_of_rows([[T01, IDENTITY]], [[T12, IDENTITY]])
    assert _forbidden_size(P) == len(_brute_seven_parts({T01, T12, IDENTITY}))
    assert _forbidden_size(P) == 5  # Sym({0, 1, 2}) but (0 2)
    # 300 points need a 16-bit image table: {1, c, c^-1, c^2, c^-2}
    c = FinPermutation.from_cycles(tuple(range(7, 307)))
    P = pair_of_rows([[c, IDENTITY]], [[IDENTITY, c]])
    assert _forbidden_size(P) == 5


@st.composite
def _perms(draw):
    points = draw(st.lists(st.integers(0, 5), unique=True, max_size=6))
    return dict(zip(points, draw(st.permutations(points))))


@settings(max_examples=60, deadline=None)
@given(maps=st.lists(_perms(), max_size=4),
       offset=st.integers(0, 10 ** 6))
@example(maps=[], offset=0)
@example(maps=[{}], offset=0)
@example(maps=[{0: 1, 1: 0}], offset=2 ** 70)
def test_forbidden_set_property(maps, offset):
    entries = tuple(sorted(
        {FinPermutation({x + offset: y + offset for x, y in m.items()})
         for m in maps}, key=FinPermutation.to_pairs))
    expected = _brute_seven_parts(entries)
    trace = WitnessTrace(separators=(), entries=entries, steps=(),
                         final=IDENTITY)
    assert trace.forbidden_size == len(expected)


def test_witness_trace_matches_hand_run():
    g, trace = construct_witness(COMMUTE_T01, symw_oracle())
    assert trace.separators == (0,)
    assert [(s.case, s.point, s.image) for s in trace.steps] == \
        [("alpha", 1, 2), ("beta", 0, 3)]
    assert g == FinPermutation({0: 3, 3: 0, 1: 2, 2: 1})
    assert (T01 * g).apply(0) == 2
    assert (g * T01).apply(0) == 3
    assert membership(COMMUTE_T01, g, SYM)


def test_witness_whole_group_row():
    sigma = transposition(2, 6)
    P = pair_of_rows([[sigma, IDENTITY]], [[IDENTITY, IDENTITY]])
    g, trace = construct_witness(P, symw_oracle())
    assert membership(P, g, SYM)
    assert membership(P, IDENTITY, SYM)  # sigma*x != x holds everywhere


def test_not_normalized_rejected():
    bad = pair_of_rows([[T01, IDENTITY]], [[T01, T12]])
    with pytest.raises(NotNormalized):
        construct_witness(bad, symw_oracle())
    consts = pair_of_rows([[T01]], [[T12]])
    with pytest.raises(NotNormalized):
        construct_witness(consts, symw_oracle())


def test_symw_oracle_examples():
    oracle = symw_oracle()
    assert oracle.choose_image({}, 5, {0, 1}) == 2
    b = {1: 2}
    assert oracle.choose_image(b, 0, {0, 1}) == 3  # 2 is in the image
    assert oracle.complete(b) == FinPermutation({1: 2, 2: 1})
    assert b == {1: 2}  # neither method mutates the map
    assert oracle.complete({0: 1}) == T01


class _BadOracle(SymOmegaOracle):
    def choose_image(self, b, q, forbidden):
        return next(iter(forbidden))


class _NoImageOracle(SymOmegaOracle):
    def choose_image(self, b, q, forbidden):
        return None


def test_oracle_exhausted():
    for oracle in (_BadOracle(), _NoImageOracle()):
        with pytest.raises(OracleExhausted):
            construct_witness(COMMUTE_T01, oracle)


def _alpha_chain(row, m, xmap):
    """All partial evaluation values (m)c0 x ... x c_p for defined prefixes."""
    vals = [row[0].apply(m)]
    v = vals[0]
    for c in row[1:]:
        if v not in xmap:
            break
        v = c.apply(xmap[v])
        vals.append(v)
    return vals


def _replay_conditions(P, trace):
    """Conditions of the inductive construction, checked on every prefix:
    partial A- and B-values never collide (3), and no forbidden translate
    of the working image hits a separator (4).  Each step's image also
    avoids every forbidden translate of the working set before the step:
    the points of the map, the stuck point q and the separators."""
    seps = trace.separators
    forb = _brute_seven_parts(trace.entries)
    xmap = {}
    states = [dict(xmap)]
    for s in trace.steps:
        working = set(xmap) | set(xmap.values()) | {s.point} | set(seps)
        assert s.image not in {f.apply(w) for w in working for f in forb}
        xmap[s.point] = s.image
        states.append(dict(xmap))
    for state in states:
        for i, (arow, brow) in enumerate(zip(P.A.rows, P.B.rows)):
            avals = _alpha_chain(arow, seps[i], state)
            bvals = _alpha_chain(brow, seps[i], state)
            for va in avals:
                for vb in bvals:
                    assert va != vb  # condition (3)
        translated = {f.apply(y) for y in state.values() for f in forb}
        assert not translated & set(seps)  # condition (4)


def test_random_witnesses_and_invariants():
    rng = random.Random(99)
    oracle = symw_oracle()
    for _ in range(150):
        P = rand_proper_pair(rng, 3, 3, 8)
        g, trace = construct_witness(P, oracle)
        assert membership(P, g, SYM)
        assert len(trace.steps) <= P.degree_sum()
        assert trace.to_json()["forbidden_size"] == \
            len(_brute_seven_parts(trace.entries))
        _replay_conditions(P, trace)
        # counters never decrease; the handled row strictly increases
        prev_a = [0] * P.num_rows
        prev_b = [0] * P.num_rows
        for s in trace.steps:
            assert all(x >= y for x, y in zip(s.counters_a, prev_a))
            assert all(x >= y for x, y in zip(s.counters_b, prev_b))
            if s.case == "alpha":
                assert s.counters_a[s.row] > prev_a[s.row]
            else:
                assert s.counters_b[s.row] > prev_b[s.row]
            prev_a, prev_b = list(s.counters_a), list(s.counters_b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 3),
       degree=st.integers(1, 3), support=st.integers(0, 8))
def test_witness_membership_property(seed, rows, degree, support):
    P = rand_proper_pair(random.Random(seed), rows, degree, support)
    g, trace = construct_witness(P, symw_oracle())
    assert membership(P, g, SYM)
    assert len(trace.steps) <= P.degree_sum()


def test_determinism():
    rng1, rng2 = random.Random(5), random.Random(5)
    for _ in range(20):
        P1 = rand_proper_pair(rng1, 3, 3, 8)
        P2 = rand_proper_pair(rng2, 3, 3, 8)
        assert P1 == P2
        g1, t1 = construct_witness(P1, symw_oracle())
        g2, t2 = construct_witness(P2, symw_oracle())
        assert g1 == g2 and t1 == t2
        assert hash(t1) == hash(t2)
        assert t1.forbidden_size == t2.forbidden_size and t1 == t2


def test_intersect_witness():
    g, _ = intersect_witness(COMMUTE_T01, COMMUTE_T01, symw_oracle())
    assert membership(COMMUTE_T01, g, SYM)
    P2 = pair_of_rows([[C3, IDENTITY]], [[IDENTITY, C3]])
    g, trace = intersect_witness(COMMUTE_T01, P2, symw_oracle())
    assert membership(COMMUTE_T01, g, SYM)
    assert membership(P2, g, SYM)
    assert len(trace.steps) <= stack(COMMUTE_T01, P2).degree_sum()
    rng = random.Random(42)
    for _ in range(100):
        Q1 = rand_proper_pair(rng, 3, 3, 8)
        Q2 = rand_proper_pair(rng, 3, 3, 8)
        g, _ = intersect_witness(Q1, Q2, symw_oracle())
        assert membership(Q1, g, SYM) and membership(Q2, g, SYM)


def test_trace_json():
    _, trace = construct_witness(COMMUTE_T01, symw_oracle())
    data = trace.to_json()
    assert data["separators"] == [0]
    assert data["forbidden_size"] == 2
    assert data["steps"][0] == {"case": "alpha", "row": 0, "point": 1,
                                "image": 2, "counters_a": [1],
                                "counters_b": [0]}
    assert data["witness"] == [[0, 3], [1, 2], [2, 1], [3, 0]]
