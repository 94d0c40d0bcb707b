"""Witness construction: spec'd traces, membership, loop bound, and the
inductive invariants of the extension argument, replayed from traces."""

import dataclasses
import hashlib
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from zariski.errors import OracleExhausted
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY, extend, transposition
from zariski.ragged import membership, normalize, pair_of_rows, stack
from zariski.randgen import DEFAULT_ADJUSTER, rand_proper_pair
from zariski.witness import (SymOmegaOracle, construct_witness,
                             intersect_witness, pick_separators, symw_oracle)

T01 = transposition(0, 1)
T12 = transposition(1, 2)
C3 = FinPermutation({0: 1, 1: 2, 2: 0})
COMMUTE_T01 = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])


def test_pick_separators():
    assert pick_separators(COMMUTE_T01) == (0,)
    a, b = FinPermutation({3: 4, 4: 3}), FinPermutation({3: 5, 5: 3})
    P = pair_of_rows([[a, IDENTITY]], [[b, IDENTITY]])
    assert pick_separators(P) == (3,)
    # an identity leading entry, and a 3-cycle against its inverse
    c = FinPermutation({5: 6, 6: 7, 7: 5})
    P = pair_of_rows([[IDENTITY, T01], [c, IDENTITY]],
                     [[transposition(4, 9), IDENTITY], [c.inv(), T01]])
    assert pick_separators(P) == (4, 5)


def _brute_seven_parts(entries) -> set:
    c = set(entries)
    out = {IDENTITY} | c | {p.inv() for p in c}
    for p in c:
        for q in c:
            out |= {p * q, p * q.inv(), p.inv() * q, p.inv() * q.inv()}
    return out


def _entries(P) -> set:
    return {c for row in P.A.rows + P.B.rows for c in row}


def _recount_forbidden(P, trace) -> int:
    """The translates of the separators and of every step's point and
    image under the seven-part product set of the entries, read from the
    emitted certificate."""
    cert = json.loads(json.dumps(trace.to_json()))
    forb = _brute_seven_parts(_entries(P))
    points = set(cert["separators"])
    points.update(p for s in cert["steps"] for p in (s["point"], s["image"]))
    return len({f.apply(x) for x in points for f in forb})


def test_forbidden_set_examples():
    P = pair_of_rows([[T01, IDENTITY]], [[T12, IDENTITY]])
    _, trace = construct_witness(P, symw_oracle())
    # separator 0, then 1 -> 3 and 0 -> 4; C = {1, (0 1), (1 2)} takes
    # 0 and 1 across {0, 1, 2} and fixes 3 and 4
    assert [(s["point"], s["image"]) for s in trace.steps] == \
        [(1, 3), (0, 4)]
    assert trace.forbidden_size == 5 == _recount_forbidden(P, trace)
    # the cycle c = (7 8 ... 306): separator 7, then 8 -> 0 and 7 -> 1;
    # {1, c, c^-1, c^2, c^-2} take 7 and 8 to {305, 306, 7, 8, 9, 10}
    c = FinPermutation({x: x + 1 for x in range(7, 306)} | {306: 7})
    P = pair_of_rows([[c, IDENTITY]], [[IDENTITY, c]])
    _, trace = construct_witness(P, symw_oracle())
    assert [(s["point"], s["image"]) for s in trace.steps] == \
        [(8, 0), (7, 1)]
    assert trace.forbidden_size == 8 == _recount_forbidden(P, trace)


def test_forbidden_set_repeated_entries():
    # one coefficient object in several rows and on both sides, and an
    # equal but distinct copy of it: each adds the same neighbours.  The
    # 6-cycle's inverse takes the separator 10 to 15, which no two forward
    # steps under the entries reach
    c = FinPermutation({10: 11, 11: 12, 12: 13, 13: 14, 14: 15, 15: 10})
    copy = FinPermutation(dict(c._map))
    d = transposition(12, 13)
    P = pair_of_rows([[c, d, c], [d, copy], [IDENTITY, c]],
                     [[d, c], [c, IDENTITY, copy], [copy, d]])
    g, trace = construct_witness(P, symw_oracle())
    assert membership(P, g, SYM)
    assert trace.forbidden_size == 9 == _recount_forbidden(P, trace)


def test_witness_trace_matches_hand_run():
    g, trace = construct_witness(COMMUTE_T01, symw_oracle())
    assert trace.separators == (0,)
    assert [(s["case"], s["point"], s["image"]) for s in trace.steps] == \
        [("alpha", 1, 2), ("beta", 0, 3)]
    assert g == FinPermutation({0: 3, 3: 0, 1: 2, 2: 1})
    assert (T01 * g).apply(0) == 2
    assert (g * T01).apply(0) == 3
    assert membership(COMMUTE_T01, g, SYM)
    # the image 1 of the first step lies in the support of the next
    # coefficient (1 11), which takes it to 11 before x applies again
    P = pair_of_rows([[transposition(5, 8), transposition(1, 11),
                       transposition(0, 6), transposition(2, 3)]],
                     [[transposition(6, 8), IDENTITY]])
    g, trace = construct_witness(P, symw_oracle())
    assert trace.separators == (5,)
    assert [(s["point"], s["image"]) for s in trace.steps] == \
        [(8, 1), (11, 2), (2, 4), (5, 7)]
    assert trace.forbidden_size == 10 == _recount_forbidden(P, trace)
    assert membership(P, g, SYM)


def test_witness_whole_group_row():
    sigma = transposition(2, 6)
    P = pair_of_rows([[sigma, IDENTITY]], [[IDENTITY, IDENTITY]])
    g, trace = construct_witness(P, symw_oracle())
    assert membership(P, g, SYM)
    assert membership(P, IDENTITY, SYM)  # sigma*x != x holds everywhere


def test_not_normalized_rejected():
    bad = pair_of_rows([[T01, IDENTITY]], [[T01, T12]])
    with pytest.raises(ValueError, match="row 0 has equal leading entries"):
        construct_witness(bad, symw_oracle())
    consts = pair_of_rows([[T01]], [[T12]])
    with pytest.raises(ValueError, match="row 0 has degree 0 on both sides"):
        construct_witness(consts, symw_oracle())


def test_symw_oracle_examples():
    oracle = symw_oracle()
    assert oracle.choose_image({}, 5, {0, 1}) == 2
    b = {1: 2}
    # the construction passes a forbidden set that holds every image of b
    assert oracle.choose_image(b, 0, {0, 1, 2}) == 3
    assert oracle.complete(b) == FinPermutation({1: 2, 2: 1})
    assert b == {1: 2}  # neither method mutates the map
    assert oracle.complete({0: 1}) == T01


class _BadOracle(SymOmegaOracle):
    def choose_image(self, b, q, forbidden):
        return next(iter(forbidden))


class _NoImageOracle(SymOmegaOracle):
    def choose_image(self, b, q, forbidden):
        return None


class _RepeatImageOracle(SymOmegaOracle):
    """Returns an image it already chose, once it has chosen one."""

    def choose_image(self, b, q, forbidden):
        return min(b.values(), default=super().choose_image(b, q, forbidden))


def test_oracle_exhausted():
    for oracle in (_BadOracle(), _NoImageOracle(), _RepeatImageOracle()):
        with pytest.raises(OracleExhausted):
            construct_witness(COMMUTE_T01, oracle)


class _CountingView:
    """The forbidden set, counting the membership tests made on it."""

    def __init__(self, inner):
        self.inner = inner
        self.probes = 0

    def __contains__(self, a):
        self.probes += 1
        return a in self.inner


class _ProbeCountingOracle(SymOmegaOracle):
    probes = 0

    def choose_image(self, b, q, forbidden):
        view = _CountingView(forbidden)
        image = super().choose_image(b, q, view)
        self.probes += view.probes
        return image


def test_choose_image_scans_each_natural_once():
    # each scan resumes above the last image, so a test that hits lands on
    # a point of the final forbidden set that no other scan tests, and each
    # step adds the one miss it ends on
    oracle = _ProbeCountingOracle()
    P = rand_proper_pair(random.Random(0), 40, 150, 10)
    _, trace = construct_witness(P, oracle)
    bound = trace.forbidden_size + len(trace.steps)
    assert bound == 2426
    assert oracle.probes <= bound


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


def _prefixes(P, cert) -> list:
    """Each row's longest defined prefix on the A and on the B side after
    each step, derived by replaying the certificate's steps over P."""
    seps = cert["separators"]
    xmap = {}
    out = []
    for s in cert["steps"]:
        xmap[s["point"]] = s["image"]
        out.append(tuple([len(_alpha_chain(row, seps[i], xmap)) - 1
                          for i, row in enumerate(rows)]
                         for rows in (P.A.rows, P.B.rows)))
    return out


def _replay_conditions(P, trace):
    """Conditions of the inductive construction, checked on every prefix:
    partial A- and B-values never collide (3), and no forbidden translate
    of the working image hits a separator (4).  Each step's image also
    avoids every forbidden translate of the working set before the step:
    the points of the map, the stuck point q and the separators.  The
    steps are read from the emitted certificate."""
    cert = json.loads(json.dumps(trace.to_json()))
    seps = cert["separators"]
    forb = _brute_seven_parts(_entries(P))
    xmap = {}
    states = [dict(xmap)]
    for s in cert["steps"]:
        working = set(xmap) | set(xmap.values()) | {s["point"]} | set(seps)
        assert s["image"] not in {f.apply(w) for w in working for f in forb}
        xmap[s["point"]] = s["image"]
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


def _sparse_proper_pair(rng):
    """A proper pair of 1-3 rows of degree at most 3 whose coefficients
    are each the identity or one transposition of {0, ..., 11}.  Its
    fresh images often land in a later coefficient's support, which the
    dense draws of ``rand_proper_pair`` on 8 points almost never do."""
    def coefficient():
        x, y = rng.randrange(12), rng.randrange(12)
        return IDENTITY if x == y else transposition(x, y)

    while True:
        k = rng.randint(1, 3)
        A, B = ([[coefficient() for _ in range(rng.randint(1, 4))]
                 for _ in range(k)] for _ in "AB")
        form = normalize(pair_of_rows(A, B), SYM, DEFAULT_ADJUSTER)
        if form.is_proper:
            return form.pair


def _shift(P, offset):
    rows = [[FinPermutation({x + offset: y + offset
                             for x, y in c._map.items()}) for c in row]
            for row in P.A.rows + P.B.rows]
    return pair_of_rows(rows[:P.num_rows], rows[P.num_rows:])


def _check_witness(P, g, trace, rng):
    """Membership, the step bound and the forbidden-set recount; then ten
    extensions y = extend(b)·σ of the step map b, σ a random permutation
    of a window of points that fixes every image of b, each agree with b
    and lie in N_{A,B}, since each row's evaluation reads x only where a
    step defined it; then the defined prefixes, derived by replaying the
    steps, never decrease, and the handled row strictly advances and is
    the first unfinished one, A rows then B rows.  Membership alone rarely
    catches a wrong step: most completions of a partial map lie in
    N_{A,B} anyway."""
    assert membership(P, g, SYM)
    assert len(trace.steps) <= P.degree_sum()
    assert trace.forbidden_size == _recount_forbidden(P, trace)
    b = {s["point"]: s["image"] for s in trace.steps}
    window = sorted((set(range(12)) | set(trace.separators) | set(b)
                     | {x for c in _entries(P) for x in c._map})
                    - set(b.values()))
    for _ in range(10):
        sigma = FinPermutation(zip(window, rng.sample(window, len(window))))
        y = extend(b) * sigma
        assert all(y.apply(q) == image for q, image in b.items())
        assert membership(P, y, SYM)
    prev_a = [0] * P.num_rows
    prev_b = [0] * P.num_rows
    for n, (s, (pre_a, pre_b)) in enumerate(
            zip(trace.steps, _prefixes(P, trace.to_json()))):
        unfinished = [(case, i) for case, degs, prev in (
            ("alpha", P.A.degrees(), prev_a),
            ("beta", P.B.degrees(), prev_b))
            for i, d in enumerate(degs) if prev[i] < d] + [None]
        case, row = s["case"], s["row"]
        assert (case, row) == unfinished[0], \
            f"step {n} works on {(case, row)}, but the first " \
            f"unfinished row is {unfinished[0]}"
        assert all(x >= y for x, y in zip(pre_a, prev_a))
        assert all(x >= y for x, y in zip(pre_b, prev_b))
        if case == "alpha":
            assert pre_a[row] > prev_a[row]
        else:
            assert pre_b[row] > prev_b[row]
        prev_a, prev_b = pre_a, pre_b
    assert (tuple(prev_a), tuple(prev_b)) == \
        (P.A.degrees(), P.B.degrees()), "a row is left unfinished"


def test_random_witnesses_and_invariants():
    rng = random.Random(99)
    dense = [rand_proper_pair(rng, 3, 3, 8) for _ in range(150)]
    sparse = [_sparse_proper_pair(rng) for _ in range(150)]
    # the dense pairs moved up: separators and stuck points leave the
    # small naturals, while the images stay there
    moved = [_shift(P, offset) for P, offset in
             zip(dense, [2 ** 70] + [rng.randrange(10 ** 6)
                                     for _ in range(29)])]
    oracle = symw_oracle()
    for P in dense + sparse + moved:
        g, trace = construct_witness(P, oracle)
        _check_witness(P, g, trace, rng)
        _replay_conditions(P, trace)
        # a second build gives an equal trace, and equality compares the
        # step entries
        assert construct_witness(P, symw_oracle()) == (g, trace)
        last = trace.steps[-1]
        assert trace != dataclasses.replace(
            trace, steps=trace.steps[:-1] + ({**last,
                                               "image": last["image"] + 1},))
        # the certificate survives a JSON round trip unchanged: no tuple
        # anywhere in it, which no digest of the JSON text can see
        cert = trace.to_json()
        assert json.loads(json.dumps(cert)) == cert
        assert all(sorted(s) == ["case", "image", "point", "row"]
                   for s in cert["steps"])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 4),
       degree=st.integers(1, 6), support=st.integers(0, 12),
       sparse=st.booleans())
def test_witness_membership_property(seed, rows, degree, support, sparse):
    rng = random.Random(seed)
    P = (_sparse_proper_pair(rng) if sparse
         else rand_proper_pair(rng, rows, degree, support))
    _check_witness(P, *construct_witness(P, symw_oracle()), rng)


def test_large_degree_traces_pinned():
    # degree sums 757, 217, 76, 360 and 501: 808 steps in all
    digest = hashlib.sha256()
    for seed in range(5):
        P = rand_proper_pair(random.Random(seed), 20, 60, 5)
        _, trace = construct_witness(P, symw_oracle())
        digest.update(json.dumps(trace.to_json(), sort_keys=True).encode())
    assert digest.hexdigest() == \
        "016237318d674e96f0753e7bd5e473c796454f186051b213b9642d40b7c39636"


def test_large_support_trace_pinned():
    # 103 stacked rows on 2,048 points; every other test has at most 40
    rng = random.Random(3)
    P = stack(rand_proper_pair(rng, 256, 1, 2048),
              rand_proper_pair(rng, 256, 1, 2048))
    assert P.num_rows == 103
    _, trace = construct_witness(P, symw_oracle())
    assert len(trace.steps) == 133
    assert trace.forbidden_size == 2181
    data = json.dumps(trace.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(data).hexdigest() == \
        "b2a5b578f08ad84a3233f7a31347c0b7e1fc2a81c7c6862c4748dbad0a069731"


def test_intersect_witness():
    g, trace = intersect_witness(COMMUTE_T01, COMMUTE_T01, symw_oracle())
    assert membership(COMMUTE_T01, g, SYM)
    # both copies of each row are stuck at the same point, so each step
    # moves two rows
    assert [(s["case"], s["row"], s["point"], s["image"])
            for s in trace.steps] == [("alpha", 0, 1, 2), ("beta", 0, 0, 3)]
    prefixes = _prefixes(stack(COMMUTE_T01, COMMUTE_T01), trace.to_json())
    assert prefixes[0][0] == [1, 1]
    assert prefixes[1][1] == [1, 1]
    P2 = pair_of_rows([[C3, IDENTITY]], [[IDENTITY, C3]])
    g, trace = intersect_witness(COMMUTE_T01, P2, symw_oracle())
    assert membership(COMMUTE_T01, g, SYM)
    assert membership(P2, g, SYM)
    assert len(trace.steps) <= stack(COMMUTE_T01, P2).degree_sum()


def test_trace_json():
    _, trace = construct_witness(COMMUTE_T01, symw_oracle())
    data = trace.to_json()
    assert data["separators"] == [0]
    # the translates of 0, 1, 2 and 3 under {1, (0 1)}
    assert data["forbidden_size"] == 4
    assert data["steps"][0] == {"case": "alpha", "row": 0, "point": 1,
                                "image": 2}
    assert _prefixes(COMMUTE_T01, data)[0] == ([1], [0])
    assert data["witness"] == [[0, 3], [1, 2], [2, 1], [3, 0]]


def test_readme_python_examples_run(capsys):
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
