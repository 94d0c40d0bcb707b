"""Acceptance suite: one test per criterion, at full stated scale.

The underlying theorems are exact, so every check demands a 100% pass
rate, not a statistical tolerance.  Each test prints one PASS line
(visible with ``pytest -s``) after its assertions succeed.
"""

import itertools
import json
import time
from random import Random

from zariski.cli import main
from zariski.finite import TableGroup, builtin, family_subset, group_family, \
    semigroup_family
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY, transposition
from zariski.ragged import membership, normal_membership, normalize_steps, \
    pair_of_rows, pair_to_json, signature, stack
from zariski.randgen import (DEFAULT_ADJUSTER, rand_gelement,
                             rand_moving_perm, rand_pair, rand_perm,
                             rand_proper_pair)
from zariski.sepgroup import (AllEven, FiniteCandidates, brute_solve_on_Tm,
                              finiteness_bound, g_identity, solve_on_Tm)
from zariski.symtop import (SubbasicSet, in_U, maximal_decompose,
                            setwise_stabilizes, stab_by_commutation)
from zariski.witness import intersect_witness, symw_oracle
from zariski.words import (GroupWord, eval_group, group_ineq_to_semigroup_pair,
                           holds_ineq)


def _announce(n, name):
    print(f"ACCEPTANCE {n} {name}: PASS")


def test_criterion_1_hyperconnectedness_certificate():
    rng = Random(20240801)
    inputs = [(rand_proper_pair(rng, 3, 3, 8), rand_proper_pair(rng, 3, 3, 8))
              for _ in range(1000)]
    oracle = symw_oracle()
    started = time.perf_counter()
    successes = 0
    for P1, P2 in inputs:
        g, trace = intersect_witness(P1, P2, oracle)
        assert len(trace.steps) <= stack(P1, P2).degree_sum()
        assert membership(P1, g, SYM) and membership(P2, g, SYM)
        successes += 1
    elapsed = time.perf_counter() - started
    assert successes == 1000
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _announce(1, f"hyperconnectedness 1000/1000 in {elapsed:.2f}s")


def test_criterion_2_normalization_soundness():
    rng = Random(7_2024)
    for _ in range(200):
        P = rand_pair(rng, 3, 4, 8)
        form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
        # per-step signature: strict lexicographic decrease on every
        # degree/row rewrite; the entry-adjustment steps provably leave the
        # signature unchanged and happen at most once per row
        prev = signature(P)
        adjusted = set()
        for s in steps:
            if s.kind in ("cancel", "delete", "empty"):
                assert s.signature < prev
            else:
                assert s.signature == prev
                assert s.row not in adjusted
                adjusted.add(s.row)
            prev = s.signature
        if form.is_proper:
            for arow, brow in zip(form.pair.A.rows, form.pair.B.rows):
                assert len(arow) - 1 > 0 or len(brow) - 1 > 0  # condition (1)
                assert arow[0] != brow[0]                      # condition (2)
        agree = sum(membership(P, x, SYM) == normal_membership(form, x, SYM)
                    for x in (rand_perm(rng, 8) for _ in range(1000)))
        assert agree == 1000
    _announce(2, "normalization 200x1000 membership agreement = 100%")


def test_criterion_3_separation_dichotomy():
    rng = Random(41)
    grid = [(m, p) for m in range(2, 6) for p in range(1, m)]
    samples = {pair: [rand_gelement(rng) for _ in range(500)]
               for pair in grid}
    started = time.perf_counter()
    mismatches = 0
    for (m, p), batch in samples.items():
        for a in batch:
            sols = solve_on_Tm(a, p, m, 200)
            brute = brute_solve_on_Tm(a, p, m, 200)
            bnd = finiteness_bound(a, p, m)
            assert isinstance(bnd, FiniteCandidates)
            # the closed form reads its case from the bound, so the bound
            # is checked against the enumeration
            assert brute <= bnd.indices
            if sols != brute:
                mismatches += 1
    for m in range(2, 6):
        torsion = solve_on_Tm(g_identity(), m, m, 200)
        assert torsion == frozenset(range(0, 201, 2))
        assert torsion == brute_solve_on_Tm(g_identity(), m, m, 200)
        assert finiteness_bound(g_identity(), m, m) == AllEven()
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _announce(3, f"separation dichotomy, 0 mismatches, {elapsed:.2f}s")


def test_criterion_4_degree3_reduction_exhaustive():
    table = builtin("S3")
    G = TableGroup(table)
    elems = range(table.order)
    words = 0
    mismatches = 0
    for degree in range(4):
        for coeffs in itertools.product(elems, repeat=degree + 1):
            for signs in itertools.product((1, -1), repeat=degree):
                w = GroupWord(coeffs, signs)
                pair = group_ineq_to_semigroup_pair(w, G)
                words += 1
                for x in elems:
                    direct = eval_group(w, x, G) != table.id
                    if direct != holds_ineq(pair, x, G):
                        mismatches += 1
    assert words == 6 + 72 + 864 + 10368
    assert mismatches == 0
    _announce(4, f"degree-3 reduction exhaustive over S3: {words} words, "
                 "0 mismatches")


def test_criterion_5_commutative_identity_and_monotonicity():
    for name in ("Z2", "Z3", "Z4", "Z5", "Z6"):
        table = builtin(name)
        for d in (0, 1, 2):
            assert semigroup_family(table, d).masks == \
                group_family(table, d).masks, (name, d)
    # f(x) != g(x) iff f(x)g(x)^-1 != 1, a group word of degree 2e
    for name in ("S3", "S4"):
        table = builtin(name)
        for e in (0, 1):
            assert family_subset(semigroup_family(table, e),
                                 group_family(table, 2 * e)), (name, e)
    # off the abelian groups the families differ, so equality is no tautology
    s3 = builtin("S3")
    assert len(semigroup_family(s3, 1)) == 19
    assert len(group_family(s3, 1)) == 8
    for name in ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "S4"):
        table = builtin(name)
        for d in (0, 1):
            assert family_subset(semigroup_family(table, d),
                                 semigroup_family(table, d + 1)), name
            assert family_subset(group_family(table, d),
                                 group_family(table, d + 1)), name
    _announce(5, "family identity on Z2..Z6, semigroup_e in group_2e on "
                 "S3 and S4, monotonicity on all builtins")


def test_criterion_6_symmetric_group_lemmas():
    checked = 0
    for img in itertools.permutations(range(5)):
        f = FinPermutation({i: y for i, y in enumerate(img) if i != y})
        for x in range(5):
            for y in range(x + 1, 5):
                assert stab_by_commutation(f, x, y) == \
                    setwise_stabilizes(f, x, y)
                checked += 1
    assert checked == 1200

    rng = Random(314)
    decompositions = 0
    for _ in range(500):
        x = rng.randint(0, 6)
        f = rand_moving_perm(rng, 8, x)
        g = rand_moving_perm(rng, 8, x)
        phi, h = maximal_decompose(f, g, x)
        assert in_U(SubbasicSet(x, x), phi) and in_U(SubbasicSet(x, x), h)
        assert phi * f * h.inv() == g
        decompositions += 1
    assert decompositions == 500
    _announce(6, "stabilizer equivalence 1200/1200, decomposition 500/500")


def _canonical_without_wall_time(path):
    data = json.loads(path.read_text())
    data.pop("wall_time_s", None)
    return json.dumps(data, sort_keys=True)


def test_criterion_7_cli_determinism(tmp_path):
    pair_file = tmp_path / "pair.json"
    pair = pair_of_rows([[transposition(0, 1), IDENTITY]],
                        [[IDENTITY, transposition(0, 1)]])
    pair_file.write_text(json.dumps(pair_to_json(pair)))
    commands = [
        ["normalize", str(pair_file), "--seed", "11", "--cases", "50"],
        ["witness", "--random", "--cases", "20", "--seed", "11"],
        ["intersect", "--random", "--cases", "10", "--seed", "11"],
        ["separate", "--cases", "10", "--seed", "11"],
        ["symcheck", "--cases", "50", "--seed", "11"],
        ["finite-check", "--group", "Z4", "--max-degree", "2"],
    ]
    for argv in commands:
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0, argv
        assert main(argv + ["--out", str(second)]) == 0, argv
        assert _canonical_without_wall_time(first) == \
            _canonical_without_wall_time(second), argv
    _announce(7, "CLI reports byte-identical across repeated seeded runs")
