"""The benchmark's two workloads: seeded inputs and checked cases.

``intersect`` mirrors acceptance criterion 1; ``checks`` puts the cases of
criteria 2 to 6 in one list.  Two long workloads rather than one per
criterion: on a shared host a run must be long for some runs of each case
to miss the neighbours' busy spells, and the time for all runs is fixed.
``SETUPS`` maps a workload name to a function that takes the seed shift
and returns its cases as ``(function, args)`` pairs; a case runs as
``function(tracer, *args)``, checks its own output against an independent
computation, raises ``CheckFailed`` naming the broken invariant, and
returns the bytes of the certificate it emitted.

Only public names of the package are used, so the benchmark runs unchanged
on any commit that keeps them.  Every call into a layer sits inside a span
named after that layer's module.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from random import Random

from zariski.cli import main as cli_main
from zariski.finite import (TableGroup, builtin, family_subset, group_family,
                            semigroup_family, topology_close)
from zariski.groups import SYM
from zariski.perm import FinPermutation
from zariski.ragged import (membership, normal_membership, normalize_steps,
                            signature, stack)
from zariski.randgen import (DEFAULT_ADJUSTER, rand_gelement, rand_pair,
                             rand_perm, rand_proper_pair)
from zariski.sepgroup import (AllEven, FiniteCandidates, brute_solve_on_Tm,
                              finiteness_bound, g_identity, solve_on_Tm)
from zariski.symtop import (SubbasicSet, in_U, maximal_decompose,
                            setwise_stabilizes, stab_by_commutation)
from zariski.witness import intersect_witness, symw_oracle
from zariski.words import (GroupWord, eval_group, group_ineq_to_semigroup_pair,
                           holds_ineq)

from tracing import TracedOracle

# seeds of acceptance criteria 1, 2, 3 and 6; --seed is added to each
INTERSECT_SEED = 20240801
NORMALIZE_SEED = 7_2024
SEPARATE_SEED = 41
DECOMPOSE_SEED = 314

SEPARATE_BOUND = 200


class CheckFailed(Exception):
    """A case's output broke the named invariant."""


def check(ok: bool, invariant: str) -> None:
    if not ok:
        raise CheckFailed(invariant)


# --- intersect: criterion 1 -------------------------------------------------

def setup_intersect(shift: int) -> list:
    # the first 500 of criterion 1's 1000 pairs: a case takes about 10 ms,
    # so 500 give each case about ten runs in a 60 s measurement
    rng = Random(INTERSECT_SEED + shift)
    cases = []
    for _ in range(500):
        P1 = rand_proper_pair(rng, 3, 3, 8)
        P2 = rand_proper_pair(rng, 3, 3, 8)
        S = stack(P1, P2)
        entries = len({c for row in S.A.rows + S.B.rows for c in row})
        cases.append((intersect_case, (P1, P2, S.degree_sum(), entries)))
    return cases


def intersect_case(tr, P1, P2, bound: int, entries: int) -> bytes:
    oracle = symw_oracle()
    if tr.enabled:
        oracle = TracedOracle(oracle, tr)
    with tr.span("witness.construct"):
        _, trace = intersect_witness(P1, P2, oracle)
    # emitting the certificate is part of the case, so work deferred from
    # construction into to_json still counts; so does freeing the trace
    with tr.span("witness.to_json"):
        text = json.dumps(trace.to_json(), sort_keys=True)
        del trace
    # the checks read the emitted certificate, not the objects behind it
    cert = json.loads(text)
    witness = FinPermutation.from_json(cert["witness"])
    with tr.span("ragged.membership", calls=2):
        in_first = membership(P1, witness, SYM)
        in_second = membership(P2, witness, SYM)
    check(in_first and in_second,
          "certified witness lies in both basic open sets")
    check(all(witness.apply(s["point"]) == s["image"] for s in cert["steps"]),
          "certified witness extends every recorded step")
    check(len(cert["steps"]) <= bound, "step count within the degree sum")
    tr.count("witness.steps", len(cert["steps"]))
    tr.count("witness.step_bound", bound)
    tr.count("witness.entries", entries)
    tr.count("witness.forbidden_size", cert["forbidden_size"])
    return text.encode()


# --- checks, criterion 2: normalization -------------------------------------

def setup_normalize_sample(shift: int) -> list:
    # criterion 2 draws 200 pairs with 1000 samples each; with so few
    # pairs the case percentiles depend on the seed more than on the code,
    # so this draws 500 pairs with 100 samples each
    rng = Random(NORMALIZE_SEED + shift)
    cases = []
    for _ in range(500):
        P = rand_pair(rng, 3, 4, 8)
        xs = [rand_perm(rng, 8) for _ in range(100)]
        cases.append((normalize_case, (P, xs)))
    return cases


def normalize_case(tr, P, xs) -> bytes:
    with tr.span("ragged.normalize"):
        form, steps = normalize_steps(P, SYM, DEFAULT_ADJUSTER)
    prev = signature(P)
    adjusted = set()
    for s in steps:
        if s.kind in ("cancel", "delete", "empty"):
            check(s.signature < prev, "rewrite strictly lowers the signature")
        else:
            check(s.signature == prev, "adjustment keeps the signature")
            check(s.row not in adjusted, "at most one adjustment per row")
            adjusted.add(s.row)
        prev = s.signature
    if form.is_proper:
        for arow, brow in zip(form.pair.A.rows, form.pair.B.rows):
            check(len(arow) > 1 or len(brow) > 1, "positive degree per row")
            check(arow[0] != brow[0], "distinct leading entries")
    with tr.span("ragged.membership", calls=len(xs)):
        direct = [membership(P, x, SYM) for x in xs]
    with tr.span("ragged.normal_membership", calls=len(xs)):
        normal = [normal_membership(form, x, SYM) for x in xs]
    check(direct == normal, "membership agrees with the normal form")
    tr.count("ragged.normalize.steps", len(steps))
    kinds = " ".join(f"{s.kind}:{s.row}" for s in steps)
    return f"{form.tag} {kinds}".encode() + bytes(direct)


# --- checks, criterion 3: separation ----------------------------------------

def setup_separate(shift: int) -> list:
    rng = Random(SEPARATE_SEED + shift)
    cases = []
    # criterion 3 draws 500 elements per row; 250 keep a pass of the checks
    # workload short enough for each case to run about eight times
    for m in range(2, 6):
        for p in range(1, m):
            cases.extend((separate_case, (rand_gelement(rng), p, m))
                         for _ in range(250))
    # torsion rows: x^m = 1 on T_m holds exactly at the even indices
    cases.extend((torsion_case, (m,)) for m in range(2, 6))
    return cases


def _solve(tr, a, p, m):
    with tr.span("sepgroup.solve"):
        sols = solve_on_Tm(a, p, m, SEPARATE_BOUND)
    with tr.span("sepgroup.bound"):
        bnd = finiteness_bound(a, p, m)
    with tr.span("sepgroup.brute"):
        brute = brute_solve_on_Tm(a, p, m, SEPARATE_BOUND)
    tr.count("sepgroup.brute_points", SEPARATE_BOUND + 1)
    tr.count("sepgroup.solutions", len(sols))
    return sols, bnd, brute


def separate_case(tr, a, p: int, m: int) -> bytes:
    sols, bnd, brute = _solve(tr, a, p, m)
    check(isinstance(bnd, FiniteCandidates), "p < m gives a finite bound")
    check(sols <= bnd.indices, "solutions lie in the candidate set")
    check(sols == brute, "closed form equals brute enumeration")
    return bytes(sorted(sols))


def torsion_case(tr, m: int) -> bytes:
    sols, bnd, brute = _solve(tr, g_identity(), m, m)
    check(bnd == AllEven(), "torsion row is tagged all-even")
    check(sols == frozenset(range(0, SEPARATE_BOUND + 1, 2)),
          "torsion solutions are the even indices")
    check(sols == brute, "closed form equals brute enumeration")
    return bytes(sorted(sols))


# --- checks, criteria 4, 5 and 6: words, finite groups, symmetric group ------

def setup_finite_oracle(shift: int) -> list:
    s3 = builtin("S3")
    G = TableGroup(s3)
    cases = []
    for degree in range(4):
        for coeffs in itertools.product(range(s3.order), repeat=degree + 1):
            for signs in itertools.product((1, -1), repeat=degree):
                cases.append((word_case, (GroupWord(coeffs, signs), G)))

    cases.extend((identity_case, (builtin(name),))
                 for name in ("Z2", "Z3", "Z4", "Z5", "Z6"))
    cases.append((inclusion_case, (s3,)))
    cases.extend((monotone_case, (builtin(name), d))
                 for name in ("Z2", "Z3", "Z4", "Z5", "Z6", "S3", "S4")
                 for d in (0, 1))

    for img in itertools.permutations(range(5)):
        f = FinPermutation({i: y for i, y in enumerate(img) if i != y})
        cases.extend((stab_case, (f, x, y))
                     for x in range(5) for y in range(x + 1, 5))

    rng = Random(DECOMPOSE_SEED + shift)
    for _ in range(500):
        x = rng.randint(0, 6)
        f = _moving(rng, x)
        g = _moving(rng, x)
        cases.append((decompose_case, (f, g, x)))
    return cases


def _moving(rng: Random, x: int) -> FinPermutation:
    while True:
        f = rand_perm(rng, 8)
        if f.apply(x) != x:
            return f


def word_case(tr, w, G) -> bytes:
    elems = range(G.table.order)
    with tr.span("words.reduce"):
        pair = group_ineq_to_semigroup_pair(w, G)
    with tr.span("words.eval", calls=2 * len(elems)):
        direct = [eval_group(w, x, G) != G.table.id for x in elems]
        reduced = [holds_ineq(pair, x, G) for x in elems]
    check(direct == reduced, "degree-3 reduction keeps the solution set")
    tr.count("words.words", 1)
    return bytes(direct)


def _families(tr, table, d: int) -> tuple:
    with tr.span("finite.family", calls=2):
        sem = semigroup_family(table, d)
        grp = group_family(table, d)
    tr.count("finite.family_sets", len(sem) + len(grp))
    return sem, grp


def _closed(tr, table) -> tuple:
    sem, grp = _families(tr, table, 2)
    with tr.span("finite.closure", calls=2):
        sem = topology_close(sem)
        grp = topology_close(grp)
    tr.count("finite.closed_sets", len(sem) + len(grp))
    return sem, grp


def identity_case(tr, table) -> bytes:
    sem, grp = _closed(tr, table)
    check(sem.masks == grp.masks,
          "group and semigroup topologies agree on an abelian group")
    return json.dumps([table.order, len(sem)]).encode()


def inclusion_case(tr, table) -> bytes:
    sem, grp = _closed(tr, table)
    check(family_subset(sem, grp),
          "semigroup topology lies inside the group topology")
    return json.dumps([table.order, len(sem), len(grp)]).encode()


def monotone_case(tr, table, d: int) -> bytes:
    sem0, grp0 = _families(tr, table, d)
    sem1, grp1 = _families(tr, table, d + 1)
    check(family_subset(sem0, sem1) and family_subset(grp0, grp1),
          "families grow with the degree")
    return json.dumps([table.order, d, len(sem1), len(grp1)]).encode()


def stab_case(tr, f, x: int, y: int) -> bytes:
    with tr.span("symtop.stab", calls=2):
        by_commutation = stab_by_commutation(f, x, y)
        setwise = setwise_stabilizes(f, x, y)
    check(by_commutation == setwise,
          "commutation decides the two-point stabilizer")
    return b"1" if setwise else b"0"


def decompose_case(tr, f, g, x: int) -> bytes:
    with tr.span("symtop.decompose", calls=3):
        phi, h = maximal_decompose(f, g, x)
        fixes = in_U(SubbasicSet(x, x), phi) and in_U(SubbasicSet(x, x), h)
    check(fixes, "phi and h fix the base point")
    with tr.span("perm.mul", calls=3):
        exact = phi * f * h.inv() == g
    check(exact, "phi * f * h^-1 equals g")
    return json.dumps([phi.to_json(), h.to_json()]).encode()


def setup_checks(shift: int) -> list:
    return (setup_normalize_sample(shift) + setup_separate(shift)
            + setup_finite_oracle(shift))


SETUPS = {
    "intersect": setup_intersect,
    "checks": setup_checks,
}


# --- command line: README-default invocations, timed in the traced run -------

README_PAIR = {"A": [[[[0, 1], [1, 0]], []]], "B": [[[], [[0, 1], [1, 0]]]]}

CLI_RUNS = {
    "intersect": [
        ("cli.intersect", ["intersect", "--random", "--cases", "200",
                           "--seed", "7"]),
        ("cli.witness", ["witness", "{pair}"]),
    ],
    "checks": [
        ("cli.normalize", ["normalize", "{pair}", "--cases", "500"]),
        ("cli.separate", ["separate", "--m-min", "2", "--m-max", "5",
                          "--cases", "100", "--bound-N", "200"]),
        ("cli.symcheck", ["symcheck", "--cases", "500"]),
        ("cli.finite_check", ["finite-check", "--group", "Z6",
                              "--max-degree", "2"]),
    ],
}


def run_cli(tr, name: str, argv: list, pair_path: str) -> None:
    """Run one subcommand in-process through ``zariski.cli.main`` and check
    that it exits 0 with every reported case passing."""
    argv = [arg.format(pair=pair_path) for arg in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), tr.span(name):
        code = cli_main(argv)
    check(code == 0, f"zariski {argv[0]} exits 0")
    check(json.loads(out.getvalue())["summary"]["fail"] == 0,
          f"zariski {argv[0]} reports no failed case")
