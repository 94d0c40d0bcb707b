"""Reproducible experiment runner.

Every subcommand but ``finite-check`` consumes a 64-bit unsigned seed;
each takes explicit bounds, runs its checks, and emits a machine-readable
report.  All randomness flows through
``random.Random`` (Mersenne Twister) seeded from the config, so identical
invocations produce identical reports; the JSON format carries a
``wall_time_s`` field, which is the only non-deterministic part.

Exit codes: 0 all cases pass.  1 a case failed, the input set is empty,
or the package raised another error.  2 malformed or unreadable input, a
matrix pair whose rows x (rows + degree sum) is above 2^18, an
out-of-range option, an empty ``separate`` range, an enumeration guard, or
a report that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from random import Random

from zariski.errors import EmptyInput, TooLarge, UnknownGroup, ZariskiError
from zariski.groups import SYM
from zariski.perm import FinPermutation, IDENTITY
from zariski.randgen import (DEFAULT_ADJUSTER, rand_gelement,
                             rand_moving_perm, rand_perm, rand_proper_pair)
from zariski.ragged import (MatrixPair, membership, normal_membership,
                            normalize, normalize_steps, pair_from_json,
                            pair_to_json, signature, stack)
from zariski.sepgroup import (AllEven, brute_solve_on_Tm, finiteness_bound,
                              g_identity, g_to_json, solve_on_Tm)
from zariski.symtop import (maximal_decompose, setwise_stabilizes,
                            stab_by_commutation)
from zariski.witness import construct_witness, symw_oracle
from zariski import finite


# Largest accepted sampling sizes.  Time and memory grow with each, and a
# huge value ran out of memory or ran for hours; at the caps one case takes
# a few seconds at most.
MAX_SUPPORT = 4096
MAX_ROWS = MAX_DEGREE = 256
MAX_M = 32
MAX_BOUND_N = 65536
# a random pair's entries move at most 2 x this many points in all
MAX_SAMPLED = 2 ** 20
# largest rows x (rows + degree sum) of a pair read from a file: each
# normalize step records the whole signature, so memory grows as rows^2 x
# degree (a witness step records four numbers, however many the rows); two
# stacked intersect inputs stay within 2^20
MAX_PAIR_SIZE = 2 ** 18


class ParseFailure(Exception):
    pass


def _load_pair(path: str) -> MatrixPair:
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past Python's digit limit
        raise ParseFailure(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    try:
        pair = pair_from_json(data)
    except ValueError as exc:
        raise ParseFailure(f"{path}: malformed matrix pair: {exc}") from exc
    size = pair.num_rows * (pair.num_rows + pair.degree_sum())
    if size > MAX_PAIR_SIZE:
        raise ParseFailure(f"{path}: rows x (rows + degree sum) must be at "
                           f"most {MAX_PAIR_SIZE}, got {size}")
    return pair


# --- normalize -------------------------------------------------------------

def _signature_monotone(start, steps) -> bool:
    """Rewriting steps, from the signature ``start`` of the input on, must
    never increase the signature; degree and row rewrites
    (cancel/delete/empty) must strictly decrease it."""
    prev = start
    adjusted = set()
    for step in steps:
        if step.kind in ("adjust_a", "adjust_b"):
            if step.row in adjusted or step.signature != prev:
                return False
            adjusted.add(step.row)
        elif step.signature >= prev:
            return False
        prev = step.signature
    return True


def cmd_normalize(args) -> list:
    pair = _load_pair(args.input)
    rng = Random(args.seed)
    form, steps = normalize_steps(pair, SYM, DEFAULT_ADJUSTER)
    monotone = _signature_monotone(signature(pair), steps)
    agree = all(
        membership(pair, x, SYM) == normal_membership(form, x, SYM)
        for x in (rand_perm(rng, args.support) for _ in range(args.cases)))
    record = {
        "form": form.tag,
        "steps": [{"kind": s.kind, "row": s.row,
                   "signature": list(s.signature)} for s in steps],
        "signature_monotone": monotone,
        "membership_agreement": agree,
        "pass": monotone and agree,
    }
    if form.is_proper:
        record["normalized"] = pair_to_json(form.pair)
        record["conditions"] = "leading entries differ, positive degree per row"
    return [record]


# --- witness / intersect ---------------------------------------------------

def _witness_case(pairs: list) -> dict:
    normals = []
    for p in pairs:
        form = normalize(p, SYM, DEFAULT_ADJUSTER)
        if form.is_empty:
            raise EmptyInput("the basic set is empty; no witness exists")
        normals.append(form)
    proper = [f.pair for f in normals if f.is_proper]
    if not proper:
        # every input denotes the whole group: the identity witnesses it
        return {"tag": "full", "witness": IDENTITY.to_json(),
                "membership": True, "pass": True}
    stacked = functools.reduce(stack, proper)
    g, trace = construct_witness(stacked, symw_oracle())
    ok_members = all(membership(q, g, SYM) for q in proper)
    ok_original = all(membership(p, g, SYM) for p in pairs)
    bound = stacked.degree_sum()
    ok_bound = len(trace.steps) <= bound
    cert = trace.to_json()
    return {
        "witness": cert.pop("witness"),  # once, not again in the trace
        "trace": cert,
        "step_bound": bound,
        "steps_used": len(trace.steps),
        "membership": ok_members and ok_original,
        "pass": ok_members and ok_original and ok_bound,
    }


def cmd_witness(args) -> list:
    """Serves both ``witness`` (one input set) and ``intersect`` (two)."""
    arity = 1 if args.command == "witness" else 2
    rng = Random(args.seed)
    cases = []
    if args.random:
        if args.input or args.input2:
            raise ParseFailure("cannot mix --random with input files")
        points = args.rows * (args.max_degree + 1) * args.support
        if points > MAX_SAMPLED:
            raise ParseFailure(
                "--rows x (--max-degree + 1) x --support must be at most "
                f"{MAX_SAMPLED}, got {points}")
        for _ in range(args.cases):
            pairs = [rand_proper_pair(rng, args.rows, args.max_degree,
                                      args.support) for _ in range(arity)]
            cases.append(_witness_case(pairs))
    else:
        paths = [p for p in (args.input, args.input2) if p]
        if len(paths) != arity:
            raise ParseFailure(f"{args.command} needs {arity} input file(s) "
                               "or --random")
        pairs = [_load_pair(p) for p in paths]
        cases.append(_witness_case(pairs))
    return cases


# --- separate ----------------------------------------------------------------

def _separate_case(a, p, m, bound_n) -> dict:
    sols = solve_on_Tm(a, p, m, bound_n)
    brute = brute_solve_on_Tm(a, p, m, bound_n)
    bnd = finiteness_bound(a, p, m)
    # the closed form reads its case from the bound, so the bound is
    # checked against the enumeration
    if isinstance(bnd, AllEven):
        tag = "all_even"
        bound_ok = brute == frozenset(range(0, bound_n + 1, 2))
    else:
        tag = "finite"
        bound_ok = brute <= bnd.indices
    return {
        "m": m, "p": p, "a": g_to_json(a),
        "solutions": sorted(sols),
        "tag": tag,
        "bound_ok": bound_ok,
        "brute_match": sols == brute,
        "pass": bound_ok and sols == brute,
    }


def cmd_separate(args) -> list:
    if args.m_max < args.m_min:
        raise ParseFailure(f"--m-max ({args.m_max}) must be at least "
                           f"--m-min ({args.m_min})")
    rng = Random(args.seed)
    cases = []
    for m in range(args.m_min, args.m_max + 1):
        for p in range(1, m):
            for _ in range(args.cases):
                a = rand_gelement(rng)
                cases.append(_separate_case(a, p, m, args.bound_N))
        # torsion row: x^m = 1 on T_m is exactly the even indices
        cases.append(_separate_case(g_identity(), m, m, args.bound_N))
    return cases


# --- symcheck ----------------------------------------------------------------

def cmd_symcheck(args) -> list:
    # exhaustive: the commutation test agrees with the setwise-stabilizer
    # test for all permutations of {0..4} and all pairs x < y < 5
    total = ok = 0
    for img in itertools.permutations(range(5)):
        f = FinPermutation({i: y for i, y in enumerate(img) if i != y})
        for x in range(5):
            for y in range(x + 1, 5):
                total += 1
                if stab_by_commutation(f, x, y) == setwise_stabilizes(f, x, y):
                    ok += 1
    sweep = {"check": "stabilizer_commutation", "total": total, "passed": ok,
             "pass": ok == total}

    rng = Random(args.seed)
    total_d = ok_d = 0
    for _ in range(args.cases):
        x = rng.randint(0, 4)
        f = rand_moving_perm(rng, args.support, x)
        g = rand_moving_perm(rng, args.support, x)
        phi, h = maximal_decompose(f, g, x)
        total_d += 1
        if phi.apply(x) == x == h.apply(x) and phi * f * h.inv() == g:
            ok_d += 1
    decomp = {"check": "maximal_decomposition", "total": total_d,
              "passed": ok_d, "pass": ok_d == total_d}
    return [sweep, decomp]


# --- finite-check ------------------------------------------------------------

def cmd_finite_check(args) -> list:
    table = finite.builtin(args.group)
    d = args.max_degree
    # every enumeration guard grows with the degree, so the degree-d
    # families go first: a run too large fails before any smaller one
    sem_d = finite.semigroup_family(table, d)
    grp_d = finite.group_family(table, d)
    sem = [finite.semigroup_family(table, e) for e in range(d)] + [sem_d]
    grp = [finite.group_family(table, e) for e in range(d)] + [grp_d]
    record = {
        "group": args.group,
        "order": table.order,
        "abelian": table.is_abelian(),
        "semigroup_family_sizes": [len(f) for f in sem],
        "group_family_sizes": [len(f) for f in grp],
        "monotone_semigroup": all(finite.family_subset(sem[e], sem[e + 1])
                                  for e in range(d)),
        "monotone_group": all(finite.family_subset(grp[e], grp[e + 1])
                              for e in range(d)),
        # equal at every degree on an abelian group
        "families_equal": [s.masks == g.masks for s, g in zip(sem, grp)],
        # f(x) != g(x) iff f(x)g(x)^-1 != 1, a group word of degree 2e
        "semigroup_subset_of_group": all(
            finite.family_subset(sem[e], grp[2 * e])
            for e in range(d // 2 + 1)),
    }
    record["reduction_mismatches"] = finite.reduction_mismatches(table, d)
    record["pass"] = (record["monotone_semigroup"]
                      and record["monotone_group"]
                      and not record["reduction_mismatches"]
                      and record["semigroup_subset_of_group"]
                      and (not record["abelian"]
                           or all(record["families_equal"])))
    return [record]


# --- rendering ---------------------------------------------------------------

def _render_table(report: dict) -> str:
    lines = [f"command: {report['command']}"]
    cfg = " ".join(f"{k}={v}" for k, v in sorted(report["config"].items()))
    lines.append(f"config: {cfg}")
    for i, case in enumerate(report["cases"]):
        status = "pass" if case["pass"] else "FAIL"
        detail = " ".join(
            f"{k}={json.dumps(v, sort_keys=True)}"
            for k, v in sorted(case.items())
            if k not in ("pass", "trace", "steps", "normalized", "solutions"))
        lines.append(f"case {i}: {status} {detail}")
    s = report["summary"]
    lines.append(f"summary: {s['pass']}/{s['cases']} pass, {s['fail']} fail")
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_table(report)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseFailure(f"cannot write {args.out}: {exc}") from exc
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout again at exit; send what is
            # still buffered to the null device so that flush cannot fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ParseFailure("cannot write the report to standard "
                               f"output: {exc}") from exc


# --- parser ------------------------------------------------------------------

def _at_least(low: int, below: int | None = None):
    """argparse type: an integer no smaller than ``low`` and, if ``below``
    is given, smaller than ``below``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(
                f"must be below {below}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _add_command(subs, name: str, func, helptext: str):
    p = subs.add_parser(name, help=helptext)
    p.add_argument("--format", choices=("json", "table"), default="json")
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=func)
    return p


def _add_seeded(sub, cases_default: int):
    # Random(-n) repeats the stream of Random(n), so negative seeds are
    # refused rather than silently aliased
    sub.add_argument("--seed", type=_at_least(0, 2 ** 64), default=0,
                     help="64-bit unsigned seed for all randomness")
    sub.add_argument("--cases", type=_at_least(0), default=cases_default,
                     help="number of random cases / samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zariski",
        description="Seeded experiments on Zariski-type topologies on groups.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _add_command(subs, "normalize", cmd_normalize,
                     "normalize a ragged matrix pair")
    p.add_argument("input", help="matrix-pair JSON file ('-' for stdin)")
    _add_seeded(p, 200)
    p.add_argument("--support", type=_at_least(0, MAX_SUPPORT + 1), default=8)

    for name, helptext in (
            ("witness", "construct a witness inside one basic set"),
            ("intersect", "witness the intersection of two basic sets")):
        p = _add_command(subs, name, cmd_witness, helptext)
        p.add_argument("input", nargs="?", default=None,
                       help="matrix-pair JSON file ('-' for stdin)")
        p.add_argument("input2", nargs="?", default=None,
                       help="second matrix-pair JSON file")
        p.add_argument("--random", action="store_true",
                       help="generate random normalized pairs instead")
        _add_seeded(p, 100)
        p.add_argument("--rows", type=_at_least(1, MAX_ROWS + 1), default=3)
        p.add_argument("--max-degree", type=_at_least(1, MAX_DEGREE + 1),
                       default=3)
        p.add_argument("--support", type=_at_least(0, MAX_SUPPORT + 1),
                       default=8)

    p = _add_command(subs, "separate", cmd_separate,
                     "finite/cofinite dichotomy in the separating group")
    _add_seeded(p, 100)
    p.add_argument("--m-min", type=_at_least(2), default=2)
    p.add_argument("--m-max", type=_at_least(2, MAX_M + 1), default=5)
    p.add_argument("--bound-N", type=_at_least(0, MAX_BOUND_N + 1),
                   default=200, dest="bound_N")

    p = _add_command(subs, "symcheck", cmd_symcheck,
                     "stabilizer and decomposition checks on Sym")
    _add_seeded(p, 500)
    # the decompositions draw base points from {0..4}, and a permutation
    # of {0..support-1} must be able to move each of them
    p.add_argument("--support", type=_at_least(5, MAX_SUPPORT + 1), default=8)

    p = _add_command(subs, "finite-check", cmd_finite_check,
                     "exhaustive family checks on a finite group")
    p.add_argument("--group", required=True)
    p.add_argument("--max-degree", type=_at_least(0), default=2)

    return parser


# parsed arguments that are not settings of the run: the subcommand, its
# inputs and its output
_NOT_CONFIG = frozenset({"command", "func", "input", "input2", "random",
                         "format", "out"})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = {k.replace("_", "-"): v for k, v in vars(args).items()
              if k not in _NOT_CONFIG}
    started = time.perf_counter()
    try:
        cases = args.func(args)
        failed = sum(1 for c in cases if not c["pass"])
        report = {
            "command": args.command,
            "config": config,
            "cases": cases,
            "summary": {"cases": len(cases), "pass": len(cases) - failed,
                        "fail": failed},
        }
        if args.format == "json":
            report["wall_time_s"] = round(time.perf_counter() - started, 6)
        _emit(report, args)
    except (ParseFailure, TooLarge, UnknownGroup) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZariskiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
