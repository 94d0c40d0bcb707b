#!/usr/bin/env python3
"""Certificate benchmark for the zariski package.

Usage, from the root of a checkout:

    python3 certbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``): ``intersect`` (criterion 1) and
``checks`` (criteria 2 to 6).  ``--seed`` is added to every
acceptance seed; 0 reproduces the acceptance inputs.  The package is
imported from ``src/`` of the checkout; nothing is installed.

Load is a closed loop: one caller, one thread, one process per workload, so
``peak_rss_mb`` belongs to that workload alone.  Inputs are generated before
timing starts.  Every case checks its output independently, and a case that
raises or fails a check counts as failed; the command exits 1 when any case
failed.

``--trace 0`` sets up ``SETUP_REPEATS`` times (each import in a fresh
interpreter) and reports the median as ``setup_s``.  It then runs the
cases in order, over and over, until ``--seconds`` have passed and every
case has run at least once.  The latency metrics are taken over each
case's fastest run: ``case_p50_ms`` and ``case_p98_ms`` are percentiles
of those times, and ``cases_per_s`` is the number of verified cases
divided by their sum.  On a shared host, neighbours slow the machine in
spells; a case's slower runs measure them, while its fastest run, out of
the eight or so a run gives it, measures the code.

``--trace 1`` runs each case once untraced and once traced, then the
README-default command line invocations that belong to the workload, and
reports per-layer self times and counts derived from the spans.  Its work
is fixed by the seed and ignores ``--seconds``, so that every count repeats
exactly.  The spans are written to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("intersect", "checks")
SETUP_REPEATS = 3
RUN_SECONDS = 60  # the run_seconds of BENCHMARK.json

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p98_ms": "ms",
    "peak_rss_mb": "MB",
}

# spans whose self time is reported as <name>_s
TIMED_SPANS = (
    "witness.construct", "witness.choose_image", "witness.complete",
    "witness.to_json",
    "ragged.membership", "ragged.normal_membership", "ragged.normalize",
    "sepgroup.solve", "sepgroup.bound", "sepgroup.brute",
    "words.reduce", "words.eval",
    "finite.family", "finite.closure",
    "symtop.stab", "symtop.decompose",
    "perm.mul",
    "cli.intersect", "cli.witness", "cli.normalize", "cli.separate",
    "cli.symcheck", "cli.finite_check",
)
# spans whose number of covered calls is reported as <name>.calls
COUNTED_SPANS = ("witness.construct", "witness.choose_image",
                 "ragged.membership", "ragged.normalize")
# counts added by the cases
COUNTS = (
    "witness.steps", "witness.step_bound", "witness.entries",
    "witness.forbidden_size", "ragged.normalize.steps",
    "sepgroup.brute_points", "sepgroup.solutions",
    "words.words", "finite.family_sets", "finite.closed_sets",
)
TRACE_TOTALS = {
    "trace.case_s": "s",
    "trace.untraced_case_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
}

IMPORT_PROBE = """\
import sys, time
t = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import workloads
print(time.perf_counter() - t)
"""


def per_layer_units() -> dict:
    units = {f"{name}_s": "s" for name in TIMED_SPANS}
    units.update({f"{name}.calls": "count" for name in COUNTED_SPANS})
    units.update({name: "count" for name in COUNTS})
    units.update(TRACE_TOTALS)
    return units


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every acceptance seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="measured time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    import numpy
    import zariski

    facts = {"python": platform.python_version(),
             "numpy": numpy.__version__,
             "nproc": len(os.sched_getaffinity(0))}
    backend = getattr(zariski, "backend_name", None)
    if callable(backend):
        facts["backend"] = backend()
    return facts


def import_probe() -> float:
    """Seconds to import the benchmark and the package in a fresh
    interpreter, measured inside that interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, BENCH_DIR, SRC],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return float(done.stdout.strip().splitlines()[-1])


def nearest_rank(ordered, q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_case(fn, args, tr, failures: list, label) -> bytes | None:
    try:
        return fn(tr, *args)
    except Exception as exc:  # a failing case is counted, not fatal
        failures.append(f"case {label}: {type(exc).__name__}: {exc}")
        return None


def timed_runs(cases, seconds: float):
    """Run the cases untraced, in order and over and over, until ``seconds``
    have passed and every case has run once; returns each case's
    latencies, the number of runs, the elapsed time, the failures and the
    digest of the certificates of the first pass."""
    from tracing import NULL

    samples = [[] for _ in cases]
    failures = []
    digest = hashlib.sha256()
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    runs = 0
    now = start
    while runs < len(cases) or now < deadline:
        i = runs % len(cases)
        fn, args = cases[i]
        t0 = clock()
        cert = run_case(fn, args, NULL, failures, i)
        now = clock()
        samples[i].append(now - t0)
        if runs < len(cases) and cert is not None:
            digest.update(cert)
        runs += 1
    return samples, runs, now - start, failures, digest.hexdigest()


def end_to_end(name: str, seed: int, seconds: float) -> tuple:
    imports = [import_probe() for _ in range(SETUP_REPEATS)]
    import workloads

    generation = []
    for _ in range(SETUP_REPEATS):
        cases = None  # free the previous copy before generating the next
        t0 = time.perf_counter()
        cases = workloads.SETUPS[name](seed)
        generation.append(time.perf_counter() - t0)
    setup = [i + g for i, g in zip(imports, generation)]
    gc.collect()
    gc.freeze()

    samples, attempted, elapsed, failures, digest = timed_runs(cases,
                                                              seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # each case's fastest run; its runs lie a pass apart, so they fall in
    # different spells of a shared machine
    typical = sorted(min(runs) for runs in samples)
    verified = (attempted - len(failures)) / attempted
    # the highest percentile with ten of intersect's 500 cases beyond it
    tail = nearest_rank(typical, 0.98)
    metrics = {
        "setup_s": statistics.median(setup),
        "cases_per_s": verified * len(typical) / sum(typical),
        "case_p50_ms": 1000 * statistics.median(typical),
        "case_p98_ms": 1000 * tail,
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "setup_samples_s": setup,
        "passes": attempted / len(cases),
        "measured_s": elapsed,
        "wall_cases_per_s": (attempted - len(failures)) / elapsed,
        "case_samples": len(typical),
        "samples_above_p98": sum(1 for v in typical if v > tail),
        "fail_frac": len(failures) / attempted,
        "certificate_sha256": digest,
        "certificates": len(cases),
    }
    return metrics, END_TO_END, attempted, failures, info


def traced(name: str, seed: int) -> tuple:
    import workloads
    from tracing import END, NAME, NULL, START, Tracer

    cases = workloads.SETUPS[name](seed)
    gc.collect()
    gc.freeze()
    failures = []
    clock = time.perf_counter

    tr = Tracer()
    digest = hashlib.sha256()
    untraced = 0.0
    for i, (fn, args) in enumerate(cases):
        # each case runs once untraced and once traced, in alternating
        # order, so that neither side gets all the warm-up
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tr.case = i
                with tr.span("case"):
                    cert = run_case(fn, args, tr, failures, i)
                if cert is not None:
                    digest.update(cert)
            else:
                t0 = clock()
                run_case(fn, args, NULL, failures, i)
                untraced += clock() - t0
    tr.case = None

    os.makedirs(OUT_DIR, exist_ok=True)
    pair_path = os.path.join(OUT_DIR, "pair.json")
    with open(pair_path, "w") as fh:
        json.dump(workloads.README_PAIR, fh)
    cli_runs = workloads.CLI_RUNS[name]
    for span_name, argv in cli_runs:
        run_case(workloads.run_cli, (span_name, argv, pair_path), tr,
                 failures, span_name)
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    tr.write(spans_path)

    self_times = tr.self_times()
    metrics = {f"{n}_s": self_times.get(n, (0.0, 0))[0] for n in TIMED_SPANS}
    metrics.update({f"{n}.calls": self_times.get(n, (0.0, 0))[1]
                    for n in COUNTED_SPANS})
    metrics.update({n: tr.counts.get(n, 0) for n in COUNTS})
    case_s = sum(rec[END] - rec[START] for rec in tr.spans
                 if rec[NAME] == "case")
    metrics.update({
        "trace.case_s": case_s,
        "trace.untraced_case_s": untraced,
        "trace.overhead_s": case_s - untraced,
        "trace.unattributed_s": self_times["case"][0],
        "trace.spans": len(tr.spans),
    })
    attempted = 2 * len(cases) + len(cli_runs)
    info = {
        "spans_file": os.path.relpath(spans_path, ROOT),
        "fail_frac": len(failures) / attempted,
        "certificate_sha256": digest.hexdigest(),
        "certificates": len(cases),
    }
    return metrics, per_layer_units(), attempted, failures, info


def run_workload(args) -> int:
    if args.trace:
        metrics, units, attempted, failures, info = traced(args.workload,
                                                           args.seed)
    else:
        metrics, units, attempted, failures, info = end_to_end(
            args.workload, args.seed, args.seconds)
    info = {"workload": args.workload, "seed": args.seed,
            "trace": args.trace, **machine_facts(), **info}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in metrics.items():
        shown = f"{value:>16.6f}" if isinstance(value, float) else f"{value:>9}"
        print(f"  {key:32s} {shown} {units[key]}")
    print(f"  {'fail_frac':32s} {info['fail_frac']:>16.6f} "
          f"({len(failures)} of {attempted})")
    for line in failures[:20]:
        print(f"  FAILED {args.workload} seed {args.seed} {line}",
              file=sys.stderr)
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their
    results, with each metric prefixed by its workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or done.returncode
        if not lines or done.returncode not in (0, 1):
            print(f"workload {name} exited {done.returncode}",
                  file=sys.stderr)
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value
                                  in result["metrics"].items()})
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "zariski", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [BENCH_DIR, SRC]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
