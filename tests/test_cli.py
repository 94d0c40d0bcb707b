"""CLI: exit codes, report shape, determinism, error handling."""

import json
import os
import subprocess
import sys
from random import Random

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from zariski import cli, finite, words
from zariski.cli import main
from zariski.groups import SYM
from zariski.perm import IDENTITY, FinPermutation, transposition
from zariski.ragged import (NormStep, membership, pair_of_rows, pair_to_json,
                            signature)
from zariski.randgen import rand_moving_perm, rand_proper_pair
from zariski.witness import SymOmegaOracle

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

T01 = transposition(0, 1)
COMMUTE = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])


class NoImageOracle(SymOmegaOracle):
    """An oracle that finds no fresh image, as a group with algebraicity
    would."""

    def choose_image(self, b, q, forbidden):
        return None


def write_pair(tmp_path, pair, name="pair.json"):
    path = tmp_path / name
    path.write_text(json.dumps(pair_to_json(pair)))
    return str(path)


def run_json(tmp_path, argv):
    out = tmp_path / "report.json"
    code = main(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_normalize_proper(tmp_path):
    path = write_pair(tmp_path, COMMUTE)
    code, report = run_json(tmp_path, ["normalize", path, "--seed", "3"])
    assert code == 0
    case = report["cases"][0]
    assert case["form"] == "proper"
    assert case["membership_agreement"] and case["signature_monotone"]


def test_normalize_empty_and_full(tmp_path):
    empty = pair_of_rows([[T01]], [[T01]])
    code, report = run_json(tmp_path,
                            ["normalize", write_pair(tmp_path, empty)])
    assert code == 0
    assert report["cases"][0]["form"] == "empty"
    full = pair_of_rows([[T01, IDENTITY]], [[T01, T01]])
    code, report = run_json(tmp_path,
                            ["normalize", write_pair(tmp_path, full, "f.json")])
    assert code == 0
    assert report["cases"][0]["form"] == "full"
    # a cancel, then the empty step, which lowers the signature again
    twice = pair_of_rows([[T01, T01]], [[T01, T01]])
    code, report = run_json(tmp_path,
                            ["normalize", write_pair(tmp_path, twice, "t.json")])
    assert code == 0
    case = report["cases"][0]
    assert [s["kind"] for s in case["steps"]] == ["cancel", "empty"]
    assert case["signature_monotone"]


# row 0 cancels and is deleted; rows 1 and 2 keep one constant side
# against the same leading entry, so each is adjusted once
ADJUSTED = {"A": [[[[0, 1], [1, 0]], [[0, 1], [1, 0]]], [[[0, 1], [1, 0]]],
                  [[[0, 1], [1, 0]], []]],
            "B": [[[[0, 1], [1, 0]], [[1, 2], [2, 1]]],
                  [[[0, 1], [1, 0]], []], [[[0, 1], [1, 0]]]]}


def test_normalize_adjusts_rows(tmp_path):
    path = tmp_path / "adjusted.json"
    path.write_text(json.dumps(ADJUSTED))
    code, report = run_json(tmp_path, ["normalize", str(path)])
    assert code == 0
    case = report["cases"][0]
    assert [(s["kind"], s["row"]) for s in case["steps"]] == [
        ("cancel", 0), ("delete", 0), ("adjust_a", 1), ("adjust_b", 2)]
    assert case["form"] == "proper"
    assert case["signature_monotone"] and case["membership_agreement"]


@pytest.mark.parametrize("kind, sig", [
    ("cancel", (1, 1, 1)),  # a rewrite that leaves the signature equal
    ("adjust_a", (1, 0, 1)),  # an adjustment that lowers it
])
def test_normalize_checks_the_first_step(tmp_path, monkeypatch, kind, sig):
    assert signature(COMMUTE) == (1, 1, 1)
    real = cli.normalize_steps

    def fabricated(pair, G, adjuster):
        form, _ = real(pair, G, adjuster)
        return form, (NormStep(kind, 0, sig),)
    monkeypatch.setattr(cli, "normalize_steps", fabricated)
    code, report = run_json(tmp_path,
                            ["normalize", write_pair(tmp_path, COMMUTE)])
    assert code == 1
    assert report["cases"][0]["signature_monotone"] is False


def test_witness_file_input(tmp_path):
    path = write_pair(tmp_path, COMMUTE)
    code, report = run_json(tmp_path, ["witness", path])
    assert code == 0
    assert sorted(report) == ["cases", "command", "config", "summary",
                              "wall_time_s"]
    case = report["cases"][0]
    assert case["membership"] and case["pass"]
    assert case["witness"] == [[0, 3], [1, 2], [2, 1], [3, 0]]
    assert [s["case"] for s in case["trace"]["steps"]] == ["alpha", "beta"]
    # the record holds the witness once, not again inside its trace
    assert sorted(case["trace"]) == ["forbidden_size", "separators", "steps"]


def test_witness_empty_input_exits_1(tmp_path, capsys):
    empty = pair_of_rows([[T01]], [[T01]])
    path = write_pair(tmp_path, empty)
    assert main(["witness", path]) == 1
    assert "empty" in capsys.readouterr().err


def test_witness_random(tmp_path):
    code, report = run_json(
        tmp_path, ["witness", "--random", "--cases", "25", "--seed", "9"])
    assert code == 0
    assert report["summary"] == {"cases": 25, "pass": 25, "fail": 0}
    # zero cases is a valid request: an empty report that passes
    code, report = run_json(tmp_path, ["witness", "--random", "--cases", "0"])
    assert code == 0
    assert report["summary"] == {"cases": 0, "pass": 0, "fail": 0}


def test_intersect(tmp_path):
    p1 = write_pair(tmp_path, COMMUTE, "p1.json")
    p2 = write_pair(tmp_path,
                    pair_of_rows([[transposition(2, 3), IDENTITY]],
                                 [[IDENTITY, transposition(2, 3)]]),
                    "p2.json")
    code, report = run_json(tmp_path, ["intersect", p1, p2])
    assert code == 0
    assert report["cases"][0]["pass"]
    code, report = run_json(
        tmp_path, ["intersect", "--random", "--cases", "10", "--seed", "4"])
    assert code == 0 and report["summary"]["fail"] == 0
    # the points each construction kept its images away from
    code, report = run_json(
        tmp_path, ["intersect", "--random", "--cases", "3", "--seed", "11"])
    assert code == 0
    assert [c["trace"]["forbidden_size"] for c in report["cases"]] == \
        [17, 19, 14]


def test_witness_and_intersect_of_full_sets(tmp_path):
    # T01 != T12 holds everywhere, so the pair normalizes to Full
    full = write_pair(tmp_path, pair_of_rows([[T01]], [[transposition(1, 2)]]),
                      "full.json")
    code, report = run_json(tmp_path, ["witness", full])
    assert code == 0
    assert report["cases"] == [{"tag": "full", "witness": [],
                                "membership": True, "pass": True}]
    code, report = run_json(
        tmp_path, ["intersect", full, write_pair(tmp_path, COMMUTE)])
    assert code == 0
    case = report["cases"][0]
    assert case["pass"]
    witness = FinPermutation.from_json(case["witness"])
    assert membership(COMMUTE, witness, SYM)


def test_separate(tmp_path):
    code, report = run_json(
        tmp_path, ["separate", "--cases", "5", "--m-max", "3", "--seed", "2"])
    assert code == 0
    tags = {c["tag"] for c in report["cases"]}
    assert tags == {"finite", "all_even"}
    evens = [c for c in report["cases"] if c["tag"] == "all_even"]
    assert all(c["solutions"] == list(range(0, 201, 2)) for c in evens)


def test_symcheck(tmp_path):
    code, report = run_json(tmp_path, ["symcheck", "--cases", "30"])
    assert code == 0
    sweep = report["cases"][0]
    assert sweep["total"] == 1200 and sweep["passed"] == 1200


def test_finite_check(tmp_path):
    code, report = run_json(
        tmp_path, ["finite-check", "--group", "Z6", "--max-degree", "2"])
    assert code == 0
    case = report["cases"][0]
    assert case["families_equal"] == [True, True, True]
    assert case["reduction_mismatches"] == []


def test_finite_check_reports_reduction_mismatches(tmp_path, monkeypatch):
    real = words.group_ineq_to_semigroup_pair

    def drop_inverses(w, G):
        # wrong for every word with an x^-1: it reads x in its place
        return real(words.GroupWord(w.coefficients, (1,) * w.degree), G)

    monkeypatch.setattr(words, "group_ineq_to_semigroup_pair", drop_inverses)
    code, report = run_json(
        tmp_path, ["finite-check", "--group", "Z3", "--max-degree", "1"])
    assert code == 1
    case = report["cases"][0]
    assert case["pass"] is False
    # a x^-1 b != 1 and a x b != 1 differ on Z3 unless a + b = 0
    assert case["reduction_mismatches"] == [
        {"coeffs": [a, b], "signs": [-1]}
        for a in range(3) for b in range(3) if (a + b) % 3]


@pytest.mark.parametrize("group,degree,equal", [
    ("Z6", 2, [True, True, True]),
    # off the abelian groups the degree-1 families differ: 19 against 8
    # sets on S3, 103 against 26 on S4
    ("S3", 2, [True, False, True]),
    ("S4", 1, [True, False]),
    # the largest degree S4's guards admit, reduction sweep included
    ("S4", 2, [True, False, False])])
def test_finite_check_compares_families(tmp_path, group, degree, equal):
    code, report = run_json(tmp_path, ["finite-check", "--group", group,
                                       "--max-degree", str(degree)])
    assert code == 0
    case = report["cases"][0]
    assert case["families_equal"] == equal
    assert case["semigroup_subset_of_group"] is True
    assert "closed_sizes" not in case and "closure_skipped" not in case
    assert case["pass"] is True


def test_config_lists_every_option(tmp_path):
    # the config holds every option of the run, and no input or output one
    pair = write_pair(tmp_path, COMMUTE)
    seeded = ["--seed", "5", "--cases", "2", "--support", "6"]
    seeded_config = {"seed": 5, "cases": 2, "support": 6}
    sampled = seeded + ["--rows", "2", "--max-degree", "2"]
    sampled_config = {**seeded_config, "rows": 2, "max-degree": 2}
    for argv, config in (
            (["normalize", pair, *seeded], seeded_config),
            (["witness", pair, *sampled], sampled_config),
            (["witness", "--random", *sampled], sampled_config),
            (["intersect", pair, pair, *sampled], sampled_config),
            (["intersect", "--random", *sampled], sampled_config),
            (["separate", "--seed", "5", "--cases", "1", "--m-min", "3",
              "--m-max", "4", "--bound-N", "20"],
             {"seed": 5, "cases": 1, "m-min": 3, "m-max": 4, "bound-N": 20}),
            (["symcheck", *seeded], seeded_config),
            (["finite-check", "--group", "z3", "--max-degree", "1",
              "--format", "json"],
             {"group": "z3", "max-degree": 1})):
        code, report = run_json(tmp_path, argv)
        assert code == 0, argv
        assert report["config"] == config, argv


def test_finite_check_too_large(capsys, monkeypatch):
    # the degree-d families are enumerated first, so an oversized run
    # fails before any family of a smaller degree is built
    degrees = []
    for name in ("semigroup_family", "group_family"):
        def record(table, d, _inner=getattr(finite, name)):
            degrees.append(d)
            return _inner(table, d)
        monkeypatch.setattr(finite, name, record)
    assert main(["finite-check", "--group", "S4", "--max-degree", "3"]) == 2
    assert "error" in capsys.readouterr().err
    assert degrees == [3]


def test_large_random_witness_passes(tmp_path):
    # 4,043 entries on 10 points, which once exited 2 before any witness
    # was built
    code, report = run_json(tmp_path, [
        "witness", "--random", "--rows", "40", "--max-degree", "150",
        "--support", "10", "--cases", "1"])
    assert code == 0
    assert report["summary"] == {"cases": 1, "pass": 1, "fail": 0}


def test_unknown_group_exits_2(capsys):
    assert main(["finite-check", "--group", "Q8"]) == 2
    capsys.readouterr()


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["normalize", str(bad)]) == 2
    assert main(["witness", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    for data, problem in (
            ([1, 2], "not a list"),
            ({"A": [[[[0, 1], [1, 0]]]]}, 'no key "B"'),
            ({"A": 5, "B": 5}, '"A" must be a list'),
            ({"A": [[[[0, 1]], []]], "B": [[[], []]]},
             "moved points must map onto themselves"),
            # the README's pair with a malformed (0 1): a repeated point,
            # an empty object or an empty string once decoded silently to
            # the identity
            *(({"A": [[perm, []]], "B": [[[], perm]]}, problem)
              for perm, problem in (
                  ([[0, 1], [0, 0]], "listed twice"),
                  ([[0, 1.7], [1.2, 0]], "must be integers"),
                  ([["0", "1"], [1, 0]], "must be integers"),
                  ([[True, 0], [0, 1]], "must be integers"),
                  ({}, "a permutation must be a list"),
                  ("", "a permutation must be a list")))):
        bad.write_text(json.dumps(data))
        for command in ("normalize", "witness"):
            assert main([command, str(bad)]) == 2
            assert problem in capsys.readouterr().err
    # bytes that are not UTF-8, nesting past the recursion limit, and an
    # integer literal past Python's 4,300-digit limit
    for raw in (b'{"A": "\xff"}', b"[" * 100_000, b"1" * 4_301):
        bad.write_bytes(raw)
        for command in ("normalize", "witness"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: invalid JSON in {bad}: ")
            assert "Traceback" not in err


def test_parse_error_message_is_bounded(tmp_path, capsys):
    # the message echoes only a prefix of a long offending value
    bad = tmp_path / "bad.json"
    for data, problem in (({"A": "x" * 100_000, "B": []}, '"A" must be'),
                          ({"A": [["x" * 100_000]], "B": [[[]]]},
                           "a permutation must be")):
        bad.write_text(json.dumps(data))
        for command in ("normalize", "witness"):
            assert main([command, str(bad)]) == 2
            err = capsys.readouterr().err
            assert problem in err
            assert len(err.encode()) < 1024


def test_oversized_pair_exits_2(tmp_path, capsys):
    # rows x (rows + degree sum) is capped at 2^18: 512 constant rows fit,
    # 513 (263,169) do not, on every command that reads a pair
    paths = {}
    for rows in (512, 513):
        paths[rows] = tmp_path / f"pair{rows}.json"
        paths[rows].write_text(json.dumps(
            {"A": [[[[0, 1], [1, 0]]]] * rows, "B": [[[]]] * rows}))
    for rows, code in ((512, 0), (513, 2)):
        path = str(paths[rows])
        for argv in (["normalize", path, "--cases", "5"], ["witness", path],
                     ["intersect", path, str(paths[512])]):
            assert main(argv) == code
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code == 2:
                assert "must be at most 262144, got 263169" in err


def test_pair_from_stdin(tmp_path):
    """'-' reads the pair from standard input, with the same report as the
    file; malformed input on standard input exits 2."""
    text = json.dumps(pair_to_json(COMMUTE))
    path = tmp_path / "pair.json"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(args, stdin):
        return subprocess.run(
            [sys.executable, "-m", "zariski.cli", *args], input=stdin,
            env=env, capture_output=True, text=True, timeout=60)

    for command in ("normalize", "witness"):
        piped = run([command, "-"], text)
        assert piped.returncode == 0, piped.stderr
        from_file = run([command, str(path)], "")
        assert from_file.returncode == 0, from_file.stderr
        reports = [json.loads(done.stdout) for done in (piped, from_file)]
        for report in reports:
            del report["wall_time_s"]
        assert reports[0] == reports[1]
    done = run(["normalize", "-"], "{")
    assert done.returncode == 2
    assert done.stderr.startswith("error: invalid JSON in -: ")


COLD_START = """\
import os, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any import of numpy now fails
import zariski.cli
print(sys.modules.get("numpy") is not None)
for argv in sys.argv[2:]:
    print(zariski.cli.main(argv.split() + ["--out", os.devnull]))
print(sys.modules.get("numpy") is not None)
"""


def test_subcommands_start_without_numpy(tmp_path):
    """Only the finite families import numpy: five subcommands run with
    numpy blocked, and finite-check loads it on its first family call."""
    path = write_pair(tmp_path, COMMUTE)
    env = dict(os.environ, PYTHONPATH=SRC)

    def run(mode, *argvs):
        done = subprocess.run([sys.executable, "-c", COLD_START, mode, *argvs],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    assert run("block", f"witness {path}", f"normalize {path} --cases 50",
               "intersect --random --cases 20",
               "separate --m-min 2 --m-max 3 --cases 10 --bound-N 50",
               "symcheck --cases 20") == ["False"] + ["0"] * 5 + ["False"]
    assert run("allow", "finite-check --group Z3 --max-degree 1") == [
        "False", "0", "True"]


def test_unwritable_out_exits_2(tmp_path, capsys):
    for out in (tmp_path / "no" / "such" / "r.json", tmp_path):
        assert main(["symcheck", "--cases", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that rejects every write")
def test_unwritable_stdout_exits_2():
    env = dict(os.environ, PYTHONPATH=SRC)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "zariski.cli", "symcheck", "--cases", "1"],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith(
        "error: cannot write the report to standard output: ")
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def test_oracle_without_image_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "symw_oracle", NoImageOracle)
    assert main(["witness", write_pair(tmp_path, COMMUTE)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


JSON_VALUES = st.recursive(
    st.integers(min_value=-1, max_value=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(["A", "B"]),
                                        children)),
    max_leaves=24)


@settings(max_examples=150, deadline=None)
@given(data=JSON_VALUES)
def test_normalize_never_raises_on_arbitrary_json(tmp_path_factory, data):
    base = tmp_path_factory.getbasetemp()
    path = base / "fuzz_pair.json"
    path.write_text(json.dumps(data))
    code = main(["normalize", str(path), "--cases", "1",
                 "--out", str(base / "fuzz_report.json")])
    assert code in (0, 1, 2)


def test_usage_error_exits_2(tmp_path, capsys):
    for argv in (["witness", "--format", "yaml"],
                 ["witness", "--random", "--rows", "0"],
                 ["witness", "--random", "--cases", "-1"],
                 ["separate", "--bound-N", "-1"],
                 ["separate", "--m-min", "1"],
                 ["intersect", "--random", "--support", "-2"],
                 ["intersect", "--random", "--seed", "-5"],
                 ["witness", "--random", "--seed", str(2 ** 64)],
                 ["finite-check", "--group", "S3", "--max-degree", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["witness"]) == 2  # no input and no --random
    assert main(["separate", "--m-min", "5", "--m-max", "2"]) == 2
    err = capsys.readouterr().err
    assert "must be at least" in err and "must be below" in err
    assert main(["witness", "--random", "--cases", "0",
                 "--seed", str(2 ** 64 - 1)]) == 0


@pytest.mark.parametrize("argv", [
    ["witness", "--random", "--max-degree", "0"],
    ["symcheck", "--support", "3"],
    ["symcheck", "--support", "4"],
    # sizes that ran out of memory or ran for hours
    ["normalize", "pair.json", "--support", str(10 ** 15)],
    ["symcheck", "--support", str(10 ** 15)],
    ["separate", "--bound-N", str(10 ** 15)],
    ["separate", "--m-max", str(10 ** 4), "--cases", "0"],
    ["witness", "--random", "--rows", str(10 ** 12)],
    ["witness", "--random", "--max-degree", str(10 ** 12)],
    ["intersect", "--random", "--support", str(10 ** 15)],
    ["intersect", "--random", "--rows", "256", "--max-degree", "256",
     "--support", "4096"],
])
def test_former_hangs_exit_2(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "zariski.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert any(bound in done.stderr for bound in (
        "must be at least", "must be below", "must be at most"))
    assert "Traceback" not in done.stderr


def test_huge_degree_finite_check_exits_2():
    # the enumeration guards must not build the power n ** (d + 1)
    argv = ["finite-check", "--group", "S4", "--max-degree", "100000000000"]
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "zariski.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert done.stderr.startswith("error:")
    assert "Traceback" not in done.stderr


def test_sampler_rejects_infeasible_bounds():
    for rows, degree in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="both bounds must be at least 1"):
            rand_proper_pair(Random(0), rows, degree, 8)
    # x outside {0, ..., support-1}, or fewer than two points to move it
    for support, x in ((3, 4), (3, 3), (3, -1), (1, 0), (0, 0)):
        with pytest.raises(ValueError, match="^no permutation of .* moves"):
            rand_moving_perm(Random(0), support, x)


def test_table_format(tmp_path, capsys):
    path = write_pair(tmp_path, COMMUTE)
    assert main(["witness", path, "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("command: witness")
    assert "summary: 1/1 pass" in text
    assert "backend:" not in text


_SUBCOMMANDS = ["normalize", "witness", "intersect", "separate", "symcheck",
                "finite-check"]
_INT_FLAGS = ["--seed", "--cases", "--support", "--rows", "--max-degree",
              "--m-min", "--m-max", "--bound-N"]
_INTS = [str(i) for i in range(-2, 4)]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_exits_cleanly(tmp_path, data, capsys):
    # argv drawn from the parser's own vocabulary (no --out, no stdin):
    # every call ends in exit code 0, 1 or 2, never in another exception
    pair = tmp_path / "pair.json"
    pair.write_text('{"A": [[[[0,1],[1,0]], []]], '
                    '"B": [[[], [[0,1],[1,0]]]]}')
    bad = tmp_path / "bad.json"
    bad.write_text('{"A": [[')
    paths = [str(pair), str(bad), str(tmp_path / "missing.json")]
    groups = ["Z2", "Z3", "Q8"]
    words = (_SUBCOMMANDS + _INT_FLAGS + _INTS + groups + paths
             + ["--format", "json", "table", "--group", "--random", "--help"])
    # mostly a flag with a value of its type, so that many calls get past
    # the parser; single words cover misplaced and dangling ones
    token = st.one_of(
        st.tuples(st.sampled_from(_INT_FLAGS), st.sampled_from(_INTS)),
        st.tuples(st.just("--format"), st.sampled_from(["json", "table"])),
        st.tuples(st.just("--group"), st.sampled_from(groups)),
        st.just(("--random",)),
        st.tuples(st.sampled_from(words)))
    argv = [data.draw(st.sampled_from(_SUBCOMMANDS))]
    argv += data.draw(st.lists(st.sampled_from(paths), max_size=2))
    argv += [w for t in data.draw(st.lists(token, max_size=4)) for w in t]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
