"""CLI: exit codes, report shape, determinism, error handling."""

import json
import os
import subprocess
import sys
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from zariski.cli import main
from zariski.errors import ZariskiError
from zariski.perm import IDENTITY, transposition
from zariski.ragged import pair_of_rows, pair_to_json
from zariski.randgen import rand_proper_pair

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

T01 = transposition(0, 1)
COMMUTE = pair_of_rows([[T01, IDENTITY]], [[IDENTITY, T01]])


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
    # forbidden-set sizes as the per-product dict construction counted them
    code, report = run_json(
        tmp_path, ["intersect", "--random", "--cases", "3", "--seed", "11"])
    assert code == 0
    assert [c["trace"]["forbidden_size"] for c in report["cases"]] == \
        [1787, 865, 568]


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
    assert case["families_equal"] and case["reduction_mismatches"] == []


def test_finite_check_too_large(capsys):
    assert main(["finite-check", "--group", "S4", "--max-degree", "3"]) == 2
    assert "error" in capsys.readouterr().err


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
            ({"A": [[[[0, 1]], []]], "B": [[[], []]]},
             "moved points must map onto themselves")):
        bad.write_text(json.dumps(data))
        assert main(["normalize", str(bad)]) == 2
        assert problem in capsys.readouterr().err


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
                 ["intersect", "--random", "--support", "-2"],
                 ["finite-check", "--group", "S3", "--max-degree", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert main(["witness"]) == 2  # no input and no --random
    assert main(["separate", "--m-min", "5", "--m-max", "2"]) == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "--random", "--max-degree", "0"],
    ["symcheck", "--support", "3"],
    ["symcheck", "--support", "4"],
])
def test_former_hangs_exit_2(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "zariski.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2
    assert "must be at least" in done.stderr
    assert "Traceback" not in done.stderr


def test_sampler_rejects_infeasible_bounds():
    for rows, degree in ((0, 3), (3, 0)):
        with pytest.raises(ZariskiError):
            rand_proper_pair(Random(0), rows, degree, 8)


def strip_wall_time(text):
    data = json.loads(text)
    data.pop("wall_time_s", None)
    return json.dumps(data, sort_keys=True)


def test_reports_are_deterministic(tmp_path):
    argv = ["witness", "--random", "--cases", "8", "--seed", "123"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert strip_wall_time(out1.read_text()) == strip_wall_time(out2.read_text())


def test_table_format(tmp_path, capsys):
    path = write_pair(tmp_path, COMMUTE)
    assert main(["witness", path, "--format", "table"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("command: witness")
    assert "summary: 1/1 pass" in text
    assert "backend:" not in text
