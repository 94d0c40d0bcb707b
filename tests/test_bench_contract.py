"""The certificate benchmark in ``certbench/`` drives the package only
through public names and the witness oracle interface; a few of its cases
run here so that a change breaking either fails the test suite, not just
the benchmark."""

import hashlib
import importlib
import os

import pytest

CERTBENCH = os.path.join(os.path.dirname(__file__), "..", "certbench")


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(CERTBENCH)
    return (importlib.import_module("tracing"),
            importlib.import_module("workloads"))


@pytest.mark.parametrize("workload", ["intersect", "checks"])
def test_first_cases_run_untraced(bench, workload):
    tracing, workloads = bench
    for fn, args in workloads.SETUPS[workload](0)[:5]:
        assert isinstance(fn(tracing.NULL, *args), bytes)


def test_intersect_case_runs_traced(bench):
    # a real tracer wraps the oracle in the benchmark's delegating
    # TracedOracle, so the partial map passes through it
    tracing, workloads = bench
    tr = tracing.Tracer()
    fn, args = workloads.SETUPS["intersect"](0)[0]
    assert isinstance(fn(tr, *args), bytes)
    names = {rec[tracing.NAME] for rec in tr.spans}
    assert {"witness.choose_image", "witness.complete"} <= names


def test_intersect_certificates_pinned(bench):
    # the 500 certificates byte for byte; a change of the certificate
    # schema updates this digest and says so in CHANGES.md
    tracing, workloads = bench
    digest = hashlib.sha256()
    for fn, args in workloads.SETUPS["intersect"](0):
        digest.update(fn(tracing.NULL, *args))
    assert digest.hexdigest() == \
        "51c1c38cd82de586c8f7645aab312fe8be2ca70f2e0b1ef0c8827616a813b091"


def test_checks_certificates_pinned(bench):
    # one pass of the checks cases, which carry every family size the
    # monotone cases report; a change of a case updates this digest and
    # says so in CHANGES.md
    tracing, workloads = bench
    digest = hashlib.sha256()
    for fn, args in workloads.SETUPS["checks"](0):
        digest.update(fn(tracing.NULL, *args))
    assert digest.hexdigest() == \
        "d20f8c6cd5478702ac83809f249f7b831b695c194269acaf9b9f7c46a5f54093"
