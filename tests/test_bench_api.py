"""The benchmark reaches bdshift through module aliases (``A.multiply``,
``P.LocallyConstantFunction``).  A rename in the package must fail here,
in the test suite, rather than in the middle of a benchmark run."""

import ast
import importlib
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _references(tree):
    """(module, name) pairs the file reads from bdshift: names imported
    from a bdshift module, and attributes of a module alias."""
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module == "bdshift":
                for a in node.names:
                    aliases[a.asname or a.name] = f"bdshift.{a.name}"
            elif node.module.startswith("bdshift."):
                refs += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return aliases, refs


def test_every_name_the_workloads_reach_exists():
    aliases, refs = _references(
        ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8")))
    assert set(aliases) == {"A", "C", "D", "G", "NU", "P", "S"}
    assert len(refs) > 50
    missing = sorted(
        f"{mod}.{name}" for mod, name in set(refs)
        if not hasattr(importlib.import_module(mod), name)
    )
    assert not missing, f"bench/workloads.py reaches removed names: {missing}"


def test_gns_windows_parametrix_cases_match_golden_bit_for_bit(monkeypatch):
    # the benchmark compares min_sv to golden.json within 1e-9; the shell
    # iteration is meant to reproduce those values exactly
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    golden = importlib.import_module("golden").load()["min_sv"]
    data = workloads.prepare("gns_windows")["data"]
    assert len(workloads.PARAMETRIX) == 10
    for (case, space), (Ms, verdict, _) in workloads.PARAMETRIX.items():
        report = workloads.G.parametrix_report(data[case], Ms, space=space)
        key = workloads.parametrix_key(case, space)
        assert report["min_sv"] == golden[key], key
        assert report["verdict"] == verdict, key


def test_gns_windows_round_jobs_pass(monkeypatch):
    # every job closure of one seeded round, as the benchmark runs them:
    # the exact window build hands its operator to check_implementation,
    # and a slip in that hand-over must fail here
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    golden = importlib.import_module("golden").load()
    ctx = workloads.prepare("gns_windows")
    jobs = workloads.gns_round(random.Random(7), ctx, tracing.Counters(),
                               golden)
    names = {name for name, _, _ in jobs}
    assert {"implementation_tau0", "implementation_haar"} <= names
    for name, run, check in jobs:
        assert check(run()), name


@pytest.mark.parametrize("workload", ["unilateral_exact", "bilateral_exact"])
def test_exact_round_jobs_pass(monkeypatch, workload):
    # every job of one seeded round of an exact workload, as the benchmark
    # runs them: a slip in the head of a large A(N) product, or in any
    # other exact kernel the round reaches, must fail here
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    golden = importlib.import_module("golden").load()
    ctx = workloads.prepare(workload)
    jobs = workloads.WORKLOADS[workload].round(7, 0, ctx, tracing.Counters(),
                                               golden)
    assert len(jobs) > 10
    for name, run, check in jobs:
        assert check(run()), name
