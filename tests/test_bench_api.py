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


@pytest.mark.parametrize("workload", ["unilateral_exact", "bilateral_exact"])
def test_exact_round_applies_fold_the_weight(monkeypatch, workload):
    # the derivation applies of one seeded round bring linear parts into
    # the commutator kernel, at degree 0 and at nonzero degrees in J*Z,
    # where their weight-1 products cancel and are folded, not formed
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    golden = importlib.import_module("golden").load()
    algebra = importlib.import_module("bdshift.algebra")
    seen, real = [], algebra._factors

    def factors(xt, yt):
        linear = [n for n, c in xt.items() if isinstance(c, tuple)]
        if linear:
            seen.append(linear)
        return real(xt, yt)
    monkeypatch.setattr(algebra, "_factors", factors)
    ctx = workloads.prepare(workload)
    for name, run, check in workloads.WORKLOADS[workload].round(
            7, 0, ctx, tracing.Counters(), golden):
        assert check(run()), name
    degrees = {n for linear in seen for n in linear}
    assert len(seen) > 10 and 0 in degrees and degrees - {0}, seen


def test_implementation_checks_pass_the_affinity_test(monkeypatch):
    # check_implementation reads only the ends of each residue class when
    # _affine_per_class passes every row it reads; on the implementation
    # jobs of forty gns_windows rounds and on the criterion 09 draws, none
    # may fall back to the whole interior
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    tracing = importlib.import_module("tracing")
    golden = importlib.import_module("golden").load()
    acc = importlib.import_module("test_acceptance")
    G = workloads.G
    seen, real = [], G._affine_per_class
    monkeypatch.setattr(G, "_affine_per_class",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    ctx = workloads.prepare("gns_windows")
    checks = 0
    for seed in (7, 11):
        for i in range(20):
            for name, run, check in workloads.WORKLOADS["gns_windows"].round(
                    seed, i, ctx, tracing.Counters(), golden):
                if name.startswith("implementation"):
                    assert check(run()), name
                    checks += 1
    # criterion 09: its random stream up to the implementation checks, and
    # its five regime representatives, which are the workload's cases
    rng = random.Random(20240309)
    for _ in range(150):
        acc.rand_bilateral(rng, acc.N2, [1, 2], max_deg=2)
    comps = list(ctx["cases"].values())
    for space in ("tau0", "haar"):
        for comp in comps:
            divisors = [1, 2] if comp.N.is_finite() else [1, 2, 4]
            psi = acc.rand_lcf(rng, comp.N, divisors) \
                if space == "haar" else None
            data = G.implementation_from_bilateral(comp, psi=psi)
            b = acc.rand_bilateral(rng, comp.N, divisors, max_deg=2)
            assert G.check_implementation(
                G._window_bands(data, space, 64), {comp.n: comp}, b, 64,
                space=space, level=data.level) == 0.0
            checks += 1
    assert checks == 410
    assert len(seen) > checks and all(seen)
