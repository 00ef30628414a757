"""Which lines of src/bdshift only the unit tests run, and which nothing runs.

Two line traces, each in a fresh interpreter.  The reach trace runs the
acceptance tests and three seeded rounds (seed 7) of every benchmark
workload, with the bench modules imported and nothing written under
bench/.  The Tier-1 trace runs the whole suite.  A line of
src/bdshift/*.py that only the Tier-1 trace executes is code that no
command, workload or acceptance criterion needs; a line that neither
executes is reached by nothing.  Both lists are printed by function, less
the lines that ALLOWED keeps, each for its reason.

    python3 tools/reach_lines.py      # both traces, about five minutes

It is not part of Tier-1: it runs the suite once more under a tracer.
"""

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bdshift"
SEED, ROUNDS = 7, 3

# kept although only tests run them: (module.qualname, a fragment of the
# line or "" for the whole function) -> reason.  Every refusal (a raise
# statement or an exception handler), every dunder and every name on
# tests/test_reach.py's ALLOWED list is kept without an entry.
_ACCESSOR = "an accessor the tests read through; in the tests it would " \
    "be no shorter"
_GRAMMAR = "the expression grammar: numbers, i, unary minus, comm() and " \
    "adj(), which no benchmark request writes, and parse_gaussian (--c)"
ALLOWED = {
    ("algebra._Element.degrees", ""): _ACCESSOR,
    ("algebra.LaurentFunction.coefficient", ""): _ACCESSOR,
    ("algebra.LaurentFunction.is_zero", ""): _ACCESSOR,
    ("algebra.MatrixTrigPoly.is_zero", ""): _ACCESSOR,
    ("gns.GNSVector.coefficient", ""): _ACCESSOR,
    ("scalars.Scalar.im", ""): _ACCESSOR,
    ("sequences._AffineSequence.value_at", ""): _ACCESSOR,
    ("algebra.LaurentFunction.conjugate", ""):
        "the entries of MatrixTrigPoly.conjugate_transpose",
    ("serialize.Workspace.to_json", ""):
        "the writer of serialize.save_workspace",
    ("scalars._fraction_str", ""): "the helper of Scalar.__str__",
    ("scalars.as_scalar", "NotImplemented"):
        "the arithmetic dunders' answer to a foreign operand",
    ("algebra._kronecker_slots", "return 0"):
        "the size rule refusing a sparse or long-headed product",
    ("numerics._bands", "continue"): "a band wholly outside the window",
    ("gns.check_covariance", "return 0.0"): "the zero D",
    ("gns.check_implementation", ""):
        "b over a denominator that D's does not carry",
    ("gns.slope_corroborates", "return False"):
        "a parametrix report over one window",
    ("cli._implementation", ""):
        "gns-d and covcheck with --psi, or at a degree d has no component",
    ("derivations.bilateral_zero_component", ""):
        "the zero component, at a degree d has none",
    ("cli._env", ""): "a command without --workspace",
    ("cli._matrix_out", ""): "truncate --out",
    ("numerics.write_matrix_csv", ""): "truncate --out",
    ("cli.cmd_gns_rep", ""): "gns-rep --state haar on a finite N, no --level",
    ("profinite._is_prime", ""): "an N with a prime factor above 41",
    ("parser.check_span", "return"): "a product with a zero factor",
    **{(f"parser.{name}", ""): _GRAMMAR for name in (
        "_Parser.parse_atom", "_Parser._number", "_Parser._named",
        "_literal_bits", "eval_ast", "parse_gaussian")},
}


def _trace(mode, out):
    """Run one trace in this interpreter and write its lines to out."""
    sys.dont_write_bytecode = True
    src, hits = str(SRC), set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    sys.settrace(start)
    import pytest
    tests = [str(ROOT / "tests")] if mode == "tier1" \
        else [str(ROOT / "tests" / "test_acceptance.py")]
    code = pytest.main(["-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", *tests])
    failed = 0
    if mode == "reach":
        sys.path.insert(0, str(ROOT / "bench"))
        import golden
        import tracing
        import workloads
        ref = golden.load()
        for name, wl in workloads.WORKLOADS.items():
            ctx = workloads.prepare(name)
            for i in range(ROUNDS):
                for _, run, check in wl.round(SEED, i, ctx,
                                              tracing.Counters(), ref):
                    failed += check(run()) is not True
    sys.settrace(None)
    lines = {}
    for f, n in hits:
        lines.setdefault(Path(f).name, []).append(n)
    Path(out).write_text(json.dumps(
        {"pytest": int(code), "failed_jobs": failed, "lines": lines}))


def _executable(code):
    """The line numbers of code and of every code object nested in it."""
    out = {n for _, _, n in code.co_lines() if n is not None}
    for c in code.co_consts:
        if hasattr(c, "co_lines"):
            out |= _executable(c)
    return out


def _scopes(tree):
    """(first, last, qualname, is_dunder) of every def and class, and the
    line ranges of the refusals: raise statements, exception handlers and
    the script entry under `if __name__ == "__main__"`."""
    scopes, raises = [], []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = prefix + child.name
                dunder = child.name.startswith("__") \
                    and child.name.endswith("__")
                scopes.append((child.lineno, child.end_lineno, name, dunder))
                walk(child, name + ".")
            else:
                if isinstance(child, (ast.Raise, ast.ExceptHandler)) or (
                        isinstance(child, ast.If)
                        and "__main__" in ast.unparse(child.test)):
                    raises.append((child.lineno, child.end_lineno))
                walk(child, prefix)
    walk(tree, "")
    return scopes, raises


def _kept():
    sys.path.insert(0, str(ROOT / "tests"))
    from test_reach import ALLOWED as names
    return names


def report(hits):
    """The unkept lines that only Tier-1 runs and that nothing runs, as
    {title: [(module.qualname, lineno, text)]}, and the kept count."""
    reach, tier1 = ({f: set(n) for f, n in h["lines"].items()}
                    for h in hits)
    names, kept = _kept(), 0
    out = {"only Tier-1 runs": [], "nothing runs": []}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        exe = _executable(compile(text, str(path), "exec"))
        scopes, raises = _scopes(ast.parse(text))
        ran = reach.get(path.name, set())
        tested = tier1.get(path.name, set())
        for n in sorted(n for n in exe - ran if n > 0):
            title = "only Tier-1 runs" if n in tested else "nothing runs"
            inner = [s for s in scopes if s[0] <= n <= s[1]]
            qual = f"{path.stem}." + (inner[-1][2] if inner else "<module>")
            line = lines[n - 1].strip()
            if (any(a <= n <= b for a, b in raises)
                    or any(s[3] for s in inner)
                    or any(qual.startswith(name) for name in names)
                    or any(qual == q and frag in line
                           for q, frag in ALLOWED)):
                kept += 1
                continue
            out[title].append((qual, n, line))
    return out, kept


def main():
    hits = []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for mode in ("reach", "tier1"):
            out = Path(tmp, mode + ".json")
            proc = subprocess.run(
                [sys.executable, __file__, mode, str(out)], cwd=ROOT,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
            if proc.returncode:
                sys.exit(f"{mode} trace failed:\n{proc.stderr[-2000:]}")
            hits.append(json.loads(out.read_text()))
            tail = proc.stdout.strip().splitlines()[-1:]
            print(f"{mode} trace: pytest exit {hits[-1]['pytest']}, "
                  f"{hits[-1]['failed_jobs']} failed jobs; {tail}")
    found, kept = report(hits)
    for title, rows in found.items():
        print(f"\n## {title}: {len(rows)} lines")
        last = None
        for qual, n, line in rows:
            if qual != last:
                print(qual)
                last = qual
            print(f"  {n:4d}  {line}")
    print(f"\n{kept} lines kept by the allow-list")


if __name__ == "__main__":
    if len(sys.argv) == 3:
        _trace(*sys.argv[1:])
    else:
        main()
