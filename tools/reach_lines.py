"""Which lines of src/bdshift only the unit tests run, and which nothing runs.

Two opcode traces, each in a fresh interpreter.  The reach trace runs the
acceptance tests and three seeded rounds (seed 7) of every benchmark
workload, with the bench modules imported and nothing written under
bench/.  The Tier-1 trace runs the whole suite.  A line of
src/bdshift/*.py is run when each of its points is: the first
instruction of the line in each basic block that runs without an
exception, so a branch that shares its line with a reached one counts
on its own.  A line that only the Tier-1 trace runs is code that no
command, workload or acceptance criterion needs; a line that neither
runs is reached by nothing.  Both lists are printed by function, less
the lines that ALLOWED keeps, each for its reason.

    python3 tools/reach_lines.py      # both traces, about three minutes

It needs Python 3.11 or later, and it is not part of Tier-1: it runs the
suite once more under a tracer.  A code object traces opcodes only while
a line of several points in it has not run, plain lines otherwise, and
nothing once all its points have run; the suite still runs about four
times slower.  Two fail-fast tests time each request against a budget
of 2 s that the tracer breaks, so the Tier-1 trace deselects them and
runs their requests through cli.main itself, each with the exit code
its test asserts.  A failed test, job or request marks the report
INCOMPLETE, and the tool then exits 1.
"""

import ast
import contextlib
import dis
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

if sys.version_info < (3, 11):
    sys.exit("tools/reach_lines.py needs Python 3.11 or later: it reads "
             "co_qualname, instruction positions and the RESUME opcode")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bdshift"
SEED, ROUNDS = 7, 3

# kept although only tests run them: (module.qualname, a fragment of the
# line or "" for the whole function) -> reason.  Every refusal (a raise
# statement, the test of an if whose body raises, or an exception
# handler), every dunder and every name on tests/test_reach.py's ALLOWED
# list is kept without an entry.
_ACCESSOR = "an accessor the tests read through; in the tests it would " \
    "be no shorter"
_GRAMMAR = "the expression grammar: numbers, i, unary minus, " \
    "subtraction, names with '_', comm() and adj(), which no benchmark " \
    "request writes, and parse_gaussian (--c)"
_WRITER = "the JSON writer's spellings that no report of the benchmark's " \
    "requests holds: NaN, +-Infinity, null, true, false and []"
_DEFER = "the one-pass argv reader handing argparse what it would " \
    "refuse or does not read: help, a usage error or an unusual spelling, " \
    "which no benchmark request writes"
_TYPED = "an option whose type converts a str default, as argparse " \
    "does; no command declares one, the reader's agreement test does"
ALLOWED = {
    ("algebra._Element.degrees", ""): _ACCESSOR,
    ("algebra.LaurentFunction.coefficient", ""): _ACCESSOR,
    ("algebra.LaurentFunction.is_zero", ""): _ACCESSOR,
    ("algebra.MatrixTrigPoly.is_zero", ""): _ACCESSOR,
    ("gns.GNSVector.coefficient", ""): _ACCESSOR,
    ("scalars.Scalar.im", ""): _ACCESSOR,
    ("sequences.AffineSequence.value_at", ""): _ACCESSOR,
    ("algebra.LaurentFunction.conjugate", ""):
        "the entries of MatrixTrigPoly.conjugate_transpose",
    ("serialize.Workspace.to_json", ""):
        "the writer of serialize.save_workspace",
    ("scalars._fraction_str", ""): "the helper of Scalar.__str__",
    ("scalars.as_scalar", "NotImplemented"):
        "the arithmetic dunders' answer to a foreign operand",
    ("algebra._kronecker_slots", "return 0"):
        "the size rule refusing a sparse product",
    ("algebra._kronecker_slots", "> KRONECKER_CORNER"):
        "the size rule refusing a deep zero fill",
    ("algebra._kronecker_slots", "else 0"):
        "the size rule refusing slots wider than 8 bytes",
    ("algebra._unilateral_rows", "or [()] * size"):
        "an A(N) corner with no column or no row: a factor without "
        "corrections, which every dense benchmark product has",
    ("cli.main", "sys.argv[1:]"):
        "the console entry point, which the traces run only as a subprocess",
    ("cli.main", "if argv else None"): "an empty argv: help from the top",
    ("cli.main", "else top.parse_args"):
        "an argv without a known command: help or a usage error",
    ("cli.main", "if own else None"):
        "an argv without a known command: help or a usage error",
    **{("cli._read", fragment): _DEFER for fragment in (
        "return None", 'if v[:1] == "-"')},
    ("cli._read", "for a in typed if a not in seen"): _TYPED,
    ("cli._flags", "isinstance(a.default, str)"): _TYPED,
    ("cli.cmd_qnorm", "if shift >= 0 else 0"):
        "a round count below 1, which quotient_norm_report then refuses",
    ("algebra._pair_rows", "else oc[k + s]"):
        "a linear part meeting a correction of the other factor past the "
        "cutoffs: apply of an unbounded derivation to such an element, "
        "which no benchmark job forms",
    ("gns.implementation_from_bilateral", "else as_scalar(c)"):
        "a free constant given, as gns-d and covcheck take it from --c",
    ("gns._D_block", "elif a or b:"):
        "an off cell with a zero real part, where the test reads the "
        "imaginary part",
    ("numerics.oracle_product_check", 'else "mismatch"'):
        "the verdict of a product check that fails",
    ("numerics.quotient_norm_report", "else J"):
        "qnorm at an infinite N, which no benchmark request asks",
    ("scalars._triple", "if rd == id_ else"):
        "a wire scalar with two denominators, which only a hand-written "
        "workspace holds: the writer spells one",
    ("scalars._triple", "if d > 0 else"):
        "a wire scalar with a negative denominator, which only a "
        "hand-written workspace holds",
    ("serialize.load_workspace", '.replace("\\r", "\\n")'):
        "a workspace with carriage returns, which the writer never makes",
    **{("cli._json", fragment): _WRITER for fragment in (
        'else "[]"', '"null" if v is None', '"NaN" if v != v',
        '"-Infinity" if v')},
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
    ("parser._Parser.parse_expr", 'else "sub"'): _GRAMMAR,
    **{("parser._lex", fragment): _GRAMMAR for fragment in (
        'ch == "_"', 'text[j] == "_"')},
}


# the timed tests of tests/test_parser_cli.py; that module keeps their
# requests, which the traced Tier-1 run takes from it (_timed_requests)
TIMED = ("tests/test_parser_cli.py::test_cli_wide_products_fail_fast",
         "tests/test_parser_cli.py::test_cli_derive_checks_the_span")

# The traced interpreter runs this file in a namespace, not as a module.
# Hypothesis mixes the literals of every local module in sys.modules into
# its draws, so this file as a module would redraw the suite's
# derandomized examples: a coverage floor of
# test_kronecker_rows_match_the_pair_loop failed under the trace.  A
# @seed would not pin them: the literals are mixed in whatever the seed,
# and no setting turns them off.
_BOOT = ("import sys; path = sys.argv.pop(1); "
         "ns = {'__name__': 'reach_trace', '__file__': path}; "
         "exec(compile(open(path).read(), path, 'exec'), ns); "
         "ns['_trace'](*sys.argv[1:])")


def _timed_requests(tmp):
    """(argv, exit code) of each request of the TIMED tests, in their
    order, as tests/test_parser_cli.py keeps them; the workspace of the
    second is written under tmp."""
    sys.path.insert(0, str(ROOT / "tests"))
    import test_parser_cli as t
    refused, accepted = t.wide_derivation_requests(Path(tmp, "wide.json"))
    return [*((argv, 3) for argv in t.WIDE_PRODUCTS),
            (t.WIDE_PRODUCT_ACCEPTED, 0),
            *((argv, 3) for argv in refused),
            *((argv, 0) for argv in accepted)]


def _key(code):
    return f"{code.co_firstlineno}:{code.co_qualname}"


def _trace(mode, out):
    """Run one trace in this interpreter and write the instruction
    offsets of the points it ran, by file and code object, to out.  A
    point alone on its line runs when its line does; only a code object
    with a line of several points, not all run yet, traces opcodes, and
    one whose points have all run is not traced again."""
    sys.dont_write_bytecode = True
    # hits holds (id(code), offset) per opcode, (id(code), -line) per line
    src, seen, hits = str(SRC), {}, set()

    def local(frame, event, arg):
        if event == "opcode":
            hits.add((id(frame.f_code), frame.f_lasti))
        elif event == "line":
            hits.add((id(frame.f_code), -frame.f_lineno))
        return local

    def left(c, points):
        return [(i, n, shared) for i, n, shared in points
                if (c, i if shared else -n) not in hits]

    def start(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(src):
            return None
        c, entry = id(code), seen.get(id(code))
        if entry is None:
            points = _own_points(code)
            lines = [n for _, n in points]
            points = [(i, n, lines.count(n) > 1) for i, n in points]
            entry = (code, points, points)
        todo = left(c, entry[2])
        seen[c] = (code, entry[1], todo)
        if not todo:
            return None
        frame.f_trace_opcodes = any(shared for *_, shared in todo)
        return local

    sys.settrace(start)
    import pytest
    tests = [str(ROOT / "tests"), *(f"--deselect={t}" for t in TIMED)] \
        if mode == "tier1" else [str(ROOT / "tests" / "test_acceptance.py")]
    status = pytest.main(["-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors", *tests])
    failed = 0
    if mode == "tier1":
        from bdshift import cli
        with tempfile.TemporaryDirectory(prefix="reach-timed-") as tmp:
            for argv, code in _timed_requests(tmp):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    failed += cli.main(argv) != code
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
    ran = {}
    for c, (code, points, _) in seen.items():
        missed = {i for i, _, _ in left(c, points)}
        ran.setdefault(Path(code.co_filename).name, {}).setdefault(
            _key(code), []).extend(i for i, _, _ in points if i not in missed)
    Path(out).write_text(json.dumps(
        {"pytest": int(status), "failed": failed, "ran": ran}))


_STOPS = {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_BACKWARD_NO_INTERRUPT",
          "RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE"}


def _own_points(code):
    """(offset, line) of every point of code, not of the code objects
    nested in it: the instructions reached from the entry by jumps and
    fall-through, not by an exception, that start a block or a line.  The
    entry follows the first RESUME; no RESUME raises an opcode event."""
    ins = list(dis.get_instructions(code))
    at = {i.offset: k for k, i in enumerate(ins)}
    entry = next(k for k, i in enumerate(ins) if i.opname == "RESUME") + 1
    seen, todo = set(), [entry]
    while todo:
        k = todo.pop()
        if k in seen or k >= len(ins):
            continue
        seen.add(k)
        if ins[k].opcode in dis.hasjrel or ins[k].opcode in dis.hasjabs:
            todo.append(at[ins[k].argval])
        if ins[k].opname not in _STOPS:
            todo.append(k + 1)
    return [(ins[k].offset, ins[k].positions.lineno) for k in sorted(seen)
            if ins[k].positions.lineno and ins[k].opname != "RESUME" and (
                k == entry or ins[k].is_jump_target
                or ins[k - 1].opcode in dis.hasjrel + dis.hasjabs
                or ins[k - 1].positions.lineno != ins[k].positions.lineno)]


def _points(code):
    """(key, offset, line) of every point of code and of each code object
    nested in it."""
    out = [(_key(code), i, n) for i, n in _own_points(code)]
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            out += _points(c)
    return out


def _scopes(tree):
    """(first, last, qualname, is_dunder) of every def and class, and the
    line ranges of the refusals: raise statements, exception handlers, the
    test of an if whose body starts with a raise, and the script entry
    under `if __name__ == "__main__"`."""
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
                elif isinstance(child, ast.If) \
                        and isinstance(child.body[0], ast.Raise):
                    raises.append((child.lineno, child.test.end_lineno))
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
    reach, tier1 = ({f: {(k, i) for k, offs in byc.items() for i in offs}
                     for f, byc in h["ran"].items()} for h in hits)
    names, kept = _kept(), 0
    out = {"only Tier-1 runs": [], "nothing runs": []}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        scopes, raises = _scopes(ast.parse(text))
        ran = reach.get(path.name, set())
        tested = tier1.get(path.name, set())
        # by line, its points that the reach trace misses: whether the
        # Tier-1 trace runs each of them
        missed = {}
        for key, i, n in _points(compile(text, str(path), "exec")):
            if (key, i) not in ran:
                missed.setdefault(n, []).append((key, i) in tested)
        for n in sorted(missed):
            title = "only Tier-1 runs" if all(missed[n]) \
                else "nothing runs"
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
    hits, incomplete = [], []
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        for mode in ("reach", "tier1"):
            out = Path(tmp, mode + ".json")
            proc = subprocess.run(
                [sys.executable, "-c", _BOOT, __file__, mode, str(out)],
                cwd=ROOT,
                capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
            if proc.returncode:
                sys.exit(f"{mode} trace failed:\n{proc.stderr[-2000:]}")
            hits.append(json.loads(out.read_text()))
            lines = proc.stdout.strip().splitlines()
            print(f"{mode} trace: pytest exit {hits[-1]['pytest']}, "
                  f"{hits[-1]['failed']} failed jobs or requests; "
                  f"{lines[-1:]}")
            for line in lines:
                if line.startswith(("FAILED ", "ERROR ")):
                    print(f"  {line}")
            if hits[-1]["pytest"] or hits[-1]["failed"]:
                incomplete.append(mode)
    if incomplete:
        print(f"INCOMPLETE: the {' and '.join(incomplete)} trace failed, "
              "so a line that only a failed test, job or request reaches "
              "may be listed under 'nothing runs'")
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
    if incomplete:
        sys.exit("INCOMPLETE report")


if __name__ == "__main__":
    main()
