"""The CLI under grammar-generated requests.

Each case draws a command, one of the benchmark workspaces, its flags and
its expressions, built from the expression grammar of `bdshift.parser`.
Exponents, degree spans, parenthesis nesting and window sizes are drawn
inside and just past their caps (`parser.MAX_EXPONENT`, `parser.MAX_SPAN`,
`parser.MAX_NESTING`, `cli.MAX_WINDOW`, `cli.MAX_GRID`).
Whatever it draws, the CLI must answer with a documented exit code (0-4),
print no traceback and answer fast; on success it prints JSON that lists
every integer-keyed object ascending.  The generic exponents are at most
3, and the cap values sit only on single generators and diagonals, so no
case forms a wide product or a large window.
"""

import contextlib
import io
import json
import time
from itertools import accumulate
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from bdshift import cli
from bdshift.parser import MAX_EXPONENT, MAX_NESTING, MAX_SPAN

WORKSPACES = Path(__file__).resolve().parents[1] / "bench" / "workspaces"
HALF = (MAX_SPAN - 1) // 2

SCALARS = ["id", "i", "0", "2", "3/4", "1/2i", "diag(x)", "diag(y)"]
# the atoms of each side, and one generator or diagonal at the exponent
# cap and just past it, and sums of degree span MAX_SPAN and MAX_SPAN + 1;
# a few atoms of the other side, unknown names and bad syntax are mixed in
GENERATORS = {"unilateral": ("U", "Us"), "bilateral": ("V", "Vi")}


def _atoms(side):
    g, gs = GENERATORS[side]
    return st.one_of(
        st.sampled_from([g, gs] + SCALARS),
        st.sampled_from([
            f"{a}^{k}" for a in (g, gs, "diag(x)", "diag(y)")
            for k in (MAX_EXPONENT, MAX_EXPONENT + 1)
        ] + [f"({g}^{HALF} + {gs}^{HALF})",
             f"({g}^{HALF + 1} + {gs}^{HALF})"]),
        st.sampled_from(["U", "V", "diag(nope)", "U^-1", "2 +"]).filter(
            lambda a: a not in (g, gs)),
    )


def _extend(inner):
    pairs = st.tuples(inner, inner)
    return st.one_of(
        pairs.map(lambda p: f"{p[0]} + {p[1]}"),
        pairs.map(lambda p: f"{p[0]} - {p[1]}"),
        pairs.map(lambda p: f"{p[0]}*{p[1]}"),
        pairs.map(lambda p: f"comm({p[0]}, {p[1]})"),
        inner.map(lambda e: f"adj({e})"),
        inner.map(lambda e: f"(-{e})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
    )


EXPRS = {side: st.recursive(_atoms(side), _extend, max_leaves=6)
         for side in GENERATORS}
# an expression nested MAX_NESTING - 1 to MAX_NESTING + 1 brackets deep,
# counting its own, under plain brackets, adj, negation or a commutator;
# the depth past the cap comes first, as the derandomized draws lean to
# the first values of a list
OPENERS = st.sampled_from(["(", "adj(", "-(", "comm(id, "])


def _nest(parts):
    opener, depth, expr = parts
    own = max(accumulate((c == "(") - (c == ")") for c in expr), default=0)
    k = max(depth - own, 0)
    return opener * k + expr + ")" * k


DEPTHS = st.sampled_from([MAX_NESTING + 1, MAX_NESTING, MAX_NESTING - 1])
NESTED = {side: st.tuples(OPENERS, DEPTHS, expr).map(_nest)
          for side, expr in EXPRS.items()}
WINDOWS = st.sampled_from(["1", "8", str(cli.MAX_WINDOW + 1)])
LEVELS = st.sampled_from(["1", "2", "6", str(cli.MAX_WINDOW),
                          str(cli.MAX_WINDOW + 1)])
DEGREES = st.integers(-3, 3).map(str)
# a qnorm grid and round count inside and past cli.MAX_GRID: the last grid
# is grid * 2^(rounds - 1)
GRIDS = st.sampled_from(["1", "8", str(cli.MAX_GRID), str(cli.MAX_GRID + 1)])
ROUNDS = st.sampled_from(["1", "2", "13"])
# short lists, and long ones whose summed window exceeds cli.MAX_WINDOW
MLISTS = st.sampled_from(["8", "4,8,16", "2047", "2047,2047",
                          ",".join(["8"] * 100), ",".join(["2047"] * 26000)])
STATES = st.one_of(
    st.sampled_from([[], ["--state", "tau0"], ["--state", "tau0", "--level",
                                               "2"]]),
    LEVELS.map(lambda level: ["--state", "haar", "--level", level]),
)


def _flat(parts):
    return [a for p in parts for a in (p if isinstance(p, list) else [p])]


def _request(command, *flags):
    return st.tuples(*flags).map(lambda ps: [command] + _flat(ps))


# the commands that serve both algebras take --side; the others read their
# operands in one algebra and refuse expressions of the other as a side
# mismatch
BOTH = ("normalize", "mul", "comm", "derive")


def _on_a_side(command, operands, *flags, exprs=EXPRS):
    """command with its flags and operands, all expressions of one side,
    drawn for either side."""
    def build(side):
        head = [command] + (["--side", side] if command in BOTH else [])
        return st.tuples(*flags, *[exprs[side]] * operands).map(
            lambda ps: head + _flat(ps))
    return st.sampled_from(sorted(GENERATORS)).flatmap(build)


REQUESTS = st.one_of(
    _on_a_side("normalize", 1),
    _on_a_side("normalize", 1, exprs=NESTED),
    _on_a_side("mul", 2),
    _on_a_side("comm", 2),
    _on_a_side("derive", 1, st.just(["--derivation", "d"])),
    _on_a_side("toeplitz", 1),
    _on_a_side("defect", 2),
    _on_a_side("matrix-form", 1),
    _on_a_side("gns-rep", 1, STATES),
    _on_a_side("truncate", 1, st.just("--m"), WINDOWS),
    _on_a_side("normest", 1, st.just("--m"), WINDOWS),
    _request("gns-d", st.just(["--derivation", "d", "--n"]), DEGREES,
             st.just("--m"),
             st.sampled_from(["2", str(cli.MAX_WINDOW // 2)])),
    _request("fejer", st.just(["--derivation", "d", "--m"]),
             st.sampled_from(["0", "3"])),
    _request("classify", st.just(["--derivation", "d", "--n"]), DEGREES),
    _request("qnorm", st.just("--grid"), GRIDS, st.just("--rounds"), ROUNDS,
             EXPRS["bilateral"]),
    _request("parametrix", st.just(["--derivation", "d", "--n"]), DEGREES,
             st.sampled_from([[], ["--space", "haar"]]), st.just("--mlist"),
             MLISTS),
)

FUZZ = settings(
    max_examples=300, deadline=None, database=None, derandomize=True
)


def _ascending(pairs):
    keys = [k for k, _ in pairs]
    if all(k.lstrip("-").isdecimal() for k in keys):
        assert keys == sorted(keys, key=int), keys
    return dict(pairs)


# the derandomized draws reach qnorm answers only at --grid 1 and never on
# ws_n2inf: answers at --grid 8 and at the grid cap, at finite and at
# infinite N, are given outright
QNORM_GRID_8 = ["qnorm", "--grid", "8", "--rounds", "2", "V + Vi + diag(y)"]
QNORM_GRID_CAP = ["qnorm", "--grid", str(cli.MAX_GRID), "--rounds", "1",
                  "(V + diag(y))^3 + Vi"]
# the refusals of deep nesting and of a power tower over a non-literal
# base, and left-nested chains that answer without a frame per link
DEEP = ["normalize", "(" * 300 + "2" + ")" * 300]
TOWERS = [["normalize", "(2*id)^1024^1024^1024"],
          ["normalize", "diag(x)^1024^1024^1024"]]
CHAINS = [["normalize", "+".join(["1"] * 1000)],
          ["normalize", "2" + "^1" * 1000]]


@FUZZ
@given(request=REQUESTS,
       workspace=st.sampled_from(["ws_n2", "ws_n3", "ws_n6", "ws_n2inf"]))
@example(request=QNORM_GRID_8, workspace="ws_n6")
@example(request=QNORM_GRID_8, workspace="ws_n2inf")
@example(request=QNORM_GRID_CAP, workspace="ws_n6")
@example(request=QNORM_GRID_CAP, workspace="ws_n2inf")
@example(request=DEEP, workspace="ws_n2")
@example(request=TOWERS[0], workspace="ws_n2")
@example(request=TOWERS[1], workspace="ws_n2")
@example(request=CHAINS[0], workspace="ws_n2")
@example(request=CHAINS[1], workspace="ws_n2")
def test_generated_requests_answer_with_an_exit_code(request, workspace):
    argv = [request[0], "--workspace", str(WORKSPACES / f"{workspace}.json"),
            *request[1:]]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 3.0, argv
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue()), argv
    if code == 0:
        json.loads(out.getvalue(), object_pairs_hook=_ascending)
