"""The workspace loader under malformed input, driven through the CLI.

Each case takes a valid workspace (bench/workspaces/ws_n2.json), puts an
arbitrary JSON value at one position of it, and runs `normalize U` on
the result.  Whatever the value, the CLI must answer with a documented
exit code, print no traceback, and answer fast.  The generated lists and
objects hold a few entries at most, so no case can allocate much.
"""

import contextlib
import copy
import io
import json
import time
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from bdshift import cli

BASE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "workspaces"
     / "ws_n2.json").read_text(encoding="utf-8"))

# key paths into BASE; a last key that BASE lacks adds an entry there
POSITIONS = (
    ("N",),
    ("N", "factors"),
    ("N", "factors", "2"),
    ("N", "factors", "3"),
    ("sequences",),
    ("sequences", "x"),
    ("sequences", "x", "table"),
    ("sequences", "x", "table", 0),
    ("sequences", "x", "table", 1, 1),
    ("sequences", "x", "correction"),
    ("sequences", "x", "correction", "1"),
    ("sequences", "x", "correction", "4"),
    ("sequences", "y", "values"),
    ("sequences", "y", "values", 1),
    ("derivations",),
    ("derivations", "d", "N"),
    ("derivations", "d", "components"),
    ("derivations", "d", "components", "0"),
    ("derivations", "d", "components", "0", "linear"),
    ("derivations", "d", "components", "1", "linear", 3),
    ("derivations", "d", "components", "0", "ep"),
    ("derivations", "d", "components", "0", "ep", "table"),
    ("derivations", "d", "components", "0", "ep", "correction"),
    ("derivations", "d", "components", "5"),
    ("laurent",),
    ("laurent", "f"),
    ("laurent", "f", "coeffs"),
    ("laurent", "f", "coeffs", "1"),
    ("laurent", "f", "coeffs", "-1", 1),
    ("laurent", "f", "coeffs", "x"),
)

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**40, -(10**40), 2**64, 4096, 4097]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.sampled_from(["inf", "2", "1/2", "-1"]),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)

FUZZ = settings(
    max_examples=300, deadline=None, database=None, derandomize=True
)


def _put(data, path, value):
    for key in path[:-1]:
        data = data[key]
    data[path[-1]] = value


@pytest.fixture(scope="module")
def ws_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "ws.json"


# shapes the wire decoder meets besides the drawn ones: a negative
# denominator (normalised), a zero one (refused) and 300-digit numerators
WIDE = 10**299 + 7


@FUZZ
@given(position=st.sampled_from(POSITIONS), value=VALUES)
@example(position=("sequences", "x", "table", 1, 1), value=-3)
@example(position=("sequences", "x", "correction", "4"),
         value=[WIDE, -7, -WIDE, 9])
@example(position=("derivations", "d", "components", "1", "linear", 3),
         value=0)
@example(position=("laurent", "f", "coeffs", "1"), value=[WIDE, 1, 0, 0])
def test_malformed_workspaces_fail_with_an_exit_code(ws_file, position,
                                                     value):
    data = copy.deepcopy(BASE)
    _put(data, position, value)
    ws_file.write_text(json.dumps(data), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["normalize", "--workspace", str(ws_file), "U"])
    assert time.perf_counter() - start < 2.0
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue())
