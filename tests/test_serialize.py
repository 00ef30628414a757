"""The workspace loader reads the file's bytes in one call and decodes
them itself.  It must load and refuse exactly what reading the file in
text mode loads and refuses: the newlines text mode translates, the JSON
error positions after that translation, an undecodable byte, and every
malformed entry, with the same exception and message on every load.
"""

import json
from pathlib import Path

import pytest

from bdshift.errors import PeriodNotDivisor
from bdshift.profinite import LocallyConstantFunction, SupernaturalNumber
from bdshift.scalars import Scalar
from bdshift.serialize import Workspace, load_workspace, save_workspace

WORKSPACES = Path(__file__).resolve().parents[1] / "bench" / "workspaces"
N2 = SupernaturalNumber.from_int(2)
N6 = SupernaturalNumber.from_int(6)


def _ws(N, **values):
    """A workspace of locally constant functions, name -> value table."""
    return Workspace(N, sequences={
        name: LocallyConstantFunction([Scalar(v) for v in table], N)
        for name, table in values.items()})


def _text_mode(path):
    """What the loader read before: json.load over a text-mode file."""
    with open(path, "r", encoding="utf-8") as fh:
        return Workspace.from_json(json.load(fh))


def _error(load, path):
    with pytest.raises(Exception) as info:
        load(path)
    return type(info.value), str(info.value)


def test_the_bench_workspaces_load_as_they_are_written():
    paths = sorted(WORKSPACES.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        ws = load_workspace(str(path))
        assert ws.to_json() == json.loads(path.read_text(encoding="utf-8"))
        assert ws.to_json() == _text_mode(path).to_json()


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_every_newline_loads_as_in_text_mode(tmp_path, newline):
    path = tmp_path / "ws.json"
    text = json.dumps(_ws(N6, g=[1, 0, 2]).to_json(), indent=2)
    path.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert load_workspace(str(path)).to_json() == \
        _text_mode(path).to_json() == json.loads(text)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_a_json_error_reports_the_text_mode_position(tmp_path, newline):
    # the error sits on the fourth line, after three newlines of each kind
    path = tmp_path / "ws.json"
    path.write_bytes(newline.join(
        ["{", '  "N": {"factors": {"2": 1}},', '  "sequences": {', "  ,"]
    ).encode("utf-8"))
    kind, message = _error(load_workspace, str(path))
    assert (kind, message) == _error(_text_mode, path)
    assert kind is json.JSONDecodeError and "line 4 column 3" in message


def test_an_undecodable_byte_is_refused_as_in_text_mode(tmp_path):
    path = tmp_path / "ws.json"
    path.write_bytes(b'{"N": {"factors": {"2": 1}}, "x": "\xff"}')
    kind, message = _error(load_workspace, str(path))
    assert (kind, message) == _error(_text_mode, path)
    assert issubclass(kind, ValueError) and "position 35" in message


def _nested(path):
    path.write_text('{"N": ' + "[" * 100000 + "]" * 100000 + "}",
                    encoding="utf-8")


def _bad_entry(path):
    path.write_text(json.dumps({"N": {"factors": {"2": 1}},
                                "sequences": {"g": {"values": 3}}}),
                    encoding="utf-8")


def _outside_N(path):
    data = _ws(N6, g=[1, 0, 0]).to_json()
    data["N"] = N2.to_json()
    path.write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("write, error, message", [
    (lambda p: p.write_text('{"N": ', encoding="utf-8"), ValueError,
     "Expecting value"),
    (_nested, ValueError, "workspace JSON nests too deeply"),
    (_bad_entry, ValueError, "workspace sequence 'g' is malformed"),
    (_outside_N, PeriodNotDivisor, "does not divide N"),
], ids=["syntax", "nesting", "entry", "period"])
def test_a_malformed_file_raises_on_every_load(tmp_path, write, error,
                                               message):
    path = tmp_path / "ws.json"
    write(path)
    raised = []
    for _ in range(2):
        with pytest.raises(error, match=message) as info:
            load_workspace(str(path))
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    fixed = _ws(N6, g=[1, 0, 0])
    save_workspace(fixed, str(path))
    assert load_workspace(str(path)).to_json() == fixed.to_json()


def test_the_value_of_n_is_its_factors_product():
    # as_int and is_finite read the value the constructor forms once
    for factors, value in (({}, 1), ({2: 3, 3: 1}, 24), ({5: 1, 2: 1}, 10),
                           ({7: 2, 2: "inf"}, None), ({3: "inf"}, None)):
        N = SupernaturalNumber(factors)
        assert N.is_finite() == (value is not None)
        if value is not None:
            assert N.as_int() == value
