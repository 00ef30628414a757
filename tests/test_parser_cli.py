import contextlib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bdshift.scalars import Scalar, ZERO, ONE
from bdshift.errors import (
    ExprSyntaxError,
    MathDomainError,
    NoConvergence,
    PeriodNotDivisor,
    SideMismatch,
    UnknownName,
)
from bdshift.profinite import (
    MAX_CORRECTION_KEY,
    MAX_N_BITS,
    LocallyConstantFunction,
    SupernaturalNumber,
)
from bdshift.sequences import AffineSequence, EPSequence, ep_zero
from bdshift.algebra import (
    BilateralElement,
    UnilateralElement,
    commutator,
    identity_element,
    p0_element,
    u_element,
    v_element,
)
from bdshift.derivations import (
    DerivationSum,
    LaurentFunction,
    classify,
    covariant,
    reassemble,
)
from bdshift.parser import (MAX_DIGITS, MAX_EXPONENT, MAX_INPUT, MAX_NESTING,
                            eval_ast, parse, parse_gaussian)
from bdshift.serialize import Workspace, load_workspace, save_workspace
from bdshift import cli, gns

N2 = SupernaturalNumber.from_int(2)
N4 = SupernaturalNumber.from_int(4)
WORKSPACES = Path(__file__).resolve().parents[1] / "bench" / "workspaces"


def make_workspace():
    beta = EPSequence({1: Scalar(3)}, [Scalar(1), Scalar(0)], N2)
    g = LocallyConstantFunction([Scalar(2), Scalar(Fraction(1, 2))], N2)
    d = DerivationSum(
        {
            0: covariant(
                0,
                AffineSequence(
                    ONE, EPSequence({}, [Scalar(0), Scalar(1)], N2)
                ),
                N2,
            ),
            1: covariant(
                1,
                AffineSequence(ZERO, EPSequence({}, [Scalar(2), ZERO], N2)),
                N2,
            ),
            2: covariant(
                2, AffineSequence(Scalar(Fraction(1, 2)), ep_zero(N2)), N2
            ),
        },
        N2,
    )
    f = LaurentFunction({1: ONE, -1: ONE})
    return Workspace(
        N2,
        sequences={"beta": beta, "g": g},
        derivations={"d": d},
        laurent={"f": f},
    )


@pytest.fixture
def ws_path(tmp_path):
    path = tmp_path / "ws.json"
    save_workspace(make_workspace(), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# parser


def test_parse_shapes():
    assert parse("U") == ("u",)
    assert parse("U*Us") == ("mul", ("u",), ("us",))
    assert parse("U^2 + 3") == (
        "add",
        ("pow", ("u",), 2),
        ("num", Scalar(3)),
    )
    assert parse("comm(V, Vi)") == ("comm", ("v",), ("vi",))
    assert parse("adj(U)") == ("adj", ("u",))
    assert parse("-diag(beta)") == ("neg", ("diag", "beta"))
    assert parse("1/2 + 3i") == (
        "add",
        ("num", Scalar(Fraction(1, 2))),
        ("num", Scalar(0, 3)),
    )


def test_parse_precedence():
    # ^ binds tighter than *, * tighter than +; +/- associate left
    assert parse("U*U^2") == ("mul", ("u",), ("pow", ("u",), 2))
    assert parse("1 - 2 - 3") == (
        "sub",
        ("sub", ("num", Scalar(1)), ("num", Scalar(2))),
        ("num", Scalar(3)),
    )


def test_parse_errors():
    with pytest.raises(ExprSyntaxError):
        parse("U^-1")
    with pytest.raises(ExprSyntaxError):
        parse("U +")
    with pytest.raises(ExprSyntaxError):
        parse("(U")
    with pytest.raises(ExprSyntaxError):
        parse("U)")
    with pytest.raises(ExprSyntaxError):
        parse("diag()")
    with pytest.raises(ExprSyntaxError):
        parse("$")
    err = None
    try:
        parse("U^-1")
    except ExprSyntaxError as exc:
        err = exc
    assert err.position == 2
    assert "position 2" in str(err)


def test_eval_basic_identities():
    ws = make_workspace()
    one = identity_element(N2)
    assert eval_ast(parse("Us*U"), ws, "unilateral") == one
    assert eval_ast(parse("U*Us"), ws, "unilateral") == one - p0_element(N2)
    assert eval_ast(parse("comm(Us, U)"), ws, "unilateral") == p0_element(N2)
    assert (
        eval_ast(parse("V*Vi"), ws, "bilateral")
        == eval_ast(parse("id"), ws, "bilateral")
    )
    assert eval_ast(parse("adj(U)"), ws, "unilateral") == eval_ast(
        parse("Us"), ws, "unilateral"
    )
    # scalars scale the identity
    assert eval_ast(parse("2 + 0*U"), ws, "unilateral") == 2 * one


def test_eval_diag_and_sides():
    ws = make_workspace()
    x = eval_ast(parse("diag(beta)*U"), ws, "unilateral")
    beta = ws.sequences["beta"]
    assert x == u_element(N2) * UnilateralElement(
        {0: EPSequence(
            {0: Scalar(3)}, [Scalar(0), Scalar(1)], N2
        )},
        N2,
    )
    with pytest.raises(SideMismatch):
        eval_ast(parse("V"), ws, "unilateral")
    with pytest.raises(SideMismatch):
        eval_ast(parse("U"), ws, "bilateral")
    with pytest.raises(SideMismatch):
        eval_ast(parse("diag(beta)"), ws, "bilateral")  # has corrections
    with pytest.raises(UnknownName):
        eval_ast(parse("diag(missing)"), ws, "unilateral")
    # locally constant functions work on both sides
    assert not eval_ast(parse("diag(g)"), ws, "unilateral").is_zero()
    assert not eval_ast(parse("diag(g)"), ws, "bilateral").is_zero()


def test_parse_gaussian():
    assert parse_gaussian("3/4 - 2i") == Scalar(Fraction(3, 4), -2)
    assert parse_gaussian("(1+1i)^2") == Scalar(0, 2)
    assert parse_gaussian("-5") == Scalar(-5)
    with pytest.raises(ExprSyntaxError):
        parse_gaussian("U + 1")


def test_powers_match_repeated_products():
    ws = make_workspace()
    for side, text in (("unilateral", "U + Us + diag(beta)"),
                       ("bilateral", "V + 2*Vi + diag(g)")):
        base = eval_ast(parse(text), ws, side)
        out = eval_ast(parse("id"), ws, side)
        for k in range(8):
            assert eval_ast(parse(f"({text})^{k}"), ws, side) == out
            out = out * base
    z, out = Scalar(1, 2), ONE
    for k in range(20):
        assert parse_gaussian(f"(1+2i)^{k}") == out
        out = out * z
    with pytest.raises(MathDomainError):
        parse_gaussian("2^2000000")


# ---------------------------------------------------------------------------
# workspace files


def test_workspace_round_trip(tmp_path):
    ws = make_workspace()
    path = tmp_path / "ws.json"
    save_workspace(ws, str(path))
    back = load_workspace(str(path))
    assert back.N == ws.N
    assert back.sequences == ws.sequences
    assert back.derivations == ws.derivations
    assert back.laurent == ws.laurent
    # an older file's divisor chain is ignored like any unknown key
    data = ws.to_json()
    data["chain"] = {"levels": [3]}
    assert Workspace.from_json(data).to_json() == ws.to_json()


def test_workspace_rejects_bad_period():
    g3 = LocallyConstantFunction(
        [Scalar(1), ZERO, ZERO], SupernaturalNumber.from_int(3)
    )
    with pytest.raises(PeriodNotDivisor):
        Workspace(N2, sequences={"g3": g3})


def _set(path, value):
    """An edit of the workspace JSON: the value at path, a key list."""
    def edit(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value
    return edit


MALFORMED_WORKSPACES = {
    "zero_denominator": ("sequence 'g'",
                         _set(["sequences", "g", "values", 0], [1, 0, 0, 1])),
    "float_scalar": ("sequence 'g'",
                     _set(["sequences", "g", "values", 0], [1.5, 1, 0, 1])),
    "string_scalar": ("laurent 'f'",
                      _set(["laurent", "f", "coeffs", "1"], ["1", 1, 0, 1])),
    "bool_numerator": ("sequence 'g'",
                       _set(["sequences", "g", "values", 0], [True, 1, 0, 1])),
    "bool_denominator": ("laurent 'f'",
                         _set(["laurent", "f", "coeffs", "1"],
                              [1, 1, 0, True])),
    "bool_correction": ("sequence 'beta'",
                        _set(["sequences", "beta", "correction", "1"],
                             [3, 1, False, 1])),
    "bool_linear": ("derivation 'd'",
                    _set(["derivations", "d", "components", "0", "linear"],
                         [True, 1, 0, 1])),
    "table_not_a_list": ("sequence 'beta'",
                         _set(["sequences", "beta", "table"], 5)),
    "null_sequence": ("sequence 'g'", _set(["sequences", "g"], None)),
    "N_not_an_object": ("N", _set(["N"], 5)),
    "components_as_list": ("derivation 'd'",
                           _set(["derivations", "d", "components"], [1])),
    "coeffs_as_list": ("laurent 'f'", _set(["laurent", "f", "coeffs"], [])),
    "sequences_as_list": ("'sequences'", _set(["sequences"], [])),
    "top_level_list": ("workspace", None),
    # an integer key has one spelling, str(int(key)): otherwise two keys
    # of one object name the same integer and the last one wins
    "correction_key_twice": ("sequence 'beta'",
                             _set(["sequences", "beta", "correction", "01"],
                                  [7, 1, 0, 1])),
    "n_factor_twice": ("N", _set(["N", "factors", "02"], 3)),
    "underscore_key": ("laurent 'f'",
                       _set(["laurent", "f", "coeffs", "1_0"], [1, 1, 0, 1])),
    "signed_key": ("derivation 'd'",
                   _set(["derivations", "d", "components", "+1"],
                        {"ep": {"period": 1, "table": [[5, 1, 0, 1]]}})),
    "padded_key": ("sequence 'beta'",
                   _set(["sequences", "beta", "correction", " 1"],
                        [7, 1, 0, 1])),
}


@pytest.mark.parametrize("case", MALFORMED_WORKSPACES)
def test_cli_rejects_malformed_workspace_files(capsys, tmp_path, case):
    entry, edit = MALFORMED_WORKSPACES[case]
    data = make_workspace().to_json()
    if edit is None:
        data = [data]
    else:
        edit(data)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code = cli.main(["normalize", "--workspace", str(path), "U"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert entry in err


def test_cli_refuses_a_null_denominator(capsys, tmp_path):
    # Fraction(n, None) is Fraction(n), so the Fraction-based reader took
    # [n, null, 0, 1] for n, and [1.5, null, 0, 1] for 3/2; the wire
    # decoder refuses a null like any part that is not an integer
    for value in ([7, None, 0, 1], [1.5, None, 0, 1], [0, 1, 2, None]):
        data = make_workspace().to_json()
        _set(["sequences", "g", "values", 0], value)(data)
        path = tmp_path / "ws.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = cli.main(["normalize", "--workspace", str(path), "U"])
        out, err = capsys.readouterr()
        assert code == 1 and out == "", value
        assert err.startswith("workspace sequence 'g' is malformed: ")
        assert err.count("\n") == 1


def test_cli_refuses_a_workspace_nested_past_the_decoder(capsys, tmp_path):
    # the JSON decoder recurses once per bracket, and its RecursionError
    # left cli.main at the parent
    path = tmp_path / "ws.json"
    path.write_text('{"N": ' + "[" * 100000 + "]" * 100000 + "}",
                    encoding="utf-8")
    code = cli.main(["normalize", "--workspace", str(path), "U"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == "workspace JSON nests too deeply\n"


# an exponent of N is a positive int, "inf" or math.inf, and the factors
# an object; none of these may load as some other N
MALFORMED_N = {
    "float_exponent": {"factors": {"2": 1.5}},
    "bool_exponent": {"factors": {"3": True}},
    "string_exponent": {"factors": {"2": "3"}},
    "zero_exponent": {"factors": {"2": 0}},
    "list_exponent": {"factors": {"2": [1]}},
    "null_exponent": {"factors": {"2": None}},
    "null_factors": {"factors": None},
    "list_factors": {"factors": []},
    "string_factors": {"factors": "2"},
}


@pytest.mark.parametrize("case", MALFORMED_N)
def test_cli_rejects_malformed_n_exponents(capsys, tmp_path, case):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"N": MALFORMED_N[case]}), encoding="utf-8")
    code = cli.main(["normalize", "--workspace", str(path), "U"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert "Traceback" not in err and err.count("\n") == 1
    assert "workspace N" in err


def test_cli_workspace_without_n_names_it(capsys, tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"sequences": {}}), encoding="utf-8")
    code = cli.main(["normalize", "--workspace", str(path), "U"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("workspace N is malformed: ")
    assert "Traceback" not in err and err.count("\n") == 1


def test_n_exponents_that_load():
    inf = float("inf")
    for factors, N in (({"2": 3}, 8), ({"3": 1, "2": 2}, 12), ({}, 1)):
        assert SupernaturalNumber.from_json({"factors": factors}).as_int() == N
    for e in ("inf", inf):
        N = SupernaturalNumber.from_json({"factors": {"2": e}})
        assert N == SupernaturalNumber({2: "inf"}) and N.factors[2] == inf
    assert SupernaturalNumber.from_json({}) == SupernaturalNumber.from_int(1)


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


# md5 of the stdout bytes of derive over the benchmark workspaces, one per
# expression of DERIVE_PINNED, with the degrees listed ascending (in ws_n2,
# 'Us^3 + U^2*diag(x)*Us' gives the terms -3, -2, -1, 1, 2, 3)
DERIVE_PINNED = (
    ("unilateral", "Us^3 + U^2*diag(x)*Us"),
    ("unilateral", "U^3*diag(y) + Us^2*diag(x)*U + id"),
    ("unilateral", "(U + Us)^3*diag(x)"),
    ("bilateral", "V^3*diag(y) + Vi^2"),
    ("bilateral", "(V + Vi)^3*diag(y)"),
)
DERIVE_MD5 = {
    "ws_n2": (
        "f9773cb525111ab0a90e99615a8cc387",
        "cd284f2be4d2460f6f89ef0d6139085f",
        "0945dde385163a0b385af7db6b0adca2",
        "518af9c0fd1199a77ed3c465dd4143de",
        "e80489a8a479f34edb218135f98d617c",
    ),
    "ws_n2inf": (
        "aaf8a9f8612a03f23223965fe6aa6e40",
        "f89865e444e8238fbf59cd78a9364871",
        "9af3f8666a5d0815bf9831197156b59f",
        "fe3d835be00d0240aeeed489890ef55f",
        "db84056d720789bab92c0f60aad1da6c",
    ),
    "ws_n3": (
        "f9d52b0f2ed84294a1a8b03e9e3a48fc",
        "88a7dc3bbdbd1a1a3df2e683d924fc86",
        "0ab75d41e76271e2473a6665d2a335ec",
        "967a5ac8b28b67ab36c3e78932f17ac2",
        "c09ce08be66b40e178d480e3b9004077",
    ),
    "ws_n6": (
        "8f675568f2573c83bdc80c019de931d8",
        "ad615b9991a3b99196b9aa49ec0b7cbb",
        "11409036cacd049893ac4d378397a274",
        "782b7d16edb4690fb3d87189bc68ec88",
        "e20d24cff8fc5a29e6dfdd3e95b95654",
    ),
}


@pytest.mark.parametrize("workspace", DERIVE_MD5)
def test_cli_derive_output_bytes_are_pinned(capsys, workspace):
    path = WORKSPACES / f"{workspace}.json"
    for (side, expr), md5 in zip(DERIVE_PINNED, DERIVE_MD5[workspace]):
        code = cli.main(["derive", "--workspace", str(path),
                         "--derivation", "d", "--side", side, expr])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5, (side, expr)


def _q(re, re_den, im=0, im_den=1):
    return [re, re_den, im, im_den]


# a workspace over N = 6 whose real and imaginary parts have different
# denominators (1/2 + i/3), which the benchmark workspaces never have; the
# md5 of each request's stdout was taken before coefficients were stored
# as integer rows over one denominator, and retaken for normalize, derive
# and toeplitz when the JSON came to list degrees ascending
MIXED_WORKSPACE = {
    "N": {"factors": {"2": 1, "3": 1}},
    "sequences": {
        "x": {"correction": {"0": _q(1, 2, 1, 3), "4": _q(-2, 5)},
              "period": 3,
              "table": [_q(1, 2, 1, 3), _q(-1, 6), _q(0, 1, 2, 3)]},
        "y": {"period": 6,
              "values": [_q(1, 3, -1, 2), _q(3, 4), _q(0, 1),
                         _q(0, 1, -1, 5), _q(1, 1), _q(1, 6, 1, 4)]},
    },
    "derivations": {"d": {"components": {
        "0": {"linear": _q(1, 2, 1, 3),
              "ep": {"correction": {"1": _q(0, 1, 1, 7)}, "period": 3,
                     "table": [_q(1, 3), _q(0, 1, -1, 2), _q(1, 6)]}},
        "1": {"ep": {"correction": {}, "period": 2,
                     "table": [_q(0, 1, 1, 2), _q(1, 3)]}},
    }}},
}
MIXED_PINNED = (
    (["normalize", "(U + diag(x))^3"],
     "e9cbbd162e268d330920c82b63a46043"),
    (["normalize", "--side", "bilateral", "V*diag(y) + Vi^2*diag(y)"],
     "20545379e234e0e2b01ac4bdf3e294ad"),
    (["mul", "diag(x)*U", "Us*diag(x) + U^2"],
     "e09ed5b23a41e3d479277d1dbf9c9593"),
    (["derive", "--derivation", "d", "Us^2*diag(x) + U"],
     "87a7fa5d0c75d59403777347595de362"),
    (["derive", "--derivation", "d", "--side", "bilateral",
      "(V + Vi)*diag(y)"],
     "ada5e3de8aad7e1a135c7fd3fd1415a8"),
    (["toeplitz", "V^2*diag(y) + Vi*diag(y)"],
     "4c62b0e4bf9e4ee499d047bf424afc64"),
    (["truncate", "--m", "8", "(U + Us)*diag(x)"],
     "67666466447ca664b002e6cc920a457e"),
    (["fourier", "--derivation", "d", "--n", "0"],
     "bcf5b56b86f33ce3d8b9de606cf2fe88"),
    (["fourier", "--derivation", "d", "--n", "1"],
     "eebc719bb76faf9bc82ac8e8c9339cbe"),
)


def test_cli_mixed_denominator_output_bytes_are_pinned(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_WORKSPACE), encoding="utf-8")
    for (command, *rest), md5 in MIXED_PINNED:
        code = cli.main([command, "--workspace", str(path), *rest])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5, rest


# md5 of the stdout bytes of the matrix picture over the finite benchmark
# workspaces: matrix-form and qnorm on each expression of MATRIX_PINNED,
# then extract-f and df-build; matrix-form lists the powers of each entry
# ascending (in ws_n2, 'V^3 + V + diag(y)' gives entry (0, 1) the powers
# 1, 2)
MATRIX_PINNED = (
    "V^3 + V + diag(y)",
    "Vi^2 + V^4*diag(y) + V",
    "(V + Vi)^3",
)
MATRIX_MD5 = {
    "ws_n2": (
        "568b979b1968f1dcb68d31105f1fdc2c", "552eb391b53c8cb653ca9e66ca577500",
        "ac5c6fcbb37ec913f2294276668fa237", "0453007298492b9c7e2e095c487fcffa",
        "00b95b1c29c2d9c6eb863eb45cb7e452", "50b0c64ad4bcf5e5032226c308bd96d0",
        "cafd422353f31cb29d831ee8d8faae72", "f017b8ed36f793778bb423a6e02d05d8",
    ),
    "ws_n3": (
        "1512937f0e52c6645942e4304827b7a4", "854e2d827fde4711eecd3f7c98535fef",
        "1afa88269ba67b34b787499c0658e13c", "d3d2ebf5a945ae2da1117c63da178559",
        "03fea1c1da5e3affaa3063f841c06bef", "50b0c64ad4bcf5e5032226c308bd96d0",
        "542021923eb514edd4bc82e14313609c", "d283d73c03829d2177e725fc567daf63",
    ),
    "ws_n6": (
        "977bb00cb5d3dfb406156803698dbf13", "a19bd87299ab52e2d2ddb3ce71a49d42",
        "6ff0582416135c8cef5434752ce05c45", "ca0b563cbc65ce5ecd391ad646a7b747",
        "22d612eb1a0c8b940d0e2b0bd5004a19", "50b0c64ad4bcf5e5032226c308bd96d0",
        "1b6e5b59268e0c29181054de3fe89872", "8ff3a55b46047cdf7674941f3401bf1f",
    ),
}


@pytest.mark.parametrize("workspace", MATRIX_MD5)
def test_cli_matrix_picture_output_bytes_are_pinned(capsys, workspace):
    ws = ["--workspace", str(WORKSPACES / f"{workspace}.json")]
    requests = [argv for expr in MATRIX_PINNED for argv in (
        ["matrix-form", *ws, expr],
        ["qnorm", *ws, expr, "--grid", "8", "--rounds", "2"],
    )] + [["extract-f", *ws, "--derivation", "d"],
          ["df-build", *ws, "--laurent", "f"]]
    for argv, md5 in zip(requests, MATRIX_MD5[workspace], strict=True):
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5, argv


# md5 of the stdout bytes of wide bilateral requests, taken before the
# product kernel gained its Kronecker path; their products fall on both
# sides of its size rule, and the largest pass a coefficient wider than
# a 64-bit slot to the pair loop
WIDE_BILATERAL = (
    ["normalize", "(V + Vi + diag(y))^64"],
    ["mul", "(V + Vi + diag(y))^8", "(V^2*diag(y) + Vi)^16"],
    ["comm", "(V + Vi + diag(y))^8", "(V^2*diag(y) + Vi)^16"],
    ["derive", "--derivation", "d", "(V + diag(y))^8"],
    ["derive", "--derivation", "d", "(V + Vi + diag(y))^16"],
)
WIDE_BILATERAL_MD5 = {
    "ws_n6": (
        "9953f102e9759f88b761480080c74a25", "055be681e16e497f52a5fd59b0707b86",
        "a22ceb4f36f0f09cbe42986b809bfe7e", "3f41ccba4a152fa1da270b3d9d1fc481",
        "c54b3ae12ed73688e237a6fe54c7e771",
    ),
    "ws_n2inf": (
        "106b14c34c05874ab25632bab6ca626f", "43892f75cb94d3d0e544a4c5cbae67c5",
        "c3e6224606981748df6b994186e72fa0", "2fcd8b4a5501108369cf026c47282aa7",
        "ea8bf9e8d10b6b7b2a174f6ccde7953f",
    ),
}


@pytest.mark.parametrize("workspace", WIDE_BILATERAL_MD5)
def test_cli_wide_bilateral_output_bytes_are_pinned(capsys, workspace):
    ws = ["--workspace", str(WORKSPACES / f"{workspace}.json")]
    for (command, *rest), md5 in zip(WIDE_BILATERAL,
                                     WIDE_BILATERAL_MD5[workspace],
                                     strict=True):
        code = cli.main([command, *ws, "--side", "bilateral", *rest])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.md5(out.encode()).hexdigest() == md5, rest


def test_cli_normalize(capsys, ws_path):
    code, payload = run_cli(
        capsys, "normalize", "--workspace", ws_path, "Us*U"
    )
    assert code == 0
    assert payload == identity_element(N2).to_json()


def test_cli_mul_and_comm(capsys, ws_path):
    code, payload = run_cli(capsys, "mul", "--workspace", ws_path, "U", "Us")
    assert code == 0
    assert payload == (identity_element(N2) - p0_element(N2)).to_json()
    code, payload = run_cli(
        capsys, "comm", "--workspace", ws_path, "Us", "U"
    )
    assert code == 0
    assert payload == p0_element(N2).to_json()


def _ascending(pairs):
    """object_pairs_hook: an object whose keys are all integers must list
    them ascending."""
    keys = [k for k, _ in pairs]
    if all(k.lstrip("-").isdecimal() for k in keys):
        assert keys == sorted(keys, key=int), keys
    return dict(pairs)


# (command and arguments) of every command that writes degree- or
# power-keyed objects; mixed signs, so an order of first reaching differs
# from the ascending one
WIRE_ORDER_REQUESTS = (
    ["normalize", "(U + Us)^3"],
    ["normalize", "Us^3 + U^2*diag(x)*Us + comm(U*diag(x), Us^2)"],
    ["normalize", "--side", "bilateral", "(V + Vi)^3*diag(y) + Vi^4"],
    ["mul", "U*diag(x) + Us^2", "Us + U^3*diag(x)"],
    ["mul", "--side", "bilateral", "V^2 + Vi*diag(y)", "Vi^3 + V*diag(y)"],
    ["comm", "U^2*diag(x) + Us", "diag(x)*Us^2 + U"],
    ["comm", "--side", "bilateral", "V^2*diag(y) + Vi", "diag(y)*Vi^2 + V"],
    ["derive", "--derivation", "d", "Us^3 + U^2*diag(x)*Us"],
    ["derive", "--derivation", "d", "--side", "bilateral",
     "(V + Vi)^3*diag(y)"],
    ["toeplitz", "(V + Vi)^3*diag(y) + Vi^2"],
    ["defect", "(V + Vi)^2*diag(y)", "V*diag(y) + Vi^2"],
    ["matrix-form", "V^3 + V + diag(y) + Vi^4"],
    ["extract-f", "--derivation", "d"],
    ["df-build", "--laurent", "f"],
    ["fejer", "--derivation", "d", "--m", "3"],
)


@pytest.mark.parametrize("workspace", ["ws_n2", "ws_n3", "ws_n6", "ws_n2inf"])
def test_cli_lists_integer_keys_ascending(capsys, workspace):
    # the one term order of the wire format; ws_n2inf has an infinite N
    # and no Laurent symbol, so the finite-N commands fail there
    ws = ["--workspace", str(WORKSPACES / f"{workspace}.json")]
    for command, *rest in WIRE_ORDER_REQUESTS:
        code = cli.main([command, *ws, *rest])
        out = capsys.readouterr().out
        if workspace == "ws_n2inf" and command in (
                "matrix-form", "extract-f", "df-build"):
            assert code != 0 and out == "", command
            continue
        assert code == 0, (command, rest)
        json.loads(out, object_pairs_hook=_ascending)


def test_comm_command_and_comm_expression_agree(capsys):
    ws = ["--workspace", str(WORKSPACES / "ws_n6.json")]
    for side, a, b in (
        ("unilateral", "U^2*diag(x) + Us", "diag(x)*Us^2 + U"),
        ("unilateral", "(U + Us)^3", "diag(x)"),
        ("bilateral", "V^2*diag(y) + Vi", "diag(y)*Vi^2 + V"),
    ):
        assert cli.main(["comm", *ws, "--side", side, a, b]) == 0
        first = capsys.readouterr().out
        assert cli.main(["normalize", *ws, "--side", side,
                         f"comm({a}, {b})"]) == 0
        assert capsys.readouterr().out == first


def test_commutator_refuses_mixed_classes():
    with pytest.raises(TypeError):
        commutator(u_element(N2), v_element(N2))
    with pytest.raises(TypeError):
        commutator(v_element(N2), u_element(N2))


def test_cli_derive(capsys, ws_path):
    code, payload = run_cli(
        capsys, "derive", "--workspace", ws_path, "--derivation", "d", "U"
    )
    assert code == 0
    ws = make_workspace()
    from bdshift.derivations import apply

    assert payload == apply(ws.derivations["d"], u_element(N2)).to_json()


def test_cli_classify_and_extract(capsys, ws_path):
    code, payload = run_cli(
        capsys,
        "classify", "--workspace", ws_path, "--derivation", "d", "--n", "0",
    )
    assert code == 0
    assert Scalar.from_json(payload["C_n"]) == ONE
    code, payload = run_cli(
        capsys, "extract-f", "--workspace", ws_path, "--derivation", "d"
    )
    assert code == 0
    f = LaurentFunction.from_json(payload)
    assert f.coefficient(0) == Scalar(2)
    assert f.coefficient(1) == ONE


def test_cli_defect(capsys, ws_path):
    code, payload = run_cli(
        capsys, "defect", "--workspace", ws_path, "V", "Vi"
    )
    assert code == 0
    assert payload["compact"] is True
    assert payload["defect"] == p0_element(N2).to_json()


def test_cli_units(capsys, ws_path):
    code, payload = run_cli(capsys, "units", "--workspace", ws_path)
    assert code == 0
    assert payload["size"] == 2
    assert set(payload["units"]) == {"0,0", "0,1", "1,0", "1,1"}


def test_cli_gns_rep(capsys, ws_path):
    code, payload = run_cli(
        capsys,
        "gns-rep", "--workspace", ws_path, "--state", "haar",
        "V + diag(g)",
    )
    assert code == 0
    assert Scalar.from_json(payload["tau"]) == Scalar(Fraction(5, 4))
    assert payload["level"] == 2
    code, payload = run_cli(
        capsys, "gns-rep", "--workspace", ws_path, "V^2"
    )
    assert code == 0
    assert payload["vector"]["coeffs"] == {"2": ONE.to_json()}


# (workspace, flags, expression, exit code, md5 of stdout) of gns-rep,
# taken while tau_0 and the Haar space had separate vector types; the
# tau_0 keys are "l", the Haar keys "m,x"
GNS_REP_PINNED = (
    ("ws_n2inf", ["--state", "tau0"],
     "V^3*diag(y) + Vi*diag(y)*diag(y) + diag(y)", 0,
     "41e48d331b3dab30874f6f650b32d462"),
    ("ws_n6", ["--state", "tau0"], "(V + Vi)^2*diag(y) + V*diag(y)", 0,
     "ad8554f10fa06c3be236710ec2568419"),
    ("ws_n2", ["--state", "tau0"], "V*diag(y)", 0,
     "f1ab74b5fa9515b22d6d53be90d7b9ec"),
    ("ws_n2", ["--state", "haar"], "V*diag(y) + Vi^2*diag(y)*diag(y) + 3",
     0, "634f35a7de4570203ddfee8968a2c3a3"),
    ("ws_n6", ["--state", "haar"], "(V + Vi)^2*diag(y) + V*diag(y)", 0,
     "610df69512c2c251312b35dd21908a38"),
    ("ws_n2inf", ["--state", "haar", "--level", "4"],
     "(V + Vi)^3 + 2*Vi + i", 0, "76b439d84e025d012bc24c3f464cfd69"),
    ("ws_n2inf", ["--state", "haar", "--level", "8"], "V*diag(y) + Vi", 0,
     "95c75cac01ffc68b9e3aa3dbd16828a8"),
    ("ws_n2", ["--state", "haar", "--level", "1"], "V + 2", 0,
     "21f270c4bce9c4471170cc9540b38a38"),
)


def test_cli_gns_rep_output_bytes_are_pinned(capsys):
    for ws, flags, expr, exit_code, md5 in GNS_REP_PINNED:
        code = cli.main(["gns-rep", "--workspace",
                         str(WORKSPACES / f"{ws}.json"), *flags, expr])
        out = capsys.readouterr().out
        assert code == exit_code, (ws, flags, expr)
        assert hashlib.md5(out.encode()).hexdigest() == md5, (ws, flags, expr)


def test_cli_gns_rep_checks_the_period_on_every_haar_level(capsys):
    # the Haar space needs period | level at level 1 too; tau_0 takes any
    # period
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for flags in (["--level", "1"], ["--level", "3"]):
        code = cli.main(["gns-rep", *ws, "--state", "haar", *flags,
                         "V*diag(y)"])
        out, err = capsys.readouterr()
        assert code == 3, flags
        assert out == "" and "period 2 does not divide level" in err
    code = cli.main(["gns-rep", "--workspace",
                     str(WORKSPACES / "ws_n2inf.json"), "--state", "haar",
                     "--level", "4", "V*diag(y)"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "period 8" in err
    code, payload = run_cli(capsys, "gns-rep", *ws, "--state", "tau0",
                            "V*diag(y)")
    assert code == 0
    assert set(payload["vector"]["coeffs"]) == {"1"}


def test_cli_gns_rep_refuses_a_level_on_tau0(capsys):
    # tau_0 has the one fiber x = 0, so a --level would be ignored
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for level in ("1", "2", "4"):
        code = cli.main(["gns-rep", *ws, "--state", "tau0", "--level", level,
                         "V*diag(y)"])
        out, err = capsys.readouterr()
        assert code == 1, level
        assert out == "" and "--level is not used with --state tau0" in err


def test_cli_parametrix_empty_mlist_is_a_usage_error(capsys, ws_path):
    # no window gives no decay profile, so there is no verdict to print
    gns = ["--workspace", ws_path, "--derivation", "d", "--n", "0"]
    for mlist in (",", "", ",,"):
        for space in ("tau0", "haar"):
            code = cli.main(["parametrix", *gns, "--space", space,
                             "--mlist", mlist])
            out, err = capsys.readouterr()
            assert code == 1, (mlist, space)
            assert out == "" and "at least one window" in err


def test_cli_gns_d_and_covcheck(capsys, ws_path):
    code, payload = run_cli(
        capsys,
        "gns-d", "--workspace", ws_path, "--derivation", "d", "--n", "1",
        "--m", "4",
    )
    assert code == 0
    assert payload["case"] == "bounded"
    assert payload["size"] == 9
    assert payload["entries"]
    code, payload = run_cli(
        capsys,
        "covcheck", "--workspace", ws_path, "--derivation", "d", "--n", "1",
        "--m", "6", "--grid", "8",
    )
    assert code == 0
    assert payload["residual"] < 1e-12


# md5 of the stdout bytes of gns-d --m 3 and covcheck --m 5 --grid 8 over
# the benchmark workspaces, taken while the float D had its own fill code:
# one (gns-d, covcheck) pair per component degree of d, ascending, and
# space, tau0 first.  The bounded Haar windows of ws_n2 n = 1, ws_n3
# n = 1, ws_n6 n = 2 and ws_n2inf n = 1 carry off cells.
GNS_D_DEGREES = {"ws_n2": (0, 1, 2), "ws_n3": (-3, 0, 1, 3),
                 "ws_n6": (0, 2, 6), "ws_n2inf": (0, 1)}
GNS_D_MD5 = {
    "ws_n2": (
        ("772d2e1d78f55caef65afd25b5e4f0d3",
         "35334ec4c6c92e36d8f9210e48a36f63"),
        ("05c1e64ce23d4a91917a2ce0169678af",
         "31534c086b88f9dcacb1adc43722e3db"),
        ("cbb93b0d82f50222b62c5eaf7eeffc27",
         "500cf24ee84fa04baf07389ea27337c6"),
        ("10aa8ed7eccba05fc7e3e6699250c903",
         "c3554679ede6da6ed68b431353a7007f"),
        ("8e759b84eee36e17c8cd89c324680d7d",
         "14dbe423b1497d30dbbefb18c7ad04d8"),
        ("c09207c5152ccecf80f90d5049524451",
         "db02fdd6a8dbfb9e8ff6dfe76fe5dd63"),
    ),
    "ws_n3": (
        ("18d1eb301e4d9014c9cbbdc5358c26fc",
         "24fac038b00e966a187dcf65702832f6"),
        ("fd6ec8657a04cb77d158cc19055f5a58",
         "81cc46b6abcb43752e92aac9b9dd8c69"),
        ("73dbf1201a1dff0cc23ce326547537bc",
         "35334ec4c6c92e36d8f9210e48a36f63"),
        ("fb8b928dd10dd53205c20709251b5e50",
         "31534c086b88f9dcacb1adc43722e3db"),
        ("f61b95e1c1e4f63f5fb55f23107977f8",
         "500cf24ee84fa04baf07389ea27337c6"),
        ("db82bcefd01532a58eb9fbbe155752d8",
         "c3554679ede6da6ed68b431353a7007f"),
        ("6facfc1cb4f705e3c09923ba39a6a581",
         "2822b5899a44335b6cd9cf150a1a40c4"),
        ("f6ba4555448933e69e16c501b56dff0d",
         "e06faab2da9bc520f0e33b9a0e6fd11c"),
    ),
    "ws_n6": (
        ("0563dc94ef6b177177f3573846eb873d",
         "35334ec4c6c92e36d8f9210e48a36f63"),
        ("c3fd6bf5a486a1133412682c75714789",
         "31534c086b88f9dcacb1adc43722e3db"),
        ("87b5085b8633e09fb225eb15ed0a8800",
         "14dbe423b1497d30dbbefb18c7ad04d8"),
        ("2cd7993f488ba73a3156970fe32d35d7",
         "db02fdd6a8dbfb9e8ff6dfe76fe5dd63"),
        ("26c0b2d6ef5bb6cdb4e8dcb1a3b04682",
         "617740376b6d36430fd6a254ca797ad8"),
        ("42e1522962ff81b661d09a8748b86bd6",
         "ec3da76661bde3b296f8d1f04b742c7d"),
    ),
    "ws_n2inf": (
        ("c476fb04b30b1143d5a2f887da70eea1",
         "35334ec4c6c92e36d8f9210e48a36f63"),
        ("b3457d899ed8ef7e6bba1406d90ea507",
         "31534c086b88f9dcacb1adc43722e3db"),
        ("9e6b30e96ff9d2bb24bffcc461e0bfcf",
         "500cf24ee84fa04baf07389ea27337c6"),
        ("27609b7ea8707b5f95aa96791c9c7de5",
         "c3554679ede6da6ed68b431353a7007f"),
    ),
}
# (workspace, flags, md5 of stdout) of gns-d with a free constant or a
# free function, taken with the pins above
GNS_D_FREE_PINNED = (
    ("ws_n3", ["--n", "0", "--space", "tau0", "--c", "1/2+i", "--m", "3"],
     "ab068714f662da9c117eec518a777a75"),
    ("ws_n6", ["--n", "2", "--space", "haar", "--psi", "y", "--m", "2"],
     "ee5c93238c4ca79b4685c2cbbd8e9510"),
)


def gns_d_requests(workspace):
    """(argv, md5) of the pinned gns-d and covcheck requests on workspace."""
    pairs = iter(GNS_D_MD5[workspace])
    for n in GNS_D_DEGREES[workspace]:
        for space in ("tau0", "haar"):
            flags = ["--n", str(n), "--space", space]
            gns_d_md5, covcheck_md5 = next(pairs)
            yield ["gns-d", *flags, "--m", "3"], gns_d_md5
            yield ["covcheck", *flags, "--m", "5", "--grid", "8"], covcheck_md5
    assert next(pairs, None) is None
    for ws, flags, md5 in GNS_D_FREE_PINNED:
        if ws == workspace:
            yield ["gns-d", *flags], md5


@pytest.mark.parametrize("workspace", GNS_D_MD5)
def test_cli_gns_d_and_covcheck_output_bytes_are_pinned(capsys, workspace):
    path = WORKSPACES / f"{workspace}.json"
    for (command, *flags), md5 in gns_d_requests(workspace):
        code = cli.main([command, "--workspace", str(path),
                         "--derivation", "d", *flags])
        out = capsys.readouterr().out
        assert code == 0, (command, flags)
        assert hashlib.md5(out.encode()).hexdigest() == md5, (command, flags)


def test_cli_parametrix(capsys, ws_path):
    code, payload = run_cli(
        capsys,
        "parametrix", "--workspace", ws_path, "--derivation", "d",
        "--n", "0", "--mlist", "8,16",
    )
    assert code == 0
    assert set(payload) == {"M", "min_sv", "verdict", "predicate"}
    assert payload["M"] == [8, 16]
    assert payload["verdict"] == "compact-parametrix-consistent"


def test_cli_truncate_csv(capsys, ws_path, tmp_path):
    out = tmp_path / "U.csv"
    code, payload = run_cli(
        capsys,
        "truncate", "--workspace", ws_path, "U", "--m", "4",
        "--out", str(out),
    )
    assert code == 0
    assert payload["nnz"] == 3
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "row,col,re,im"
    assert lines[1] == "1,0,1.0,0.0"


def test_cli_normest_and_qnorm(capsys, ws_path):
    code, payload = run_cli(
        capsys, "normest", "--workspace", ws_path, "U", "--m", "16"
    )
    assert code == 0
    assert abs(payload["value"] - 1.0) < 1e-9
    code, payload = run_cli(
        capsys,
        "qnorm", "--workspace", ws_path, "V + Vi", "--grid", "8",
        "--rounds", "2",
    )
    assert code == 0
    assert abs(payload["final"] - 2.0) < 1e-12


def test_cli_qnorm_at_infinite_n_samples_level_j(capsys, tmp_path):
    # ws_n2inf's y has period 8: at N = 2^inf qnorm prints what it prints
    # for the same tables at N = 8, and a period past 64 is refused
    data = json.loads((WORKSPACES / "ws_n2inf.json").read_text())
    data["N"] = {"factors": {"2": 3}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data))
    outs = []
    for ws in (str(WORKSPACES / "ws_n2inf.json"), str(path)):
        code = cli.main(["qnorm", "--workspace", ws, "V + Vi + diag(y)",
                         "--grid", str(cli.MAX_GRID), "--rounds", "1"])
        outs.append(capsys.readouterr().out)
        assert code == 0
    assert outs[0] == outs[1]
    data = {"N": {"factors": {"2": "inf"}},
            "sequences": {"z": {"period": 128, "values": [[1, 1, 0, 1]] * 127
                                + [[0, 1, 0, 1]]}}}
    path.write_text(json.dumps(data))
    code = cli.main(["qnorm", "--workspace", str(path), "diag(z)"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "J has 8 bits" in err


def test_cli_exit_codes(capsys, ws_path, tmp_path, monkeypatch):
    # usage: unknown flag
    code, _ = run_cli(capsys, "normalize", "--bogus", "U")
    assert code == 1
    # usage: missing workspace file
    code, _ = run_cli(
        capsys, "normalize", "--workspace", str(tmp_path / "nope.json"), "U"
    )
    assert code == 1
    # parse error
    code, _ = run_cli(capsys, "normalize", "--workspace", ws_path, "U^-1")
    assert code == 2
    # unknown name
    code, _ = run_cli(
        capsys, "normalize", "--workspace", ws_path, "diag(nope)"
    )
    assert code == 2
    # math domain: classify a bounded-regime component
    code, _ = run_cli(
        capsys,
        "classify", "--workspace", ws_path, "--derivation", "d", "--n", "1",
    )
    assert code == 3
    # non-convergence: the inverse power iteration of the parametrix
    # shells stalls; stderr reports the iteration count and the last
    # iterate, stdout stays empty
    def stalled(G):
        raise NoConvergence("inverse power iteration did not settle",
                            last_value=1.25, iterations=5)

    monkeypatch.setattr(gns, "_min_eig_inverse_power", stalled)
    code = cli.main([
        "parametrix", "--workspace", ws_path, "--derivation", "d",
        "--n", "0", "--mlist", "8",
    ])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert "iterations: 5," in err
    last = float(err.rsplit("last value: ", 1)[1].rstrip().rstrip(")"))
    assert last == 1.25
    # help exits cleanly (non-JSON output)
    code = cli.main(["--help"])
    capsys.readouterr()
    assert code == 0


def test_cli_refusals_at_their_edge(capsys, tmp_path):
    # span MAX_SPAN, exponent MAX_EXPONENT, a number of MAX_DIGITS digits
    # and an input of MAX_INPUT characters are accepted and one past each
    # refused; each request below is refused with its documented code and
    # one stderr line
    code, payload = run_cli(capsys, "normalize", "(id+U)^256")
    assert code == 0 and sorted(map(int, payload["terms"])) == [*range(257)]
    for text in (f"U^{MAX_EXPONENT}", "9" * MAX_DIGITS,
                 "U" + " " * (MAX_INPUT - 1)):
        assert run_cli(capsys, "normalize", text)[0] == 0
    ws2 = str(WORKSPACES / "ws_n2.json")
    data = json.loads((WORKSPACES / "ws_n2.json").read_text())
    data["sequences"]["x"] = {"period": 1}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for code, argv, message in (
            (3, ["normalize", "(id+U)^257"], "degree span 258 exceeds 257"),
            (3, ["normalize", f"U^{MAX_EXPONENT + 1}"],
             "exponent 1025 exceeds 1024"),
            (2, ["normalize", "9" * (MAX_DIGITS + 1)],
             "number exceeds 4000 digits"),
            (2, ["normalize", "U" + " " * MAX_INPUT], "input exceeds 1 MB"),
            (2, ["normalize", "--workspace", ws2, "diag(U)"],
             "'U' is reserved"),
            (2, ["classify", "--workspace", ws2, "--derivation", "nope",
                 "--n", "0"], "no derivation named 'nope'"),
            (2, ["normalize", "1/0"], "zero denominator"),
            (2, ["normalize", "foo+U"], "unknown token 'foo'"),
            (3, ["gns-rep", "--workspace", str(WORKSPACES / "ws_n2inf.json"),
                 "--state", "haar", "V"], "needs an explicit --level"),
            (1, ["normalize", "--workspace", str(path), "U"],
             "needs a 'values' or 'table' key")):
        assert cli.main(argv) == code, argv
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and message in err


def test_cli_float_overflow_is_a_domain_error(capsys):
    # diag(x)^1024 is exact, but its entries exceed the range of a float
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for command in ("truncate", "normest"):
        code = cli.main([command, *ws, "--m", "8", "diag(x)^1024"])
        out, err = capsys.readouterr()
        assert code == 3, command
        assert out == "" and "too large for a float" in err
    assert cli.main(["normalize", *ws, "diag(x)^1024"]) == 0


def test_cli_oversized_exponent_fails_fast(capsys):
    for expr in ("2^2000000", "(U + Us)^100000"):
        start = time.perf_counter()
        code, _ = run_cli(capsys, "normalize", expr)
        assert code == 3
        assert time.perf_counter() - start < 2.0


def test_cli_wide_products_fail_fast(capsys):
    # the work of a product grows with the degree spans of its factors
    for argv in (["normalize", "(U + Us)^1024"],
                 ["normalize", "((U + Us)^32)^32"],
                 ["normalize", "(U + Us)^128 * (U + Us)"],
                 ["mul", "(U + Us)^128", "U + Us"],
                 ["comm", "(U + Us)^128", "U + Us"],
                 ["normalize", "comm((U + Us)^128, U + Us)"],
                 ["defect", "(V + Vi)^128", "V + Vi"],
                 ["normalize", "--side", "bilateral", "(V + Vi)^129"]):
        start = time.perf_counter()
        code, _ = run_cli(capsys, *argv)
        assert code == 3, argv
        assert time.perf_counter() - start < 2.0
    code, payload = run_cli(capsys, "normalize", "(U + Us)^128 * U")
    assert code == 0
    assert min(map(int, payload["terms"])) == -127
    assert max(map(int, payload["terms"])) == 129


def test_cli_nested_powers_are_bounded_by_degree(capsys):
    # a one-term power has span 1 whatever its degree, and U^p (U*)^p
    # writes p cutoff corrections: the largest |degree| is bounded like a
    # correction key
    for expr in ("(U^1024)^128", "(U^1024)^64 * U",
                 "(U^1024)^64 * (Us^1024)^64"):
        start = time.perf_counter()
        code = cli.main(["normalize", expr])
        out, err = capsys.readouterr()
        assert code == 3, expr
        assert out == "" and str(MAX_CORRECTION_KEY) in err
        assert time.perf_counter() - start < 1.0
    code, payload = run_cli(capsys, "normalize", "(U^1024)^64")
    assert code == 0
    assert list(payload["terms"]) == [str(MAX_CORRECTION_KEY)]


# the commands that serve both algebras; every other command reads its
# operands in one algebra, A(N) for truncations and norm bounds, B(N) for
# the Toeplitz section, the matrix picture and the GNS representations
BOTH_ALGEBRAS = {"normalize", "mul", "comm", "derive"}


def test_cli_side_only_on_the_two_algebra_commands():
    _, commands = cli._build_parser()
    with_side = {name for name, p in commands.items()
                 if "--side" in p._option_string_actions}
    assert with_side == BOTH_ALGEBRAS


def test_cli_one_algebra_commands_refuse_a_side(capsys):
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for argv in (["truncate", "--m", "3", "Vi*diag(y)"],
                 ["normest", "--m", "3", "U"],
                 ["toeplitz", "V"],
                 ["defect", "V", "Vi"],
                 ["matrix-form", "diag(x)"],
                 ["qnorm", "V"],
                 ["gns-rep", "V"]):
        for side in ("unilateral", "bilateral"):
            code = cli.main([argv[0], *ws, "--side", side, *argv[1:]])
            out, err = capsys.readouterr()
            assert code == 1, (argv, side)
            assert out == "" and "--side" in err
    # read in their own algebra, the operands of the other one are refused
    for argv in (["truncate", "--m", "3", "Vi*diag(y)"],
                 ["matrix-form", "diag(x)"]):
        code = cli.main([argv[0], *ws, *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 3, argv
        assert out == "" and "domain error" in err


def test_cli_derive_checks_the_span(capsys, tmp_path):
    # a derivation with components at every degree -128..128
    beta = AffineSequence(ZERO, EPSequence({}, [ONE], N2))
    d = DerivationSum(
        {n: covariant(n, beta, N2) for n in range(-128, 129)}, N2
    )
    path = tmp_path / "wide.json"
    save_workspace(Workspace(N2, derivations={"d": d}), str(path))
    derive = ["derive", "--workspace", str(path), "--derivation", "d"]
    bilateral = [*derive, "--side", "bilateral"]
    for argv in ([*derive, "(U + Us)^128"], [*derive, "U + Us"],
                 [*bilateral, "(V + Vi)^128"], [*bilateral, "V + Vi"]):
        start = time.perf_counter()
        code, _ = run_cli(capsys, *argv)
        assert code == 3, argv
        assert time.perf_counter() - start < 2.0
    # span 1 + 256 + 0 = MAX_SPAN
    for argv in ([*derive, "U"], [*bilateral, "V"]):
        code, _ = run_cli(capsys, *argv)
        assert code == 0, argv


def test_cli_empty_shells_and_grids_are_usage_errors(capsys, ws_path):
    gns = ["--workspace", ws_path, "--derivation", "d", "--n", "0"]
    for argv in (["parametrix", *gns, "--mlist", "0"],
                 ["parametrix", *gns, "--mlist", "4,-2"],
                 ["parametrix", *gns, "--mlist", "-4", "--space", "haar"],
                 ["covcheck", *gns, "--grid", "0"],
                 ["covcheck", *gns, "--grid", "-3", "--space", "haar"]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1, argv
        assert out == "" and err


def test_cli_qnorm_rounds_below_one_are_usage_errors(capsys):
    # a round count below one evaluates no grid; it is refused, not run
    # as one round
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for rounds in ("0", "-4"):
        code = cli.main(["qnorm", *ws, "V + Vi", "--grid", "8",
                         "--rounds", rounds])
        out, err = capsys.readouterr()
        assert code == 1, rounds
        assert out == "" and "at least one round" in err


def test_cli_normest_has_no_cap(capsys, ws_path):
    # the norm is one direct solve, so there is no iteration cap to set
    code = cli.main(["normest", "--workspace", ws_path, "U", "--m", "8",
                     "--cap", "5"])
    out, _ = capsys.readouterr()
    assert code == 1
    assert out == ""


def test_cli_normest_settles_on_a_clustered_spectrum(capsys, ws_path):
    # the top eigenvalues of the truncated U + U* cluster; the norm is
    # still exact: 2 cos(pi / (M + 1))
    code, payload = run_cli(capsys, "normest", "--workspace", ws_path,
                            "U + Us", "--m", "512")
    exact = 2 * math.cos(math.pi / 513)
    assert code == 0
    assert payload["M"] == 512
    assert abs(payload["value"] - exact) <= 1e-12 * exact


def test_cli_free_constant_only_at_degree_zero(capsys, ws_path):
    # --n 1 is the bounded regime, --n 2 the incrementN one
    gns = ["--workspace", ws_path, "--derivation", "d"]
    for argv in (["gns-d", *gns, "--n", "1", "--m", "1", "--c", "1"],
                 ["gns-d", *gns, "--n", "1", "--space", "haar", "--c", "1"],
                 ["parametrix", *gns, "--n", "1", "--c", "7"],
                 ["covcheck", *gns, "--n", "2", "--c", "1"]):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 1, argv
        assert out == "" and "only at n = 0" in err
    code, payload = run_cli(
        capsys, "gns-d", *gns, "--n", "0", "--m", "0", "--c", "2"
    )
    assert code == 0
    # D E_0 = (eta(0) + c) E_0 with eta(0) = 0 + 0
    assert payload["entries"] == [[0, 0, 2.0, 0.0]]


def test_cli_flags_of_the_other_space_are_usage_errors(capsys, ws_path):
    # --c shapes only the tau_0 operator and --psi only the Haar one; a
    # flag the chosen space would ignore is refused
    gns = ["--workspace", ws_path, "--derivation", "d", "--n", "0"]
    for cmd in (["gns-d", "--m", "1"], ["covcheck", "--m", "2"],
                ["parametrix", "--mlist", "2,4"]):
        for flags, name in ((["--space", "haar", "--c", "5"], "--c"),
                            (["--space", "tau0", "--psi", "g"], "--psi"),
                            (["--psi", "g"], "--psi")):
            code = cli.main([*cmd, *gns, *flags])
            out, err = capsys.readouterr()
            assert code == 1, (cmd, flags)
            assert out == "" and name in err
        for flags in (["--space", "tau0", "--c", "5"],
                      ["--space", "haar", "--psi", "g"]):
            code = cli.main([*cmd, *gns, *flags])
            capsys.readouterr()
            assert code == 0, (cmd, flags)


def test_cli_empty_c_and_psi_are_given_values(capsys, ws_path):
    # an empty --c is no scalar and an empty --psi names no function;
    # neither is taken for an absent flag
    gns = ["--workspace", ws_path, "--derivation", "d", "--n", "0"]
    for cmd in (["gns-d", "--m", "1"], ["covcheck", "--m", "2"],
                ["parametrix", "--mlist", "2,4"]):
        for flags, msg in ((["--c="], "parse error"),
                           (["--space", "haar", "--psi="], "unknown name")):
            code = cli.main([*cmd, *gns, *flags])
            out, err = capsys.readouterr()
            assert code == 2, (cmd, flags)
            assert out == "" and err.startswith(msg)

def test_cli_incrementN_level_is_honoured(capsys, tmp_path):
    # N = 6 and a derivation at n = 6 with eta(l) = l + a period-3 table
    N6 = SupernaturalNumber.from_int(6)
    beta = AffineSequence(ONE, EPSequence({}, [ONE, ZERO, Scalar(2)], N6))
    d = DerivationSum({6: covariant(6, beta, N6)}, N6)
    path = tmp_path / "six.json"
    save_workspace(Workspace(N6, derivations={"d": d}), str(path))
    gns = ["gns-d", "--workspace", str(path), "--derivation", "d",
           "--n", "6", "--m", "2", "--space", "haar"]
    for level, size in ((None, 30), ("3", 15)):
        extra = [] if level is None else ["--level", level]
        code, payload = run_cli(capsys, *gns, *extra)
        assert code == 0
        assert payload["case"] == "incrementN"
        assert payload["level"] == int(level or 6)
        assert payload["size"] == size
    # 5 and 4 do not divide N = 6, 2 does not carry the period 3 of eta
    for level in ("5", "4", "2"):
        code, _ = run_cli(capsys, *gns, "--level", level)
        assert code == 3, level


def test_cli_non_positive_level_is_a_domain_error(capsys, ws_path):
    gns = ["--workspace", ws_path, "--derivation", "d"]
    for cmd in (["gns-d"], ["covcheck"], ["parametrix", "--mlist", "4"]):
        for n in ("0", "1"):
            for level in ("0", "-2"):
                for space in ("tau0", "haar"):
                    argv = [*cmd, *gns, "--n", n, "--level", level,
                            "--space", space]
                    code = cli.main(argv)
                    out, err = capsys.readouterr()
                    assert code == 3, argv
                    assert out == "" and "not positive" in err


def test_cli_overlong_digit_run_is_a_parse_error(capsys):
    # int() refuses more than 4300 digits; the lexer must reject first
    for expr in ("1" * 5000, "U^" + "9" * 5000, "1/" + "7" * 5000):
        start = time.perf_counter()
        code, _ = run_cli(capsys, "normalize", expr)
        assert code == 2
        assert time.perf_counter() - start < 2.0
    with pytest.raises(ExprSyntaxError):
        parse("2 * " + "3" * 5000)


def test_names_may_hold_underscores(capsys, tmp_path):
    # the lexer reads '_' as a letter of a name, first or later: diag()
    # finds the workspace sequences _a and b_c, and an unknown _x is a
    # parse error (exit 2) that names it
    path = tmp_path / "ws.json"
    seqs = {"_a": EPSequence({}, [Scalar(1), Scalar(2)], N2),
            "b_c": EPSequence({}, [Scalar(3)], N2)}
    save_workspace(Workspace(N2, sequences=seqs), str(path))
    for name, seq in seqs.items():
        code, out = run_cli(capsys, "normalize", "--workspace", str(path),
                            f"diag({name})")
        assert code == 0 and out == {"terms": {"0": seq.to_json()}}
    code = cli.main(["normalize", "--workspace", str(path), "_x"])
    assert code == 2 and "unknown token '_x'" in capsys.readouterr().err


def test_non_decimal_digits_are_rejected():
    # superscripts count as digits for str.isdigit but not for int()
    with pytest.raises(ExprSyntaxError):
        parse("\u00b2")
    assert parse("\u0663") == parse("3")


def test_cli_large_prime_workspace_fails_fast(capsys, tmp_path):
    # a 19-digit prime is accepted at once; a 19-digit composite is not
    path = tmp_path / "prime.json"
    for p, code in (("1000000000000000003", 0), ("1000000000000000005", 1)):
        path.write_text(json.dumps({"N": {"factors": {p: 1}}}))
        start = time.perf_counter()
        got, _ = run_cli(capsys, "normalize", "--workspace", str(path), "U")
        assert got == code
        assert time.perf_counter() - start < 2.0
    path.write_text(
        json.dumps({"N": {"factors": {"1000000000000000003": "inf"}}})
    )
    start = time.perf_counter()
    ws = load_workspace(str(path))
    assert ws.N.factors[1000000000000000003] == float("inf")
    assert time.perf_counter() - start < 2.0


def test_cli_classify_on_a_huge_finite_n_is_fast(capsys, tmp_path):
    # the mean-zero running sums repeat with the increment's own period,
    # so nothing is listed over a period of length N
    N = SupernaturalNumber({2: 40})
    comp = covariant(
        0, AffineSequence(ONE, EPSequence({3: Scalar(5)}, [ZERO, ONE], N)), N
    )
    d = DerivationSum({0: comp}, N)
    path = tmp_path / "big.json"
    save_workspace(Workspace(N, derivations={"d": d}), str(path))
    start = time.perf_counter()
    code, payload = run_cli(
        capsys, "classify", "--workspace", str(path), "--derivation", "d",
        "--n", "0",
    )
    assert code == 0
    assert time.perf_counter() - start < 2.0
    assert Scalar.from_json(payload["C_n"]) == ONE
    assert reassemble(classify(comp), 0, N) == d


def test_cli_huge_correction_key_is_rejected(capsys, tmp_path):
    # partial sums walk every position below the largest correction key
    path = tmp_path / "ws.json"
    for key, want in ((10**12, 1), (-(10**12), 1),
                      (MAX_CORRECTION_KEY + 1, 1), (MAX_CORRECTION_KEY, 0)):
        data = make_workspace().to_json()
        ep = data["derivations"]["d"]["components"]["0"]["ep"]
        ep["correction"] = {str(key): ONE.to_json()}
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        code, _ = run_cli(
            capsys, "classify", "--workspace", str(path), "--derivation",
            "d", "--n", "0",
        )
        assert code == want
        assert time.perf_counter() - start < 2.0
    beta = load_workspace(str(path)).derivations["d"].component(0).beta
    assert beta.ep.correction == {MAX_CORRECTION_KEY: ONE}


def test_cli_huge_finite_exponent_is_rejected(capsys, tmp_path):
    # as_int() would form an integer of sum(e * log2 p) bits
    path = tmp_path / "ws.json"
    for e, want in ((10**8, 1), (10**10, 1), (MAX_N_BITS, 0)):
        path.write_text(json.dumps({"N": {"factors": {"2": e}}}))
        start = time.perf_counter()
        code, _ = run_cli(capsys, "normalize", "--workspace", str(path), "U")
        assert code == want
        assert time.perf_counter() - start < 2.0
    assert load_workspace(str(path)).N.as_int() == 2 ** MAX_N_BITS
    # at the bound qnorm reaches its table cap instead of failing to
    # format N
    code, _ = run_cli(capsys, "qnorm", "--workspace", str(path), "V")
    assert code == 3


def test_cli_oversized_windows_fail_fast(capsys, ws_path, tmp_path):
    big = "1000000000"
    ws = ["--workspace", ws_path]
    gns = [*ws, "--derivation", "d", "--n", "1"]
    # N = 2^12: units would list N^2 units, matrix-form an N x N table
    n4096 = tmp_path / "n4096.json"
    n4096.write_text(json.dumps({"N": {"factors": {"2": 12}}}))
    wide = ["--workspace", str(n4096)]
    requests = [
        ["truncate", *ws, "U", "--m", big],
        ["normest", *ws, "U", "--m", big],
        ["gns-d", *gns, "--m", big],
        # the Haar window carries level = 2 vectors per block
        ["gns-d", *gns, "--m", "1500", "--space", "haar"],
        ["covcheck", *gns, "--m", big],
        ["covcheck", *gns, "--grid", big],
        ["parametrix", *gns, "--mlist", f"8,{big}"],
        ["gns-rep", *ws, "--state", "haar", "--level", big, "V"],
        ["qnorm", *ws, "V + Vi", "--grid", big],
        # the grid doubles each round: 8 * 2^29 points in the last one
        ["qnorm", *ws, "V + Vi", "--grid", "8", "--rounds", "30"],
        ["qnorm", *ws, "V + Vi", "--grid", "8", "--rounds", str(10**18)],
        ["parametrix", *ws, "--derivation", "d", "--n", "1000000000000",
         "--mlist", "4"],
        ["units", *wide],
        ["matrix-form", *wide, "V"],
    ]
    for argv in requests:
        start = time.perf_counter()
        code, _ = run_cli(capsys, *argv)
        assert code == 3, argv
        assert time.perf_counter() - start < 2.0
    cli._check_window(cli.MAX_WINDOW, cli.MAX_GRID)
    with pytest.raises(MathDomainError):
        cli._check_window(cli.MAX_WINDOW + 1)
    with pytest.raises(MathDomainError):
        cli._check_window(1, cli.MAX_GRID + 1)


def test_cli_qnorm_table_is_capped_like_matrix_form(capsys, tmp_path):
    # qnorm samples its grid at level N, the size of the matrix form: the
    # N x N table at N = 2^7 has 16384 entries, past MAX_WINDOW, while
    # N = 2^6 has exactly 4096
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"N": {"factors": {"2": 7}}}))
    start = time.perf_counter()
    code = cli.main(["qnorm", "--workspace", str(path), "V + Vi"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and str(cli.MAX_WINDOW) in err
    assert time.perf_counter() - start < 1.0
    path.write_text(json.dumps({"N": {"factors": {"2": 6}}}))
    code, payload = run_cli(capsys, "qnorm", "--workspace", str(path),
                            "V + Vi", "--grid", "1", "--rounds", "1")
    assert code == 0 and abs(payload["final"] - 2.0) < 1e-12


def test_cli_table_refusal_is_one_short_line(capsys, tmp_path):
    # at N = 2^MAX_N_BITS the table has N^2 entries, 2467 digits in full
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({"N": {"factors": {"2": MAX_N_BITS}}}))
    for argv in (["units"], ["matrix-form", "V"], ["qnorm", "V"]):
        code = cli.main([argv[0], "--workspace", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 3 and out == "", argv
        assert err.count("\n") == 1 and len(err.encode()) < 200, err
        assert str(cli.MAX_WINDOW) in err and "4097 bits" in err


def test_cli_parametrix_caps_the_summed_window(capsys, ws_path):
    # every shell of --mlist is built: one 2047 entry is a 4095-wide
    # window, two exceed MAX_WINDOW together, and a long list is refused
    # before any shell is built
    gns = ["--workspace", ws_path, "--derivation", "d", "--n", "0"]
    for mlist in ("2047,2047", ",".join(["2047"] * 26000),
                  ",".join(["8"] * 300)):
        start = time.perf_counter()
        code, _ = run_cli(capsys, "parametrix", *gns, "--mlist", mlist)
        assert code == 3, mlist[:20]
        assert time.perf_counter() - start < 1.0
    # in the Haar space each window carries level = 2 vectors per block
    code, _ = run_cli(capsys, "parametrix", *gns, "--space", "haar",
                      "--mlist", "512,512")
    assert code == 3
    code, payload = run_cli(capsys, "parametrix", *gns, "--mlist",
                            ",".join(["8"] * 8))
    assert code == 0 and payload["M"] == [8] * 8


def test_cli_value_too_wide_to_print_writes_nothing(capsys):
    # 2^(2^20) has 315653 digits, past CPython's limit for str(int): the
    # whole document or nothing reaches stdout
    code = cli.main(["normalize", "2^1024^1024"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("domain error: value too wide to print")
    assert "Traceback" not in err and err.count("\n") == 1


def test_literal_power_past_one_literal_power_is_refused(capsys):
    # 2^1024^1024^1024 is 2^(2^30): wider than MAX_DIGITS digits to the
    # MAX_EXPONENT, so its bound from the AST refuses it before any power
    # is formed; the parent formed it first (10 s, 443 MB)
    start = time.perf_counter()
    code = cli.main(["normalize", "2^1024^1024^1024"])
    out, err = capsys.readouterr()
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("domain error: a literal power of up to ")
    assert "Traceback" not in err and err.count("\n") == 1
    for text in ("2^1024^1024^1024", "(2*3 - 1)^1024^1024^1024",
                 "U + (3/4i)^1024^1024^1024", "(-2)^1024^1024^1024^0"):
        with pytest.raises(MathDomainError):
            parse(text)
    with pytest.raises(MathDomainError):
        parse_gaussian("1 + 2^1024^1024^1024")
    # the widest literal power and 2^(2^20) stay below the bound: the
    # second is refused only when printed
    parse("9" * 4000 + "^1024")
    parse("2^1024^1024")


def test_powers_of_non_literals_are_bounded_before_they_are_formed(capsys):
    # the tower over a non-literal base knows no bound from the AST; its
    # third power is refused from the rows of the second, which the parent
    # formed first (6.9 s, 442 MB)
    ws = ["--workspace", str(WORKSPACES / "ws_n2.json")]
    for argv in (["normalize", "(2*id)^1024^1024^1024"],
                 ["normalize", *ws, "diag(x)^1024^1024^1024"]):
        start = time.perf_counter()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, argv
        assert code == 3 and out == "", argv
        assert err.startswith("domain error: a power of up to ")
        assert "Traceback" not in err and err.count("\n") == 1
    # one power lower, both answer as before: 2^(2^20) fails only to print
    code = cli.main(["normalize", "(2*id)^1024^1024"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("domain error: value too wide to print")
    assert cli.main(["normalize", *ws, "diag(x)^1024"]) == 0
    out, _ = capsys.readouterr()
    assert hashlib.md5(out.encode()).hexdigest() == \
        "8bd596816c62afe071627b2cd693a2d5"


def test_deep_expressions_end_in_a_documented_exit_code(capsys):
    # each request raised RecursionError out of cli.main at the parent: a
    # chain nested on the left now answers like its short form, and
    # parentheses past MAX_NESTING are a parse error
    answers = [
        ("2" + "^1" * 1000, "2"),
        ("+".join(["1"] * 1000), "1000"),
        ("*".join(["U"] * 1000), "U^1000"),
        ("1 + " + "-" * 1001 + "2", "1 - 2"),
        ("1+(" * MAX_NESTING + "1" + ")" * MAX_NESTING,
         str(MAX_NESTING + 1)),
    ]
    for text, short in answers:
        start = time.perf_counter()
        code = cli.main(["normalize", text])
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0, short
        assert code == 0 and err == "", short
        assert cli.main(["normalize", short]) == 0
        assert capsys.readouterr().out == out
    for text in ("(" * 300 + "2" + ")" * 300,
                 "(" * (MAX_NESTING + 1) + "2" + ")" * (MAX_NESTING + 1),
                 "adj(" * 300 + "U" + ")" * 300,
                 "comm(U, " * 300 + "U" + ")" * 300):
        start = time.perf_counter()
        code = cli.main(["normalize", text])
        out, err = capsys.readouterr()
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("parse error: parentheses nest deeper than ")
        assert err.count("\n") == 1


def test_cli_requires_command(capsys):
    code, _ = run_cli(capsys)
    assert code == 1


# one argv of each class, the exit code it has always had, and the md5 of
# its stdout where that is a document; "{ws}" is ws_n2.json
PARSER_PARITY = [pytest.param(*case, id=name) for name, *case in [
    ("request", ["normalize", "--workspace", "{ws}", "U*Us"], 0,
     "0399667b007e8fab5a2807ff8cc4928b"),
    ("command-help", ["normalize", "-h"], 0, None),
    ("missing-positional", ["normalize"], 1, ""),
    ("bad-int", ["fourier", "--derivation", "d", "--n", "x"], 1, ""),
    ("bad-choice", ["normalize", "--side", "middle", "U"], 1, ""),
    ("unknown-flag", ["normalize", "--bogus", "U"], 1, ""),
    ("extra-positional", ["normalize", "U", "V"], 1, ""),
    ("no-argv", [], 1, ""),
    ("help", ["-h"], 0, None),
    ("unknown-command", ["bogus"], 1, ""),
    ("option-first", ["--workspace", "{ws}", "normalize", "U"], 1, ""),
]]


@pytest.mark.parametrize("argv, code, md5", PARSER_PARITY)
def test_cli_command_parser_matches_the_top_level_parse(capsys, argv, code,
                                                        md5):
    # main hands the arguments after a command name to that command's own
    # parser; the top-level parse of the whole argv is the reference
    argv = [str(WORKSPACES / "ws_n2.json") if a == "{ws}" else a
            for a in argv]
    top, _ = cli._build_parser()
    with pytest.raises(SystemExit) if code or md5 is None else \
            contextlib.nullcontext():
        top.parse_args(argv)
    want_out, want_err = capsys.readouterr()
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    if md5 is None:  # help goes to stdout, as the top level prints it
        assert out == want_out and out.startswith("usage: bdshift ")
    elif md5:
        assert hashlib.md5(out.encode()).hexdigest() == md5
    else:
        assert out == ""
    if "unrecognized arguments" in want_err:
        # the one difference: the command's parser names the command
        assert err.splitlines()[-1] == want_err.splitlines()[-1].replace(
            "bdshift:", f"bdshift {argv[0]}:")
        assert err.splitlines()[-1].startswith(f"bdshift {argv[0]}: error:")
    else:
        assert err == want_err


def test_json_writer_is_json_dumps_byte_for_byte():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    import numpy as np

    text = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'
                                             "\xe9\u2028\uffff\U0001f600"),
                             st.characters()))
    leaves = st.one_of(
        text, st.none(), st.booleans(),
        st.integers(), st.integers(-2 ** 200, -2 ** 64),
        st.integers(2 ** 64, 2 ** 200),
        st.floats(), st.floats().map(np.float64),
        st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    )
    trees = st.recursive(
        leaves, lambda kids: st.one_of(
            st.lists(kids), st.lists(kids).map(tuple),
            st.dictionaries(text, kids)),
        max_leaves=20)

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(trees)
    def same_bytes(value):
        assert cli._json(value) == json.dumps(value, indent=2)

    same_bytes()
    # what json.dumps refuses is refused alike; keys are str in every
    # payload, so a key of any other type is refused too
    for value in (set(), np.int64(1), [1, {"a": set()}]):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json(value)
    with pytest.raises(TypeError):
        cli._json({1: 2})
    wide = 10 ** 4300
    with pytest.raises(ValueError):
        json.dumps([wide])
    with pytest.raises(ValueError):
        cli._json({"v": [wide]})


def test_exact_modules_import_without_numpy(ws_path):
    # numpy loads in the routines that form a float; the package, the
    # exact half of gns and numerics and the exact commands of the CLI,
    # gns-rep included, never import it
    code = (
        "import sys\n"
        "import bdshift.algebra, bdshift.derivations, bdshift.parser\n"
        "import bdshift.serialize\n"
        "from bdshift import cli\n"
        f"ws = {ws_path!r}\n"
        "assert cli.main(['normalize', '--workspace', ws, 'U*Us']) == 0\n"
        "assert cli.main(['classify', '--workspace', ws, '--derivation',\n"
        "                 'd', '--n', '0']) == 0\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        "from bdshift import gns, numerics\n"
        "from bdshift.scalars import ONE, ZERO\n"
        "from bdshift.profinite import LocallyConstantFunction as LCF\n"
        "from bdshift.profinite import SupernaturalNumber\n"
        "from bdshift.sequences import BilateralAffineSequence as BAS\n"
        "from bdshift.sequences import BilateralEPSequence as BEP\n"
        "from bdshift.algebra import (bilateral_diag, bilateral_multiply,\n"
        "                             u_element, v_element)\n"
        "from bdshift.derivations import bilateral_covariant\n"
        "N2 = SupernaturalNumber.from_int(2)\n"
        "comp = bilateral_covariant(2, BAS(ONE, BEP({}, [ONE, ZERO], N2)),\n"
        "                           N2)\n"
        "data = gns.implementation_from_bilateral(comp)\n"
        "b = bilateral_multiply(v_element(N2),\n"
        "                       bilateral_diag(LCF([ONE, 2 * ONE], N2)))\n"
        "for v, tau in ((gns.GNSVector0({0: 1}), gns.tau0),\n"
        "               (gns.chi0(2), gns.tau_haar)):\n"
        "    assert gns.inner(v, gns.pi_apply(b, v)) == tau(b)\n"
        "D = gns.build_D_tau0_exact(data, 4)\n"
        "assert gns.check_implementation(D, {2: comp}, b, 4) == 0.0\n"
        "D = gns.build_D_haar_exact(data, 4)\n"
        "assert gns.check_implementation(D, {2: comp}, b, 4, space='haar',\n"
        "                                level=2) == 0.0\n"
        "den, (bands,) = numerics._bands(3, u_element(N2))\n"
        "assert (den, bands) == (1, {1: ([1, 1, 0], [0, 0, 0])}), bands\n"
        "for state in ('tau0', 'haar'):\n"
        "    assert cli.main(['gns-rep', '--workspace', ws, '--state',\n"
        "                     state, 'V + diag(g)']) == 0\n"
        "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        "report = gns.parametrix_report(data, [4, 16])\n"
        "assert 'numpy' in sys.modules\n"
        "assert [v.hex() for v in report['min_sv']] == [\n"
        "    '0x1.94c583ada5f96p+1', '0x1.e110c3922d11dp+3'], report\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr



def test_covariance_check_does_not_load_numpy_ma(ws_path):
    # the band test of check_covariance compares every block difference
    # with the first; np.unique, which loads numpy.ma, is not called
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from bdshift import cli, gns\n"
        f"ws = {ws_path!r}\n"
        "for space in ('tau0', 'haar'):\n"
        "    assert cli.main(['covcheck', '--workspace', ws, '--derivation',\n"
        "                     'd', '--n', '1', '--m', '4', '--space',\n"
        "                     space]) == 0\n"
        "two_bands = np.eye(3, dtype=complex) + np.eye(3, k=1)\n"
        "try:\n"
        "    gns.check_covariance(two_bands, 0, 1, [0.0, 1.0])\n"
        "except ValueError as exc:\n"
        "    assert 'lies on 2 bands' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('a D on two bands was measured')\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
