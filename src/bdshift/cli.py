"""bdshift command line: every pipeline behind one entry point.

Every command prints the bytes of json.dumps(payload, indent=2) on
stdout, written in one pass, the whole document or nothing; diagnostics
go to stderr.  A command's own parser reads its arguments, so a usage
error names it ("bdshift truncate: error: ...").  Exit codes: 0 success,
1 usage, 2 parse error, 3 math-domain error (an exact value beyond the
range of a float, an integer too wide to print and a table or window
past its cap included), 4 numeric non-convergence (only the inverse
power iteration of parametrix raises it; normest is one direct SVD).
Only the float commands import numpy; gns-rep, which forms no float,
does not.
"""

import argparse
import functools
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from .errors import (
    ExprSyntaxError,
    LevelMismatch,
    MathDomainError,
    NoConvergence,
    UnknownName,
    WindowTooSmall,
)
from .profinite import SupernaturalNumber, LocallyConstantFunction
from . import algebra, derivations
from .parser import check_span, eval_ast, parse, parse_gaussian
from .serialize import Workspace, load_workspace

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_NONCONVERGENCE = 4

# a dense window is a complex128 square: 4096^2 * 16 bytes = 256 MiB
MAX_WINDOW = 4096
MAX_GRID = 4096


def _json(v, nl="\n"):
    """json.dumps(v, indent=2), the same bytes, in one recursive pass over
    str, int, float, True, False, None, list, tuple and dict; _quote
    refuses a key that is no str, int.__repr__ an int past the digit
    limit (ValueError)."""
    if isinstance(v, str):
        return _quote(v)
    inner = nl + "  "
    if isinstance(v, (list, tuple)):  # most items are the ints of a scalar
        return ("[" + inner + ("," + inner).join([
            int.__repr__(x) if type(x) is int else _json(x, inner)
            for x in v]) + nl + "]") if v else "[]"
    if isinstance(v, dict):
        return ("{" + inner + ("," + inner).join([
            _quote(k) + ": " + _json(x, inner) for k, x in v.items()])
            + nl + "}") if v else "{}"
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    if isinstance(v, float):
        return ("NaN" if v != v else "Infinity" if v == math.inf
                else "-Infinity" if v == -math.inf else float.__repr__(v))
    raise TypeError(f"Object of type {type(v).__name__} "
                    "is not JSON serializable")


def _emit(payload):
    """Write the whole document or nothing: an integer past CPython's
    digit limit for str() fails before any byte reaches stdout."""
    try:
        text = _json(payload)
    except ValueError:
        raise MathDomainError(
            "value too wide to print: an integer has more than "
            f"{sys.get_int_max_str_digits()} digits") from None
    sys.stdout.write(text + "\n")


def _env(args):
    if getattr(args, "workspace", None):
        return load_workspace(args.workspace)
    return Workspace(SupernaturalNumber({}))


def _eval(args, env, text):
    return eval_ast(parse(text), env, args.side)


def _derivation(args, env):
    d = env.derivations.get(args.derivation)
    if d is None:
        raise UnknownName(f"no derivation named {args.derivation!r}")
    return d


def _check_window(dim, grid=0):
    """Refuse a window or a theta grid too large to build, before any
    build allocates it."""
    if dim > MAX_WINDOW:
        raise MathDomainError(f"window dimension {dim} exceeds {MAX_WINDOW}")
    if grid > MAX_GRID:
        raise MathDomainError(f"grid of {grid} points exceeds {MAX_GRID}")


def _check_table(N, J=None):
    """Refuse an N x N table past MAX_WINDOW entries (units, matrix-form,
    the qnorm grid, at level J if N is infinite), in one line that gives
    the level's bit length; an infinite N alone is left to NotFinite."""
    name, n = ("N", N.as_int()) if N.is_finite() else ("J", J)
    if n is not None and n * n > MAX_WINDOW:
        raise MathDomainError(
            f"the {name} x {name} table exceeds {MAX_WINDOW} entries: "
            f"{name} has {n.bit_length()} bits")


def _component_json(comp):
    return {"n": comp.n, **comp.beta.to_json()}


def _implementation(args, env, width):
    """Implementation data, checked against width = 2M + 1 per [-M, M]."""
    from . import gns
    comp = derivations.quotient_derivation(_derivation(args, env)).get(args.n)
    if comp is None:
        comp = derivations.bilateral_zero_component(args.n, env.N)
    psi = None
    if args.psi is not None:
        psi = env.sequences.get(args.psi)
        if not isinstance(psi, LocallyConstantFunction):
            raise UnknownName(f"no locally constant function {args.psi!r}")
    c = None if args.c is None else parse_gaussian(args.c)
    data = gns.implementation_from_bilateral(comp, psi=psi, c=c,
                                             level=args.level)
    # --c shapes only the tau_0 operator and --psi only the Haar one
    unused = {"haar": "c", "tau0": "psi"}[args.space]
    if getattr(args, unused) is not None:
        raise ValueError(f"--{unused} is not used with --space {args.space}")
    fiber = data.level if args.space == "haar" else 1
    _check_window(width * fiber, getattr(args, "grid", 0))
    return data


def _matrix_out(A, args, extra):
    from . import numerics
    payload = dict(extra)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            nnz = numerics.write_matrix_csv(A, fh)
        payload["out"] = args.out
        payload["nnz"] = nnz
    else:
        payload["entries"] = numerics.nonzero_entries(A)
    return payload


# ---------------------------------------------------------------------------
# command handlers


def cmd_normalize(args):
    env = _env(args)
    _emit(_eval(args, env, args.expr).to_json())


def cmd_mul(args):
    env = _env(args)
    a = _eval(args, env, args.left)
    b = _eval(args, env, args.right)
    check_span(((a.terms, 1), (b.terms, 1)))
    _emit((a * b).to_json())


def cmd_comm(args):
    env = _env(args)
    a = _eval(args, env, args.left)
    b = _eval(args, env, args.right)
    check_span(((a.terms, 1), (b.terms, 1)))
    _emit(algebra.commutator(a, b).to_json())


def cmd_derive(args):
    env = _env(args)
    d = _derivation(args, env)
    x = _eval(args, env, args.expr)
    if args.side == "unilateral":
        check_span(((d.components, 1), (x.terms, 1)))
        _emit(derivations.apply(d, x).to_json())
    else:
        comps = derivations.quotient_derivation(d)
        check_span(((comps, 1), (x.terms, 1)))
        _emit(derivations.bilateral_apply(comps, x).to_json())


def cmd_fourier(args):
    env = _env(args)
    d = _derivation(args, env)
    _emit(_component_json(derivations.fourier_component(d, args.n)))


def cmd_fejer(args):
    env = _env(args)
    d = _derivation(args, env)
    _emit(derivations.fejer_mean(d, args.m).to_json())


def cmd_classify(args):
    env = _env(args)
    d = _derivation(args, env)
    parts = derivations.classify(derivations.fourier_component(d, args.n))
    _emit({
        "C_n": parts["C_n"].to_json(),
        "inner_per": _component_json(parts["inner_per"]),
        "approx_c00": _component_json(parts["approx_c00"]),
    })


def cmd_extract_f(args):
    env = _env(args)
    d = _derivation(args, env)
    _emit(derivations.extract_f(d, env.N).to_json())


def cmd_df_build(args):
    env = _env(args)
    f = env.laurent.get(args.laurent)
    if f is None:
        raise UnknownName(f"no Laurent function named {args.laurent!r}")
    _emit(derivations.d_f_build(f, env.N).to_json())


def cmd_toeplitz(args):
    env = _env(args)
    _emit(algebra.toeplitz(_eval(args, env, args.expr)).to_json())


def cmd_defect(args):
    env = _env(args)
    b1 = _eval(args, env, args.left)
    b2 = _eval(args, env, args.right)
    check_span(((b1.terms, 1), (b2.terms, 1)))
    defect = algebra.mult_defect(b1, b2)
    _emit({
        "defect": defect.to_json(),
        "compact": algebra.is_compact(defect),
    })


def cmd_matrix_form(args):
    env = _env(args)
    _check_table(env.N)
    F = algebra.to_matrix_form(_eval(args, env, args.expr), env.N)
    _emit(F.to_json())


def cmd_units(args):
    env = _env(args)
    _check_table(env.N)
    units = algebra.matrix_units(env.N)
    _emit({
        "size": env.N.as_int(),
        "units": {
            f"{s},{r}": u.to_json() for (s, r), u in sorted(units.items())
        },
    })


def cmd_gns_rep(args):
    from . import gns
    # tau_0 has the one fiber x = 0: a level there would be ignored
    if args.state == "tau0" and args.level is not None:
        raise ValueError("--level is not used with --state tau0")
    env = _env(args)
    b = _eval(args, env, args.expr)
    if args.state == "tau0":
        v, state, head = gns.GNSVector0({0: 1}), gns.tau0, {}
    else:
        level = args.level
        if level is None:
            if not env.N.is_finite():
                raise LevelMismatch("infinite N needs an explicit --level")
            level = env.N.as_int()
        _check_window(level)
        v, state, head = gns.chi0(level), gns.tau_haar, {"level": level}
    vec = gns.pi_apply(b, v)
    _emit({"tau": state(b).to_json(), **head, "vector": vec.to_json()})


def cmd_gns_d(args):
    from . import gns
    env = _env(args)
    data = _implementation(args, env, 2 * args.m + 1)
    D = gns.build_D(data, args.space, args.m)
    _emit(_matrix_out(D, args, {
        "space": args.space,
        "n": data.n,
        "case": data.case,
        "level": data.level,
        "size": D.shape[0],
    }))


def cmd_covcheck(args):
    from . import gns
    env = _env(args)
    data = _implementation(args, env, 2 * args.m + 1)
    D = gns.build_D(data, args.space, args.m)
    thetas = [2 * math.pi * k / args.grid for k in range(args.grid)]
    residual = gns.check_covariance(D, data.n, args.m, thetas)
    _emit({
        "space": args.space,
        "n": data.n,
        "M": args.m,
        "grid": args.grid,
        "residual": residual,
    })


def cmd_parametrix(args):
    from . import gns
    # |n| is untrusted input, bounded like a window size; the shell build
    # itself does not grow with it
    _check_window(abs(args.n))
    env = _env(args)
    Ms = [int(s) for s in args.mlist.split(",") if s]
    # every shell is built, so the windows of the list count together
    data = _implementation(args, env, sum(2 * max(M, 0) + 1 for M in Ms))
    _emit(gns.parametrix_report(data, Ms, space=args.space))


def cmd_truncate(args):
    from . import numerics
    _check_window(args.m)
    env = _env(args)
    a = _eval(args, env, args.expr)
    A = numerics.truncate_unilateral(a, args.m)
    _emit(_matrix_out(A, args, {"M": args.m}))


def cmd_normest(args):
    from . import numerics
    _check_window(args.m)
    env = _env(args)
    a = _eval(args, env, args.expr)
    value = numerics.norm_lower(a, args.m)
    _emit({"M": args.m, "value": value})


def cmd_qnorm(args):
    from . import numerics
    env = _env(args)
    _check_table(env.N)
    # the grid doubles each round; a shift past MAX_GRID's bit length
    # already exceeds it, so no huge power is formed.  A round count below
    # 1 has no last grid: quotient_norm_report refuses it
    shift = min(args.rounds - 1, MAX_GRID.bit_length())
    _check_window(0, args.grid << shift if shift >= 0 else 0)
    b = _eval(args, env, args.expr)
    _check_table(env.N, numerics.symbol_period(b))
    _emit(numerics.quotient_norm_report(b, env.N, args.grid,
                                        rounds=args.rounds))


# ---------------------------------------------------------------------------
# argument wiring


@functools.cache
def _build_parser():
    """The top-level parser and each command's own by name, built once per
    process; parse_args leaves them unchanged, every default immutable."""
    top = argparse.ArgumentParser(
        prog="bdshift",
        description="exact shift-algebra computations and reports",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, handler, *, expr=0, side=None, derivation=False,
            n=False, m=None, out=False):
        p = sub.add_parser(name)
        p.add_argument("--workspace", default=None)
        if expr == 1:
            p.add_argument("expr")
        elif expr == 2:
            p.add_argument("left")
            p.add_argument("right")
        if isinstance(side, tuple):  # the first algebra is the default
            p.add_argument("--side", default=side[0], choices=side)
        elif side:
            p.set_defaults(side=side)
        if derivation:
            p.add_argument("--derivation", required=True)
        if n:
            p.add_argument("--n", type=int, required=True)
        if m is not None:
            p.add_argument("--m", type=int, default=m)
        if out:
            p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)
        return p

    # four commands serve both algebras; every other one fixes its own
    both = ("unilateral", "bilateral")
    add("normalize", cmd_normalize, expr=1, side=both)
    add("mul", cmd_mul, expr=2, side=both)
    add("comm", cmd_comm, expr=2, side=both)
    add("derive", cmd_derive, expr=1, side=both, derivation=True)
    add("fourier", cmd_fourier, derivation=True, n=True)
    add("fejer", cmd_fejer, derivation=True, m=16)
    add("classify", cmd_classify, derivation=True, n=True)
    add("extract-f", cmd_extract_f, derivation=True)
    p = add("df-build", cmd_df_build)
    p.add_argument("--laurent", required=True)
    add("toeplitz", cmd_toeplitz, expr=1, side="bilateral")
    add("defect", cmd_defect, expr=2, side="bilateral")
    add("matrix-form", cmd_matrix_form, expr=1, side="bilateral")
    add("units", cmd_units)

    p = add("gns-rep", cmd_gns_rep, expr=1, side="bilateral")
    p.add_argument("--state", default="tau0", choices=("tau0", "haar"))
    p.add_argument("--level", type=int, default=None)

    def gns_flags(p):
        p.add_argument("--space", default="tau0", choices=("tau0", "haar"))
        p.add_argument("--psi", default=None)
        p.add_argument("--c", default=None)
        p.add_argument("--level", type=int, default=None)

    p = add("gns-d", cmd_gns_d, derivation=True, n=True, m=16, out=True)
    gns_flags(p)
    p = add("covcheck", cmd_covcheck, derivation=True, n=True, m=16)
    gns_flags(p)
    p.add_argument("--grid", type=int, default=16)
    p = add("parametrix", cmd_parametrix, derivation=True, n=True)
    gns_flags(p)
    p.add_argument("--mlist", default="16,32,64")

    add("truncate", cmd_truncate, expr=1, side="unilateral", m=64, out=True)
    add("normest", cmd_normest, expr=1, side="unilateral", m=64)
    p = add("qnorm", cmd_qnorm, expr=1, side="bilateral")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--rounds", type=int, default=3)
    return top, sub.choices


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    top, commands = _build_parser()
    # the top level answers help, no command and an unknown command
    own = commands.get(argv[0]) if argv else None
    try:
        args = own.parse_args(argv[1:]) if own else top.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else 0
    try:
        args.handler(args)
    except ExprSyntaxError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except UnknownName as exc:
        print(f"unknown name: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NoConvergence as exc:
        print(f"no convergence: {exc} (iterations: {exc.iterations}, "
              f"last value: {exc.last_value})", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (MathDomainError, WindowTooSmall, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (OSError, ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    return 0


if __name__ == "__main__":
    sys.exit(main())
