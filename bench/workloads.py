"""The four benchmark workloads.

Each workload is a list of *rounds*.  A round is a fixed multiset of job
specifications (kind, N, degree spread, window list, ...) whose order and
coefficient values come from the seed, so every round costs about the same
and the per-run figures do not depend on how many rounds fit in the run.

A job is ``(kind, run, check)``: ``run()`` is the timed call into bdshift and
returns a value, ``check(value)`` is the untimed correctness verdict.  Where
the correctness condition is itself an exact identity of the engine, the
identity is evaluated inside ``run`` and ``check`` only reads the verdict.

All bdshift functions are reached through module attributes (``A.multiply``,
``G.parametrix_report``) so that the traced run sees every call.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction
from pathlib import Path

from bdshift import algebra as A
from bdshift import cli as C
from bdshift import derivations as D
from bdshift import gns as G
from bdshift import numerics as NU
from bdshift import profinite as P
from bdshift import sequences as S
from bdshift.scalars import ONE, ZERO, Scalar

from golden import close

BENCH = Path(__file__).resolve().parent
WORKSPACES = BENCH / "workspaces"

GRID16 = [2 * math.pi * k / 16 for k in range(16)]
POSITIVE = "compact-parametrix-consistent"
NEGATIVE = "no-compact-parametrix"


def _exact(ok):
    return ok is True


# ---------------------------------------------------------------------------
# random inputs (benchmark side; never timed)


def rscalar(rng):
    return Scalar(rng.randint(-3, 3), rng.randint(-2, 2))


def rep(rng, N, period, n_corr=2, key_max=5):
    corr = {rng.randint(0, key_max): rscalar(rng) for _ in range(n_corr)}
    return S.EPSequence(corr, [rscalar(rng) for _ in range(period)], N)


def runi(rng, N, period, degrees, **kw):
    return A.UnilateralElement(
        {n: rep(rng, N, period, **kw) for n in degrees}, N
    )


def rlcf(rng, N, period):
    return P.LocallyConstantFunction(
        [rscalar(rng) for _ in range(period)], N
    )


def rbil(rng, N, period, degrees):
    return A.BilateralElement({n: rlcf(rng, N, period) for n in degrees}, N)


def rdegrees(rng, max_deg, count):
    return rng.sample(range(-max_deg, max_deg + 1), count)


def rderivation(rng, N, degrees, period):
    comps = {}
    for n in degrees:
        linear = ZERO if D.bounded_regime(n, N) else rscalar(rng)
        comps[n] = D.covariant(
            n, S.AffineSequence(linear, rep(rng, N, period)), N
        )
    return D.DerivationSum(comps, N)


def entry_probes(rng, d, count=8):
    """Matrix positions (i, j) inside the band of a product of two
    elements of degree spread d."""
    out = []
    for _ in range(count):
        j = rng.randint(0, 3 * d + 8)
        i = max(0, j + rng.randint(-2 * d, 2 * d))
        out.append((i, j))
    return out


# ---------------------------------------------------------------------------
# shared program-side preparation (timed as part of setup_s)


def _n(v):
    return P.SupernaturalNumber({2: "inf"}) if v == "2^inf" \
        else P.SupernaturalNumber.from_int(v)


def _period(N):
    """The largest table period used for N: N itself, or 8 for 2^inf."""
    return N.as_int() if N.is_finite() else 8


def _eta(linear, table, N):
    return S.BilateralAffineSequence(
        linear, S.BilateralEPSequence({}, table, N)
    )


def prepare(workload):
    """Program-side preparation before the first timed job."""
    if workload in ("unilateral_exact", "bilateral_exact"):
        names = (1, 2, 3, 4, 6, 12, "2^inf") \
            if workload == "unilateral_exact" else (2, 3, 4, 6, 12)
        return {"N": {v: _n(v) for v in names}}
    if workload == "gns_windows":
        N2, NI = _n(2), _n("2^inf")
        half = Scalar(Fraction(1, 2))
        cases = {
            "bounded": D.bilateral_covariant(
                1, _eta(ZERO, [ONE, Scalar(2)], N2), N2),
            "incrementN_flat": D.bilateral_covariant(
                2, _eta(ZERO, [ONE, Scalar(3)], N2), N2),
            "incrementN_linear": D.bilateral_covariant(
                2, _eta(ONE, [ONE, ZERO], N2), N2),
            "increment0_flat": D.bilateral_covariant(
                0, _eta(ZERO, [ONE, ZERO, ZERO, ONE], NI), NI),
            "increment0_linear": D.bilateral_covariant(
                0, _eta(half, [ONE, ZERO, ZERO, ONE], NI), NI),
        }
        data = {k: G.implementation_from_bilateral(c)
                for k, c in cases.items()}
        return {"cases": cases, "data": data}
    if workload == "cli_requests":
        # every request loads its workspace again inside cli.main; this
        # first load is the part of set-up a CLI user pays once
        from bdshift.serialize import load_workspace
        return {"ws": {
            name: load_workspace(str(WORKSPACES / f"ws_{name}.json"))
            for name in CLI_WORKSPACES}}
    raise KeyError(workload)


# ---------------------------------------------------------------------------
# unilateral_exact


def _oracle(a, b, M):
    def run():
        p = A.multiply(a, b)
        if A.adjoint(p) != A.multiply(A.adjoint(b), A.adjoint(a)):
            return False
        return NU.oracle_product_check(a, b, M).verdict == "exact"
    return run


def _dense_uni(a, b, d, probes):
    def run():
        p = A.multiply(a, b)
        q = A.adjoint(p)
        for i, j in probes:
            want = sum(
                (a.entry(i, k) * b.entry(k, j)
                 for k in range(max(0, i - d), i + d + 1)),
                ZERO,
            )
            got = p.entry(i, j)
            if got != want or q.entry(j, i) != got.conjugate():
                return False
        return True
    return run


def _leibniz(d, a, b):
    def run():
        lhs = D.apply(d, A.multiply(a, b))
        rhs = A.multiply(D.apply(d, a), b) + A.multiply(a, D.apply(d, b))
        return lhs == rhs
    return run


def _classify_round_trip(comp):
    def run():
        n, N = comp.n, comp.N
        return D.reassemble(D.classify(comp), n, N) == \
            D.DerivationSum({n: comp}, N)
    return run


def _partial_sums_round_trip(beta, alpha):
    def run():
        return (S.partial_sums(S.increment(beta)) == beta
                and S.increment(S.partial_sums(alpha)) == alpha)
    return run


def _fejer(comps, M, N):
    def run():
        d = D.DerivationSum(comps, N)
        fm = D.fejer_mean(d, M)
        for n, comp in comps.items():
            w = Scalar(Fraction(M + 1 - abs(n), M + 1))
            got = fm.component(n).beta
            if got.linear != comp.beta.linear * w \
                    or got.ep != S.ep_scale(comp.beta.ep, w):
                return False
        U = A.u_element(N)
        residual = D.apply(d, U) - D.apply(fm, U)
        want = A.zero_element(N)
        for n, comp in comps.items():
            img = D.apply(D.DerivationSum({n: comp}, N), U)
            want = want + A.scale(img, Scalar(Fraction(abs(n), M + 1)))
        return residual == want
    return run


def _naturality(d, a):
    def run():
        lhs = A.quotient(D.apply(d, a))
        rhs = D.bilateral_apply(D.quotient_derivation(d), A.quotient(a))
        return lhs == rhs
    return run


def unilateral_round(rng, ctx, stats, golden):
    Ns = ctx["N"]
    jobs = []
    for N in Ns.values():
        per = _period(N)
        a = runi(rng, N, per, rdegrees(rng, 4, 3), n_corr=4, key_max=8)
        b = runi(rng, N, per, rdegrees(rng, 4, 3), n_corr=4, key_max=8)
        jobs.append(("oracle_product", _oracle(a, b, 64), _exact))
    N4 = Ns[4]
    for d in (2, 4, 8, 16):
        degrees = range(-d, d + 1)
        a = runi(rng, N4, 4, degrees)
        b = runi(rng, N4, 4, degrees)
        jobs.append((f"dense_multiply_d{d}",
                     _dense_uni(a, b, d, entry_probes(rng, d)), _exact))
    for v in (2, 6, "2^inf"):
        N = Ns[v]
        k = N.as_int() if N.is_finite() else 1
        degrees = sorted({-k, -1, 0, 1, k}) if N.is_finite() else [-1, 0, 1]
        dd = rderivation(rng, N, degrees, _period(N))
        a = runi(rng, N, _period(N), rdegrees(rng, 2, 2))
        b = runi(rng, N, _period(N), rdegrees(rng, 2, 2))
        jobs.append(("apply_leibniz", _leibniz(dd, a, b), _exact))
    for v in (3, "2^inf"):
        N = Ns[v]
        n = 3 * rng.choice([-1, 1]) if N.is_finite() else 0
        comp = D.covariant(
            n, S.AffineSequence(rscalar(rng), rep(rng, N, _period(N))), N
        )
        jobs.append(("classify_reassemble", _classify_round_trip(comp),
                     _exact))
    for v in (12, "2^inf"):
        N = Ns[v]
        beta = S.AffineSequence(rscalar(rng), rep(rng, N, _period(N)))
        alpha = rep(rng, N, _period(N), n_corr=3)
        jobs.append(("increment_partial_sums",
                     _partial_sums_round_trip(beta, alpha), _exact))
    N2 = Ns[2]
    comps = {}
    for n in range(-4, 9):
        linear = rscalar(rng) if n % 2 == 0 else ZERO
        comps[n] = D.covariant(
            n, S.AffineSequence(linear, rep(rng, N2, 2)), N2
        )
    jobs.append(("fejer_mean", _fejer(comps, rng.choice((8, 16, 32, 64)), N2),
                 _exact))
    for v in (4, 6):
        N = Ns[v]
        k = N.as_int()
        dd = rderivation(rng, N, sorted({-k, -1, 0, 1, k, 2 * k}), k)
        a = runi(rng, N, k, rdegrees(rng, 3, 2))
        jobs.append(("quotient_naturality", _naturality(dd, a), _exact))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# bilateral_exact


def _dense_bil(x, y, d, probes):
    def run():
        p = A.bilateral_multiply(x, y)
        q = A.bilateral_adjoint(p)
        for i, j in probes:
            want = sum(
                (x.entry(i, k) * y.entry(k, j)
                 for k in range(i - d, i + d + 1)),
                ZERO,
            )
            got = p.entry(i, j)
            if got != want or q.entry(j, i) != got.conjugate():
                return False
        return True
    return run


def _defect(b1, b2):
    def run():
        return A.is_compact(A.mult_defect(b1, b2))
    return run


def _matrix_form(b, N):
    def run():
        return A.from_matrix_form(A.to_matrix_form(b, N), N) == b
    return run


def _units(N, quads):
    def run():
        n = N.as_int()
        units = A.matrix_units(N)
        total = A.bilateral_zero(N)
        for s in range(n):
            total = total + units[(s, s)]
            for r in range(n):
                if A.bilateral_adjoint(units[(s, r)]) != units[(r, s)]:
                    return False
        if total != A.bilateral_identity(N):
            return False
        for s, r, t, q in quads:
            prod = A.bilateral_multiply(units[(s, r)], units[(t, q)])
            if prod != (units[(s, q)] if r == t else A.bilateral_zero(N)):
                return False
        rebuilt = A.bilateral_zero(N)
        for s in range(1, n):
            rebuilt = rebuilt + units[(s, s - 1)]
        rebuilt = rebuilt + A.bilateral_multiply(
            A.v_element(N, n), units[(0, n - 1)])
        return rebuilt == A.v_element(N)
    return run


def _bilateral_leibniz(d, x, y):
    def run():
        comps = D.quotient_derivation(d)
        lhs = D.bilateral_apply(comps, A.bilateral_multiply(x, y))
        rhs = A.bilateral_multiply(D.bilateral_apply(comps, x), y) \
            + A.bilateral_multiply(x, D.bilateral_apply(comps, y))
        return lhs == rhs
    return run


def _extract_f(f, N):
    def run():
        return D.extract_f(D.d_f_build(f, N), N) == f
    return run


def _states(bs, level):
    def run():
        e0 = G.GNSVector0({0: ONE})
        x0 = G.chi0(level)
        for b in bs:
            bb = A.bilateral_multiply(A.bilateral_adjoint(b), b)
            for t in (G.tau0, G.tau_haar):
                val = t(bb)
                if not (val.is_real() and val.re >= 0):
                    return False
            if G.inner0(e0, G.pi0_apply(b, e0)) != G.tau0(b):
                return False
            if G.inner_haar(x0, G.pi_haar_apply(b, x0)) != G.tau_haar(b):
                return False
        return True
    return run


def bilateral_round(rng, ctx, stats, golden):
    Ns = ctx["N"]
    jobs = []
    N6 = Ns[6]
    for d in (2, 4, 8, 16):
        degrees = range(-d, d + 1)
        x = rbil(rng, N6, 6, degrees)
        y = rbil(rng, N6, 6, degrees)
        probes = [(i - d, j - d) for i, j in entry_probes(rng, d)]
        jobs.append((f"dense_bilateral_multiply_d{d}",
                     _dense_bil(x, y, d, probes), _exact))
    # Degree sets are fixed per job, so a job's cost depends on its
    # specification; the seed draws the coefficient values.
    for N in Ns.values():
        k = N.as_int()
        b1 = rbil(rng, N, k, (-3, 0, 2))
        b2 = rbil(rng, N, k, (-1, 1, 3))
        jobs.append(("mult_defect", _defect(b1, b2), _exact))
        b = rbil(rng, N, k, (-6, -1, 2, 5))
        jobs.append(("matrix_form_round_trip", _matrix_form(b, N), _exact))
        dd = rderivation(rng, N, sorted({-k, -1, 0, 1, k, 2 * k}), k)
        x = rbil(rng, N, k, (-2, 0, 3))
        y = rbil(rng, N, k, (-3, 1, 2))
        jobs.append(("bilateral_apply_leibniz",
                     _bilateral_leibniz(dd, x, y), _exact))
        bs = [rbil(rng, N, k, (-2, 0, 1)) for _ in range(4)]
        jobs.append(("states", _states(bs, k), _exact))
    for v in (2, 3, 4, 6):
        N = Ns[v]
        n = N.as_int()
        quads = [tuple(rng.randrange(n) for _ in range(4)) for _ in range(48)]
        jobs.append(("matrix_units", _units(N, quads), _exact))
    for v in (3, 4):
        N = Ns[v]
        coeffs = {j: rscalar(rng) for j in rng.sample(range(-3, 4), 3)}
        coeffs[rng.choice((-1, 1))] = ONE
        jobs.append(("extract_f", _extract_f(D.LaurentFunction(coeffs), N),
                     _exact))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# gns_windows

# Windows per (case, space).  Criterion 09 of the acceptance suite uses
# [64, 128, 256] for the three positive cases; here it is kept where one
# report stays below a second (incrementN_linear / tau0) and the positive
# haar and increment0 cases use [16, 32, 64] or [8, 16, 32] so that a
# round stays near four seconds.  expected: (verdict, slope_corroborates or
# None when the criterion leaves the growth profile open).
PARAMETRIX = {
    ("bounded", "tau0"): ([16, 32, 64], NEGATIVE, False),
    ("bounded", "haar"): ([16, 32, 64], NEGATIVE, False),
    ("incrementN_flat", "tau0"): ([16, 32, 64], NEGATIVE, False),
    ("incrementN_flat", "haar"): ([16, 32, 64], NEGATIVE, False),
    ("incrementN_linear", "tau0"): ([64, 128, 256], POSITIVE, True),
    ("incrementN_linear", "haar"): ([16, 32, 64], POSITIVE, True),
    ("increment0_flat", "tau0"): ([16, 32, 64], NEGATIVE, False),
    ("increment0_flat", "haar"): ([8, 16, 32], NEGATIVE, False),
    ("increment0_linear", "tau0"): ([16, 32, 64], POSITIVE, True),
    ("increment0_linear", "haar"): ([8, 16, 32], NEGATIVE, None),
}


def parametrix_key(case, space):
    return f"{case}/{space}"


def _parametrix(data, Ms, space):
    def run():
        return G.parametrix_report(data, Ms, space=space)
    return run


def _parametrix_check(key, verdict, slope, golden, stats):
    def check(rep):
        want = golden["min_sv"].get(key)
        if want is None or len(want) != len(rep["min_sv"]):
            return False
        for got, ref in zip(rep["min_sv"], want):
            err = abs(got - ref) / abs(ref)
            stats.maximum("gns.min_sv_relerr_max", err)
            if err > 1e-9:
                return False
        if rep["verdict"] != verdict:
            return False
        return slope is None or G.slope_corroborates(rep) == slope
    return check


# The level-4 haar windows of the increment0 cases take about 1.8 s per
# covariance check at M=64 (16 SVDs of 516 x 516); they run at M=32.
COVARIANCE_M32 = {("increment0_flat", "haar"), ("increment0_linear", "haar")}


def _covariance(comp, space, psi, M):
    def run():
        data = G.implementation_from_bilateral(comp, psi=psi)
        if space == "tau0":
            Dm = G.build_D_tau0(data, M)
        else:
            Dm = G.build_D_haar(data, M)
        return G.check_covariance(Dm, data.n, M, GRID16)
    return run


def _covariance_check(stats):
    def check(residual):
        stats.maximum("gns.covariance_residual_max", residual)
        return residual < 1e-12
    return check


def _implementation(comp, space, b, psi):
    def run():
        data = G.implementation_from_bilateral(comp, psi=psi)
        if space == "tau0":
            Dx = G.build_D_tau0_exact(data, 64)
        else:
            Dx = G.build_D_haar_exact(data, 64)
        return G.check_implementation(
            Dx, {comp.n: comp}, b, 64, space=space, level=data.level
        )
    return run


def _divisors(N):
    return [1, 2] if N.is_finite() else [1, 2, 4]


def gns_round(rng, ctx, stats, golden):
    cases, data = ctx["cases"], ctx["data"]
    jobs = []
    for (case, space), (Ms, verdict, slope) in PARAMETRIX.items():
        key = parametrix_key(case, space)
        jobs.append((f"parametrix_{space}",
                     _parametrix(data[case], Ms, space),
                     _parametrix_check(key, verdict, slope, golden, stats)))
    for case, comp in cases.items():
        for space in ("tau0", "haar"):
            psi = None
            if space == "haar":
                psi = rlcf(rng, comp.N, rng.choice(_divisors(comp.N)))
            M = 32 if (case, space) in COVARIANCE_M32 else 64
            jobs.append((f"covariance_{space}",
                         _covariance(comp, space, psi, M),
                         _covariance_check(stats)))
            b = rbil(rng, comp.N, rng.choice(_divisors(comp.N)),
                     rdegrees(rng, 2, 2))
            jobs.append((f"implementation_{space}",
                         _implementation(comp, space, b, psi),
                         lambda res: res == 0.0))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# cli_requests

CLI_WORKSPACES = ("n2", "n3", "n6", "n2inf")

# (subcommand and arguments, expected exit code).  "{ws}" is replaced by
# the workspace path.  Requests with a nonzero code are the inputs the CLI
# rejects today; they count as correct when the exit code matches.
_COMMON = [
    (["normalize", "U^2 * diag(x) * Us"], 0),
    (["normalize", "(U + Us)^3"], 0),
    (["mul", "U*diag(x)", "Us^2"], 0),
    (["comm", "Us", "U"], 0),
    (["comm", "diag(x)", "U + Us"], 0),
    (["derive", "--derivation", "d", "U^2*diag(x)"], 0),
    (["derive", "--derivation", "d", "--side", "bilateral", "V + diag(y)"], 0),
    (["fourier", "--derivation", "d", "--n", "0"], 0),
    (["fejer", "--derivation", "d", "--m", "4"], 0),
    (["classify", "--derivation", "d", "--n", "0"], 0),
    (["toeplitz", "V*diag(y) + Vi"], 0),
    (["defect", "V*diag(y)", "Vi^2"], 0),
    (["gns-rep", "V^2 + diag(y)"], 0),
    (["gns-rep", "--state", "haar", "--level", "{level}", "V + diag(y)"], 0),
    (["gns-d", "--derivation", "d", "--n", "0", "--m", "4"], 0),
    (["gns-d", "--derivation", "d", "--n", "0", "--m", "4", "--space",
      "haar"], 0),
    (["covcheck", "--derivation", "d", "--n", "0", "--m", "8", "--grid",
      "8"], 0),
    (["covcheck", "--derivation", "d", "--n", "0", "--m", "8", "--grid",
      "8", "--space", "haar"], 0),
    (["parametrix", "--derivation", "d", "--n", "0", "--mlist", "8,16"], 0),
    (["truncate", "U + diag(x)", "--m", "16"], 0),
    (["normest", "U", "--m", "16"], 0),
    (["normalize", "diag(nope)"], 2),
]
_FINITE = [
    (["extract-f", "--derivation", "d"], 0),
    (["df-build", "--laurent", "f"], 0),
    (["matrix-form", "V + diag(y)"], 0),
    (["qnorm", "V + Vi", "--grid", "8", "--rounds", "2"], 0),
    (["classify", "--derivation", "d", "--n", "1"], 3),
]
_PER_WS = {
    "n2": [(["units"], 0), (["normalize", "U^-1"], 2),
           (["classify", "--derivation", "nope", "--n", "0"], 2)],
    "n3": [(["units"], 0), (["normalize", "U +"], 2)],
    "n6": [],
    "n2inf": [(["units"], 3), (["extract-f", "--derivation", "d"], 3)],
}
_LEVEL = {"n2": 2, "n3": 3, "n6": 6, "n2inf": 8}


def cli_catalogue():
    """Every request of a round as (request id, argv, expected code).
    The argv carries a workspace placeholder resolved at run time."""
    out = []
    for ws in CLI_WORKSPACES:
        reqs = list(_COMMON)
        if ws != "n2inf":
            reqs += _FINITE
        reqs += _PER_WS[ws]
        for i, (argv, code) in enumerate(reqs):
            argv = [a.replace("{level}", str(_LEVEL[ws])) for a in argv]
            argv = argv[:1] + ["--workspace", "{ws}"] + argv[1:]
            out.append((f"{ws}:{i:02d}:{argv[0]}", ws, argv, code))
    return out


def resolve_argv(ws, argv):
    path = str(WORKSPACES / f"ws_{ws}.json")
    return [path if a == "{ws}" else a for a in argv]


def call_cli(argv):
    """In-process bdshift.cli.main with stdout captured; stderr dropped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = C.main(argv)
    return code, out.getvalue()


def _cli_check(rid, code_want, golden, stats):
    def check(result):
        code, text = result
        stats.add("cli.stdout_bytes", len(text.encode("utf-8")))
        if code != code_want:
            return False
        want = golden["cli"].get(rid)
        if want is None or want["code"] != code:
            return False
        got = json.loads(text) if text.strip() else None
        return close(got, want["stdout"])
    return check


def cli_round(rng, ctx, stats, golden):
    jobs = []
    for rid, ws, argv, code in cli_catalogue():
        kind = argv[0] if code == 0 else f"reject_{argv[0]}"
        full = resolve_argv(ws, argv)
        jobs.append((kind, (lambda a=full: call_cli(a)),
                     _cli_check(rid, code, golden, stats)))
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# registry


class Workload:
    """A named workload: its round builder, the number of rounds a traced
    run replays (untraced, then traced), and its profile, the weights of
    the python and numpy reference kernels that scale its times."""

    def __init__(self, name, build, trace_rounds, profile):
        self.name = name
        self.build = build
        self.trace_rounds = trace_rounds
        self.profile = profile

    def round(self, seed, index, ctx, stats, golden):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.build(rng, ctx, stats, golden)


WORKLOADS = {
    w.name: w for w in (
        Workload("unilateral_exact", unilateral_round, 5, (1.0, 0.0)),
        Workload("bilateral_exact", bilateral_round, 5, (1.0, 0.0)),
        Workload("gns_windows", gns_round, 2, (0.5, 0.5)),
        Workload("cli_requests", cli_round, 7, (0.5, 0.5)),
    )
}
