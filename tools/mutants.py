"""A catalogue of planted bugs, and the test that catches each.

Each entry (file, old, new, reason) replaces the single occurrence of
`old` in `file` by `new`.  Every entry is applied alone to a fresh copy
of the tracked files (`git archive` of `git stash create`, or of HEAD
when nothing has changed; `git add` a new file first) in a temporary
directory.  The Tier-1 suite then runs there with `-x`, and one table row
per entry gives the first test that fails, or "survived" if all pass.
An entry whose `old` text no longer occurs once reads "stale": mend it.

    python3 tools/mutants.py          # every entry, about ten minutes
    python3 tools/mutants.py 3 11     # entries 3 and 11 alone

It is not part of Tier-1: each entry runs the suite once.
"""

import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CUTOFF = """\
            for k in range(z):
                i, c = (k + sa) % J, corr.get(k, (0, 0))
                corr[k] = (c[0] - sign * (are[i] * bre[i] - aim[i] * bim[i]),
                           c[1] - sign * (are[i] * bim[i] + aim[i] * bre[i]))
"""
# the one-product branches of a commutator's visit
ONE_PRODUCT = """\
            if m % J == 0:
                (cr, ci), (g, h) = _turn(arow, ta % J), u or (0, 0)
                ar = [x - y + (sa - ta) * g for x, y in zip(ar, cr)]
                ai = [x - y + (sa - ta) * h for x, y in zip(ai, ci)]
"""

MUTANTS = [
    ("src/bdshift/profinite.py",
     "        while period % p == 0:", "        if period % p == 0:",
     "_minimal_period divides by each prime once"),
    ("src/bdshift/algebra.py",
     "        for k in range(s):\n            (x, u), (y, v) = f._at(",
     "        for k in range(s - 1):\n            (x, u), (y, v) = f._at(",
     "mult_defect drops the last pair below 0"),
    ("src/bdshift/cli.py",
     "    if dim > MAX_WINDOW:", "    if dim > MAX_WINDOW + 1:",
     "MAX_WINDOW off by one"),
    ("src/bdshift/gns.py",
     "    return d[P:] == d[:-P]", "    return True",
     "_affine_per_class always true"),
    ("src/bdshift/gns.py",
     "    for xi, xj, a, b in off:\n        B[:, xi, xj]",
     "    for xi, xj, a, b in ():\n        B[:, xi, xj]",
     "_shell_min_sv drops the off cells"),
    ("src/bdshift/parser.py",
     "    if span > MAX_SPAN:", "    if span > MAX_SPAN + 1:",
     "check_span accepts span MAX_SPAN + 1"),
    ("src/bdshift/algebra.py",
     "    bound = (2 + 2 * commute) * big[0]",
     "    bound = (1 + commute) * big[0]",
     "_slot_bytes' bound halved"),
    ("src/bdshift/algebra.py",
     "    bound = (2 + 2 * commute) * big[0]", "    bound = 2 * big[0]",
     "_slot_bytes' bound without the commutator's factor 2"),
    ("src/bdshift/algebra.py",
     "        J, D = math.lcm(J, s.period), math.lcm(D, s.den)",
     "        J, D = max(J, s.period), math.lcm(D, s.den)",
     "_factors takes the largest period, not the lcm"),
    ("src/bdshift/algebra.py",
     CUTOFF, CUTOFF.replace("range(z)", "range(0)"),
     "_pair_rows writes no cutoff"),
    ("src/bdshift/algebra.py",
     CUTOFF, CUTOFF.replace("range(z)", "range(z - 1)"),
     "_pair_rows writes one cutoff too few"),
    ("src/bdshift/algebra.py",
     CUTOFF, CUTOFF.replace(
         "sign * (are[i] * bre[i] - aim[i] * bim[i])", "pr[k % J]").replace(
         "sign * (are[i] * bim[i] + aim[i] * bre[i])", "pi[k % J]"),
     "_pair_rows cuts a commutator's product off the joint row, not its own"),
    ("src/bdshift/profinite.py",
     "            if re[e:] != re[:j - e] or im[e:] != im[:j - e]:",
     "            if re[e:] != re[:j - e]:",
     "_minimal_period reads the re row alone"),
    ("src/bdshift/algebra.py",
     "    return [s * u[0] + a for a in re], [s * u[1] + b for b in im], "
     "corr, u", "    return row",
     "_at_shift returns its row unchanged"),
    ("src/bdshift/algebra.py",
     "            for k in {i - s for i in oc}.union(range(z)):",
     "            for k in {i - s for i in oc}:",
     "the linear-part fold skips the cutoff keys k < z"),
    ("src/bdshift/algebra.py",
     "                    corr[k] = (c[0] + w * (cr * x - ci * y),",
     "                    corr[k + 1] = (c[0] + w * (cr * x - ci * y),",
     "the linear-part fold stores at k + 1"),
    ("src/bdshift/algebra.py",
     "        lin = {n: ([r[3][0]] * J, [r[3][1]] * J)\n"
     "               for n, r in left.items() if r[3]}",
     "        lin = {}",
     "_kronecker_rows packs no linear part"),
    ("src/bdshift/gns.py",
     "from itertools import chain, product\n",
     "from itertools import chain, product\nimport numpy as np\n",
     "gns imports numpy at module level"),
    ("src/bdshift/numerics.py",
     "from collections import namedtuple\n",
     "from collections import namedtuple\nimport numpy as np\n",
     "numerics imports numpy at module level"),
    ("src/bdshift/cli.py",
     '_quote(k) + ": " + _json(', '_quote(k) + ":" + _json(',
     "the writer's key separator is ':', without the space"),
    ("src/bdshift/cli.py",
     'return ("NaN" if v != v', 'return ("nan" if v != v',
     "the writer spells NaN as nan"),
    ("src/bdshift/cli.py",
     "own.parse_args(argv[1:])", "own.parse_args(argv[2:])",
     "main parses argv[2:] after a command name"),
    ("src/bdshift/gns.py",
     "    if (diffs != d).any():", "    if False:",
     "check_covariance accepts a D that lies on two bands"),
    ("src/bdshift/algebra.py",
     "            u, v = qr[t % J], qi[t % J]\n",
     "            u, v = 0, 0\n",
     "_unilateral_rows drops the E q(y) term"),
    ("src/bdshift/algebra.py",
     "    for n, sh in zip(ys[:bisect_left(ys, 0)], shifts):",
     "    for n, sh in zip(ys[:0], shifts):",
     "_unilateral_rows drops y's zero fill from dy"),
    ("src/bdshift/algebra.py",
     "            t, r = k - min(m, 0), k + max(m, 0)",
     "            t, r = k + min(m, 0), k + max(m, 0)",
     "_unilateral_rows puts x's correction at column key + min(m, 0)"),
    ("src/bdshift/algebra.py",
     "{n: a for n, a in terms.items() if not a.is_zero()}", "dict(terms)",
     "_trusted keeps zero coefficients"),
    ("src/bdshift/gns.py",
     "h, (re, im) = dg // g.den * (dv // d), ",
     "h, (re, im) = dg // g.den, ",
     "pi_apply drops the vector's rescale to the common denominator"),
    ("src/bdshift/gns.py",
     "        h = du // e * (dw // f)", "        h = du // e",
     "inner drops w's rescale to the common denominator"),
    ("src/bdshift/algebra.py",
     "        if not (z or ac or bc or commute and tz):",
     "        if not (ac or bc or commute and tz):",
     "_pair_rows skips the cutoffs of a pair with no corrections"),
    ("src/bdshift/profinite.py",
     "        if len(re) > 1:", "        if len(re) > 2:",
     "_make skips the period search on rows of length 2"),
    ("src/bdshift/algebra.py",
     "tuple(int(k == r % N_int) for k",
     "tuple(int(k == (r + 1) % N_int) for k",
     "residue_indicator marks the class r + 1"),
    ("src/bdshift/algebra.py",
     "aim[ra:] + aim[:ra]) if ra \\\n",
     "aim[ra:] + aim[:ra]) if ra > 1 \\\n",
     "_pair_rows leaves a row at shift 1 unrotated"),
    ("src/bdshift/serialize.py",
     '.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
     '.replace("\\r\\n", "\\n")',
     "load_workspace leaves a lone carriage return untranslated"),
    ("src/bdshift/profinite.py",
     "        return N._int % j == 0", "        return j % N._int == 0",
     "divides at a finite N tests j against N the wrong way round"),
    ("src/bdshift/profinite.py",
     "                clean[p], value = INF, 0",
     "                clean[p], value = INF, value",
     "an infinite exponent leaves N a finite value"),
    ("src/bdshift/gns.py",
     "for k, (re, im) in out.items() if re or im},",
     "for k, (re, im) in out.items()},",
     "pi_apply keeps the entries that cancel to zero"),
    ("src/bdshift/profinite.py",
     "        if corr:\n            corr = {k: v for k, v in corr.items()",
     "        if not corr:\n            corr = {k: v for k, v in corr.items()",
     "_make filters only an empty correction"),
    ("src/bdshift/sequences.py",
     "    if correction:\n        raise ValueError(",
     "    if False:\n        raise ValueError(",
     "the BilateralEPSequence factory drops a correction silently"),
    ("src/bdshift/algebra.py",
     "                k, j = i - sa, i - sa + sb\n                if k >= 0:",
     "                k, j = i - sa, i - sa + sb\n                if True:",
     "_pair_rows keeps a correction key k < 0 on A(N)"),
    ("src/bdshift/parser.py",
     "        if spent[0] > _MAX_LITERAL_BITS:",
     "        if False:",
     "the literal bound is checked only at powers, each on its own"),
    ("src/bdshift/algebra.py",
     ONE_PRODUCT, ONE_PRODUCT.replace("if m % J == 0", "if n % J == 0"),
     "a commutator's one product at J | m taken at J | n"),
    ("src/bdshift/algebra.py",
     ONE_PRODUCT, ONE_PRODUCT.replace(" + (sa - ta) * g", "").replace(
         " + (sa - ta) * h", ""),
     "the one product at J | m drops the linear part's gain (sa - ta)u"),
    ("src/bdshift/algebra.py",
     "        re, im, corr = acc.setdefault(m + n, (pr, pi, {}))\n",
     "        if m + n not in acc and not (any(pr) or any(pi) or z or ac or bc\n"
     "                                     or commute and tz):\n"
     "            continue\n"
     "        re, im, corr = acc.setdefault(m + n, (pr, pi, {}))\n",
     "_pair_rows drops the degree key of a pair whose row is zero"),
]


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def _tree(dest, rev=None):
    """The tracked files at rev, or as they stand, extracted into dest."""
    rev = rev or _git("stash", "create").strip().decode() or "HEAD"
    archive = _git("archive", rev)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run(entry):
    """The first failing test under entry, "survived" or "stale"."""
    file, old, new, _ = entry
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _tree(tmp)
        path = Path(tmp, file)
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new), encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=tmp, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tmp, "src"))})
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    if failed:
        return failed.group(1)
    return "survived" if proc.returncode == 0 else f"exit {proc.returncode}"


def main(argv):
    picked = [int(a) for a in argv] or range(1, len(MUTANTS) + 1)
    print("| # | mutant | caught by | s |")
    print("|---|---|---|---|")
    for i in picked:
        start = time.perf_counter()
        verdict = run(MUTANTS[i - 1])
        print(f"| {i} | {MUTANTS[i - 1][3]} | `{verdict}` | "
              f"{time.perf_counter() - start:.0f} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
