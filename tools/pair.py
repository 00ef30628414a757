"""Paired benchmark runs of a base revision and of the working tree.

    python3 tools/pair.py --base HEAD --workload bilateral_exact \
        --pairs 10 --seed 101 --tag bilateral

A `git archive` copy of the base revision and one of the tracked files as
they stand (as tools/mutants.py takes them: `git add` a new file first)
go in sibling directories of one temporary root.  Each pair runs
`bench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
in both copies with the same seed, the base first in odd pairs and the
working tree first in even ones; run_seconds is BENCHMARK.json's.  For
each end-to-end metric of BENCHMARK.json it prints each side's median and
quartiles (inclusive method), the pairs the working tree wins (ties count
for neither), the change of the median against its bound, and whether
that is a gain: wins in at least nine tenths of the pairs and medians
apart by more than the base's distance between quartiles.  BENCH_<tag>.json
at the root keeps every pair's metrics and failures, the summary and the
line count of src/bdshift/*.py on each side.  A run that exits nonzero
stops the tool.  It is not part of Tier-1: each pair takes two benchmark
runs of about half a minute.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("base", "work")


def quartiles(xs):
    """(q1, median, q3) of xs by the inclusive method."""
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(base, work, better, bound):
    """One metric over the pairs: each side's quartiles, the working
    tree's wins, its median's relative change (positive is better) and
    the verdicts against the bound and on a gain."""
    sign = 1 if better == "higher" else -1
    qb, qw = quartiles(base), quartiles(work)
    wins = sum(sign * (w - b) > 0 for b, w in zip(base, work))
    change = sign * (qw[1] - qb[1]) / qb[1]
    return {"base": qb, "work": qw, "wins": wins, "pairs": len(base),
            "change": change, "within_bound": change >= -bound,
            "gain": 10 * wins >= 9 * len(base)
            and sign * (qw[1] - qb[1]) > qb[2] - qb[0]}


def _run(tree, args, seconds):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"bench/run.py failed in {tree}:\n{proc.stderr}")
    last = json.loads(proc.stdout.splitlines()[-1])
    return {"failed": last["failed"], "attempted": last["attempted"],
            **{k: v["value"] for k, v in last["metrics"].items()}}


def _src_lines(tree):
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(Path(tree, "src", "bdshift").glob("*.py")))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tag", required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "tools"))
    from mutants import _tree

    records = []
    with tempfile.TemporaryDirectory(prefix="pair-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        _tree(trees["base"], args.base)
        _tree(trees["work"])
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            record = {"first": order[0]}
            for side in order:
                record[side] = _run(trees[side], args, spec["run_seconds"])
            records.append(record)
            print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
                f"{side} jobs_per_s {record[side]['jobs_per_s']:.1f}"
                for side in SIDES), flush=True)
        lines = {side: _src_lines(trees[side]) for side in SIDES}
    table = {m["name"]: summary([r["base"][m["name"]] for r in records],
                                [r["work"][m["name"]] for r in records],
                                m["better"], m["bound"])
             for m in spec["end_to_end"]}
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"base {args.base}: q1 / median / q3")
    for name, s in table.items():
        print(f"{name:12s} base " + " / ".join(f"{v:.4g}" for v in s["base"])
              + "  work " + " / ".join(f"{v:.4g}" for v in s["work"])
              + f"  wins {s['wins']}/{s['pairs']}  {100 * s['change']:+.1f}%"
              + ("" if s["within_bound"] else "  WORSE THAN BOUND")
              + ("  gain" if s["gain"] else ""))
    print("failed jobs: " + "  ".join(
        f"{side} {sum(r[side]['failed'] for r in records)}/"
        f"{sum(r[side]['attempted'] for r in records)}" for side in SIDES))
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({
        "base": args.base, "workload": args.workload, "seed": args.seed,
        "seconds": spec["run_seconds"], "src_lines": lines,
        "pairs": records, "summary": table}, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {out.name}")


if __name__ == "__main__":
    main(sys.argv[1:])
