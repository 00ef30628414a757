"""Self-tests of the benchmark itself.

    python3 bench/selftest.py [workload ...]

For each workload (all four by default):
  * smoke: one round untraced and one round traced; every metric named in
    BENCHMARK.json is present with its unit, and no job failed;
  * determinism: a second traced round with the same seed repeats every
    count exactly (calls, terms_out, bits, window sizes, computed bytes).
Also checks the golden comparison rule on a few values.  Exits nonzero on
the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7

COUNT_SUFFIXES = (".calls", ".terms_out", "_bits", ".coeffs_out",
                  ".max_period", ".window_entries", ".window_dim_max",
                  ".dense_bytes_computed", ".stdout_bytes", ".spans")


def expect(ok, msg):
    if not ok:
        raise SystemExit(f"selftest failed: {msg}")


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--rounds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload, result, spec):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0,
           f"{workload}: {result['failed']} of {result['attempted']} failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    expect(got == want, f"{workload}: metrics differ: "
           f"missing {sorted(set(want) - set(got))}, "
           f"extra {sorted(set(got) - set(want))}, "
           f"units {[k for k in want if k in got and got[k] != want[k]]}")


def check_golden_rule():
    sys.path.insert(0, str(BENCH))
    from golden import close

    expect(close({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}),
           "floats within 1e-9 relative are equal")
    expect(not close(1.0, 1.0 + 1e-6), "floats 1e-6 apart differ")
    expect(close(3e-16, 0.0), "residuals below 1e-12 are equal")
    expect(not close([1, 1, 0, 1], [1, 2, 0, 1]), "exact tuples differ")
    expect(not close(2, 3), "integers differ")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    check_golden_rule()
    for w in names:
        check_result(w, run(w, 0), spec["end_to_end"])
        first = run(w, 1)
        check_result(w, first, spec["per_layer"])
        second = run(w, 1)
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        differ = [k for k in counts if first["metrics"][k]["value"]
                  != second["metrics"][k]["value"]]
        expect(not differ, f"{w}: counts differ between runs: {differ}")
        print(f"{w}: smoke ok, {len(counts)} counts repeat exactly")
    print("selftest ok")


if __name__ == "__main__":
    main()
