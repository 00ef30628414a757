"""bdshift benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload unilateral_exact --seed 1 \
        --seconds 20 --trace 0

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
replays a fixed number of rounds untraced and then traced and reports the
per-layer metrics.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
every metric with its unit and sample count, the environment, and failures
by job kind.  A copy of the result (and, when traced, the spans) is written
under bench/.out/.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported (here or in
# the set-up children, which inherit the environment).
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

sys.path.insert(0, str(BENCH))
import reference  # noqa: E402  (numpy is imported only when first used)

MIN_JOBS = 100
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("unilateral_exact", "bilateral_exact", "gns_windows",
                  "cli_requests")


def fail(msg):
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload):
    """Median over fresh processes of import bdshift plus preparation,
    raw and scaled by the python reference kernel timed in each process
    just before and just after the import."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
        seconds, slowdown = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds / slowdown)
    return {"raw": statistics.median(raw), "scaled": statistics.median(scaled),
            "samples": len(raw)}


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "src_lines": src_lines,
    }


def percentile(sorted_xs, p):
    """Nearest-rank percentile."""
    return sorted_xs[max(0, math.ceil(p * len(sorted_xs)) - 1)]


class Pass:
    """Latencies and failures of one sequence of jobs."""

    def __init__(self, profile):
        self.profile = profile
        self.latencies = []
        self.scaled = []
        self.failed = {}
        self.kinds = {}
        self.errors = {}

    def run(self, jobs, tracer=None):
        """Time each job, and scale it by the mean of the machine slowdown
        measured just before and just after it (see reference.py)."""
        prev = reference.slowdown(self.profile)
        for kind, run, check in jobs:
            if tracer is not None:
                tracer.job_id = len(self.latencies)
                tracer.enabled = True
            t0 = perf_counter()
            try:
                value = run()
            except Exception as exc:  # counted, and the run goes on
                value = exc
                self.errors.setdefault(kind, traceback.format_exc())
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            now = reference.slowdown(self.profile)
            self.latencies.append(t1 - t0)
            self.scaled.append((t1 - t0) * 2.0 / (prev + now))
            prev = now
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            ok = False
            if not isinstance(value, Exception):
                try:
                    ok = check(value) is True
                except Exception:
                    self.errors.setdefault(kind, traceback.format_exc())
            if not ok:
                self.failed[kind] = self.failed.get(kind, 0) + 1

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failures(self):
        return sum(self.failed.values())

    @property
    def scaled_busy(self):
        return math.fsum(self.scaled)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rounds", type=int, default=None,
                    help="run exactly this many rounds (self-tests)")
    args = ap.parse_args()

    if not (SRC / "bdshift" / "__init__.py").is_file():
        fail(f"no bdshift package under {SRC}; run from a full checkout")

    setup = None
    if not args.trace:
        setup = measure_setup(args.workload)

    sys.path.insert(0, str(SRC))
    import golden
    import workloads
    import tracing

    env = environment()
    wl = workloads.WORKLOADS[args.workload]
    ctx = workloads.prepare(args.workload)
    ref = golden.load()

    raw = {}
    per_round = []
    hook_errors = {}
    if args.trace:
        rounds = args.rounds or wl.trace_rounds
        plain = Pass(wl.profile)
        for i in range(rounds):
            plain.run(wl.round(args.seed, i, ctx, tracing.Counters(), ref))
        tracer = tracing.Tracer()
        tracer.install()
        traced = Pass(wl.profile)
        for i in range(rounds):
            jobs = wl.round(args.seed, i, ctx, tracer.counters, ref)
            traced.run(jobs, tracer)
        passes = (plain, traced)
        metrics = tracing.layer_metrics(tracer, tracer.counters)
        overhead = traced.scaled_busy / plain.scaled_busy - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        samples = {k: traced.attempted for k in metrics}
        hook_errors = tracer.hook_errors
        for name, tb in hook_errors.items():
            print(f"bench: count hook for {name} failed:\n{tb}",
                  file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        p = Pass(wl.profile)
        start = perf_counter()
        i = 0
        while True:
            if args.rounds is not None:
                if i == args.rounds:
                    break
            elif perf_counter() - start >= args.seconds \
                    and p.attempted >= MIN_JOBS:
                break
            first = p.attempted
            p.run(wl.round(args.seed, i, ctx, tracing.Counters(), ref))
            scaled = sorted(p.scaled[first:])
            lat = sorted(p.latencies[first:])
            per_round.append({
                "jobs": len(lat),
                "jobs_per_s": len(scaled) / math.fsum(scaled),
                "p50_ms": percentile(scaled, 0.5) * 1e3,
                "p90_ms": percentile(scaled, 0.9) * 1e3,
                "raw_jobs_per_s": len(lat) / math.fsum(lat),
                "raw_p50_ms": percentile(lat, 0.5) * 1e3,
                "raw_p90_ms": percentile(lat, 0.9) * 1e3,
            })
            i += 1
        passes = (p,)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def median(key):
            return statistics.median(r[key] for r in per_round)

        # Every round holds the same multiset of job specifications, so
        # each round gives one sample of each figure, and the run reports
        # their median.  A percentile pooled over all jobs falls where one
        # job kind ends and the next begins, and it then reads the
        # extreme of one kind's latencies.
        metrics = {
            "setup_s": (setup["scaled"], "s"),
            "jobs_per_s": (median("jobs_per_s"), "1/s"),
            "job_p50_ms": (median("p50_ms"), "ms"),
            "job_p90_ms": (median("p90_ms"), "ms"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        }
        raw = {"setup_s": setup["raw"]}
        raw.update({k: median("raw_" + k.replace("job_", ""))
                    for k in ("jobs_per_s", "job_p50_ms", "job_p90_ms")})
        samples = {k: p.attempted for k in metrics}
        samples["setup_s"] = setup["samples"]
        samples["peak_rss_mb"] = 1

    attempted = sum(x.attempted for x in passes)
    failed = sum(x.failures for x in passes)
    failed_by_kind = {}
    jobs_by_kind = {}
    for x in passes:
        for k, v in x.failed.items():
            failed_by_kind[k] = failed_by_kind.get(k, 0) + v
        for k, v in x.kinds.items():
            jobs_by_kind[k] = jobs_by_kind.get(k, 0) + v
    errors = {}
    for x in passes:
        errors.update(x.errors)

    for name, (value, unit) in metrics.items():
        extra = f" raw={raw[name]:.6g}" if name in raw else ""
        if per_round:
            extra += f" rounds={len(per_round)}"
        print(f"{name:40s} {value:>16.6g} {unit:6s} "
              f"n={samples[name]}{extra}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "env": env,
        "jobs_by_kind": jobs_by_kind, "failed_by_kind": failed_by_kind,
        "errors": errors,
        "rounds": per_round,
        "raw": raw,
        "hook_errors": hook_errors,
        "metrics": {k: {"value": v, "unit": u, "samples": samples[k]}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps({k: summary[k] for k in
                      ("env", "jobs_by_kind", "failed_by_kind", "errors")}))
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
