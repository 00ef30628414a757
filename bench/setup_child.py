"""One set-up sample: a fresh process imports bdshift and does the
workload's program-side preparation, then prints the seconds it took and
the machine slowdown measured just before and just after (see
reference.py).

    python3 bench/setup_child.py <workload>

Started by run.py, which sets the BLAS thread variables it inherits.
"""

import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import reference  # noqa: E402  (stdlib only until a kernel needs numpy)


def slowdown():
    # four kernel runs per sample: a fresh process times a single 1 ms
    # run less steadily
    return reference.best_of(
        lambda: [reference.python_kernel() for _ in range(4)], k=3,
    ) / (4 * reference.NOMINAL_PY_S)


before = slowdown()
t0 = perf_counter()
sys.path.insert(0, str(BENCH.parent / "src"))
import bdshift  # noqa: E402,F401
import workloads  # noqa: E402

workloads.prepare(sys.argv[1])
elapsed = perf_counter() - t0
print(elapsed, (before + slowdown()) / 2)
