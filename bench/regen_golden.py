"""Rewrite bench/golden.json from the code in ./src.

    python3 bench/regen_golden.py

Freezes the stdout and exit code of every cli_requests request and every
min_sv of the gns_windows parametrix jobs.  Run it only when a change is
meant to alter those outputs, and say so in CHANGES.md; a benchmark run
never writes the file.
"""

import os

os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS",
                                    "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import golden  # noqa: E402
import workloads as W  # noqa: E402


def main():
    ctx = W.prepare("gns_windows")
    min_sv = {}
    for (case, space), (Ms, _, _) in W.PARAMETRIX.items():
        rep = W.G.parametrix_report(ctx["data"][case], Ms, space=space)
        min_sv[W.parametrix_key(case, space)] = rep["min_sv"]
    cli = {}
    for rid, ws, argv, _ in W.cli_catalogue():
        code, text = W.call_cli(W.resolve_argv(ws, argv))
        cli[rid] = {"code": code,
                    "stdout": json.loads(text) if text.strip() else None}
    with open(golden.PATH, "w", encoding="utf-8") as fh:
        json.dump({"min_sv": min_sv, "cli": cli}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {golden.PATH}: {len(min_sv)} parametrix keys, "
          f"{len(cli)} CLI requests")


if __name__ == "__main__":
    main()
