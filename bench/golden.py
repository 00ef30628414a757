"""Frozen reference values and the rule for comparing against them.

``golden.json`` holds the stdout (parsed JSON) and exit code of every
cli_requests request, and every min_sv of the gns_windows parametrix jobs.
A normal run only reads it; ``python3 bench/regen_golden.py`` rewrites it.

Comparison rule: exact JSON values (strings, integers, booleans, the
Gaussian-rational 4-tuples) must be equal; floats must agree within 1e-9
relative.  Float residuals below 1e-12, the acceptance bound for
covariance, count as equal to each other.
"""

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent / "golden.json"

REL_TOL = 1e-9
FLOOR = 1e-12


def load():
    with open(PATH, encoding="utf-8") as fh:
        return json.load(fh)


def close(got, want):
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(got, bool) or isinstance(want, bool) \
                or not isinstance(got, (int, float)) \
                or not isinstance(want, (int, float)):
            return False
        diff = abs(got - want)
        return diff <= REL_TOL * max(abs(got), abs(want)) \
            or (abs(got) < FLOOR and abs(want) < FLOOR)
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            close(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            close(g, w) for g, w in zip(got, want)
        )
    return type(got) is type(want) and got == want
