"""Workspace files: one JSON document holding the ambient N and named
sequences, derivations and Laurent functions.  Any other top-level key
(such as the "chain" of older files) is ignored.

Sequence values are polymorphic: objects with a "values" key decode to
locally constant functions, objects with a "table" key to eventually
periodic sequences.
"""

import json

from .errors import PeriodNotDivisor
from .profinite import LocallyConstantFunction, SupernaturalNumber, divides
from .sequences import EPSequence
from .derivations import DerivationSum, LaurentFunction


class Workspace:
    """Named environment shared by all commands."""

    __slots__ = ("N", "sequences", "derivations", "laurent")

    def __init__(self, N, sequences=None, derivations=None, laurent=None):
        self.N = N
        self.sequences = dict(sequences or {})
        self.derivations = dict(derivations or {})
        self.laurent = dict(laurent or {})
        for name, seq in self.sequences.items():
            period = getattr(seq, "period", 1)
            if not divides(period, N):
                raise PeriodNotDivisor(
                    f"sequence {name!r} has period {period} outside N"
                )

    def to_json(self):
        out = {"N": self.N.to_json()}
        if self.sequences:
            out["sequences"] = {
                k: v.to_json() for k, v in sorted(self.sequences.items())
            }
        if self.derivations:
            out["derivations"] = {
                k: v.to_json() for k, v in sorted(self.derivations.items())
            }
        if self.laurent:
            out["laurent"] = {
                k: v.to_json() for k, v in sorted(self.laurent.items())
            }
        return out

    @classmethod
    def from_json(cls, data):
        N = SupernaturalNumber.from_json(data["N"])
        sequences = {
            k: _sequence_from_json(v, N)
            for k, v in data.get("sequences", {}).items()
        }
        derivations = {
            k: DerivationSum.from_json(v, N)
            for k, v in data.get("derivations", {}).items()
        }
        laurent = {
            k: LaurentFunction.from_json(v)
            for k, v in data.get("laurent", {}).items()
        }
        return cls(N, sequences, derivations, laurent)


def _sequence_from_json(data, N):
    if "values" in data:
        return LocallyConstantFunction.from_json(data, N)
    if "table" in data:
        return EPSequence.from_json(data, N)
    raise ValueError("sequence JSON needs a 'values' or 'table' key")


def load_workspace(path):
    with open(path, "r", encoding="utf-8") as fh:
        return Workspace.from_json(json.load(fh))


def save_workspace(ws, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ws.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
