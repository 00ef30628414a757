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
        if not isinstance(data, dict):
            raise ValueError("a workspace must be a JSON object")
        N = _decode("N", lambda: SupernaturalNumber.from_json(data["N"]))
        sequences = {
            k: _decode(f"sequence {k!r}", _sequence_from_json, v, N)
            for k, v in _section(data, "sequences")
        }
        derivations = {
            k: _decode(f"derivation {k!r}", DerivationSum.from_json, v, N)
            for k, v in _section(data, "derivations")
        }
        laurent = {
            k: _decode(f"laurent {k!r}", LaurentFunction.from_json, v)
            for k, v in _section(data, "laurent")
        }
        return cls(N, sequences, derivations, laurent)


def _section(data, key):
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"workspace {key!r} must be a JSON object")
    return section.items()


def _decode(entry, decode, *args):
    """decode(*args) for one workspace entry, with malformed JSON reported
    as one ValueError that names the entry.  A JSON value of the wrong
    type surfaces inside the decoders as TypeError or AttributeError (a
    float or string scalar, a list where an object belongs, a table that
    is not a list), a zero denominator as ZeroDivisionError."""
    try:
        return decode(*args)
    except ZeroDivisionError:
        raise ValueError(f"workspace {entry} has a zero denominator") \
            from None
    except (TypeError, AttributeError, KeyError, ValueError) as exc:
        raise ValueError(f"workspace {entry} is malformed: {exc}") from None


def _sequence_from_json(data, N):
    if not isinstance(data, dict):
        raise ValueError("a sequence must be a JSON object")
    if "values" in data:
        return LocallyConstantFunction.from_json(data, N)
    if "table" in data:
        return EPSequence.from_json(data, N)
    raise ValueError("sequence JSON needs a 'values' or 'table' key")


def load_workspace(path):
    """The workspace in the file at path.  The bytes are read unbuffered
    and decoded in one call, not through a text-mode file's incremental
    decoder, and the newlines that text mode translates are translated
    the same way, so a JSON error reports the same position."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        data = json.loads(text)
    except RecursionError:
        # the decoder takes one Python frame per nested array or object
        raise ValueError("workspace JSON nests too deeply") from None
    return Workspace.from_json(data)


def save_workspace(ws, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ws.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
