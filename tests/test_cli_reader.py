"""The one-pass argv reader `cli._read` against argparse.

For every command's own parser the argvs are a plain request (each
required flag with a valid value, and the positionals), that request
with one flag set to each of a list of values, with each flag
abbreviated, written `--flag=value`, repeated or left without a value,
with `-h`, `--help`, `--` or an unknown flag inserted, and with a
positional missing, extra or starting with '-'; then seeded random
edits of several tokens at once.  One more parser declares what no
command does: an int flag with a str default, and int choices.  On each
argv `_read` returns None or the namespace `own.parse_args` returns, and
wherever argparse exits, `_read` returns None.  The draws come from
`random.Random`, not Hypothesis, whose draws mix in the literals of
`src/`.  A second test reads every argv of the benchmark's CLI catalogue
without deferring.
"""

import argparse
import contextlib
import importlib
import io
import random
from pathlib import Path

from bdshift import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

# int spellings argparse takes or refuses, choices of some parser and
# none, and values starting with '-'
VALUES = ["0", "4", "-3", "-05", "-٣", "٣", " 5", "5 ", "-3 ",
          "0x10", "1_000", "+2", "", "x", "tau0", "haar", "unilateral",
          "bilateral", "middle", "-", "-x", "--", "-h", "--m", "U*Us", "d",
          "16,32", "-4,8"]
INSERTS = ["-h", "--help", "--", "--bogus", "-3", "-U", "U"]


def _parse(own, argv):
    """own.parse_args(argv), or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return own.parse_args(argv)
        except SystemExit:
            return None


def _plain(own):
    """The flags of own with one value each, its required ones, and its
    positionals."""
    flags, need, pos = {}, [], []
    for a in own._actions:
        if isinstance(a, argparse._HelpAction):
            continue
        value = str(a.choices[-1]) if a.choices else "3" if a.type else "d"
        if not a.option_strings:
            pos.append("U*Us")
        else:
            flags[a.option_strings[0]] = value
            if a.required:
                need += [a.option_strings[0], value]
    return flags, need, pos


def _variants(own):
    """The argvs of the module docstring's list, the plain request
    first."""
    flags, need, pos = _plain(own)
    plain = need + pos
    yield plain
    for flag, value in flags.items():
        rest = [t for t in plain if t != flag]  # drop a required flag
        yield rest
        for v in VALUES:
            yield plain + [flag, v]
        for cut in range(3, len(flag)):
            yield plain + [flag[:cut], value]
        yield plain + [f"{flag}={value}"]
        yield plain + [flag, value, flag, value]
        yield plain + [flag]
        yield [flag, value] + plain
    for i in range(len(plain) + 1):
        for t in INSERTS:
            yield plain[:i] + [t] + plain[i:]
    if pos:
        yield need + pos[1:]
        yield need + ["-U"] + pos[1:]
        yield need + ["-3"] + pos[1:]
    yield plain + ["V"]


def _draws(own, rng, count):
    """Seeded edits of two to four tokens of the plain request."""
    flags, need, pos = _plain(own)
    tokens = list(flags) + VALUES + INSERTS + ["--work", "--side=haar"]
    for _ in range(count):
        argv = need + pos
        for _ in range(rng.randint(2, 4)):
            i = rng.randint(0, len(argv))
            edit = rng.random()
            if edit < 0.4:
                flag = rng.choice(list(flags))
                argv[i:i] = [flag, rng.choice([flags[flag]] + VALUES)]
            elif edit < 0.7:
                argv.insert(i, rng.choice(tokens))
            elif argv:
                del argv[min(i, len(argv) - 1)]
        yield argv


def _typed_defaults():
    """What no command declares: an int flag whose default is a str, which
    argparse types when the flag is absent, and int choices."""
    p = argparse.ArgumentParser(prog="typed")
    p.add_argument("--k", type=int, default="7")
    p.add_argument("--t", type=int, choices=(1, 2), default=1)
    p.add_argument("x")
    return p


def test_read_agrees_with_argparse():
    _, commands = cli._build_parser()
    rng = random.Random(40)
    for name, own in [*commands.items(), ("typed", _typed_defaults())]:
        answered = refused = 0
        argvs = list(_variants(own)) + list(_draws(own, rng, 150))
        for argv in argvs:
            got, want = cli._read(own, argv), _parse(own, argv)
            if want is None:
                assert got is None, (name, argv)
                refused += 1
            elif got is not None:
                assert vars(got) == vars(want), (name, argv)
                answered += 1
        # the plain request is read, and each parser refuses some draws
        assert cli._read(own, argvs[0]) is not None, name
        assert answered >= 20 and refused >= 20, (name, answered, refused)


def test_read_answers_the_benchmark_catalogue(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    _, commands = cli._build_parser()
    catalogue = workloads.cli_catalogue()
    assert len(catalogue) == 110
    for rid, ws, argv, _ in catalogue:
        argv = workloads.resolve_argv(ws, argv)
        own = commands[argv[0]]
        got = cli._read(own, argv[1:])
        assert got is not None, rid
        assert vars(got) == vars(own.parse_args(argv[1:])), rid
