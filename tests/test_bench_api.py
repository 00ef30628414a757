"""The benchmark reaches bdshift through module aliases (``A.multiply``,
``P.LocallyConstantFunction``).  A rename in the package must fail here,
in the test suite, rather than in the middle of a benchmark run."""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _references(tree):
    """(module, name) pairs the file reads from bdshift: names imported
    from a bdshift module, and attributes of a module alias."""
    aliases, refs = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            if node.module == "bdshift":
                for a in node.names:
                    aliases[a.asname or a.name] = f"bdshift.{a.name}"
            elif node.module.startswith("bdshift."):
                refs += [(node.module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.append((aliases[node.value.id], node.attr))
    return aliases, refs


def test_every_name_the_workloads_reach_exists():
    aliases, refs = _references(
        ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8")))
    assert set(aliases) == {"A", "C", "D", "G", "NU", "P", "S"}
    assert len(refs) > 50
    missing = sorted(
        f"{mod}.{name}" for mod, name in set(refs)
        if not hasattr(importlib.import_module(mod), name)
    )
    assert not missing, f"bench/workloads.py reaches removed names: {missing}"
