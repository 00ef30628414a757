"""Every top-level name of the package is reached from somewhere that runs.

A function, class or module-level assignment in src/bdshift/*.py must be
referenced outside its own definition from the package itself, from a
benchmark script (bench/*.py) or from the acceptance tests.  A unit test
alone does not keep a name: code that only its own test calls is dead
weight.  A reference is a name, an attribute or an imported name; a
string (a hook table's "module.name") is not.  Inside the package an
import counts only through the uses of the imported name, so an import
left behind keeps nothing alive, and is reported on its own.  A method
of a package class, other than a dunder, must be referenced as an
attribute from the same places, outside its own body.
"""

import ast
import pathlib
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "bdshift").glob("*.py"))
CALLERS = sorted((ROOT / "bench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]

# names kept without a caller, each with its reason
ALLOWED = {
    # the writer of workspace files; six test fixtures write theirs with it,
    # and moving it into the tests would not shrink the code
    "serialize.save_workspace",
    # the reference for the adjoint law of the matrix form in
    # test_matrix_form_round_trip
    "algebra.MatrixTrigPoly.conjugate_transpose",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(node, in_src):
    """The names node refers to: Names, attributes and, outside the
    package, imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and not in_src:
            out.update(alias.name for alias in sub.names)
    return out


def _defined(node):
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [sub.id for target in targets for sub in ast.walk(target)
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Store)]
    return []


def unreached():
    """module.name of every top-level name nothing else refers to."""
    statements = [(path, node) for path in SRC + CALLERS
                  for node in _parse(path).body]
    refs = [_references(node, path in SRC) for path, node in statements]
    out = []
    for i, (path, node) in enumerate(statements):
        if path not in SRC:
            continue
        for name in _defined(node):
            if name.startswith("__") and name.endswith("__"):
                continue
            if not any(name in r for j, r in enumerate(refs) if j != i):
                out.append(f"{path.stem}.{name}")
    return out


def _attributes(node):
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def unreached_methods():
    """module.Class.method of every method that no attribute outside its
    own body refers to."""
    trees = {path: _parse(path) for path in SRC + CALLERS}
    total = sum((_attributes(tree) for tree in trees.values()), Counter())
    out = []
    for path in SRC:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                name = node.name
                if name.startswith("__") and name.endswith("__"):
                    continue
                if total[name] == _attributes(node)[name]:
                    out.append(f"{path.stem}.{cls.name}.{name}")
    return out


def _taken_from(paths):
    """(module, name) for every name a file takes from a package module:
    by a from-import, or as an attribute of a module it imported."""
    out = set()
    for path in paths:
        tree = _parse(path)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = (node.module or "").split(".")[-1]
                for alias in node.names:
                    out.add((source, alias.name))
                    modules[alias.asname or alias.name] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                out.add((modules[node.value.id], node.attr))
    return out


def unused_imports():
    """module.name of every name a package module imports and neither
    uses nor passes on: a re-export counts once another file (the unit
    tests included) takes the name from it."""
    tests = sorted((ROOT / "tests").glob("*.py"))
    taken = _taken_from(SRC + CALLERS + tests)
    out = []
    for path in SRC:
        tree = _parse(path)
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used and (path.stem, bound) not in taken:
                        out.append(f"{path.stem}.{bound}")
    return out


def test_every_top_level_name_is_reached():
    missing = [name for name in unreached() if name not in ALLOWED]
    assert not missing, "reached by nothing: " + ", ".join(missing)


def test_every_method_is_reached():
    missing = [name for name in unreached_methods() if name not in ALLOWED]
    assert not missing, "reached by nothing: " + ", ".join(missing)


def test_the_allow_list_names_only_unreached_names():
    assert ALLOWED <= set(unreached()) | set(unreached_methods())


def test_every_import_in_the_package_is_used():
    unused = unused_imports()
    assert not unused, "imported and never used: " + ", ".join(unused)
