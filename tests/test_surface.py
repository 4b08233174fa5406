"""Every name the package defines is used by the package or the benchmark,
and every name a package module imports is used in that module.

A function, class, constant or method that only tests call is a second
entry point beside the one production runs.  The scan reads the code's
syntax trees: a name counts as referenced when it appears as a loaded
name, an attribute, or an imported name anywhere in ``src/semcom`` or
``perfbench`` outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "semcom").glob("*.py"))
SCANNED = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED_UNREFERENCED = {"__version__"}


def references(node):
    """Counter of the identifiers a syntax tree refers to."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found.update(sub.name.split("."))
            if sub.asname:
                found[sub.asname] += 1
    return found


def definitions(tree):
    """(qualified name, name, defining node) for what a module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.name, node
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, member.name), member.name, member
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, sub.id, node


def unreferenced_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SCANNED}
    total = Counter()
    for tree in trees.values():
        total.update(references(tree))
    missing = []
    for path in PACKAGE:
        for qualified, name, node in definitions(trees[path]):
            if total[name] - references(node)[name] <= 0:
                missing.append("%s.%s" % (path.stem, qualified))
    return missing


def test_every_package_name_is_referenced_outside_its_definition():
    missing = [
        name for name in unreferenced_names()
        if name.rsplit(".", 1)[-1] not in ALLOWED_UNREFERENCED
    ]
    assert missing == [], "referenced only by tests or by nothing: %s" % ", ".join(missing)


def unused_imports(tree):
    """Names a module imports but never loads, ``__future__`` features aside."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    loaded = {
        sub.id for sub in ast.walk(tree)
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)
    }
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def test_every_package_import_is_used_in_its_module():
    unused = [
        "%s:%d %s" % (path.name, line, name)
        for path in PACKAGE
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert unused == [], "imported but never used: %s" % ", ".join(unused)


def test_the_import_scan_flags_a_planted_unused_import():
    source = "from math import comb, gcd\nimport os.path\nimport sys as system\ngcd(4, 6)\n"
    assert unused_imports(ast.parse(source)) == [(1, "comb"), (2, "os"), (3, "system")]


def test_the_scan_sees_the_package_and_the_benchmark():
    assert {p.parent.name for p in SCANNED} == {"semcom", "perfbench"}
    assert any(p.name == "selection.py" for p in PACKAGE)
