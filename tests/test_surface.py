"""Every name the package defines is used by the package or the benchmark,
every name a package module imports is used in that module, and every
package name the README spells out still exists.

A function, class, constant or method that only tests call is a second
entry point beside the one production runs.  The scan reads the code's
syntax trees: a name counts as referenced when it appears as a loaded
name, an attribute, or an imported name anywhere in ``src/semcom`` or
``perfbench`` outside its own definition.  The README check reads the
names in its backtick spans of the forms ``semcom.<module>.<name>`` and
``<Class>.<member>``.
"""

import ast
import re
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


def class_members(node):
    """Methods, class-body assignments and ``self`` attributes of a class."""
    members = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members.add(sub.name)
        elif (
            isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
            and isinstance(sub.value, ast.Name) and sub.value.id == "self"
        ):
            members.add(sub.attr)
    for stmt in node.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            members.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return members


def package_namespace():
    """Names bound at the top of each package module, and each class's members."""
    modules, classes = {}, {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        bound = {name for qualified, name, _ in definitions(tree) if "." not in qualified}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ClassDef):
                classes[node.name] = class_members(node)
        modules[path.stem] = bound
    return modules, classes


SEMCOM_NAME = re.compile(r"\bsemcom\.(\w+)(?:\.(\w+))?")
CLASS_MEMBER = re.compile(r"(?<![\w.])([A-Z]\w*[a-z]\w*)\.(\w+)")


def stale_readme_names(text):
    """Names in backtick spans that the package does not define, in order."""
    modules, classes = package_namespace()
    stale = []
    for span in re.findall(r"`([^`\n]+)`", text):
        for m in SEMCOM_NAME.finditer(span):
            module, name = m.groups()
            if module not in modules or (name and name not in modules[module]):
                stale.append(m.group())
        for m in CLASS_MEMBER.finditer(span):
            cls, member = m.groups()
            if member not in classes.get(cls, ()):
                stale.append(m.group())
    return stale


def test_every_package_name_the_readme_spells_out_exists():
    stale = stale_readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert stale == [], "README.md names what src/semcom does not define: %s" % ", ".join(stale)


def test_the_readme_scan_flags_planted_stale_names():
    text = (
        "`ScenarioConfig.slot_bits` and `semcom.world.default_vocabulary` are gone;\n"
        "`semcom.world.PREDICATES`, `KeyEngine.select`, `Hypothesis.care` and\n"
        "`semcom.cli` remain, `semcom.nowhere` never was, and prose names such as\n"
        "ScenarioConfig.vocabulary outside backticks are not read.\n"
    )
    assert stale_readme_names(text) == [
        "ScenarioConfig.slot_bits", "semcom.world.default_vocabulary", "semcom.nowhere",
    ]
