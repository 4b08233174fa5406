"""Every name the package defines is used by the package or the benchmark,
every option a package function offers is passed by some call there,
every name a package module imports is used in that module, and every
package name the README spells out still exists.

A function, class, constant or method that only tests call is a second
entry point beside the one production runs, and a defaulted parameter
that only tests pass is a setting with one production value.  The scan
reads the code's syntax trees: a name counts as referenced when it
appears as a loaded name, an attribute, or an imported name anywhere in
``src/semcom`` or ``perfbench`` outside its own definition, and a
parameter counts as passed when a call there to a function of its name
gives it by keyword, by position, or through ``*args`` or ``**kwargs``.
The README check reads the names in its backtick spans of the forms
``semcom.<module>.<name>`` and ``<Class>.<member>``, and the spans that
are one bare UPPER_CASE name of two or more characters, which must be
bound at the top of some package module.
"""

import ast
import re
from collections import Counter, defaultdict
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


def defaulted_parameters(tree):
    """(qualified name, name, parameter, call position or None) per defaulted parameter.

    A method's position skips its ``self`` or ``cls``, as calls through
    an instance or the class give it; keyword-only parameters have none.
    """
    for qualified, name, node in definitions(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = "." in qualified and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first):
            yield qualified, name, arg.arg, index - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield qualified, name, arg.arg, None


def passes(call, parameter, position):
    """Whether a call may give the parameter a value of its own."""
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def unpassed_defaults(package, scanned):
    """Defaulted parameters of the package trees that no scanned call passes."""
    calls = defaultdict(list)
    for tree in scanned:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
    return [
        "%s.%s(%s)" % (module, qualified, parameter)
        for module, tree in package
        for qualified, name, parameter, position in defaulted_parameters(tree)
        if not any(passes(call, parameter, position) for call in calls[name])
    ]


def test_every_defaulted_parameter_is_passed_by_the_package_or_the_benchmark():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SCANNED}
    unpassed = unpassed_defaults([(p.stem, trees[p]) for p in PACKAGE], trees.values())
    assert unpassed == [], "options only tests set, or none: %s" % ", ".join(unpassed)


def test_the_default_scan_flags_planted_unpassed_options():
    source = (
        "def f(a, b=1, *, c=2, d=None): pass\n"
        "class K:\n"
        "    def m(self, x=0, y=0): pass\n"
        "    @staticmethod\n"
        "    def s(x=0): pass\n"
        "f(1, 2)\nf(0, d=3)\nK().m(1)\nK.s()\n"
    )
    tree = ast.parse(source)
    assert unpassed_defaults([("mod", tree)], [tree]) == [
        "mod.f(c)", "mod.K.m(y)", "mod.K.s(x)",
    ]
    # *args may fill any position and **kwargs any keyword
    spread = ast.parse("f(*args, c=1)\nf(**options)\n")
    assert unpassed_defaults([("mod", tree)], [spread]) == [
        "mod.K.m(x)", "mod.K.m(y)", "mod.K.s(x)",
    ]


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
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]+")


def stale_readme_names(text):
    """Names in backtick spans that the package does not define, in order."""
    modules, classes = package_namespace()
    top_level = set().union(*modules.values())
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
        if CONSTANT.fullmatch(span) and span not in top_level:
            stale.append(span)
    return stale


def test_every_package_name_the_readme_spells_out_exists():
    stale = stale_readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert stale == [], "README.md names what src/semcom does not define: %s" % ", ".join(stale)


def test_the_readme_scan_flags_planted_stale_names():
    text = (
        "`ScenarioConfig.slot_bits` and `semcom.world.default_vocabulary` are gone;\n"
        "`semcom.world.PREDICATES`, `KeyEngine.select`, `Hypothesis.care` and\n"
        "`semcom.cli` remain, `semcom.nowhere` never was, and prose names such as\n"
        "ScenarioConfig.vocabulary outside backticks are not read.  `SUBSET_LOOP_MAX`\n"
        "is gone and `DEFAULT_ENUMERATION_CAP` remains; the symbols `C` and `T`,\n"
        "SUBSET_LOOP_MAX outside backticks and `C(n, K_MAX)` are not read.\n"
    )
    assert stale_readme_names(text) == [
        "ScenarioConfig.slot_bits", "semcom.world.default_vocabulary", "semcom.nowhere",
        "SUBSET_LOOP_MAX",
    ]
