"""Every top-level function and class of the package, every public
method and property of its classes, and every module-level ALL_CAPS
constant is reached.

A top-level definition passes when code in ``src/stocenter`` or
``perfbench/*.py`` refers to its name (as a bare name or an attribute)
outside the definition itself, or when ``stocenter/__init__`` exports it.
A public method or property passes when code in ``src/stocenter``,
``perfbench/*.py`` or ``tests/*.py`` refers to it outside its own
definition: some members (``GridSpec.cell_of``,
``LinearizationMap.flat_coeffs``) exist to be tested.  A constant passes
on the same terms as a method.  Import statements do not count as
references, and the package ``__init__`` is not scanned.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stocenter"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")


def _references(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _counts(sources) -> dict[str, int]:
    counts: dict[str, int] = {}
    for tree in sources:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    return counts


def _unused(node, counts, name=None) -> bool:
    name = name or node.name
    return counts.get(name, 0) - _references(node).count(name) == 0


def _constants(node) -> list[str]:
    """The ALL_CAPS names a module-level assignment binds."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and CONSTANT.match(t.id)]


def unreached(modules: dict[str, str], others: list[str],
              exported: set[str], tests: list[str] = ()) -> list[str]:
    """``module.name`` of each top-level def or class in ``modules``
    (label -> source) that no code in ``modules`` or ``others`` refers to
    outside its own definition, unless its name is in ``exported``, and
    ``module.NAME`` of each ALL_CAPS constant that no code in ``modules``,
    ``others`` or ``tests`` reads outside its own assignment, unless
    exported; then ``module.Class.name`` of each public method or property
    that no code in ``modules``, ``others`` or ``tests`` refers to outside
    its own definition."""
    trees = {label: ast.parse(src) for label, src in modules.items()}
    library = list(trees.values()) + [ast.parse(s) for s in others]
    counts = _counts(library)
    everywhere = _counts(library + [ast.parse(s) for s in tests])
    found, members = [], []
    for label, tree in trees.items():
        for node in tree.body:
            found += [f"{label}.{name}" for name in _constants(node)
                      if _unused(node, everywhere, name)
                      and name not in exported]
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            if _unused(node, counts) and node.name not in exported:
                found.append(f"{label}.{node.name}")
            if isinstance(node, ast.ClassDef):
                members += [f"{label}.{node.name}.{member.name}"
                            for member in node.body
                            if isinstance(member, FUNCTIONS)
                            and not member.name.startswith("_")
                            and _unused(member, everywhere)]
    return found + members


def _package_exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    tests = [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    assert unreached(modules, others, _package_exports(), tests) == []


def test_checker_flags_unreached_definitions():
    modules = {"m": "def used():\n    return 1\n\n"
                    "def dead():\n    return dead() + used()\n\n"
                    "class Kept:\n"
                    "    def _private(self):\n        return 0\n\n"
                    "    @property\n"
                    "    def size(self):\n        return self.size\n\n"
                    "    def called(self):\n        return 2\n\n"
                    "READ = 1\nSTALE: int = READ + 1\n_private = 3\n"
                    "lower = 4\n",
               "n": "import m\nx = m.used\n"}
    assert unreached(modules, [], set()) == \
        ["m.dead", "m.Kept", "m.STALE", "m.Kept.size", "m.Kept.called"]
    assert unreached(modules, ["y = Kept", "z = Kept().size"], {"dead"},
                     ["Kept().called()", "m.STALE"]) == []
    # a test reaches a method or a constant, but not a top-level definition
    assert unreached(modules, [], set(), ["Kept().size + dead() + STALE"]) \
        == ["m.dead", "m.Kept", "m.Kept.called"]
