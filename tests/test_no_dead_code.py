"""Every top-level function and class of the package is reached.

A definition passes when code in ``src/stocenter`` or ``perfbench/*.py``
refers to its name (as a bare name or an attribute) outside the definition
itself, or when ``stocenter/__init__`` exports it.  Import statements do
not count as references, and the package ``__init__`` is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stocenter"


def _references(node) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def unreached(modules: dict[str, str], others: list[str],
              exported: set[str]) -> list[str]:
    """``module.name`` of each top-level def or class in ``modules``
    (label -> source) that no code in ``modules`` or ``others`` refers to
    outside its own definition, unless its name is in ``exported``."""
    trees = {label: ast.parse(src) for label, src in modules.items()}
    counts: dict[str, int] = {}
    for tree in list(trees.values()) + [ast.parse(s) for s in others]:
        for name in _references(tree):
            counts[name] = counts.get(name, 0) + 1
    found = []
    for label, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            own = _references(node).count(node.name)
            if counts.get(node.name, 0) - own == 0 \
                    and node.name not in exported:
                found.append(f"{label}.{node.name}")
    return found


def _package_exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreached(modules, others, _package_exports()) == []


def test_checker_flags_unreached_definitions():
    modules = {"m": "def used():\n    return 1\n\n"
                    "def dead():\n    return dead() + used()\n\n"
                    "class Kept:\n    pass\n",
               "n": "import m\nx = m.used\n"}
    assert unreached(modules, [], set()) == ["m.dead", "m.Kept"]
    assert unreached(modules, ["y = Kept"], {"dead"}) == []
