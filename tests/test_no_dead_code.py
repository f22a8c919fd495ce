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

Every name an import statement of a package module binds is read
somewhere else in that module (``__future__`` imports excepted).

Every exception class of ``errors`` is raised by some package code, or is
a base of a class that is.

Every defaulted parameter of a package function or non-dunder method is
also passed by some call in ``src/stocenter``, ``perfbench/*.py`` or
``tests/*.py``: by keyword, by position (a method's positions count
``self``), or through ``*args`` or ``**kwargs``.  A call matches a
definition by name.  A function whose name is also used as a value (passed
or stored, not called) counts as passing every parameter.

Every parameter of a package function, method or nested function is read
in its body, except ``self``, ``cls`` and names that start with ``_``.
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


def _defaulted(fn, shift: int) -> list[tuple[int | None, str]]:
    """(call position, name) of each defaulted parameter of ``fn``; the
    position is None for a keyword-only one.  ``shift`` is 1 for a method,
    whose calls do not pass ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - shift, p.arg) for i, p in enumerate(positional) if i >= first]
    return out + [(None, p.arg) for p, default
                  in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]


def _call_sites(trees):
    """Per callee name: keywords passed, most positional arguments, whether
    some call splats; and the names used as values."""
    keywords, positions, splat, callees = {}, {}, set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            callees.add(id(func))
            if not isinstance(func, (ast.Name, ast.Attribute)):
                continue
            name = func.id if isinstance(func, ast.Name) else func.attr
            keywords.setdefault(name, set()).update(
                kw.arg for kw in node.keywords)
            positions[name] = max(positions.get(name, 0), len(node.args))
            if None in keywords[name] or any(
                    isinstance(a, ast.Starred) for a in node.args):
                splat.add(name)
    values = {n.id if isinstance(n, ast.Name) else n.attr
              for tree in trees for n in ast.walk(tree)
              if isinstance(n, (ast.Name, ast.Attribute))
              and isinstance(n.ctx, ast.Load) and id(n) not in callees}
    return keywords, positions, splat | values


def dead_parameters(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.function.param`` (or ``module.Class.method.param``) of each
    defaulted parameter in ``modules`` that no call in ``modules`` or
    ``others`` passes."""
    trees = {label: ast.parse(src) for label, src in modules.items()}
    keywords, positions, passes_all = _call_sites(
        list(trees.values()) + [ast.parse(s) for s in others])
    found = []
    for label, tree in trees.items():
        defs = [(f"{label}.{node.name}", node, 0) for node in tree.body
                if isinstance(node, FUNCTIONS)]
        defs += [(f"{label}.{node.name}.{member.name}", member, 1)
                 for node in tree.body if isinstance(node, ast.ClassDef)
                 for member in node.body if isinstance(member, FUNCTIONS)
                 and not (member.name.startswith("__")
                          and member.name.endswith("__"))]
        for qualname, fn, shift in defs:
            if fn.name in passes_all:
                continue
            found += [f"{qualname}.{name}" for pos, name in _defaulted(fn, shift)
                      if name not in keywords.get(fn.name, ())
                      and (pos is None or pos >= positions.get(fn.name, 0))]
    return found


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


def unused_imports(modules: dict[str, str]) -> list[str]:
    """``module.name`` of each name an import in ``modules`` binds that the
    rest of its module never reads; ``import a.b`` binds ``a``."""
    found = []
    for label, src in modules.items():
        tree = ast.parse(src)
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{label}.{name}" for name in bound if name not in read]
    return found


def test_every_import_is_used():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert unused_imports(modules) == []


def test_checker_flags_unused_imports():
    modules = {"m": "from __future__ import annotations\n"
                    "import os\nimport numpy as np\nimport a.b\n"
                    "import c.d\nfrom e import f, g as h, i\n\n"
                    "def run():\n"
                    "    from .j import k\n"
                    "    return np.zeros(1), c.d, h\n",
               "n": "import os\nos.getcwd()\n"}
    assert unused_imports(modules) == ["m.os", "m.a", "m.f", "m.i", "m.k"]


def test_every_defaulted_parameter_is_passed():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))
              + sorted((ROOT / "tests").glob("*.py"))]
    assert dead_parameters(modules, others) == []


def test_checker_flags_dead_parameters():
    modules = {"m": "def f(a, b=1, c=2, *, d=3):\n    return a\n\n"
                    "def g(a=1):\n    return a\n\n"
                    "class C:\n"
                    "    def __init__(self, x=0):\n        self.x = x\n\n"
                    "    def meth(self, a=1, b=2):\n        return a + b\n"}
    assert dead_parameters(modules, []) == \
        ["m.f.b", "m.f.c", "m.f.d", "m.g.a", "m.C.meth.a", "m.C.meth.b"]
    # by keyword, and by position: a method's calls skip self
    assert dead_parameters(modules, ["f(0, d=1)", "C().meth(5)"]) == \
        ["m.f.b", "m.f.c", "m.g.a", "m.C.meth.b"]
    assert dead_parameters(modules, ["f(0, 1, 2)", "C().meth(5, 6)"]) == \
        ["m.f.d", "m.g.a"]
    # through *args or **kwargs
    assert dead_parameters(modules, ["f(*xs)", "C().meth(**kw)"]) == ["m.g.a"]
    # used as a value
    assert dead_parameters(modules, ["h = f", "run(g)", "x.meth"]) == []


def unread_parameters(modules: dict[str, str]) -> list[str]:
    """``module.function.param`` of each parameter of a function in
    ``modules``, nested ones included, that its body never reads; ``self``,
    ``cls`` and names that start with ``_`` are exempt."""
    found = []
    for label, src in modules.items():
        for fn in ast.walk(ast.parse(src)):
            if not isinstance(fn, FUNCTIONS):
                continue
            args = fn.args
            params = [p.arg for p in args.posonlyargs + args.args
                      + [args.vararg] + args.kwonlyargs + [args.kwarg]
                      if p is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            found += [f"{label}.{fn.name}.{name}" for name in params
                      if name not in read and name not in ("self", "cls")
                      and not name.startswith("_")]
    return found


def test_every_parameter_is_read():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_parameters(modules) == []


def test_checker_flags_unread_parameters():
    modules = {"m": "def f(a, b, /, c=1, *args, d, e=2, **kw):\n"
                    "    b = c\n"
                    "    return lambda: d\n\n"
                    "def g(_x, y):\n"
                    "    def inner(z):\n        return y\n"
                    "    return inner\n\n"
                    "class C:\n"
                    "    def meth(self, v):\n        return self\n\n"
                    "    @classmethod\n"
                    "    def make(cls, *_):\n        return cls\n"}
    # assigning is not reading; a nested function or lambda reads for its
    # enclosing one, but a nested function's own parameters are checked
    assert unread_parameters(modules) == \
        ["m.f.a", "m.f.b", "m.f.args", "m.f.e", "m.f.kw", "m.inner.z",
         "m.meth.v"]


def unraised_errors(errors: str, modules: list[str]) -> list[str]:
    """Each class of the ``errors`` source that no ``raise`` in ``modules``
    names, and that no class named by one has among its bases, however
    far up."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors).body
             if isinstance(node, ast.ClassDef)}
    raised = []
    for src in modules:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)):
                    raised.append(exc.id if isinstance(exc, ast.Name)
                                  else exc.attr)
    covered = set()
    while raised:
        name = raised.pop()
        if name not in covered:
            covered.add(name)
            raised += bases.get(name, [])
    return [name for name in bases if name not in covered]


def test_every_error_class_is_raised():
    modules = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors((PACKAGE / "errors.py").read_text(), modules) == []


def test_checker_flags_unraised_error_classes():
    errors = ("class Base(Exception):\n    pass\n\n"
              "class Guard(Base):\n    pass\n\n"
              "class Deep(Guard):\n    pass\n\n"
              "class Unused(Base):\n    pass\n\n"
              "class Caught(Base):\n    pass\n")
    assert unraised_errors(errors, []) == \
        ["Base", "Guard", "Deep", "Unused", "Caught"]
    # raising a class covers it and every class above it; catching does not
    assert unraised_errors(errors, ["raise Deep('x')",
                                    "try:\n    f()\nexcept Caught:\n"
                                    "    raise\n"]) == ["Unused", "Caught"]
    assert unraised_errors(errors, ["raise errors.Unused",
                                    "raise Deep from None"]) == ["Caught"]
