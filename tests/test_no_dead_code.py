"""Every top-level function and class of the package, every public
method and property of its classes, and every module-level ALL_CAPS
constant is reached.

A top-level definition passes when code in ``src/stocenter`` or
``perfbench/*.py`` refers to its name (as a bare name or an attribute)
outside the definition itself, or when ``REFERENCES`` names it with its
reason: an export of ``stocenter/__init__`` alone does not.  A public
method or property passes on the first terms only; a member that only
tests reach fails.  A constant passes like a top-level definition.  Import
statements do not count as references, and the package ``__init__`` is not
scanned.

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

Every backticked identifier of ``README.md`` outside its fenced blocks that
holds an underscore or an inner capital names something the package
defines: a module, a module attribute, a class attribute or a dataclass
field.  The pipelines' info keys and ``README_ALLOWED`` are exempt.
"""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import stocenter
from stocenter.gkm import skc_pipeline
from stocenter.jflat import sjfc_pipeline
from stocenter.model import ExistentialInstance

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
              rescued: set[str]) -> list[str]:
    """``module.name`` of each top-level def, class or ALL_CAPS constant in
    ``modules`` (label -> source) that no code in ``modules`` or ``others``
    refers to outside its own definition or assignment, unless its name is
    in ``rescued``; then ``module.Class.name`` of each public method or
    property that no code in ``modules`` or ``others`` refers to outside
    its own definition."""
    trees = {label: ast.parse(src) for label, src in modules.items()}
    counts = _counts(list(trees.values()) + [ast.parse(s) for s in others])
    found, members = [], []
    for label, tree in trees.items():
        for node in tree.body:
            found += [f"{label}.{name}" for name in _constants(node)
                      if _unused(node, counts, name)
                      and name not in rescued]
            if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
                continue
            if _unused(node, counts) and node.name not in rescued:
                found.append(f"{label}.{node.name}")
            if isinstance(node, ast.ClassDef):
                members += [f"{label}.{node.name}.{member.name}"
                            for member in node.body
                            if isinstance(member, FUNCTIONS)
                            and not member.name.startswith("_")
                            and _unused(member, counts)]
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


# Definitions that only the README's API and the tests reach, each with its
# reason.  Nothing else passes on an export alone.
REFERENCES = {
    "class_mass": "the README's one-row class mass; tests check it against "
                  "the exhaustive image and exact rationals",
    "sensitivity_bruteforce": "the README's certified lower bound; tests "
                              "rebuild oracle_sensitivities from it",
    "kcenter_value": "the paper's K(P, F); tests check coresets and the "
                     "evaluators against it",
    "oracle_min_flat": "the deterministic minimum flat; tests check the "
                       "j-flat pipeline against it",
    "oracle_solver_gkm": "the grid-search optimum of a collection; tests "
                         "check solve_gkm against it",
}


def test_every_definition_is_reached():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    others = [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreached(modules, others, set(REFERENCES)) == []
    # every name kept by REFERENCES still needs it
    assert {name.rsplit(".", 1)[1]
            for name in unreached(modules, others, set())} == set(REFERENCES)


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
    assert unreached(modules, ["y = Kept", "z = Kept().size",
                               "Kept().called()", "m.STALE"], {"dead"}) == []
    # a rescued name covers a top-level definition or a constant, not a
    # member
    assert unreached(modules, [], {"dead", "Kept", "STALE"}) == \
        ["m.Kept.size", "m.Kept.called"]
    # an export is an import, not a reference: a new export-only function
    # fails unless it is rescued
    init = "from .m import dead\n"
    assert "m.dead" in unreached(modules, [init], set(REFERENCES))
    assert "m.dead" not in unreached(modules, [init], {"dead"})


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


# README names that are not package names, each with its reason.
README_ALLOWED = {
    "NaN": "a float value that the JSON reader rejects",
    "ValueError": "a Python built-in exception that the package raises",
}
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^()]*\))?")


def _names(obj, part):
    """Whether ``part`` is an attribute or a dataclass field of ``obj``."""
    return hasattr(obj, part) or dataclasses.is_dataclass(obj) and \
        part in {f.name for f in dataclasses.fields(obj)}


def unknown_names(text: str, modules: dict, allowed) -> list[str]:
    """Each backticked identifier of the markdown ``text``, outside fenced
    blocks, that holds an underscore or an inner capital, is not in
    ``allowed`` and names nothing in ``modules`` (name -> module): a
    module, an attribute of one, or an attribute or dataclass field of
    what a dotted prefix names.  A call's arguments are dropped."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    found = []
    for token in re.findall(r"`([^`]+)`", text):
        match = IDENTIFIER.fullmatch(token)
        if match is None:
            continue
        name = match.group(1)
        if "_" not in name and not re.search(r"\w[A-Z]", name) \
                or name in allowed:
            continue
        head, *rest = name.split(".")
        objs = [modules[head]] if head in modules else \
            [getattr(m, head) for m in modules.values() if hasattr(m, head)]
        for part in rest:
            objs = [getattr(o, part, None) for o in objs if _names(o, part)]
        if not objs:
            found.append(name)
    return found


def _package_modules() -> dict:
    modules = {"stocenter": stocenter}
    for info in pkgutil.iter_modules(stocenter.__path__):
        modules[info.name] = importlib.import_module(f"stocenter.{info.name}")
    return modules


def test_readme_names_only_what_exists():
    # an instance without probability mass returns the info keys at once
    inst = ExistentialInstance(points=np.zeros((1, 2)), probs=np.zeros(1))
    info_keys = set(skc_pipeline(inst, 1, 0.5)[2]) \
        | set(sjfc_pipeline(inst, 0, 0.5)[2])
    text = (ROOT / "README.md").read_text()
    assert unknown_names(text, _package_modules(),
                         info_keys | set(README_ALLOWED)) == []


@dataclasses.dataclass(frozen=True)
class _Verdict:
    tail: tuple


def test_checker_flags_names_that_are_gone():
    text = ("`CoresetBatch.tail` of `MembershipVerdict.tail`, through\n"
            "`CoresetBuilder.build(ids)` and `oracle.MAX_GRID_ENTRIES` in\n"
            "`grid_coreset`; `plain`, `np.add.accumulate`, `NaN`, `--k 7`\n"
            "and `K(P,F) <= (1+eps) K(E(P),F)` are no package names.\n"
            "```sh\nrun `Fenced_name`\n```\n`partition.Gone_name(S)`\n")
    modules = _package_modules()
    assert unknown_names(text, modules, {"NaN"}) == \
        ["MembershipVerdict.tail", "partition.Gone_name"]
    # a dataclass field resolves; an attribute under it does not
    kept = dict(modules, verdicts=type("M", (), {
        "MembershipVerdict": _Verdict}))
    assert unknown_names(text, kept, {"NaN"}) == ["partition.Gone_name"]
    assert unknown_names("`MembershipVerdict.tail.side_x`", kept, ()) == \
        ["MembershipVerdict.tail.side_x"]
