"""Every weighted sum of a value is ``objective._weighted_sum``, added left
to right, so no value depends on the BLAS thread count.

The lint flags a BLAS product (``@``, ``np.dot``, ``.dot(``, ``np.inner``,
``np.vdot``) anywhere in ``objective`` and ``gkm``, and in the functions of
``SCOPE`` that add up a value, ``partition``'s class masses and the
farthest-point kernel in ``model`` among them.
Geometry products are out of scope: the sweep and kernel projections of
``jflat`` and its canonical line base, ``shadowed``'s float32 count product
in ``grid_coreset``, the ``eigh`` input of the j=1 starts, ``Flat``'s Gram
check, Welzl's circumsphere and ``oracle_min_flat``'s direction scan.
They place points or count them, and sum no objective.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stocenter"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
PRODUCTS = {"dot", "inner", "vdot"}

# module -> the top-level functions scanned, or None for the whole module
SCOPE = {
    "objective": None,
    "gkm": None,
    "jflat": {"weighted_flat_median_coreset"},
    "oracle": {"oracle_expected_values", "_grid_search", "oracle_solver_gkm",
               "oracle_solver_instance", "oracle_sensitivities"},
    "verification": {"_c8_found", "criterion_10"},
    "partition": {"_class_masses", "_occupied_masses"},
    "model": {"_farthest_distribution"},
}


def _is_product(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    if isinstance(node, ast.Call):
        f = node.func
        return (isinstance(f, ast.Attribute) and f.attr in PRODUCTS) or \
            (isinstance(f, ast.Name) and f.id in PRODUCTS)
    return False


def blas_products(source: str, functions=None) -> list[str]:
    """``function:line`` of each BLAS product in ``source``, within the
    top-level functions named in ``functions``, or anywhere (``<module>``
    for the function) when it is None.  A named function missing from the
    source is reported as ``function:missing``."""
    tree = ast.parse(source)
    if functions is None:
        return [f"<module>:{n.lineno}" for n in ast.walk(tree)
                if _is_product(n)]
    defs = {n.name: n for n in tree.body if isinstance(n, FUNCTIONS)}
    found = [f"{name}:missing" for name in sorted(functions - defs.keys())]
    for name in sorted(functions & defs.keys()):
        found += [f"{name}:{n.lineno}" for n in ast.walk(defs[name])
                  if _is_product(n)]
    return found


def test_no_blas_product_on_a_value_path():
    found = [f"{module}.{hit}" for module, functions in SCOPE.items()
             for hit in blas_products(
                 (PACKAGE / f"{module}.py").read_text(), functions)]
    assert found == []


# the parent versions of two value paths that summed with a BLAS dot
PARENT_EXACT_VALUE = '''
def _exact_value(instance, dists):
    return float(_farthest_weights(instance, dists) @ dists)
'''

PARENT_SCREEN = '''
def _screen(S, K, M, L_exp, eps):
    full = S.weights @ K
    mask = full > 1e-12
    return mask
'''


@pytest.mark.parametrize("source, functions, expected", [
    (PARENT_EXACT_VALUE, None, ["<module>:3"]),
    (PARENT_SCREEN, {"_screen"}, ["_screen:3"]),
    ("def f(w, x):\n    w @= x\n    return np.dot(w, x) + x.dot(w)\n",
     {"f"}, ["f:2", "f:3", "f:3"]),
    ("def f(w, x):\n    return np.inner(w, x), np.vdot(w, x), dot(w, x)\n",
     None, ["<module>:2"] * 3),
    ("def f(w, x):\n    return np.add.accumulate(w * x)[-1]\n\n"
     "def g(w, x):\n    return w @ x\n", {"f", "h"}, ["h:missing"]),
])
def test_checker_flags_blas_products(source, functions, expected):
    assert sorted(blas_products(source, functions)) == sorted(expected)
