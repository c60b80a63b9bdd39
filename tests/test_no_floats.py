"""Exactness guard: the arithmetic modules hold no floating point.

Every value of the engine is exact, so a float literal, a ``float(...)``
call or a ``math.sqrt``/``log``/``exp``/``isclose`` call in these modules
is a bug.  ``cli.py`` is left out on purpose: ``_random_word`` draws its
letters with probabilities, which are floats, and only ever makes inputs.
"""
import ast
import pathlib

import pytest

import framelink

MODULES = ("scalars", "algebra", "trace", "invariants", "quotients", "esystem",
           "braids", "perms")
_MATH = {"sqrt", "log", "exp", "isclose"}


def _float_uses(tree: ast.AST):
    """(line, what) for each float literal, float(...) call and inexact math call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                yield node.lineno, "float(...)"
            elif (isinstance(f, ast.Attribute) and f.attr in _MATH
                  and isinstance(f.value, ast.Name) and f.value.id == "math"):
                yield node.lineno, f"math.{f.attr}(...)"


@pytest.mark.parametrize("module", MODULES)
def test_arithmetic_module_has_no_floats(module):
    path = pathlib.Path(framelink.__file__).with_name(f"{module}.py")
    found = list(_float_uses(ast.parse(path.read_text(), filename=str(path))))
    assert found == [], f"{module}.py: {found}"


def test_guard_sees_each_kind_of_float():
    src = "x = 0.5\ny = float(2)\nz = math.sqrt(2)\nw = math.isclose(1, 1)\nv = 1j\n"
    assert [what for _, what in _float_uses(ast.parse(src))] == [
        "literal 0.5", "float(...)", "math.sqrt(...)", "math.isclose(...)", "literal 1j"]
