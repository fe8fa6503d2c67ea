"""The fast route computes on integers: a static check over the kernel and
the fan classifier.

An AST walk over ``exactgeom.py`` and ``disks.py`` finds every place where a
Fraction can be made on the way to a verdict: a ``Fraction(...)`` call, a
true division ``/`` (``int / int`` is a float, which ``test_no_float.py``
cannot see, and ``Fraction / int`` is a Fraction), and a call of ``.dot``,
``.norm2`` or ``.scale``, the ``ExactPoint`` methods that return or take
Fractions.  Such a site is allowed only inside a named scope of
``exactgeom``, and ``disks`` has none:

* ``ExactPoint``: its Fraction views ``x``, ``y``, ``z`` and its arithmetic
  for callers outside the kernel;
* ``frac``, which coerces inputs to Fraction.

Witness midpoints come from the integer ``midpoint``, and the patch zigzag
compares its walked fractions by cross-multiplying.

A scope is the dotted path of the classes and functions around a site, and a
name in the list allows everything nested in it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "plgraph"
CHECKED_MODULES = ("exactgeom", "disks")
ALLOWED_SCOPES = {"exactgeom": ("ExactPoint", "frac"), "disks": ()}
FRACTION_METHODS = {"dot", "norm2", "scale"}


def fraction_uses(source: str, allowed=()) -> list:
    """``(line, what, scope)`` for each ``Fraction(...)`` call, true
    division and call of a Fraction-valued point method in the source,
    outside the scopes named in ``allowed``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if not any(scope == a or scope.startswith(a + ".") for a in allowed):
            what = None
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                if name == "Fraction":
                    what = "Fraction()"
                elif isinstance(f, ast.Attribute) and f.attr in FRACTION_METHODS:
                    what = f".{f.attr}()"
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                what = "/"
            if what is not None:
                found.append((node.lineno, what, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


@pytest.mark.parametrize("module", CHECKED_MODULES)
def test_fast_route_makes_no_fraction(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert fraction_uses(source, ALLOWED_SCOPES[module]) == []


def test_fan_module_imports_no_fractions():
    tree = ast.parse((SRC / "disks.py").read_text(encoding="utf-8"))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    imported |= {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    assert "fractions" not in imported


def test_the_walk_finds_each_kind_of_use():
    source = (
        "from fractions import Fraction\n"
        "import fractions\n"
        "h = Fraction(1, 2) + fractions.Fraction(3)\n"
        "def crossing(a, b, n):\n"
        "    t = a.dot(n) / b.norm2()\n"
        "    t /= 2\n"
        "    return a + b.scale(t)\n"
        "class Point:\n"
        "    def half(self):\n"
        "        return self.scale(Fraction(1, 2))\n"
        "    x = property(lambda self: self.irep[0] / self.irep[3])\n"
        "q = 7 // 2\n"
    )
    assert fraction_uses(source) == [
        (3, "Fraction()", ""), (3, "Fraction()", ""),
        (5, ".dot()", "crossing"), (5, ".norm2()", "crossing"), (5, "/", "crossing"),
        (6, "/", "crossing"), (7, ".scale()", "crossing"),
        (10, ".scale()", "Point.half"), (10, "Fraction()", "Point.half"),
        (11, "/", "Point"),
    ]
    assert fraction_uses(source, ("crossing", "Point.half")) == [
        (3, "Fraction()", ""), (3, "Fraction()", ""), (11, "/", "Point")]
    assert fraction_uses(source, ("Point", "crossing.other")) == [
        (3, "Fraction()", ""), (3, "Fraction()", ""),
        (5, ".dot()", "crossing"), (5, ".norm2()", "crossing"), (5, "/", "crossing"),
        (6, "/", "crossing"), (7, ".scale()", "crossing"),
    ]
