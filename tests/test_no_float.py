"""No float reaches a predicate: a static check over the exact modules.

An AST walk over each module that computes a predicate or a verdict finds
every use of the name ``float``, every float or complex literal, and every
``math`` name other than ``gcd`` and ``lcm``.  In ``scene.py`` the walk
skips only ``icosphere_directions``, which rounds its float net to integer
numerators before any predicate sees a direction; the rest of it,
``GridSpec``, ``SceneConfig``, ``build_scene`` and the shipped configs,
which load JSON files, is checked.
``meshio.py``, which formats OBJ output, is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "plgraph"
EXACT_MODULES = ("exactgeom", "disks", "graphs", "linking", "crosscheck", "verify", "scene")
# The module-level functions whose bodies may use floats, per module.
FLOAT_CONSTRUCTORS = {
    "scene": ("icosphere_directions",),
}
MATH_ALLOWED = {"gcd", "lcm"}


def float_uses(source: str, allowed=()) -> list:
    """``(line, what)`` for each float name, float literal or disallowed
    ``math`` name in the source, outside the module-level functions named in
    ``allowed`` (and the functions nested in them)."""
    tree = ast.parse(source)
    math_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                  for a in node.names if a.name == "math"}
    checked = [top for top in tree.body
               if not (isinstance(top, ast.FunctionDef) and top.name in allowed)]
    found = []
    for node in (node for top in checked for node in ast.walk(top)):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in MATH_ALLOWED]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in math_names and node.attr not in MATH_ALLOWED:
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_exact_module_uses_no_float(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert float_uses(source, FLOAT_CONSTRUCTORS.get(module, ())) == []


def test_the_walk_finds_each_kind_of_use():
    source = (
        "import math as m\n"
        "from math import gcd, sqrt\n"
        "a = float(1)\n"
        "b = 0.5\n"
        "c = m.pi + m.lcm(2, 3)\n"
        "d = 1j\n"
    )
    assert float_uses(source) == [(2, "math.sqrt"), (3, "float"), (4, "0.5"),
                                  (5, "math.pi"), (6, "1j")]
    allowed = (
        "def rounded(x: float):\n"
        "    def unit(v):\n"
        "        return v / 2.0\n"
        "    return unit(x)\n"
        "def exact(x):\n"
        "    return x * 0.5\n"
    )
    assert float_uses(allowed, ("rounded",)) == [(6, "0.5")]
    assert float_uses(allowed) == [(1, "float"), (3, "2.0"), (6, "0.5")]
