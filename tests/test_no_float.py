"""No float reaches a predicate: a static check over the exact modules.

An AST walk over each module that computes a predicate or a verdict finds
every use of the name ``float``, every float or complex literal, and every
``math`` name other than ``gcd`` and ``lcm``.  Two modules are exempt:
``scene.py``, whose float constructors (``default_paper_config``,
``icosphere_directions``) round sines and cosines to rationals before any
predicate sees them, and ``meshio.py``, which formats OBJ output.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "plgraph"
EXACT_MODULES = ("exactgeom", "disks", "graphs", "linking", "crosscheck", "verify")
MATH_ALLOWED = {"gcd", "lcm"}


def float_uses(source: str) -> list:
    """``(line, what)`` for each float name, float literal or disallowed
    ``math`` name in the source."""
    tree = ast.parse(source)
    math_names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                  for a in node.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
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
    assert float_uses((SRC / f"{module}.py").read_text(encoding="utf-8")) == []


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
