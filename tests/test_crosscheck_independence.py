"""The independent route stays independent: a static check of crosscheck.py.

``crosscheck`` recomputes what the fast route decides, with its own
formulas, so that a bug in one route shows up as a disagreement.  An AST
walk over the module checks that it takes only ``FanDisk``, ``ExactPoint``
and ``Segment`` from plgraph, reads no underscore attribute of another
object (a fan's cached integer tables, say), reads no point's ``irep`` (the
canonical integers the fast route computes on), and names none of the fast
route's predicates.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "plgraph"
IMPORTS_ALLOWED = {"FanDisk", "ExactPoint", "Segment"}
FAST_ROUTE_NAMES = {"classify_segment", "orient3d", "icross", "idot", "sign",
                    "edge_sign_feature", "segment_triangle_contacts", "plane_crossing",
                    "locate_point", "edge_side", "_contacts_from_signs"}


def dependence(source: str) -> list:
    """``(line, what)`` for each plgraph import beyond the allowed names,
    each read of an underscore attribute or of ``irep``, and each fast-route
    name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("plgraph")):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name not in IMPORTS_ALLOWED]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names
                      if a.name.split(".")[0] == "plgraph"]
        elif isinstance(node, ast.Attribute) and (node.attr == "irep" or (
                node.attr.startswith("_") and not node.attr.startswith("__"))):
            found.append((node.lineno, f".{node.attr}"))
        name = node.attr if isinstance(node, ast.Attribute) else \
            node.id if isinstance(node, ast.Name) else \
            node.name if isinstance(node, (ast.FunctionDef, ast.alias)) else None
        if name in FAST_ROUTE_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_crosscheck_depends_on_no_fast_route_code():
    assert dependence((SRC / "crosscheck.py").read_text(encoding="utf-8")) == []


def test_the_walk_finds_each_kind_of_dependence():
    source = (
        "from .disks import FanDisk, _side_rows\n"
        "from plgraph.exactgeom import Segment, orient3d\n"
        "import plgraph.disks\n"
        "rows = fan._idirs\n"
        "res = fan.classify_segment(seg)\n"
        "s = sign(3)\n"
        "def idot(u, v):\n"
        "    return exactgeom.icross(u, v)\n"
        "X, Y, Z, D = fan.apex.irep\n"
        "c = exactgeom.segment_triangle_contacts(seg, tri) or fan.locate_point(p)\n"
    )
    assert dependence(source) == [
        (1, "import _side_rows"), (2, "import orient3d"), (2, "orient3d"),
        (3, "import plgraph.disks"), (4, "._idirs"), (5, "classify_segment"),
        (6, "sign"), (7, "idot"), (8, "icross"), (9, ".irep"),
        (10, "locate_point"), (10, "segment_triangle_contacts"),
    ]
