"""JSON serialization: rationals, embeddings, configs, and reports.

Rationals are serialized as two-integer ``[numerator, denominator]`` pairs so
every round trip is bit-exact.  All writers emit canonical JSON (sorted keys,
fixed separators) so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import lcm
from typing import List

from .errors import ConfigError
from .exactgeom import ExactPoint, _point


def rat_to_json(x: Fraction) -> List[int]:
    return [x.numerator, x.denominator]


def _is_int(obj) -> bool:
    """Is ``obj`` a JSON integer?  (Python's booleans are ints; JSON's are not.)"""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _is_id(obj) -> bool:
    """Is ``obj`` a JSON string or integer, as vertex ids are?"""
    return isinstance(obj, str) or _is_int(obj)


def int_from_json(obj, field: str) -> int:
    """A JSON integer: a float, even 2.0, a boolean or a string raises
    ConfigError naming ``field`` instead of being truncated or coerced."""
    if not _is_int(obj):
        raise ConfigError(f"expected an integer, got {obj!r}", field)
    return obj


def bool_from_json(obj, field: str) -> bool:
    """A JSON boolean; anything else raises ConfigError naming ``field``."""
    if not isinstance(obj, bool):
        raise ConfigError(f"expected true or false, got {obj!r}", field)
    return obj


def _int_pair(obj, field: str) -> list:
    """A ``[numerator, denominator]`` pair of JSON integers (not booleans)
    with a nonzero denominator."""
    if not (isinstance(obj, list) and len(obj) == 2 and all(_is_int(v) for v in obj)):
        raise ConfigError("expected a [numerator, denominator] integer pair", field)
    if obj[1] == 0:
        raise ConfigError("zero denominator", field)
    return obj


def rat_from_json(obj, field: str = "rational") -> Fraction:
    n, d = _int_pair(obj, field)
    return Fraction(n, d)


def point_to_json(p: ExactPoint) -> List[List[int]]:
    return [rat_to_json(p.x), rat_to_json(p.y), rat_to_json(p.z)]


def point_from_json(obj, field: str = "point") -> ExactPoint:
    """The point of three ``[numerator, denominator]`` pairs, put straight on
    the lcm of the denominators and reduced once (pairs need not be reduced,
    and denominators may be negative)."""
    if not (isinstance(obj, list) and len(obj) == 3):
        raise ConfigError("expected three rational pairs", field)
    (x, dx), (y, dy), (z, dz) = (_int_pair(c, f"{field}[{i}]") for i, c in enumerate(obj))
    d = lcm(dx, dy, dz)
    return _point(x * (d // dx), y * (d // dy), z * (d // dz), d)


def points_from_json(obj, field: str) -> List[ExactPoint]:
    """A JSON list of points, the k-th named ``field[k]``."""
    if not isinstance(obj, list):
        raise ConfigError("expected a list of points", field)
    return [point_from_json(p, f"{field}[{k}]") for k, p in enumerate(obj)]


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def write_canonical(path, obj) -> bytes:
    data = (canonical_dumps(obj) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_dumps(obj).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Graph embeddings
# ---------------------------------------------------------------------------

def embedding_to_json(e) -> dict:
    """Schema: vertices: [{id, pos: [[n,d],[n,d],[n,d]]}], edges: [[id,id]]."""
    verts = []
    for v in sorted(e.graph.vertices, key=lambda u: (str(type(u).__name__), str(u))):
        verts.append({"id": v, "pos": point_to_json(e.position[v])})
    edges = sorted(
        (sorted(tuple(ed), key=str) for ed in e.graph.edges),
        key=lambda pair: [str(x) for x in pair],
    )
    return {"vertices": verts, "edges": [list(ed) for ed in edges]}


def embedding_from_json(obj) -> "LinearEmbedding":
    from .graphs import LinearEmbedding, SpatialGraph

    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ConfigError("embedding document needs 'vertices' and 'edges'", "embedding")
    for key in ("vertices", "edges"):
        if not isinstance(obj[key], list):
            raise ConfigError("expected a list", key)
    position = {}
    ids = []
    for k, rec in enumerate(obj["vertices"]):
        if not isinstance(rec, dict) or "id" not in rec or "pos" not in rec:
            raise ConfigError("vertex records need 'id' and 'pos'", f"vertices[{k}]")
        vid = rec["id"]
        if not _is_id(vid):
            raise ConfigError("vertex ids must be strings or integers", f"vertices[{k}].id")
        if ids and type(vid) is not type(ids[0]):
            # Ids are sorted against each other (cycle enumeration).
            raise ConfigError("vertex ids must be all strings or all integers",
                              f"vertices[{k}].id")
        if vid in position:
            raise ConfigError(f"duplicate vertex id {vid!r}", f"vertices[{k}].id")
        ids.append(vid)
        position[vid] = point_from_json(rec["pos"], f"vertices[{k}].pos")
    edges = []
    for k, pair in enumerate(obj["edges"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError("edges must be [id, id] pairs", f"edges[{k}]")
        for vid in pair:
            if not _is_id(vid):
                raise ConfigError("edge endpoints must be strings or integers", f"edges[{k}]")
            if vid not in position:
                raise ConfigError(f"edge endpoint {vid!r} is not a declared vertex", f"edges[{k}]")
        edges.append(tuple(pair))
    return LinearEmbedding(SpatialGraph(ids, edges), position)
