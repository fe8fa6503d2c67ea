"""Abstract simple graphs with straight-line embeddings.

Covers embedding validation, edge contraction, the vertex-split construction
that re-expands a contracted vertex into two vertices on opposite sides of a
fan disk, and bounded simple-cycle enumeration with canonical deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .disks import FanDisk
from .errors import EmbeddingInvalidError, GraphStructureError
from .exactgeom import ExactPoint, Segment, boxed_segment, frac, segment_contact

Vertex = object
Edge = FrozenSet


class SpatialGraph:
    """A finite simple graph: no loops, no parallel edges."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Tuple[Vertex, Vertex]]):
        self.vertices: Set[Vertex] = set(vertices)
        self.edges: Set[Edge] = set()
        for u, w in edges:
            if u == w:
                raise GraphStructureError(f"loop at {u!r}")
            if u not in self.vertices or w not in self.vertices:
                raise GraphStructureError(f"edge {u!r}-{w!r} uses an undeclared vertex")
            self.edges.add(frozenset((u, w)))
        self._adj: Dict[Vertex, Set[Vertex]] = {v: set() for v in self.vertices}
        for e in self.edges:
            u, w = tuple(e)
            self._adj[u].add(w)
            self._adj[w].add(u)

    def neighbors(self, v: Vertex) -> Set[Vertex]:
        return set(self._adj[v])

    def has_edge(self, u: Vertex, w: Vertex) -> bool:
        return frozenset((u, w)) in self.edges

    def sorted_vertices(self) -> List[Vertex]:
        return sorted(self.vertices, key=repr)

    def sorted_edges(self) -> List[Edge]:
        return sorted(self.edges, key=lambda e: tuple(sorted(map(repr, e))))

    def __eq__(self, other):
        return (
            isinstance(other, SpatialGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self):
        return f"SpatialGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@dataclass
class LinearEmbedding:
    """A straight-line placement of a graph's vertices in R^3."""

    graph: SpatialGraph
    position: Dict[Vertex, ExactPoint]

    def __post_init__(self):
        missing = self.graph.vertices - set(self.position)
        if missing:
            raise GraphStructureError(f"positions missing for {sorted(map(repr, missing))}")

    def edge_segment(self, e: Edge) -> Segment:
        u, w = tuple(e)
        return Segment(self.position[u], self.position[w])


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    witness: Optional[tuple] = None  # ('vertex-vertex'|'edge-edge'|'vertex-edge', ..., point?)


def validate_embedding(e: LinearEmbedding) -> ValidationResult:
    """Exactly check embedding validity.

    Valid iff all vertex positions are distinct, non-adjacent edges are
    disjoint, adjacent edges meet only at their shared vertex's position, and
    no vertex lies in the relative interior of a non-incident edge.  Returns
    one concrete witness otherwise.
    """
    verts = e.graph.sorted_vertices()
    seen: Dict[ExactPoint, Vertex] = {}
    for v in verts:
        p = e.position[v]
        if p in seen:
            return ValidationResult(False, ("vertex-vertex", seen[p], v))
        seen[p] = v
    edges = e.graph.sorted_edges()
    # Degenerate edges are impossible once positions are distinct.
    segs = [boxed_segment(Segment(e.position[u], e.position[w]), (u, w))
            for u, w in map(tuple, edges)]
    hit = segment_contact(segs)
    if hit is not None:
        i, j, res = hit
        witness_pt = res.point or (res.overlap[0] if res.overlap else None)
        return ValidationResult(False, ("edge-edge", tuple(edges[i]), tuple(edges[j]), witness_pt))
    for v in verts:
        p = e.position[v]
        for ed, (seg, _, _) in zip(edges, segs):
            if v in ed:
                continue
            u = seg.b - seg.a
            w = p - seg.a
            if not u.cross(w).is_zero():
                continue
            lam = w.dot(u)
            if 0 < lam < u.dot(u):
                return ValidationResult(False, ("vertex-edge", v, tuple(ed), p))
    return ValidationResult(True)


def contract_edge(g: SpatialGraph, x: Vertex, y: Vertex, new_vertex: Vertex) -> SpatialGraph:
    """Contract edge {x, y} to a single new vertex (simple-graph semantics).

    The new vertex becomes adjacent to (N(x) union N(y)) minus {x, y};
    parallel edges produced by the identification are merged.
    """
    if not g.has_edge(x, y):
        raise GraphStructureError(f"{x!r}-{y!r} is not an edge")
    if new_vertex in g.vertices:
        raise GraphStructureError(f"vertex id {new_vertex!r} already exists")
    new_neighbors = (g.neighbors(x) | g.neighbors(y)) - {x, y}
    vertices = (g.vertices - {x, y}) | {new_vertex}
    edges = [tuple(e) for e in g.edges if x not in e and y not in e]
    edges += [(new_vertex, w) for w in new_neighbors]
    return SpatialGraph(vertices, edges)


def expand_to_psi(
    contracted: LinearEmbedding,
    v: Vertex,
    d: FanDisk,
    t,
    nx: Iterable[Vertex],
    ny: Iterable[Vertex],
) -> LinearEmbedding:
    """Split a contracted vertex back into two adjacent vertices.

    The two new vertices, ``"x"`` and ``"y"``, are placed at
    ``pos(v) +/- t * n`` where ``n`` is the (unnormalized, rational) normal
    of the fan's first triangle at its apex, so they sit strictly on
    opposite sides of that triangle's plane.  Each
    former edge ``v-w`` is replaced by ``x-w``, ``y-w``, or both, according to
    the given neighbor sets, and the edge ``x-y`` is added.  The produced
    embedding is validated; an invalid result raises (callers retry with a
    smaller ``t``).
    """
    t = frac(t)
    if t <= 0:
        raise GraphStructureError("offset t must be positive")
    if v not in contracted.graph.vertices:
        raise GraphStructureError(f"{v!r} is not a vertex of the contracted graph")
    nx = set(nx)
    ny = set(ny)
    nbrs = contracted.graph.neighbors(v)
    if nx | ny != nbrs:
        missing = sorted(map(repr, nbrs - (nx | ny)))
        extra = sorted(map(repr, (nx | ny) - nbrs))
        raise GraphStructureError(
            f"neighbor split must cover exactly N(v): missing {missing}, extra {extra}"
        )
    if "x" in contracted.graph.vertices or "y" in contracted.graph.vertices:
        raise GraphStructureError("split vertex ids collide with existing vertices")
    pos_v = contracted.position[v]
    if d.apex != pos_v:
        raise GraphStructureError("fan apex must sit at the contracted vertex's position")
    tri = d.triangles[0]
    normal = (tri.q - tri.p).cross(tri.r - tri.p)
    x_pos = pos_v + normal.scale(t)
    y_pos = pos_v - normal.scale(t)
    vertices = (contracted.graph.vertices - {v}) | {"x", "y"}
    edges = [tuple(e) for e in contracted.graph.edges if v not in e]
    edges.append(("x", "y"))
    edges += [("x", w) for w in nx]
    edges += [("y", w) for w in ny]
    position = {u: p for u, p in contracted.position.items() if u != v}
    position["x"] = x_pos
    position["y"] = y_pos
    out = LinearEmbedding(SpatialGraph(vertices, edges), position)
    res = validate_embedding(out)
    if not res.valid:
        raise EmbeddingInvalidError(
            f"split embedding invalid at t={t}: {res.witness!r}", witness=res.witness
        )
    return out


def enumerate_cycles(g: SpatialGraph, max_length: int) -> List[Tuple[Vertex, ...]]:
    """All simple cycles of length <= max_length, once per rotation/reflection.

    Each cycle is reported in canonical form: it starts at its least vertex
    and takes the lexicographically lesser of the two directions.  Vertex ids
    must be sortable against each other.
    """
    if max_length < 3:
        raise GraphStructureError("max_length must be at least 3")
    order = {v: k for k, v in enumerate(sorted(g.vertices))}
    cycles: List[Tuple[Vertex, ...]] = []

    def dfs(start, path, visited):
        last = path[-1]
        for w in sorted(g.neighbors(last), key=lambda u: order[u]):
            if w == start and len(path) >= 3:
                # Reflection dedupe: require second vertex < last vertex.
                if order[path[1]] < order[path[-1]]:
                    cycles.append(tuple(path))
                continue
            if order[w] <= order[start] or w in visited:
                continue
            if len(path) == max_length:
                continue
            visited.add(w)
            path.append(w)
            dfs(start, path, visited)
            path.pop()
            visited.remove(w)

    for start in sorted(g.vertices, key=lambda u: order[u]):
        dfs(start, [start], {start})
    cycles.sort(key=lambda c: (len(c), [order[v] for v in c]))
    return cycles
