"""The touch rule on a 3x3x3 integer lattice, against a brute-force reference.

On so small a lattice the hard cases dominate: folds, collinear overlaps,
repeated points, straight pass-throughs and touches at non-adjacent vertices.
The reference sends every pair through ``segment_segment_classify``, with no
bounding boxes, and applies the two exemption rules directly: consecutive
polyline segments may touch at the point between them, and two graph edges
at the position of the vertex they share.  The checks run through the
callers of the scan: the scene's polyline checks, ``ClosedPolygon``, the
linking routes' disjointness check and ``validate_embedding``.
"""

import random
import re
from itertools import combinations

from plgraph.errors import CurvesIntersectError, DegenerateGeometryError, SceneInvariantViolation
from plgraph.exactgeom import ExactPoint, Segment, segment_segment_classify
from plgraph.graphs import LinearEmbedding, SpatialGraph, validate_embedding
from plgraph.linking import ClosedPolygon, _check_disjoint
from plgraph.scene import _polyline_simple, _polylines_disjoint

CASES = 400
LATTICE = [ExactPoint(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def lattice_walk(rng, n, closed=False):
    """n lattice points, no two consecutive ones equal (cyclically if closed)."""
    while True:
        pts = [rng.choice(LATTICE)]
        while len(pts) < n:
            p = rng.choice(LATTICE)
            if p != pts[-1]:
                pts.append(p)
        if not closed or pts[0] != pts[-1]:
            return pts


def chain(points, closed):
    n = len(points)
    return [Segment(points[i], points[(i + 1) % n]) for i in range(n if closed else n - 1)]


def polyline_reference(points, other=None, closed=False):
    segs = chain(points, closed)
    others = segs if other is None else chain(other, closed)
    for i, s in enumerate(segs):
        for j in range(i + 1 if other is None else 0, len(others)):
            res = segment_segment_classify(s, others[j])
            if res.kind == "disjoint":
                continue
            if other is None and res.kind == "endpoint-touch" and (
                    (j == i + 1 and res.point == s.b)
                    or (closed and i == 0 and j == len(segs) - 1 and res.point == s.a)):
                continue
            return i, j, res
    return None


def edge_reference(emb):
    """The first offending edge pair as (validation witness, kind), or None."""
    edges = emb.graph.sorted_edges()
    for e1, e2 in combinations(edges, 2):
        res = segment_segment_classify(emb.edge_segment(e1), emb.edge_segment(e2))
        if res.kind == "disjoint":
            continue
        shared = e1 & e2
        if shared and res.kind == "endpoint-touch" \
                and res.point == emb.position[next(iter(shared))]:
            continue
        point = res.point or (res.overlap[0] if res.overlap else None)
        return ("edge-edge", tuple(e1), tuple(e2), point), res.kind
    return None


def polygon_error(pts):
    """ClosedPolygon's verdict as (i, j, kind), or None when it is simple."""
    try:
        ClosedPolygon(pts)
    except DegenerateGeometryError as exc:
        m = re.fullmatch(r"polygon not simple: segments (\d+),(\d+) \((\S+)\)", str(exc))
        assert m, str(exc)
        return int(m[1]), int(m[2]), m[3]
    return None


def cycle_embedding(pts):
    n = len(pts)
    g = SpatialGraph(range(n), [(k, (k + 1) % n) for k in range(n)])
    return LinearEmbedding(g, dict(enumerate(pts)))


def test_open_polylines():
    kinds = set()
    for seed in range(CASES):
        rng = random.Random(seed)
        pts = lattice_walk(rng, rng.randint(2, 6))
        want = polyline_reference(pts)
        try:
            _polyline_simple(pts, "walk")
            got = None
        except SceneInvariantViolation as exc:
            got = exc.witness
        assert got == want, (seed, pts)
        kinds.add(want[2].kind if want else None)
    assert kinds == {None, "endpoint-touch", "interior-cross", "collinear-overlap"}


def test_open_polyline_pairs():
    kinds = set()
    for seed in range(CASES):
        rng = random.Random(seed)
        pa = lattice_walk(rng, rng.randint(2, 4))
        pb = lattice_walk(rng, rng.randint(2, 4))
        want = polyline_reference(pa, pb)
        try:
            _polylines_disjoint(pa, pb, "pair")
            got = None
        except SceneInvariantViolation as exc:
            got = exc.witness
        assert got == want, (seed, pa, pb)
        kinds.add(want[2].kind if want else None)
    assert kinds == {None, "endpoint-touch", "interior-cross", "collinear-overlap"}


def test_closed_polygons_and_their_cycle_graphs():
    kinds = set()
    for seed in range(CASES):
        rng = random.Random(seed)
        pts = lattice_walk(rng, rng.randint(3, 6), closed=True)
        want = polyline_reference(pts, closed=True)
        got = polygon_error(pts)
        assert got == (want and (want[0], want[1], want[2].kind)), (seed, pts)
        assert (got is None) == validate_embedding(cycle_embedding(pts)).valid, (seed, pts)
        kinds.add(got and got[2])
    assert kinds == {None, "endpoint-touch", "interior-cross", "collinear-overlap"}


def test_closed_polygon_pairs():
    met = set()
    for seed in range(CASES):
        rng = random.Random(seed)
        a, b = (lattice_walk(rng, rng.randint(3, 4), closed=True) for _ in range(2))
        if polygon_error(a) is not None or polygon_error(b) is not None:
            continue
        want = polyline_reference(a, b, closed=True)
        try:
            _check_disjoint(ClosedPolygon(a), ClosedPolygon(b))
            got = None
        except CurvesIntersectError:
            got = "met"
        assert got == (want and "met"), (seed, a, b)
        met.add(got)
    assert met == {None, "met"}


def test_small_embeddings():
    kinds = set()
    for seed in range(CASES):
        rng = random.Random(seed)
        n = rng.randint(3, 6)
        g = SpatialGraph(range(n), [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        emb = LinearEmbedding(g, dict(enumerate(rng.sample(LATTICE, n))))
        want = edge_reference(emb)
        res = validate_embedding(emb)
        if want is None:
            assert res.valid or res.witness[0] == "vertex-edge", (seed, res)
        else:
            assert res.witness == want[0], (seed, res)
            kinds.add(want[1])
    assert kinds == {"endpoint-touch", "interior-cross", "collinear-overlap"}

