"""Linking numbers: fixtures, algorithm equivalence, and invariances."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from plgraph import linking
from plgraph.errors import (
    CurvesIntersectError,
    DegenerateGeometryError,
    NonGenericApexError,
    NonGenericDirectionError,
)
from plgraph.exactgeom import ExactPoint
from plgraph.graphs import LinearEmbedding, SpatialGraph, enumerate_cycles, validate_embedding
from plgraph.linking import (
    ClosedPolygon,
    find_generic_apex,
    find_generic_direction,
    linking_number_cone,
    linking_number_projection,
    pairwise_link_scan,
)

P = ExactPoint

SQUARE = ClosedPolygon([P(1, 1, 0), P(-1, 1, 0), P(-1, -1, 0), P(1, -1, 0)])
THREADED = ClosedPolygon([P(0, 0, 0), P(1, 0, 1), P(2, 0, 0), P(1, 0, -1)])
FAR = ClosedPolygon([P(10, 0, 0), P(11, 0, 1), P(12, 0, 0), P(11, 0, -1)])


def lk_both(a, b):
    d = find_generic_direction(a, b)
    lp = linking_number_projection(a, b, d)
    apex = find_generic_apex(a, b)
    lc = linking_number_cone(a, apex, b)
    assert lp == lc, f"projection {lp} != cone {lc}"
    return lp


class TestFixtures:
    def test_threaded_square_links_once(self):
        # Frozen from both algorithms agreeing on this orientation.
        assert lk_both(SQUARE, THREADED) == 1

    def test_separated_squares_unlinked(self):
        assert lk_both(SQUARE, FAR) == 0
        shifted = ClosedPolygon([p + P(10, 0, 0) for p in SQUARE.points])
        assert lk_both(SQUARE, shifted) == 0

    def test_direction_parallel_to_an_edge_is_rejected(self):
        with pytest.raises(NonGenericDirectionError):
            linking_number_projection(SQUARE, THREADED, P(1, 0, 0))

    def test_apex_on_curve_is_rejected(self):
        with pytest.raises(NonGenericApexError):
            linking_number_cone(SQUARE, P(0, 0, 0), THREADED)

    def test_intersecting_curves_rejected(self):
        # First edge passes through (0, 1, 0), an interior point of the
        # square's top edge.
        crossing = ClosedPolygon([P(0, 1, -1), P(0, 1, 1), P(3, 1, 1), P(3, 1, -1)])
        with pytest.raises(CurvesIntersectError):
            linking_number_projection(SQUARE, crossing, P(1, 2, 4))
        with pytest.raises(CurvesIntersectError):
            linking_number_cone(SQUARE, P(9, 8, 7), crossing)

    def test_polygon_must_be_simple(self):
        with pytest.raises(DegenerateGeometryError):
            ClosedPolygon([P(0, 0, 0), P(2, 2, 0), P(2, 0, 0), P(0, 2, 0)])

    def test_triple_point_in_projection_is_rejected(self):
        # Two separate edges of b cross the square's top edge at the same
        # projected point (0, 1) when projecting along z.
        b = ClosedPolygon([
            P(0, 0, 1), P(0, 2, 1),
            P(Fraction(-1, 2), Fraction(3, 2), 2),
            P(Fraction(1, 2), Fraction(1, 2), 2),
        ])
        with pytest.raises(NonGenericDirectionError) as exc:
            linking_number_projection(SQUARE, b, P(0, 0, 1))
        assert "triple point" in str(exc.value)

    def test_fold_back_projection_is_rejected(self):
        # The middle vertex folds the projected path back onto itself.
        folded = ClosedPolygon([P(0, 0, 5), P(2, 0, 6), P(1, 0, 7)])
        with pytest.raises(NonGenericDirectionError):
            linking_number_projection(SQUARE, folded, P(0, 0, 1))


class TestInvariances:
    def test_direction_invariance(self):
        values = set()
        for q in ((1, 2, 4), (1, 3, 9), (1, 5, 25), (2, 3, 5), (7, 1, 2),
                  (1, 7, 49), (3, 1, 11), (5, 2, 1), (1, 11, 121), (2, 7, 3)):
            try:
                values.add(linking_number_projection(SQUARE, THREADED, P(*q)))
            except NonGenericDirectionError:
                continue
        assert values == {1}

    def test_symmetry(self):
        assert lk_both(SQUARE, THREADED) == lk_both(THREADED, SQUARE)

    def test_orientation_reversal_negates(self):
        assert lk_both(SQUARE.reversed(), THREADED) == -1
        assert lk_both(SQUARE, THREADED.reversed()) == -1
        assert lk_both(SQUARE.reversed(), THREADED.reversed()) == 1

    def test_subdividing_an_edge_preserves_value(self):
        pts = list(THREADED.points)
        mid = pts[0] + (pts[1] - pts[0]).scale(Fraction(1, 2))
        subdivided = ClosedPolygon([pts[0], mid] + pts[1:])
        assert lk_both(SQUARE, subdivided) == 1
        pts2 = list(SQUARE.points)
        mid2 = pts2[2] + (pts2[3] - pts2[2]).scale(Fraction(3, 7))
        assert lk_both(ClosedPolygon(pts2[:3] + [mid2] + pts2[3:]), THREADED) == 1


def random_polygon(rng, center, spread=4, max_pts=12):
    while True:
        n = rng.randint(3, max_pts)
        pts = [
            P(
                center[0] + Fraction(rng.randint(-spread * 6, spread * 6), 6),
                center[1] + Fraction(rng.randint(-spread * 6, spread * 6), 6),
                center[2] + Fraction(rng.randint(-spread * 6, spread * 6), 6),
            )
            for _ in range(n)
        ]
        try:
            return ClosedPolygon(pts)
        except DegenerateGeometryError:
            continue


def threaded_pair(rng):
    """A ring around the z-axis and a loop threading through it, jittered.

    The loop's first edge runs vertically through the ring's middle; the
    other two edges return around the outside.
    """
    def j():
        return Fraction(rng.randint(-2, 2), 16)

    ring = ClosedPolygon([
        P(2 + j(), 0 + j(), j()), P(j(), 2 + j(), j()),
        P(-2 + j(), j(), j()), P(j(), -2 + j(), j()),
    ])
    loop = ClosedPolygon([
        P(j(), j(), Fraction(-3, 2) + j()),
        P(j(), j(), Fraction(3, 2) + j()),
        P(5 + j(), 1 + j(), j()),
    ])
    return ring, loop


def test_algorithms_agree_on_random_disjoint_pairs():
    rng = random.Random(60901)
    checked = 0
    trials = 0
    while checked < 40 and trials < 400:
        trials += 1
        a = random_polygon(rng, (0, 0, 0))
        b = random_polygon(rng, (rng.randint(-2, 8), rng.randint(-2, 8), rng.randint(-2, 8)))
        try:
            lk_both(a, b)  # asserts agreement internally
        except CurvesIntersectError:
            continue
        checked += 1
    assert checked == 40


def test_algorithms_agree_on_threaded_pairs():
    rng = random.Random(777)
    nonzero = 0
    for _ in range(25):
        try:
            ring, loop = threaded_pair(rng)
            value = lk_both(ring, loop)
        except (CurvesIntersectError, DegenerateGeometryError):
            continue
        nonzero += value != 0
    assert nonzero >= 10  # the construction really does produce linked pairs


class TestPairwiseScan:
    def test_two_far_triangles(self):
        g = SpatialGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pos = {
            0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(0, 2, 0),
            3: P(10, 0, 0), 4: P(12, 0, 0), 5: P(10, 2, 1),
        }
        rep = pairwise_link_scan(LinearEmbedding(g, pos), 3)
        assert len(rep.pairs) == 1
        assert rep.pairs[0].linking_number == 0

    def test_hopf_positioned_triangles(self):
        g = SpatialGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pos = {
            0: P(2, 0, 0), 1: P(-1, 2, 0), 2: P(-1, -2, 0),
            3: P(1, 0, 2), 4: P(1, 0, -2), 5: P(4, 0, 0),
        }
        emb = LinearEmbedding(g, pos)
        rep = pairwise_link_scan(emb, 3)
        assert len(rep.pairs) == 1
        assert abs(rep.pairs[0].linking_number) == 1

    def test_k4_has_no_disjoint_cycle_pair(self):
        from itertools import combinations

        g = SpatialGraph(range(4), list(combinations(range(4), 2)))
        pos = {0: P(0, 0, 0), 1: P(3, 0, 0), 2: P(0, 3, 0), 3: P(0, 0, 3)}
        rep = pairwise_link_scan(LinearEmbedding(g, pos), 4)
        assert rep.pairs == ()

    def test_three_cycles_all_pairs(self):
        # Two linked squares plus a far triangle: three vertex-disjoint
        # pairs, exactly one of them linked.
        g = SpatialGraph(
            range(11),
            [(0, 1), (1, 2), (2, 3), (3, 0),
             (4, 5), (5, 6), (6, 7), (7, 4),
             (8, 9), (9, 10), (10, 8)],
        )
        pos = {
            0: P(1, 1, 0), 1: P(-1, 1, 0), 2: P(-1, -1, 0), 3: P(1, -1, 0),
            4: P(0, 0, 0) + P(0, Fraction(1, 7), 0), 5: P(1, Fraction(1, 7), 1),
            6: P(2, Fraction(1, 7), 0), 7: P(1, Fraction(1, 7), -1),
            8: P(30, 0, 0), 9: P(32, 0, 0), 10: P(30, 2, 1),
        }
        rep = pairwise_link_scan(LinearEmbedding(g, pos), 4)
        values = {(p.cycle_a, p.cycle_b): p.linking_number for p in rep.pairs}
        assert len(values) == 3
        assert sorted(abs(v) for v in values.values()) == [0, 0, 1]

    def test_report_serialization(self):
        g = SpatialGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        pos = {
            0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(0, 2, 0),
            3: P(10, 0, 0), 4: P(12, 0, 0), 5: P(10, 2, 1),
        }
        rep = pairwise_link_scan(LinearEmbedding(g, pos), 3)
        doc = rep.to_jsonable()
        assert doc["pairs"][0]["linking_number"] == 0
        assert doc["pairs"][0]["cycle_a"] == [0, 1, 2]


def _triangles(edges):
    """The triangles of a graph, each as a sorted vertex triple, in order."""
    adj = {}
    for u, w in edges:
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    return sorted({tuple(sorted((u, w, x))) for u in adj for w in adj[u] for x in adj[u] & adj[w]})


def _delta_y(edges, tri):
    """The graph with triangle ``tri``'s edges replaced by a new vertex
    joined to its three corners."""
    gone = {frozenset(e) for e in combinations(tri, 2)}
    t = max(v for e in edges for v in e) + 1
    return [e for e in edges if frozenset(e) not in gone] + [(v, t) for v in tri]


def _shape(edges):
    """Vertex count, degree sequence and triangle count: enough to tell the
    Petersen family's graphs apart."""
    degree = Counter(v for e in edges for v in e)
    return len(degree), tuple(sorted(degree.values())), len(_triangles(edges))


def delta_y_family(start):
    """Every graph that Delta-Y moves make from ``start``, one edge list per
    shape, by vertex count."""
    family, todo = {_shape(start): start}, [start]
    while todo:
        edges = todo.pop()
        for tri in _triangles(edges):
            moved = _delta_y(edges, tri)
            if _shape(moved) not in family:
                family[_shape(moved)] = moved
                todo.append(moved)
    return [family[k] for k in sorted(family)]


K6 = [(u, w) for u in range(6) for w in range(u + 1, 6)]
# K6 and, by Delta-Y moves from it, the graphs on 7 to 10 vertices of the
# Petersen family; K3,3,1, the seventh, needs a Y-Delta move.
K6_, P7, P8, K44E, P9, PETERSEN = delta_y_family(K6)


def _is_bipartite(edges):
    colour, todo = {edges[0][0]: 0}, [edges[0][0]]
    while todo:
        u = todo.pop()
        for e in edges:
            if u in e:
                w = e[1] if e[0] == u else e[0]
                if w not in colour:
                    colour[w] = 1 - colour[u]
                    todo.append(w)
                elif colour[w] == colour[u]:
                    return False
    return True


def test_delta_y_moves_make_six_of_the_petersen_family():
    assert K6_ == K6
    assert all(len(g) == 15 for g in (P7, P8, K44E, P9, PETERSEN))
    assert [_shape(g)[0] for g in (P7, P8, K44E, P9, PETERSEN)] == [7, 8, 8, 9, 10]
    # Bipartite with 15 edges and degrees 3, 3, 4, ..., 4: K4,4 less an edge.
    assert _shape(K44E)[1] == (3, 3, 4, 4, 4, 4, 4, 4) and _is_bipartite(K44E)
    # Cubic on 10 vertices with no cycle shorter than 5: the Petersen graph.
    assert _shape(PETERSEN)[1] == (3,) * 10
    assert enumerate_cycles(SpatialGraph(range(10), PETERSEN), 4) == []


class TestConwayGordonSachs:
    """Every embedding of K6 in space is linked: the linking numbers of its
    ten pairs of disjoint triangles have an odd sum (Conway & Gordon, "Knots
    and links in spatial graphs", 1983; Sachs 1983).  The same holds for
    K3,3,1, whose nine disjoint cycle pairs each join a triangle through the
    apex to a 4-cycle of K3,3, and, checked here on 15 seeded embeddings
    each, for the graphs that Delta-Y moves make from K6, among them K4,4 - e
    and the Petersen graph.  Both routes agree on every pair inside
    ``pairwise_link_scan``; this checks what they agree on."""

    K331 = [(u, w) for u in range(3) for w in range(3, 6)] + [(6, u) for u in range(6)]

    @staticmethod
    def embeddings(edges, seed, count, box=50):
        """``count`` seeded embeddings at integer points in [-box, box]^3,
        each redrawn until it is valid."""
        rng = random.Random(seed)
        graph = SpatialGraph({v for e in edges for v in e}, edges)
        out = []
        while len(out) < count:
            pos = {v: P(*(rng.randint(-box, box) for _ in range(3))) for v in graph.vertices}
            emb = LinearEmbedding(graph, pos)
            if validate_embedding(emb).valid:
                out.append(emb)
        return out

    @pytest.mark.parametrize("edges, max_len, pairs", [
        (K6, 3, 10), (K331, 4, 9), (P7, 4, 9), (P8, 5, 8), (K44E, 5, 9), (P9, 6, 7),
        (PETERSEN, 7, 6),
    ], ids=["K6", "K331", "P7", "P8", "K44-e", "P9", "Petersen"])
    def test_linking_numbers_have_odd_sum(self, edges, max_len, pairs):
        for emb in self.embeddings(edges, 1983, 15):
            rep = pairwise_link_scan(emb, max_len)
            assert len(rep.pairs) == pairs
            assert sum(p.linking_number for p in rep.pairs) % 2 == 1, emb.position

    def test_mirror_negates_every_linking_number(self):
        for emb in self.embeddings(K6, 1984, 5):
            mirror = LinearEmbedding(emb.graph, {v: P(p.x, p.y, -p.z)
                                                 for v, p in emb.position.items()})
            rep, back = pairwise_link_scan(emb, 3), pairwise_link_scan(mirror, 3)
            assert [(p.cycle_a, p.cycle_b) for p in back.pairs] == \
                [(p.cycle_a, p.cycle_b) for p in rep.pairs]
            assert [p.linking_number for p in back.pairs] == \
                [-p.linking_number for p in rep.pairs]

    def test_reversing_one_cycle_negates_its_pairs(self):
        for emb in self.embeddings(K6, 1985, 3):
            for pair in pairwise_link_scan(emb, 3).pairs:
                a, b = ([emb.position[v] for v in c] for c in (pair.cycle_a, pair.cycle_b))
                assert lk_both(ClosedPolygon(a[::-1]), ClosedPolygon(b)) == -pair.linking_number
                assert lk_both(ClosedPolygon(a), ClosedPolygon(b[::-1])) == -pair.linking_number

    def test_translation_and_scaling_keep_every_pair(self):
        rng = random.Random(1986)
        for emb in self.embeddings(K6, 1986, 5):
            shift = P(*(rng.randint(-1000, 1000) for _ in range(3)))
            values = [p.linking_number for p in pairwise_link_scan(emb, 3).pairs]
            for move in (lambda p: p + shift, lambda p: p.scale(Fraction(7, 3))):
                moved = LinearEmbedding(emb.graph, {v: move(p) for v, p in emb.position.items()})
                assert [p.linking_number for p in pairwise_link_scan(moved, 3).pairs] == values

    def test_lattice_degenerate_embeddings_have_odd_sum(self, monkeypatch):
        """K6 on the lattice [-3, 3]^3: vertices line up with edges and with
        one another, so the first projection direction or cone apex is often
        not generic, and the searches go on to later candidates."""
        tries = {"direction": 0, "apex": 0}

        def counted(name, fn):
            def wrapper(*args):
                tries[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(linking, "direction_is_generic",
                            counted("direction", linking.direction_is_generic))
        monkeypatch.setattr(linking, "linking_number_cone",
                            counted("apex", linking.linking_number_cone))
        past_first = 0
        for emb in self.embeddings(K6, 1987, 20, box=3):
            rep = pairwise_link_scan(emb, 3)
            assert len(rep.pairs) == 10
            assert sum(p.linking_number for p in rep.pairs) % 2 == 1, emb.position
            for pair in rep.pairs:
                a, b = (ClosedPolygon([emb.position[v] for v in c])
                        for c in (pair.cycle_a, pair.cycle_b))
                for name, find in (("direction", find_generic_direction),
                                   ("apex", find_generic_apex)):
                    tries[name] = 0
                    find(a, b)
                    past_first += tries[name] > 1
        assert past_first > 0
