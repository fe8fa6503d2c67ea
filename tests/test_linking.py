"""Linking numbers: fixtures, algorithm equivalence, and invariances."""

import random
from fractions import Fraction

import pytest

from plgraph.errors import (
    CurvesIntersectError,
    DegenerateGeometryError,
    NonGenericApexError,
    NonGenericDirectionError,
)
from plgraph.exactgeom import ExactPoint
from plgraph.graphs import LinearEmbedding, SpatialGraph, validate_embedding
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


class TestConwayGordonSachs:
    """Every embedding of K6 in space is linked: the linking numbers of its
    ten pairs of disjoint triangles have an odd sum (Conway & Gordon, "Knots
    and links in spatial graphs", 1983; Sachs 1983).  The same holds for
    K3,3,1, whose nine disjoint cycle pairs each join a triangle through the
    apex to a 4-cycle of K3,3.  Both routes agree on every pair inside
    ``pairwise_link_scan``; this checks what they agree on."""

    K6 = [(u, w) for u in range(6) for w in range(u + 1, 6)]
    K331 = [(u, w) for u in range(3) for w in range(3, 6)] + [(6, u) for u in range(6)]

    @staticmethod
    def embeddings(edges, seed, count):
        """``count`` seeded embeddings at integer points in [-50, 50]^3,
        each redrawn until it is valid."""
        rng = random.Random(seed)
        graph = SpatialGraph({v for e in edges for v in e}, edges)
        out = []
        while len(out) < count:
            pos = {v: P(*(rng.randint(-50, 50) for _ in range(3))) for v in graph.vertices}
            emb = LinearEmbedding(graph, pos)
            if validate_embedding(emb).valid:
                out.append(emb)
        return out

    @pytest.mark.parametrize("edges, max_len, pairs", [(K6, 3, 10), (K331, 4, 9)],
                             ids=["K6", "K331"])
    def test_linking_numbers_have_odd_sum(self, edges, max_len, pairs):
        for emb in self.embeddings(edges, 1983, 15):
            rep = pairwise_link_scan(emb, max_len)
            assert len(rep.pairs) == pairs
            assert sum(p.linking_number for p in rep.pairs) % 2 == 1, emb.position

    def test_mirror_negates_every_linking_number(self):
        for emb in self.embeddings(self.K6, 1984, 5):
            mirror = LinearEmbedding(emb.graph, {v: P(p.x, p.y, -p.z)
                                                 for v, p in emb.position.items()})
            rep, back = pairwise_link_scan(emb, 3), pairwise_link_scan(mirror, 3)
            assert [(p.cycle_a, p.cycle_b) for p in back.pairs] == \
                [(p.cycle_a, p.cycle_b) for p in rep.pairs]
            assert [p.linking_number for p in back.pairs] == \
                [-p.linking_number for p in rep.pairs]
