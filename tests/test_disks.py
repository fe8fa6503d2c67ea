"""Fan disks: construction, classification, panel checking, patches."""

import random
from fractions import Fraction

import pytest

from plgraph.crosscheck import fan_contact_features, panel_check_bruteforce
from plgraph.disks import (
    FanDisk,
    TriPatch,
    cone,
    disk_disk_classify,
    panel_check,
)
from plgraph.errors import BoundaryMismatchError, FanConstructionError
from plgraph.exactgeom import ExactPoint, Segment, segment_segment_classify
from plgraph.graphs import LinearEmbedding, SpatialGraph
from plgraph.scene import sphere_point

P = ExactPoint
O = P(0, 0, 0)


class TestCone:
    def test_triangle_count_is_rim_minus_one(self):
        d = cone(O, [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
        assert d.n_triangles == 2

    def test_chord_through_apex_rejected(self):
        with pytest.raises(FanConstructionError) as exc:
            cone(O, [P(1, 0, 0), P(-1, 0, 0)])
        assert exc.value.reason == "degenerate-triangle"

    def test_figure_eight_rim_rejected(self):
        # Six near-sphere points whose polyline crosses itself; the chord
        # crossing is confirmed independently with the segment predicate.
        rim = [
            sphere_point(80, 0), sphere_point(80, 60), sphere_point(40, 30),
            sphere_point(40, 90), sphere_point(80, 30), sphere_point(80, 120),
        ]
        crossings = 0
        for i in range(5):
            for j in range(i + 2, 5):
                r = segment_segment_classify(
                    Segment(rim[i], rim[i + 1]), Segment(rim[j], rim[j + 1])
                )
                crossings += r.kind != "disjoint"
        assert crossings > 0
        with pytest.raises(FanConstructionError) as exc:
            cone(O, rim)
        assert exc.value.reason == "self-intersecting"

    def test_duplicate_rim_point_rejected(self):
        with pytest.raises(FanConstructionError):
            cone(O, [P(1, 0, 0), P(0, 1, 0), P(1, 0, 0)])

    def test_positive_area_triangles(self):
        rng = random.Random(5)
        d = cone(O, [sphere_point(30 + 10 * k, 25 * k) for k in range(8)])
        assert d.n_triangles == 7
        for t in d.triangles:
            assert not t.normal.is_zero()

    def test_closed_fan(self):
        d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0), P(0, -2, 0)], closed=True)
        assert d.n_triangles == 4
        assert d.feature_is_interior(("apex",))
        assert d.feature_is_interior(("spoke", 0))
        assert not d.feature_is_interior(("rim", 0))

    def test_boundary_segments(self):
        d = cone(O, [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
        segs = d.boundary_segments()
        # Rim polyline plus the two extreme spokes for an open fan.
        assert len(segs) == 4
        assert segs[-2].a == O and segs[-1].b == O
        closed = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0), P(0, -2, 0)],
                      closed=True)
        assert len(closed.boundary_segments()) == 4


FAN = cone(O, [P(1, 0, 0), P(0, 1, 0)])


class TestDiskSegment:
    def test_transversal_through_open_triangle(self):
        r = FAN.classify_segment(
            Segment(P(Fraction(1, 3), Fraction(1, 3), -1), P(Fraction(1, 3), Fraction(1, 3), 1))
        )
        assert r.kind == "meets-interior"
        assert r.witness == P(Fraction(1, 3), Fraction(1, 3), 0)

    def test_apex_is_boundary_of_open_fan(self):
        r = FAN.classify_segment(Segment(P(0, 0, -1), P(0, 0, 1)))
        assert r.kind == "boundary-only"
        assert r.boundary_features() == (("apex",),)

    def test_far_segment_disjoint(self):
        r = FAN.classify_segment(Segment(P(5, 5, -1), P(5, 5, 1)))
        assert r.kind == "disjoint"

    def test_inner_spoke_crossing_counts_as_interior(self):
        d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0)])
        # Crosses the middle spoke (0,1,0)-direction strictly inside.
        r = d.classify_segment(Segment(P(0, 1, -1), P(0, 1, 1)))
        assert r.kind == "meets-interior"
        assert any(c.feature == ("spoke", 1) for c in r.contacts)

    def test_outer_spoke_is_boundary(self):
        d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0)])
        r = d.classify_segment(Segment(P(1, 0, -1), P(1, 0, 1)))
        assert r.kind == "boundary-only"
        assert r.boundary_features() == (("spoke", 0),)

    def test_apex_of_closed_fan_is_interior(self):
        d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0), P(0, -2, 0)], closed=True)
        r = d.classify_segment(Segment(P(0, 0, -1), P(0, 0, 1)))
        assert r.kind == "meets-interior"

    def test_shared_spoke_touch_reported_once(self):
        d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 0)])
        r = d.classify_segment(Segment(P(0, 1, -1), P(0, 1, 1)))
        assert len([c for c in r.contacts if c.feature == ("spoke", 1)]) == 1

    def test_agrees_with_independent_route(self):
        from plgraph.exactgeom import segment_triangle_classify

        rng = random.Random(2025)
        rim = [sphere_point(35 + 11 * k, 30 * k) for k in range(7)]
        d = cone(O, rim)
        for _ in range(250):
            a = P(Fraction(rng.randint(-20, 20), 10),
                  Fraction(rng.randint(-20, 20), 10),
                  Fraction(rng.randint(-20, 20), 10))
            b = P(Fraction(rng.randint(-20, 20), 10),
                  Fraction(rng.randint(-20, 20), 10),
                  Fraction(rng.randint(-20, 20), 10))
            if a == b:
                continue
            seg = Segment(a, b)
            res = d.classify_segment(seg)
            meets, features, _w = fan_contact_features(d, seg)
            assert meets == (res.kind == "meets-interior")
            assert features == set(c.feature for c in res.contacts)
            if res.kind == "meets-interior":
                # Recompute per triangle: an interior verdict requires an
                # interior-cross / coplanar-overlap against some fan triangle
                # or a contact on an open shared spoke.
                per_tri = {segment_triangle_classify(seg, t).kind for t in d.triangles}
                spoke_hit = any(
                    c.feature[0] == "spoke" and d.feature_is_interior(c.feature)
                    for c in res.contacts
                )
                assert ({"interior-cross", "coplanar-overlap"} & per_tri) or spoke_hit

    def test_json_round_trip(self):
        d = cone(O, [sphere_point(35 + 11 * k, 30 * k) for k in range(5)])
        back = FanDisk.from_jsonable(d.to_jsonable())
        assert back.apex == d.apex and back.rim == d.rim and back.closed == d.closed

    @pytest.mark.parametrize("closed", [False, True])
    def test_degenerate_configurations_match_independent_route(self, closed):
        # Segments between exactly-degenerate landmarks: apex, rim vertices,
        # spoke and chord midpoints (scaled inside/outside), centroids.
        # Every zero-sign branch of the fast path gets exercised.
        from itertools import combinations

        half = Fraction(1, 2)
        if closed:
            d = cone(O, [P(2, 0, 0), P(0, 2, 0), P(-2, 0, 1), P(0, -2, 0)],
                     closed=True)
        else:
            d = cone(O, [sphere_point(40 + 12 * k, 33 * k) for k in range(6)])
        pts = [d.apex] + list(d.rim)
        m = len(d.rim)
        for r in d.rim:
            pts += [r.scale(half), r.scale(Fraction(3, 2))]
        for i in range(d.n_triangles):
            a, b = d.rim[i], d.rim[(i + 1) % m]
            mid = a + (b - a).scale(half)
            pts += [mid, mid.scale(2)]
        for t in d.triangles:
            pts.append((t.p + t.q + t.r).scale(Fraction(1, 3)))
        pts += [P(3, 3, 3), P(-2, 1, -1)]
        for a, b in combinations(pts, 2):
            if a == b:
                continue
            seg = Segment(a, b)
            res = d.classify_segment(seg)
            meets, feats, _w = fan_contact_features(d, seg)
            assert meets == (res.kind == "meets-interior")
            assert feats == set(c.feature for c in res.contacts)


class TestDiskDisk:
    def test_apex_sharing_fans(self):
        d1 = cone(O, [P(1, 0, 1), P(0, 1, 1)])
        d2 = cone(O, [P(-1, 0, -1), P(0, -1, -1)])
        r = disk_disk_classify(d1, d2)
        assert r.kind == "single-point"
        assert r.point == O
        assert r.on_boundary_1 and r.on_boundary_2

    def test_coplanar_overlapping_fans(self):
        d1 = cone(O, [P(2, 0, 0), P(0, 2, 0)])
        d2 = cone(P(1, 0, 0), [P(3, 0, 0), P(0, 3, 0)])
        assert disk_disk_classify(d1, d2).kind == "larger-intersection"

    def test_disjoint_fans(self):
        d1 = cone(O, [P(1, 0, 0), P(0, 1, 0)])
        d2 = cone(P(0, 0, 5), [P(1, 0, 5), P(0, 1, 5)])
        assert disk_disk_classify(d1, d2).kind == "disjoint"

    def test_symmetry(self):
        cases = [
            (cone(O, [P(1, 0, 1), P(0, 1, 1)]), cone(O, [P(-1, 0, -1), P(0, -1, -1)])),
            (cone(O, [P(2, 0, 0), P(0, 2, 0)]), cone(P(1, 0, 0), [P(3, 0, 0), P(0, 3, 0)])),
            (cone(O, [P(1, 0, 0), P(0, 1, 0)]), cone(P(0, 0, 5), [P(1, 0, 5), P(0, 1, 5)])),
        ]
        for d1, d2 in cases:
            r12 = disk_disk_classify(d1, d2)
            r21 = disk_disk_classify(d2, d1)
            assert r12.kind == r21.kind
            if r12.kind == "single-point":
                assert r12.point == r21.point
                assert (r12.on_boundary_1, r12.on_boundary_2) == (
                    r21.on_boundary_2, r21.on_boundary_1)

    def test_distinct_apexes_single_point(self):
        d1 = cone(O, [P(2, 0, 0), P(0, 2, 0)])
        d2 = cone(P(1, 1, 0), [P(1, 1, 2), P(2, 2, 2)])
        r = disk_disk_classify(d1, d2)
        assert r.kind == "single-point"
        assert r.point == P(1, 1, 0)


def square_panel_fixture():
    sq = [P(0, 0, 0), P(2, 0, 0), P(2, 2, 0), P(0, 2, 0)]
    g = SpatialGraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
    emb = LinearEmbedding(g, dict(enumerate(sq)))
    d = cone(P(1, 1, 0), sq, closed=True)
    return d, emb, [0, 1, 2, 3]


class TestPanelCheck:
    def test_square_is_paneled(self):
        d, emb, cycle = square_panel_fixture()
        assert panel_check(d, emb, cycle).kind == "paneled"

    def test_crossing_edge_violates(self):
        d, emb, cycle = square_panel_fixture()
        g = SpatialGraph([0, 1, 2, 3, 4, 5],
                         [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
        pos = dict(emb.position)
        pos[4] = P(1, Fraction(1, 2), -1)
        pos[5] = P(1, Fraction(1, 2), 1)
        emb2 = LinearEmbedding(g, pos)
        res = panel_check(d, emb2, cycle)
        assert res.kind == "violated"
        assert res.witness[0] == "edge"
        assert res.witness[1] == (4, 5)

    def test_rim_omitting_a_vertex_is_boundary_mismatch(self):
        _d, emb, cycle = square_panel_fixture()
        bad = cone(P(1, 1, 0), [P(0, 0, 0), P(2, 0, 0), P(2, 2, 0)])
        with pytest.raises(BoundaryMismatchError):
            panel_check(bad, emb, cycle)

    def test_open_fan_panel_with_apex_on_cycle(self):
        # Boundary cycle passing through the apex: the open fan's boundary.
        rim = [P(2, 0, 0), P(2, 2, 0), P(0, 2, 0)]
        d = cone(O, rim)
        g = SpatialGraph(["v", 0, 1, 2],
                         [("v", 0), (0, 1), (1, 2), (2, "v")])
        emb = LinearEmbedding(g, {"v": O, 0: rim[0], 1: rim[1], 2: rim[2]})
        assert panel_check(d, emb, ["v", 0, 1, 2]).kind == "paneled"

    def test_vertex_inside_violates(self):
        d, emb, cycle = square_panel_fixture()
        g = SpatialGraph([0, 1, 2, 3, 9], [(0, 1), (1, 2), (2, 3), (3, 0)])
        pos = dict(emb.position)
        pos[9] = P(Fraction(1, 2), Fraction(3, 2), 0)
        res = panel_check(d, LinearEmbedding(g, pos), cycle)
        assert res.kind == "violated"
        assert res.witness[0] == "vertex"

    def test_matches_bruteforce_on_fixture(self):
        d, emb, cycle = square_panel_fixture()
        assert panel_check_bruteforce(d, emb, cycle)[0] == "paneled"


class TestTriPatch:
    def test_strip_between_short_arcs(self):
        side_a = [sphere_point(30, 10 * k) for k in range(4)]
        side_b = [side_a[0], sphere_point(34, 10), sphere_point(34, 20), side_a[-1]]
        patch = TriPatch.between_polylines(side_a, side_b)
        assert len(patch.triangles) >= 3

    def test_segment_through_open_strip(self):
        side_a = [P(0, 0, 1), P(2, 0, 1), P(4, 0, 1)]
        side_b = [P(0, 0, 1), P(2, 2, 1), P(4, 0, 1)]
        patch = TriPatch.between_polylines(side_a, side_b)
        assert patch.segment_meets_open_patch(Segment(P(2, 1, 0), P(2, 1, 2)))
        assert not patch.segment_meets_open_patch(Segment(P(9, 9, 0), P(9, 9, 2)))
        # The outer boundary is not the open patch.
        assert not patch.segment_meets_open_patch(Segment(P(0, 0, 0), P(0, 0, 2)))
