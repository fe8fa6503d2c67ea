"""Fan disks: construction, classification, panel checking, patches."""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from float_points import sphere_point
from plgraph import disks
from plgraph.crosscheck import fan_contact_features, panel_check_bruteforce
from plgraph.disks import (
    FanDisk,
    TriPatch,
    _cones_share_direction,
    cone,
    disk_disk_classify,
    panel_check,
)
from plgraph.errors import BoundaryMismatchError, ConfigError, FanConstructionError
from plgraph.exactgeom import (
    ExactPoint,
    Segment,
    Triangle,
    _locate_in_plane,
    icross,
    idot,
    orient3d,
    segment_segment_classify,
    sign,
    triangle_triangle_intersection,
)
from plgraph.graphs import LinearEmbedding, SpatialGraph

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


def reference_fan_offender(apex, rim, closed):
    """The first offending triangle pair of a fan by the plain pairwise loop,
    as FanConstructionError's witness, or None: adjacent pairs by the
    coplanar-wedge test, every other pair by _cones_share_direction."""
    dirs = [(p - apex).irep for p in rim]
    m = len(rim)
    count = m if closed else m - 1
    tris = SimpleNamespace(apex=apex, triangles=[
        Triangle(apex, rim[i], rim[(i + 1) % m]) for i in range(count)])
    for i in range(count):
        for j in range(i + 1, count):
            a, b = dirs[i], dirs[(i + 1) % m]
            c, d = dirs[j], dirs[(j + 1) % m]
            if j == i + 1 or (closed and i == 0 and j == count - 1):
                sh, p1, p2 = (b, a, d) if j == i + 1 else (a, b, c)
                n = icross(p1, sh)
                if idot(n, p2) == 0 and \
                        sign(idot(icross(sh, p1), n)) == sign(idot(icross(sh, p2), n)):
                    return ("adjacent-overlap", i, j)
            elif _cones_share_direction(a, b, c, d):
                return ("triangles-meet", i, j, FanDisk._common_point_witness(tris, i, j))
    return None


@pytest.mark.parametrize("closed", [False, True])
def test_fan_validation_matches_pairwise_reference(closed):
    """Lattice fans, where coplanar and self-intersecting pairs abound: the
    fan raises exactly the reference's first offender, or nothing."""
    lattice = [P(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-1, 2)]
    seen = set()
    for seed in range(500):
        rng = random.Random(seed)
        apex = rng.choice((O, P(0, 0, -1), P(Fraction(1, 2), 0, Fraction(-1, 3))))
        rim = rng.sample(lattice, rng.randint(3, 9))
        if rng.random() < 0.3:
            # A flat fan in the plane z = 0: adjacent pairs are coplanar.
            rim = [P(p.x, p.y, 0) for p in rim]
            apex = P(apex.x, apex.y, 0)
        try:
            cone(apex, rim, closed=closed)
            got = None
        except FanConstructionError as exc:
            if exc.reason == "degenerate-triangle":
                continue
            got = exc.witness
        want = reference_fan_offender(apex, rim, closed)
        assert got == want, (seed, apex, rim)
        seen.add(want and want[0])
    assert seen == {None, "adjacent-overlap", "triangles-meet"}


def reference_shared_apex_meeting(d1, d2):
    """The first triangle pair of two fans with a common apex that meets
    away from the apex, by the plain pairwise loop, as disk_disk_classify's
    witness ``(i, j, ev)``, or None."""
    m1, m2 = len(d1.rim), len(d2.rim)
    dirs1 = [(p - d1.apex).irep for p in d1.rim]
    dirs2 = [(p - d2.apex).irep for p in d2.rim]
    for i in range(d1.n_triangles):
        for j in range(d2.n_triangles):
            if _cones_share_direction(dirs1[i], dirs1[(i + 1) % m1],
                                      dirs2[j], dirs2[(j + 1) % m2]):
                return (i, j, triangle_triangle_intersection(d1.triangles[i], d2.triangles[j]))
    return None


@pytest.mark.parametrize("closed", [False, True])
def test_shared_apex_classification_matches_pairwise_reference(closed):
    """Lattice fan pairs with a common apex, the first one open or closed,
    the second either: the same witness as the reference, or a single point
    at the apex."""
    lattice = [P(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-1, 2)]
    outcomes = set()
    for seed in range(1000):
        rng = random.Random(seed)
        apex = rng.choice((O, P(0, 0, -1), P(Fraction(1, 2), 0, Fraction(-1, 3))))
        try:
            d1 = cone(apex, rng.sample(lattice, rng.randint(3, 7)), closed=closed)
            d2 = cone(apex, rng.sample(lattice, rng.randint(3, 7)), closed=rng.random() < 0.5)
        except FanConstructionError:
            continue
        got = disk_disk_classify(d1, d2)
        want = reference_shared_apex_meeting(d1, d2)
        if want is None:
            assert (got.kind, got.point) == ("single-point", apex), seed
            # The apex is interior to a closed fan and on an open one's boundary.
            assert (got.on_boundary_1, got.on_boundary_2) == (not d1.closed, not d2.closed), seed
        else:
            assert (got.kind, got.witness) == ("larger-intersection", want), seed
        outcomes.add(got.kind)
    assert outcomes == {"single-point", "larger-intersection"}


LATTICE = [P(x, y, z) for x in range(-2, 3) for y in range(-2, 3) for z in range(-1, 2)]


def lattice_fans(closed, seeds):
    """``(rng, fan)`` for each of ``seeds`` seeded lattice fans that
    constructs; about a third of them are flat (all in z = 0)."""
    for seed in range(seeds):
        rng = random.Random(seed)
        apex = rng.choice((O, P(0, 0, -1), P(Fraction(1, 2), 0, Fraction(-1, 3))))
        rim = rng.sample(LATTICE, rng.randint(3, 9))
        if rng.random() < 0.3:
            rim = [P(p.x, p.y, 0) for p in rim]
            apex = P(apex.x, apex.y, 0)
        try:
            fan = cone(apex, rim, closed=closed)
        except FanConstructionError:
            continue
        yield rng, fan


def _apart(n, u, w) -> bool:
    """Do integer directions u and w lie strictly on one side of normal n?"""
    return sign(idot(n, u)) == sign(idot(n, w)) != 0


@pytest.mark.parametrize("closed", [False, True])
def test_only_pairs_no_row_settles_reach_the_cone_test(closed, monkeypatch):
    """In fan validation and in disk/disk classification, a triangle pair
    reaches _cones_share_direction only when neither triangle's two rim
    directions lie strictly on one side of the other's plane.  The fans
    hold pairs that each of the two row tests alone settles."""
    reached = []

    def recording(a, b, c, d):
        reached.append((a, b, c, d))
        return _cones_share_direction(a, b, c, d)

    monkeypatch.setattr(disks, "_cones_share_direction", recording)
    fans, only = [], {1: 0, 2: 0}
    for _rng, fan in lattice_fans(closed, 300):
        fans.append(fan)
        dirs = fan._idirs
        for i in range(fan.n_triangles):
            for j in range(i + 2, fan.n_triangles):
                first = _apart(icross(dirs[i], dirs[i + 1]), dirs[j], dirs[j + 1])
                second = _apart(icross(dirs[j], dirs[j + 1]), dirs[i], dirs[i + 1])
                if first != second:
                    only[1 if first else 2] += 1
    for d1, d2 in zip(fans, fans[1:]):
        if d1.apex == d2.apex:
            disk_disk_classify(d1, d2)
    assert min(only.values()) > 0 and reached
    for a, b, c, d in reached:
        assert not _apart(icross(a, b), c, d) and not _apart(icross(c, d), a, b)


def reference_locate_point(fan, p):
    """A point's disk feature with one orient3d plane test per triangle,
    as FanDisk.locate_point once made it."""
    if p == fan.apex:
        return ("apex",)
    for i, t in enumerate(fan.triangles):
        if orient3d(t.p, t.q, t.r, p) != 0:
            continue
        feat = _locate_in_plane(p, t)
        if feat is not None:
            return fan._map_feature(i, feat)
    return None


@pytest.mark.parametrize("closed", [False, True])
def test_locate_point_matches_orient3d_reference(closed):
    """Seeded lattice fans, flat ones included, against points on every
    disk feature, on spoke lines beyond the rim, off the carrier and at
    random half-lattice points."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    kinds = set()
    for rng, fan in lattice_fans(closed, 200):
        pts = [fan.apex]
        for r in fan.rim:
            spoke = r - fan.apex
            pts += [r, fan.apex + spoke.scale(half), fan.apex + spoke.scale(2)]
        for t in fan.triangles:
            centroid = (t.p + t.q + t.r).scale(third)
            pts += [t.q + (t.r - t.q).scale(half), centroid, centroid + t.normal]
        pts += [P(*(Fraction(rng.randint(-4, 4), 2) for _ in range(3))) for _ in range(20)]
        for p in pts:
            got = fan.locate_point(p)
            assert got == reference_locate_point(fan, p), (fan.apex, fan.rim, p)
            kinds.add(got and got[0])
    assert kinds == {None, "apex", "rimvert", "spoke", "rim", "face"}


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
        assert tuple(c.feature for c in r.contacts) == (("apex",),)

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
        assert tuple(c.feature for c in r.contacts) == (("spoke", 0),)

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

    def test_distinct_apexes_rejected(self):
        d1 = cone(O, [P(2, 0, 0), P(0, 2, 0)])
        d2 = cone(P(1, 1, 0), [P(1, 1, 2), P(2, 2, 2)])
        for a, b in ((d1, d2), (d2, d1)):
            with pytest.raises(ConfigError) as err:
                disk_disk_classify(a, b)
            assert err.value.field == "apex"

    def test_symmetry(self):
        cases = [
            (cone(O, [P(1, 0, 1), P(0, 1, 1)]), cone(O, [P(-1, 0, -1), P(0, -1, -1)])),
            (cone(O, [P(2, 0, 0), P(0, 2, 0)]), cone(O, [P(3, 1, 0), P(1, 3, 0)])),
        ]
        kinds = []
        for d1, d2 in cases:
            r12 = disk_disk_classify(d1, d2)
            r21 = disk_disk_classify(d2, d1)
            assert r12.kind == r21.kind
            kinds.append(r12.kind)
            if r12.kind == "single-point":
                assert r12.point == r21.point
                assert (r12.on_boundary_1, r12.on_boundary_2) == (
                    r21.on_boundary_2, r21.on_boundary_1)
        assert kinds == ["single-point", "larger-intersection"]

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

    def test_vertex_at_closed_fan_apex_violates_in_both_routes(self):
        d, emb, cycle = square_panel_fixture()
        g = SpatialGraph([0, 1, 2, 3, 9], [(0, 1), (1, 2), (2, 3), (3, 0)])
        emb2 = LinearEmbedding(g, {**emb.position, 9: d.apex})
        res = panel_check(d, emb2, cycle)
        want = ("violated", ("vertex", 9, ("apex",), d.apex))
        assert (res.kind, res.witness) == panel_check_bruteforce(d, emb2, cycle) == want

    @pytest.mark.parametrize("cycle, message", [
        ([0, 1], "at least 3"),
        ([0, 1, 2, 1], "revisits"),
        ([0, 1, 3, 2], "not a graph edge"),
    ], ids=["too-short", "revisits", "not-an-edge"])
    def test_malformed_cycle_is_boundary_mismatch(self, cycle, message):
        d, emb, _cycle = square_panel_fixture()
        with pytest.raises(BoundaryMismatchError, match=message):
            panel_check(d, emb, cycle)


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
