"""One table of triangle features, checked through every route that maps
orientation or barycentric zeros to a feature.

The fan is flat (z = 0) with rim r0, r1, r2, so triangle 0 is (apex, r0, r1)
and its far spoke apex->r1 is shared with triangle 1: an interior spoke of the
open fan.  Each row names a point on one feature of triangle 0, the triangle
feature, and the disk feature it maps to.  Segments cross z = 0 only at that
point, transversally ("cross") or by ending on it ("end").
"""

import pytest

from plgraph import crosscheck
from plgraph.disks import FanDisk
from plgraph.graphs import LinearEmbedding, SpatialGraph
from plgraph.exactgeom import (
    ExactPoint,
    Segment,
    _contacts_from_signs,
    _locate_in_plane,
    orient3d,
    segment_triangle_contacts,
)

P = ExactPoint
FAN = FanDisk(P(0, 0, 0), [P(6, 0, 0), P(0, 6, 0), P(-6, 0, 0)])
TRI = FAN.triangles[0]
D = P(1, 2, 3)  # off-plane direction of every test segment

TABLE = [
    # (point on the feature, triangle feature, disk feature, disk interior?)
    (P(2, 2, 0), ("interior",), ("face", 0), True),
    (P(3, 0, 0), ("edge", 0), ("spoke", 0), False),
    (P(3, 3, 0), ("edge", 1), ("rim", 0), False),
    (P(0, 3, 0), ("edge", 2), ("spoke", 1), True),
    (P(0, 0, 0), ("vertex", 0), ("apex",), False),
    (P(6, 0, 0), ("vertex", 1), ("rimvert", 0), False),
    (P(0, 6, 0), ("vertex", 2), ("rimvert", 1), False),
]
SEGMENTS = {
    "cross": lambda x: Segment(x - D, x + D),
    "end": lambda x: Segment(x + D, x),
}


@pytest.mark.parametrize("x,tri_feat,disk_feat,interior", TABLE,
                         ids=[" ".join(map(str, row[1])) for row in TABLE])
@pytest.mark.parametrize("how", sorted(SEGMENTS))
def test_every_route_reports_the_feature(x, tri_feat, disk_feat, interior, how):
    seg = SEGMENTS[how](x)
    assert _locate_in_plane(x, TRI) == tri_feat
    contacts = segment_triangle_contacts(seg, TRI)
    assert [(c.kind, c.feature, c.point) for c in contacts] == [("point", tri_feat, x)]

    res = FAN.classify_segment(seg)
    assert tuple(c.feature for c in res.contacts) == (disk_feat,)
    assert res.contacts[0].point == x
    assert res.kind == ("meets-interior" if interior else "boundary-only")
    assert res.witness == (x if interior else None)

    meets, features, witness = crosscheck.fan_contact_features(FAN, seg)
    assert (meets, features) == (interior, {disk_feat})
    assert witness == (x if interior else None)
    assert crosscheck.fan_meets_interior(FAN, seg) == interior


def test_points_off_the_triangle_have_no_feature():
    for x in (P(-1, 0, 0), P(4, 4, 0), P(0, -1, 0), P(-3, 3, 0)):
        assert _locate_in_plane(x, TRI) is None


# Segments in the fan's plane: through two faces and the shared spoke, along
# the boundary spoke, and ending on the rim chord from outside.
COPLANAR = [
    Segment(P(-1, 1, 0), P(5, 1, 0)),
    Segment(P(0, 0, 0), P(6, 0, 0)),
    Segment(P(9, 9, 0), P(3, 3, 0)),
    Segment(P("1/2", "1/3", 0), P("7/5", "2/9", 0)),
]


def _panel_cases():
    """A closed square fan with its cycle, plus a stabbing edge, a vertex in
    the open square, or nothing extra (paneled)."""
    sq = [P(0, 0, 0), P(2, 0, 0), P(2, 2, 0), P(0, 2, 0)]
    disk = FanDisk(P(1, 1, 0), sq, closed=True)
    extras = [
        ({}, []),
        ({"u": P(1, "1/2", -1), "w": P(1, "1/2", 1)}, [("u", "w")]),
        ({"u": P("1/2", "3/2", 0)}, []),
        ({"u": P(5, 5, 5), "w": P(6, 5, 5)}, [("u", "w")]),
    ]
    cases = []
    for pos_extra, edges_extra in extras:
        pos = dict(enumerate(sq), **pos_extra)
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)] + edges_extra
        emb = LinearEmbedding(SpatialGraph(list(pos), edges), pos)
        cases.append((disk, emb, [0, 1, 2, 3]))
    return cases


def test_crosscheck_applies_no_point_operator(monkeypatch):
    """The recheck computes on coordinate triples, so it does not share the
    fast route's point arithmetic: with every ExactPoint operator disabled it
    returns exactly what it returned before."""
    segs = [make(x) for x, *_ in TABLE for make in SEGMENTS.values()] + COPLANAR
    panels = _panel_cases()

    def run():
        return ([crosscheck.fan_contact_features(FAN, s) for s in segs],
                [crosscheck.fan_meets_interior(FAN, s) for s in segs],
                [crosscheck.panel_check_bruteforce(*case) for case in panels])

    expected = run()
    assert {kind for kind, _w in expected[2]} == {"paneled", "violated"}

    def disabled(*_args):
        raise AssertionError("crosscheck applied an ExactPoint operator")

    for name in ("__add__", "__sub__", "scale", "cross", "dot"):
        monkeypatch.setattr(ExactPoint, name, disabled)
    assert run() == expected


def test_edge_signs_are_asked_for_only_on_a_proper_crossing():
    """The shared decision calls ``edge_signs`` only when the segment's ends
    lie strictly on opposite sides of the plane: a segment in the plane, one
    ending on it and one above it are decided without it."""
    def refuse():
        raise AssertionError("edge signs asked for")

    above = Segment(P(1, 1, 1), P(5, 5, 2))
    cases = COPLANAR + [SEGMENTS["end"](x) for x, *_ in TABLE] + [above]
    kinds = set()
    for seg in cases:
        da, db = (orient3d(TRI.p, TRI.q, TRI.r, e) for e in (seg.a, seg.b))
        kinds.add("coplanar" if da == db == 0 else "end in plane" if 0 in (da, db)
                  else "same side" if da == db else "crossing")
        assert _contacts_from_signs(seg, TRI, da, db, refuse) == \
            segment_triangle_contacts(seg, TRI), seg
    assert kinds == {"coplanar", "end in plane", "same side"}
    with pytest.raises(AssertionError, match="edge signs asked for"):
        _contacts_from_signs(SEGMENTS["cross"](P(2, 2, 0)), TRI, -1, 1, refuse)
