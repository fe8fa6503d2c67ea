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
from plgraph.exactgeom import (
    ExactPoint,
    Segment,
    _locate_in_plane,
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
    assert res.boundary_features() == (disk_feat,)
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
