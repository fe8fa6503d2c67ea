"""The early-exit walk against ``classify_segment``: a check shared by the
scan-segment and lattice-fan tests.

``FanDisk.segment_kind(s, discount)`` must give the kind that
``classify_segment`` gives once the contact on the rim-vertex feature
``discount`` is dropped, and for a "meets-interior" name a triangle from
which ``crosscheck.fan_meets_interior`` says yes after solving that one
triangle.
"""

from plgraph import crosscheck


def solved_from(fan, seg, start):
    """``(answer, triangles solved)`` of ``fan_meets_interior`` from
    triangle ``start``."""
    solved = [0]
    solve = crosscheck._triangle_contacts

    def counted(*args):
        solved[0] += 1
        return solve(*args)

    crosscheck._triangle_contacts = counted
    try:
        answer = crosscheck.fan_meets_interior(fan, seg, start)
    finally:
        crosscheck._triangle_contacts = solve
    return answer, solved[0]


def discounted_kind(res, discount):
    """The kind of ``classify_segment``'s result ``res`` with the contact on
    ``discount`` dropped, as the scans' ``_classify_with_discount`` does."""
    kept = [c for c in res.contacts if c.feature != discount]
    return res.kind if kept else "disjoint"


def assert_walk_matches(fan, seg, res=None):
    """Compare the walk with ``classify_segment``'s result ``res`` for
    ``seg``, with no discount and with the discount of each rim vertex the
    segment touches (and of its first endpoint's, when that is one); return
    the walk's answer with no discount."""
    res = res or fan.classify_segment(seg)
    walk = fan.segment_kind(seg)
    assert walk.kind == res.kind, seg
    discounts = {c.feature for c in res.contacts if c.feature[0] == "rimvert"}
    if seg.a in fan.rim:
        discounts.add(("rimvert", fan.rim.index(seg.a)))
    for discount in discounts:
        answer = fan.segment_kind(seg, discount)
        assert answer.kind == discounted_kind(res, discount), (seg, discount)
        assert answer.triangle == (walk.triangle if answer.kind == "meets-interior" else 0)
    if walk.kind == "meets-interior":
        assert solved_from(fan, seg, walk.triangle) == (True, 1), (seg, walk)
    else:
        assert walk.triangle == 0
    return walk
