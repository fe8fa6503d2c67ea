"""Independent brute-force re-implementations used to cross-check results.

Everything here deliberately avoids the fast integer paths and the fan
aggregation logic in :mod:`plgraph.disks`: classifications are recomputed
with parametric plane solves and barycentric coordinates, then mapped to disk
features by separate code.  Agreement between the two routes is asserted by
the verifier and by the test suite.

Each call reads the coordinates of the points it needs as Fraction triples
and computes on those triples with the local helpers below, not with the
:class:`ExactPoint` operators or its canonical integers: the fast route runs
on those, so a bug in them would otherwise reach both routes and the routes
would agree on it.  Only the reported witness is built as an ExactPoint.
From a fan it reads only ``apex``, ``rim``, ``n_triangles``, ``closed`` and
``feature_is_interior``.

**One table per fan.**  The first call on a fan builds a :class:`_FanTable`
from the fan's ``coords()``, kept in a ``weakref.WeakKeyDictionary`` for as
long as the fan lives: the apex and rim put on the lcm L of their
denominators (the table's ``scale``), and the integer spoke vectors and
triangle normals.  The Fraction triangle tuple that the barycentric
location reads is built the first time a segment reaches that triangle's
plane, and kept: a scan reads few of a fan's triangles (a spiral benchmark
repetition at seed 1 reads 66 of its 416), and building them all made up
most of a fresh table's cost.
A call then puts a - apex and b - apex on one common denominator s of
their own, so every sign below is the sign of an integer dot, and both
heights of a segment over a triangle carry the same positive factor; the
crossing parameter h0 / (h0 - h1) does not depend on it.  The crossing
point, the barycentric location (with its ``u + w1 + w2 == n . n`` check),
the coplanar clip and the witness stay in Fractions.

**One solver per triangle.**  :func:`_triangle_contacts` solves a segment
against one fan triangle, and :func:`_contacts` feeds it each visited
triangle for both public routines.

**The cull.**  :func:`fan_contact_features` solves only the triangles that
can meet the segment.  It takes N = (a - apex) x (b - apex), the normal of
plane(apex, a, b), and the dot of N with each rim spoke.  A triangle whose
two rim points lie strictly on one side of that plane meets the plane only
at the apex; the segment lies in the plane, and when N is nonzero the apex
is not on the segment's line, so the two cannot meet.  The cull is exact,
and when N is zero (apex, a and b collinear) no dot is nonzero and every
triangle is solved.

A visited triangle whose plane the segment crosses properly (heights h0 and
h1 of strictly opposite signs) is then tested in integers
(:func:`_crossing_misses`): X = h0 ib - h1 ia, from the scaled a - apex and
b - apex, is the crossing minus the apex times s (h0 - h1), and the signs of
the crossing's three barycentric weights are those of (X x S1) . N,
(S0 x X) . N and s (h0 - h1) N . N - L (WQ + WR) (the first two are WQ and
WR), each times the sign of h0 - h1, with S0, S1 the triangle's spokes and
N its normal.  A strictly negative weight means the crossing misses the
closed triangle, which is then skipped.  The test only skips; every
surviving triangle goes to :func:`_triangle_contacts` unchanged, so every
reported feature and witness still comes from the parametric solve and
the Fraction barycentrics.  A segment with an end on the plane, or in it,
is solved as before.  Both tests are exact and the survivors are solved in
the same order, so the result is the same as a full loop's.
:func:`panel_check_bruteforce` reaches the culled route for every graph
edge.

**The start.**  :func:`fan_meets_interior` is the recheck of every equator
pair and of every star witness segment the fast route finds blocked.  It
solves the triangles first, first + 1, ... and wraps around the fan
(``first`` is taken modulo the triangle count), returning at the first
interior contact.  Its answer is an ``any`` over every triangle, so ``first``
changes how many triangles it solves before it answers, never the answer:
a "yes" is still its own solve of one triangle, and a "no" still solves
them all.  The verifier passes the triangle where the fast route's walk
first met the interior, so a "yes" solves that triangle alone; the start
is a plain int, and this module reads nothing else of the fast route's
result.

:func:`fan_meets_interior` passes ``cull=False``.  The cull would give the
same answers and speed up the "no" answers, which still solve every
triangle (most pairs of the short-arc control), but with it control-t2's
``scan_s`` went from 0.693 to 0.184 s and its ``peak_rss_mb`` from 50.50 to
60.32 MB (+19.4 %; seed 9901, one 35-s run each on a 2-core host), because
``bench/run.py`` keeps every repetition's report bytes and a faster equator
fits more repetitions: 233 instead of 87, about 67 KB each.  The 0.1 bound
leaves room for about 75 more repetitions, not 146.  The same holds for the
integer miss test, which mostly speeds up "no" answers too.  Both wait
until the benchmark keeps a digest per report.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import lcm
from typing import Optional, Set, Tuple

from .disks import FanDisk
from .exactgeom import ExactPoint, Segment


def _sub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _along(a, t, d):
    """The point a + t d."""
    return (a[0] + t * d[0], a[1] + t * d[1], a[2] + t * d[2])


def _scaled(vecs):
    """``(d, triples)``: d is the lcm of all the denominators of the Fraction
    triples ``vecs``, and the triples are ``vecs`` times d, integer triples
    every one scaled by the same positive factor."""
    d = lcm(*(c.denominator for v in vecs for c in v))
    return d, [tuple(c.numerator * (d // c.denominator) for c in v) for v in vecs]


class _FanTable:
    """What the independent route reads of one fan, computed once.

    ``apex`` is the apex's Fraction triple and ``rim`` the rim's.
    ``spokes[k]`` is the integer vector rim[k mod m] - apex, with the apex
    and every rim point put on ``scale``, the lcm of all their
    denominators, so that triangle i spans spokes i and i + 1.
    ``normals[i]`` is the integer normal spokes[i] x spokes[i + 1].
    :meth:`tri` gives the Fraction tuple of a triangle, built on its first
    read and kept in ``tris``."""

    __slots__ = ("apex", "rim", "scale", "spokes", "normals", "tris")

    def __init__(self, fan: FanDisk):
        m, count = len(fan.rim), fan.n_triangles
        p = fan.apex.coords()
        rim = [q.coords() for q in fan.rim]
        self.scale, (ip, *irim) = _scaled([p] + rim)
        spokes = [_sub(r, ip) for r in irim]
        self.apex = p
        self.rim = rim
        self.spokes = [spokes[k % m] for k in range(count + 1)]
        self.normals = [_cross(self.spokes[i], self.spokes[i + 1]) for i in range(count)]
        self.tris = [None] * count

    def tri(self, i: int):
        """The Fraction tuple (p, q, r, n) of triangle i = (apex, rim[i],
        rim[i+1]) with n = (q - p) x (r - p), which the barycentric location
        reads."""
        tri = self.tris[i]
        if tri is None:
            p, rim = self.apex, self.rim
            q, r = rim[i], rim[(i + 1) % len(rim)]
            tri = self.tris[i] = (p, q, r, _cross(_sub(q, p), _sub(r, p)))
        return tri

    def cut(self, n):
        """The triangles that can meet the plane through the apex with
        integer normal ``n`` away from the apex, in order: those whose two
        rim points are not strictly on one side of it.  A zero ``n`` keeps
        every triangle."""
        h = [_dot(n, s) for s in self.spokes]
        return [i for i in range(len(self.normals))
                if not ((h[i] > 0 and h[i + 1] > 0) or (h[i] < 0 and h[i + 1] < 0))]


# One table per live fan; a fan's apex and rim never change, and the entry
# goes when the fan does.
_TABLES: "weakref.WeakKeyDictionary[FanDisk, _FanTable]" = weakref.WeakKeyDictionary()


def _table(fan: FanDisk) -> _FanTable:
    table = _TABLES.get(fan)
    if table is None:
        table = _TABLES[fan] = _FanTable(fan)
    return table


def _bary_feature(u: Fraction, w1: Fraction, w2: Fraction):
    """Triangle feature from barycentric signs (u: apex weight; w1, w2: rim
    weights).  None when outside."""
    if u < 0 or w1 < 0 or w2 < 0:
        return None
    zeros = (u == 0, w1 == 0, w2 == 0)
    if zeros == (False, False, False):
        return ("interior",)
    if zeros == (True, False, False):
        return ("edge", 1)       # opposite the apex: the rim chord
    if zeros == (False, True, False):
        return ("edge", 2)       # opposite rim[i]: the far spoke
    if zeros == (False, False, True):
        return ("edge", 0)       # opposite rim[i+1]: the near spoke
    if zeros == (False, True, True):
        return ("vertex", 0)
    if zeros == (True, False, True):
        return ("vertex", 1)
    return ("vertex", 2)


def _tri_barycentric(tri, x):
    """Barycentric coordinates of an in-plane point, unnormalized but with a
    positive common scale."""
    p, q, r, n = tri
    u = _dot(_cross(_sub(q, x), _sub(r, x)), n)   # weight of p
    w1 = _dot(_cross(_sub(r, x), _sub(p, x)), n)  # weight of q
    w2 = _dot(_cross(_sub(p, x), _sub(q, x)), n)  # weight of r
    assert u + w1 + w2 == _dot(n, n)
    return u, w1, w2


def _disk_feature(fan: FanDisk, i: int, feat):
    """The disk feature of feature ``feat`` of fan triangle i (apex, rim[i],
    rim[i+1])."""
    j = (i + 1) % len(fan.rim)
    kind = feat[0]
    if kind == "interior":
        return ("face", i)
    if kind == "edge":
        return (("spoke", i), ("rim", i), ("spoke", j))[feat[1]]
    return (("apex",), ("rimvert", i), ("rimvert", j))[feat[1]]


def _triangle_contacts(table: _FanTable, i: int, a, b, d, h0, h1) -> list:
    """The ``(triangle feature, point)`` contacts of segment ab (d = b - a)
    with fan triangle i of ``table``, given the heights h0 and h1 of a and b
    over its plane, both scaled by the same positive factor.

    A segment across the plane is solved for its crossing parameter.  A
    segment in the plane is clipped by barycentric positivity; its contacts
    are the ends of the clipped piece and, when that has positive length,
    its midpoint, which lies in the open triangle or inside an edge (a
    vertex is no midpoint of two points of the triangle).  The triangle's
    Fraction tuple is read only for a segment that reaches its plane."""
    if (h0 > 0 and h1 > 0) or (h0 < 0 and h1 < 0):
        return []
    tri = table.tri(i)
    if h0 == 0 and h1 == 0:
        lo, hi = Fraction(0), Fraction(1)
        for fa, fb in zip(_tri_barycentric(tri, a), _tri_barycentric(tri, b)):
            if fa < 0 and fb < 0:
                return []
            if fa < 0:
                lo = max(lo, Fraction(fa, fa - fb))
            elif fb < 0:
                hi = min(hi, Fraction(fa, fa - fb))
        if lo > hi:
            return []
        xs = [_along(a, t, d) for t in ((lo,) if lo == hi else (lo, hi, (lo + hi) / 2))]
    elif h0 == 0 or h1 == 0:
        xs = [a if h0 == 0 else b]
    else:
        xs = [_along(a, Fraction(h0, h0 - h1), d)]
    contacts = []
    for x in xs:
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None:
            contacts.append((feat, x))
    return contacts


def _crossing_misses(table: _FanTable, i: int, s: int, ia, ib, h0: int, h1: int) -> bool:
    """Whether the crossing of segment ab with the plane of triangle i
    misses the closed triangle, decided in integers.  ``ia`` and ``ib`` are
    a - apex and b - apex times ``s``, and h0 and h1, their heights over the
    plane, have strictly opposite signs.

    The crossing x does not depend on the segment's direction, so take
    h0 > h1.  Then X = h0 ib - h1 ia is x - apex times s (h0 - h1) > 0.
    With S0, S1 the triangle's spokes, N its normal and L the table's
    scale, the weights of rim[i] and rim[i + 1] are WQ = (X x S1) . N and
    WR = (S0 x X) . N, the weights that :func:`_tri_barycentric` gives x
    times the positive s (h0 - h1) L^3, and the apex weight is
    s (h0 - h1) N . N - L (WQ + WR), its weight times s (h0 - h1) L^4.  The
    crossing misses exactly when one of them is negative; a zero weight is
    a contact on the triangle's boundary."""
    if h0 < h1:
        ia, ib, h0, h1 = ib, ia, h1, h0
    X = (h0 * ib[0] - h1 * ia[0], h0 * ib[1] - h1 * ia[1], h0 * ib[2] - h1 * ia[2])
    n = table.normals[i]
    wq = _dot(_cross(X, table.spokes[i + 1]), n)
    if wq < 0:
        return True
    wr = _dot(_cross(table.spokes[i], X), n)
    if wr < 0:
        return True
    return s * (h0 - h1) * _dot(n, n) - table.scale * (wq + wr) < 0


def _contacts(fan: FanDisk, seg: Segment, cull: bool, first: int = 0):
    """``(disk feature, whether it is interior, point)`` for each contact of
    the segment with the fan, triangle by triangle.  With ``cull``, only the
    triangles that can meet plane(apex, a, b) away from the apex are
    visited, in order, and a visited triangle that the segment crosses
    properly is skipped when the crossing misses it (see the module
    docstring); neither kind can meet the segment.  Without ``cull``, every
    triangle is solved, in the order first, first + 1, ... around the fan
    (``first`` is taken modulo the triangle count)."""
    table = _table(fan)
    a, b = seg.a.coords(), seg.b.coords()
    d = _sub(b, a)
    s, (ia, ib) = _scaled((_sub(a, table.apex), _sub(b, table.apex)))
    count = len(table.normals)
    order = table.cut(_cross(ia, ib)) if cull else ((first + k) % count for k in range(count))
    for i in order:
        n = table.normals[i]
        h0, h1 = _dot(ia, n), _dot(ib, n)
        if cull and (h0 > 0 > h1 or h0 < 0 < h1) and _crossing_misses(table, i, s, ia, ib, h0, h1):
            continue
        for feat, x in _triangle_contacts(table, i, a, b, d, h0, h1):
            df = _disk_feature(fan, i, feat)
            yield df, fan.feature_is_interior(df), x


def fan_contact_features(fan: FanDisk, seg: Segment) -> Tuple[bool, Set[tuple], Optional[ExactPoint]]:
    """(meets_interior, disk features touched, an interior witness or None).

    Independent of FanDisk.classify_segment: plane crossings are solved
    parametrically from the fan table's integer heights and located
    barycentrically with Fractions, on the culled triangles.
    """
    features: Set[tuple] = set()
    witness = None
    for df, interior, x in _contacts(fan, seg, cull=True):
        features.add(df)
        if interior and witness is None:
            witness = x
    return witness is not None, features, None if witness is None else ExactPoint(*witness)


def fan_meets_interior(fan: FanDisk, seg: Segment, first: int = 0) -> bool:
    """Early-exit interior test through the independent route, over every
    triangle, starting at triangle ``first`` and wrapping around (see the
    module docstring).  The answer does not depend on ``first``."""
    return any(interior for _df, interior, _x in _contacts(fan, seg, cull=False, first=first))


def panel_check_bruteforce(d: FanDisk, embedding, cycle) -> Tuple[str, Optional[tuple]]:
    """All-pairs panel verdict used as the oracle for panel_check.

    Scans every graph vertex and every edge against the fan with the
    independent contact routine above; returns ('paneled', None) or
    ('violated', witness).
    """
    table = _table(d)
    for v in sorted(embedding.graph.vertices, key=repr):
        pv = embedding.position[v]
        x = pv.coords()
        if x == table.apex:
            if d.closed:
                return ("violated", ("vertex", v, ("apex",), pv))
            continue
        _s, (ix,) = _scaled((_sub(x, table.apex),))
        for i, n in enumerate(table.normals):
            if _dot(ix, n) != 0:
                continue
            feat = _bary_feature(*_tri_barycentric(table.tri(i), x))
            if feat is None:
                continue
            df = _disk_feature(d, i, feat)
            if d.feature_is_interior(df):
                return ("violated", ("vertex", v, df, pv))
    for edge in embedding.graph.sorted_edges():
        u, w = tuple(sorted(edge, key=repr))
        seg = Segment(embedding.position[u], embedding.position[w])
        meets, features, witness = fan_contact_features(d, seg)
        if meets:
            feat = min(
                (f for f in features if d.feature_is_interior(f)),
                key=lambda f: (str(f[0]), f[1:]),
            )
            return ("violated", ("edge", (u, w), feat, witness))
    return ("paneled", None)
