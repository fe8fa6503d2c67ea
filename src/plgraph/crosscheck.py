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
long as the fan lives: the apex and rim put on the lcm of their
denominators, the integer spoke vectors and triangle normals, and the
Fraction triangle tuples the barycentric location reads.  A call then puts
a - apex and b - apex on one common denominator of their own, so every
sign below is the sign of an integer dot, and both heights of a segment
over a triangle carry the same positive factor; the crossing parameter
h0 / (h0 - h1) does not depend on it.  The crossing point, the barycentric
location (with its ``u + w1 + w2 == n . n`` check), the coplanar clip and
the witness stay in Fractions.

**The cull.**  :func:`fan_contact_features` solves only the triangles that
can meet the segment.  It takes N = (a - apex) x (b - apex), the normal of
plane(apex, a, b), and the dot of N with each rim spoke.  A triangle whose
two rim points lie strictly on one side of that plane meets the plane only
at the apex; the segment lies in the plane, and when N is nonzero the apex
is not on the segment's line, so the two cannot meet.  The cull is exact,
and when N is zero (apex, a and b collinear) no dot is nonzero and every
triangle is solved.  The surviving triangles are solved in the same order,
so the result is the same as a full loop's.  :func:`panel_check_bruteforce`
reaches the culled route for every graph edge.

:func:`fan_meets_interior`, the equator's per-pair recheck, keeps the full
loop over triangles.  The same cull would apply to it: on top of the table
it took control-t2's ``scan_s`` from 0.97 to 0.28 s, but its
``peak_rss_mb`` from 47.96 to 55.55 MB (+15.8 %; seed 11, 35-s runs on a
2-core host), because ``bench/run.py``
keeps every repetition's report bytes and a faster equator fits more
repetitions.  It waits until the benchmark keeps a digest per report.
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
    """The Fraction triples ``vecs`` times the lcm of all their denominators:
    integer triples, every one scaled by the same positive factor."""
    d = lcm(*(c.denominator for v in vecs for c in v))
    return [tuple(c.numerator * (d // c.denominator) for c in v) for v in vecs]


class _FanTable:
    """What the independent route reads of one fan, computed once.

    ``apex`` is the apex's Fraction triple.  ``spokes[k]`` is the integer
    vector rim[k mod m] - apex, with the apex and every rim point put on the
    lcm of all their denominators, so that triangle i spans spokes i and
    i + 1.  ``normals[i]`` is the integer normal spokes[i] x spokes[i + 1],
    and ``triangles[i]`` is the Fraction tuple (p, q, r, n) of triangle
    i = (apex, rim[i], rim[i+1]) with n = (q - p) x (r - p), which the
    barycentric location reads."""

    __slots__ = ("apex", "spokes", "normals", "triangles")

    def __init__(self, fan: FanDisk):
        m, count = len(fan.rim), fan.n_triangles
        p = fan.apex.coords()
        rim = [q.coords() for q in fan.rim]
        ip, *irim = _scaled([p] + rim)
        spokes = [_sub(r, ip) for r in irim]
        self.apex = p
        self.spokes = [spokes[k % m] for k in range(count + 1)]
        self.normals = [_cross(self.spokes[i], self.spokes[i + 1]) for i in range(count)]
        fspokes = [_sub(r, p) for r in rim]
        self.triangles = [(p, rim[i], rim[(i + 1) % m], _cross(fspokes[i], fspokes[(i + 1) % m]))
                          for i in range(count)]

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


def fan_contact_features(fan: FanDisk, seg: Segment) -> Tuple[bool, Set[tuple], Optional[ExactPoint]]:
    """(meets_interior, disk features touched, an interior witness or None).

    Independent of FanDisk.classify_segment: plane crossings are solved
    parametrically from the fan table's integer heights and located
    barycentrically with Fractions.  Only the
    triangles that can meet plane(apex, a, b) away from the apex are solved;
    the others cannot meet the segment (see the module docstring).
    """
    meets_interior = False
    witness = None
    features: Set[tuple] = set()

    def note(i, feat, point):
        nonlocal meets_interior, witness
        df = _disk_feature(fan, i, feat)
        features.add(df)
        if fan.feature_is_interior(df):
            meets_interior = True
            if witness is None:
                witness = point

    table = _table(fan)
    a, b = seg.a.coords(), seg.b.coords()
    d = _sub(b, a)
    ia, ib = _scaled((_sub(a, table.apex), _sub(b, table.apex)))
    for i in table.cut(_cross(ia, ib)):
        tri, n = table.triangles[i], table.normals[i]
        # The heights of a and b over the triangle's plane, both scaled by
        # the same positive factor.
        h0, h1 = _dot(ia, n), _dot(ib, n)
        if h0 == 0 and h1 == 0:
            # Coplanar: clip the parameter interval by barycentric positivity.
            lo, hi = Fraction(0), Fraction(1)
            ok = True
            wa = _tri_barycentric(tri, a)
            wb = _tri_barycentric(tri, b)
            for corner in range(3):
                fa, fb = wa[corner], wb[corner]
                if fa < 0 and fb < 0:
                    ok = False
                    break
                if fa >= 0 and fb >= 0:
                    continue
                tstar = Fraction(fa, fa - fb)
                if fa < 0:
                    lo = max(lo, tstar)
                else:
                    hi = min(hi, tstar)
            if not ok or lo > hi:
                continue
            if lo == hi:
                x = _along(a, lo, d)
                feat = _bary_feature(*_tri_barycentric(tri, x))
                if feat is not None:
                    note(i, feat, x)
                continue
            xm = _along(a, (lo + hi) / 2, d)
            feat_mid = _bary_feature(*_tri_barycentric(tri, xm))
            for tend in (lo, hi):
                x = _along(a, tend, d)
                feat = _bary_feature(*_tri_barycentric(tri, x))
                if feat is not None:
                    note(i, feat, x)
            if feat_mid == ("interior",):
                note(i, ("interior",), xm)
            elif feat_mid is not None and feat_mid[0] == "edge":
                note(i, feat_mid, xm)
            continue
        if h0 == 0 or h1 == 0:
            x = a if h0 == 0 else b
            feat = _bary_feature(*_tri_barycentric(tri, x))
            if feat is not None:
                note(i, feat, x)
            continue
        if (h0 > 0) == (h1 > 0):
            continue
        x = _along(a, Fraction(h0, h0 - h1), d)
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None:
            note(i, feat, x)
    return meets_interior, features, None if witness is None else ExactPoint(*witness)


def fan_meets_interior(fan: FanDisk, seg: Segment) -> bool:
    """Early-exit interior test through the independent route."""
    table = _table(fan)
    a, b = seg.a.coords(), seg.b.coords()
    d = _sub(b, a)
    ia, ib = _scaled((_sub(a, table.apex), _sub(b, table.apex)))
    for i, n in enumerate(table.normals):
        h0, h1 = _dot(ia, n), _dot(ib, n)
        if h0 == 0 and h1 == 0:
            meets, _f, _w = fan_contact_features(fan, seg)
            return meets
        if h0 == 0 or h1 == 0:
            x = a if h0 == 0 else b
        elif (h0 > 0) == (h1 > 0):
            continue
        else:
            x = _along(a, Fraction(h0, h0 - h1), d)
        feat = _bary_feature(*_tri_barycentric(table.triangles[i], x))
        if feat is not None and fan.feature_is_interior(_disk_feature(fan, i, feat)):
            return True
    return False


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
        ix, = _scaled((_sub(x, table.apex),))
        for i, n in enumerate(table.normals):
            if _dot(ix, n) != 0:
                continue
            feat = _bary_feature(*_tri_barycentric(table.triangles[i], x))
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
