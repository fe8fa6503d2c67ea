"""Independent brute-force re-implementations used to cross-check results.

Everything here deliberately avoids the fast integer paths and the fan
aggregation logic in :mod:`plgraph.disks`: classifications are recomputed
with plain Fraction arithmetic, parametric plane solves, and barycentric
coordinates, then mapped to disk features by separate code.  Agreement
between the two routes is asserted by the verifier and by the test suite.

Each call reads the coordinates of the points it needs as Fraction triples
and computes on those triples with the local helpers below, not with the
:class:`ExactPoint` operators: the fast route runs on those operators, so a
bug in them would otherwise reach both routes and the routes would agree on
it.  Only the reported witness is built as an ExactPoint.
"""

from __future__ import annotations

from fractions import Fraction
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


def _fan_triangles(fan: FanDisk):
    """(i, (p, q, r, n)) for fan triangle i = (apex, rim[i], rim[i+1]) as
    coordinate triples, with its normal n = (q - p) x (r - p).  Each rim
    point and spoke vector r - p is built once, when the scan reaches it."""
    p = fan.apex.coords()
    r = fan.rim[0].coords()
    rp = _sub(r, p)
    for i in range(fan.n_triangles):
        q, qp = r, rp
        r = fan.rim[(i + 1) % len(fan.rim)].coords()
        rp = _sub(r, p)
        yield i, (p, q, r, _cross(qp, rp))


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

    Independent of FanDisk.classify_segment: plane intersections are solved
    parametrically with Fractions and located barycentrically.
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

    a, b = seg.a.coords(), seg.b.coords()
    d = _sub(b, a)
    apex = fan.apex.coords()
    ap, bp = _sub(a, apex), _sub(b, apex)  # every fan triangle's p is the apex
    for i, tri in _fan_triangles(fan):
        h0, h1 = _dot(ap, tri[3]), _dot(bp, tri[3])
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
        x = _along(a, h0 / (h0 - h1), d)
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None:
            note(i, feat, x)
    return meets_interior, features, None if witness is None else ExactPoint(*witness)


def fan_meets_interior(fan: FanDisk, seg: Segment) -> bool:
    """Early-exit interior test through the independent route."""
    a, b = seg.a.coords(), seg.b.coords()
    d = _sub(b, a)
    apex = fan.apex.coords()
    ap, bp = _sub(a, apex), _sub(b, apex)
    for i, tri in _fan_triangles(fan):
        h0, h1 = _dot(ap, tri[3]), _dot(bp, tri[3])
        if h0 == 0 and h1 == 0:
            meets, _f, _w = fan_contact_features(fan, seg)
            return meets
        if h0 == 0 or h1 == 0:
            x = a if h0 == 0 else b
        elif (h0 > 0) == (h1 > 0):
            continue
        else:
            x = _along(a, h0 / (h0 - h1), d)
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None and fan.feature_is_interior(_disk_feature(fan, i, feat)):
            return True
    return False


def panel_check_bruteforce(d: FanDisk, embedding, cycle) -> Tuple[str, Optional[tuple]]:
    """All-pairs panel verdict used as the oracle for panel_check.

    Scans every graph vertex and every edge against the fan with the
    independent contact routine above; returns ('paneled', None) or
    ('violated', witness).
    """
    apex = d.apex.coords()
    triangles = list(_fan_triangles(d))
    for v in sorted(embedding.graph.vertices, key=repr):
        pv = embedding.position[v]
        x = pv.coords()
        if x == apex:
            if d.closed:
                return ("violated", ("vertex", v, ("apex",), pv))
            continue
        xp = _sub(x, apex)
        for i, tri in triangles:
            if _dot(xp, tri[3]) != 0:
                continue
            feat = _bary_feature(*_tri_barycentric(tri, x))
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
