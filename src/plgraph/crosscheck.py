"""Independent brute-force re-implementations used to cross-check results.

Everything here deliberately avoids the fast integer paths and the fan
aggregation logic in :mod:`plgraph.disks`: classifications are recomputed
with plain Fraction arithmetic, parametric plane solves, and barycentric
coordinates, then mapped to disk features by separate code.  Agreement
between the two routes is asserted by the verifier and by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Set, Tuple

from .disks import FanDisk
from .exactgeom import ExactPoint, Segment


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


def _tri_barycentric(tri, x: ExactPoint):
    """Barycentric coordinates of an in-plane point, unnormalized but with a
    positive common scale."""
    p, q, r = tri.p, tri.q, tri.r
    n = (q - p).cross(r - p)
    nn = n.dot(n)
    u = (q - x).cross(r - x).dot(n)   # weight of p
    w1 = (r - x).cross(p - x).dot(n)  # weight of q
    w2 = (p - x).cross(q - x).dot(n)  # weight of r
    assert u + w1 + w2 == nn
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
    witness: Optional[ExactPoint] = None
    features: Set[tuple] = set()

    def note(i, feat, point):
        nonlocal meets_interior, witness
        df = _disk_feature(fan, i, feat)
        features.add(df)
        if fan.feature_is_interior(df):
            meets_interior = True
            if witness is None:
                witness = point

    a, b = seg.a, seg.b
    d = b - a
    for i, tri in enumerate(fan.triangles):
        p = tri.p
        n = (tri.q - p).cross(tri.r - p)
        h0 = (a - p).dot(n)
        h1 = (b - p).dot(n)
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
                x = seg.point_at(lo)
                feat = _bary_feature(*_tri_barycentric(tri, x))
                if feat is not None:
                    note(i, feat, x)
                continue
            xm = seg.point_at((lo + hi) / 2)
            feat_mid = _bary_feature(*_tri_barycentric(tri, xm))
            for tend in (lo, hi):
                x = seg.point_at(tend)
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
        t = h0 / (h0 - h1)
        x = a + d.scale(t)
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None:
            note(i, feat, x)
    return meets_interior, features, witness


def fan_meets_interior(fan: FanDisk, seg: Segment) -> bool:
    """Early-exit interior test through the independent route."""
    a, b = seg.a, seg.b
    d = b - a
    for i, tri in enumerate(fan.triangles):
        p = tri.p
        n = (tri.q - p).cross(tri.r - p)
        h0 = (a - p).dot(n)
        h1 = (b - p).dot(n)
        if h0 == 0 and h1 == 0:
            meets, _f, _w = fan_contact_features(fan, seg)
            return meets
        if h0 == 0 or h1 == 0:
            x = a if h0 == 0 else b
        elif (h0 > 0) == (h1 > 0):
            continue
        else:
            x = a + d.scale(h0 / (h0 - h1))
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
    for v in sorted(embedding.graph.vertices, key=repr):
        p = embedding.position[v]
        if p == d.apex:
            if d.closed:
                return ("violated", ("vertex", v, ("apex",), p))
            continue
        for i, tri in enumerate(d.triangles):
            pp = tri.p
            n = (tri.q - pp).cross(tri.r - pp)
            if (p - pp).dot(n) != 0:
                continue
            feat = _bary_feature(*_tri_barycentric(tri, p))
            if feat is None:
                continue
            df = _disk_feature(d, i, feat)
            if d.feature_is_interior(df):
                return ("violated", ("vertex", v, df, p))
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
