"""Linking numbers of disjoint PL closed curves, by two independent routes.

The projection route counts signed crossings in an exact generic projection;
the cone route counts signed transversal passes of one curve through a cone
surface spanning the other.  Both are calibrated to the same right-handed
convention: the crossing sign is the orientation sign of the over-segment's
endpoints followed by the under-segment's endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import (
    ConfigError,
    CurvesIntersectError,
    DegenerateGeometryError,
    NonGenericApexError,
    NonGenericDirectionError,
)
from .exactgeom import (
    ExactPoint,
    Segment,
    Triangle,
    collinear,
    orient3d,
    polyline_segments,
    segment_contact,
    segment_triangle_contacts,
)

# The longest cycle pairwise_link_scan enumerates: 4x the CLI's default
# of 6, the most that any shipped test, demo or bench input passes it.  The
# number of simple cycles of a dense graph grows exponentially with it.
MAX_CYCLE_LEN = 24

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


class ClosedPolygon:
    """A simple closed polygon in R^3 with at least three vertices."""

    def __init__(self, points: Sequence[ExactPoint]):
        pts = list(points)
        if len(pts) >= 2 and pts[0] == pts[-1]:
            pts = pts[:-1]
        if len(pts) < 3:
            raise DegenerateGeometryError("closed polygon needs at least 3 distinct points")
        self.points = pts
        # Coinciding consecutive points fail as zero-length segments here.
        self._boxed = polyline_segments(pts, closed=True)
        hit = segment_contact(self._boxed)
        if hit is not None:
            i, j, res = hit
            raise DegenerateGeometryError(f"polygon not simple: segments {i},{j} ({res.kind})")

    def segments(self) -> List[Segment]:
        return [seg for seg, _, _ in self._boxed]

    def reversed(self) -> "ClosedPolygon":
        return ClosedPolygon(list(reversed(self.points)))

    def __repr__(self):
        return f"ClosedPolygon({len(self.points)} points)"


def _check_disjoint(a: ClosedPolygon, b: ClosedPolygon):
    if segment_contact(a._boxed, b._boxed) is not None:
        raise CurvesIntersectError("curves are not disjoint")


def _projector(direction: ExactPoint):
    """An exact linear map R^3 -> R^2 whose kernel is span(direction).

    It reads the direction's integer tuple, dropping its positive
    denominator: a common scale no equality, sign or ratio test can see.
    """
    d = direction.irep
    k = max(range(3), key=lambda c: abs(d[c]))
    i, j = (c for c in range(3) if c != k)
    di, dj, dk = d[i], d[j], d[k]

    def proj(p):
        P = p.irep
        return (Fraction(P[i] * dk - P[k] * di, P[3]), Fraction(P[j] * dk - P[k] * dj, P[3]))
    return proj


def _cross2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def direction_is_generic(a: ClosedPolygon, b: ClosedPolygon, direction: ExactPoint) -> Tuple[bool, str]:
    """Exact genericity of a projection direction for a curve pair.

    Rejects: a vertex pair separated by a multiple of the direction; a vertex
    projecting onto another segment's projection; projected segment pairs of
    a-vs-b that touch without crossing transversally in their interiors;
    adjacent same-curve segments with collinear projections; and triple
    points among a-vs-b crossings.
    """
    if direction.is_zero():
        return False, "zero direction"
    proj = _projector(direction)
    verts = a.points + b.points
    pv = [proj(p) for p in verts]
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if pv[i] == pv[j] and verts[i] != verts[j]:
                return False, "projected vertex coincidence"
    # Segment k runs from vertex k to nxt[k], the next vertex of its curve;
    # du[k] is its projected direction.
    na, nb = len(a.points), len(b.points)
    nxt = [(k + 1) % na for k in range(na)] + [na + (k + 1) % nb for k in range(nb)]
    du = [(pv[m][0] - pv[k][0], pv[m][1] - pv[k][1]) for k, m in enumerate(nxt)]
    for v, pvv in zip(verts, pv):
        for k, m in enumerate(nxt):
            if v == verts[k] or v == verts[m]:
                continue
            u = du[k]
            w = (pvv[0] - pv[k][0], pvv[1] - pv[k][1])
            if _cross2(u, w) != 0:
                continue
            lam = u[0] * w[0] + u[1] * w[1]
            if 0 <= lam <= u[0] * u[0] + u[1] * u[1]:
                return False, "vertex projects onto a segment"
    # Adjacent same-curve segments must not fold back onto each other in
    # projection (a straight pass-through at a subdivision vertex is fine).
    for k, m in enumerate(nxt):
        u, w = du[k], du[m]
        if _cross2(u, w) == 0 and u[0] * w[0] + u[1] * w[1] < 0:
            return False, "adjacent segments fold back in projection"
    # a-vs-b pairs: disjoint or single transversal interior crossing.
    crossing_points = {}
    for ka in range(na):
        for kb in range(na, na + nb):
            res = _proj_crossing(pv[ka], pv[nxt[ka]], pv[kb], pv[nxt[kb]])
            if res == "degenerate":
                return False, "non-transversal projected segment pair"
            if res is None:
                continue
            key = res[0]
            if key in crossing_points:
                return False, "triple point in projection"
            crossing_points[key] = True
    return True, "ok"


def _proj_crossing(a0, a1, b0, b1):
    """Crossing of the projected segments a0a1 and b0b1: None, 'degenerate',
    or ((point2d), ta, tb) for a strict interior-interior transversal
    crossing."""
    u = (a1[0] - a0[0], a1[1] - a0[1])
    w = (b1[0] - b0[0], b1[1] - b0[1])
    denom = _cross2(u, w)
    m = (b0[0] - a0[0], b0[1] - a0[1])
    if denom == 0:
        # Parallel projections: degenerate only if they share points.
        if _cross2(u, m) != 0:
            return None
        # Collinear projections: overlap test on the line.
        lam0 = u[0] * m[0] + u[1] * m[1]
        m1 = (b1[0] - a0[0], b1[1] - a0[1])
        lam1 = u[0] * m1[0] + u[1] * m1[1]
        lo, hi = min(lam0, lam1), max(lam0, lam1)
        if hi < 0 or lo > u[0] * u[0] + u[1] * u[1]:
            return None
        return "degenerate"
    ta = Fraction(_cross2(m, w), denom)
    tb = Fraction(_cross2(m, u), denom)
    if ta <= 0 or ta >= 1 or tb <= 0 or tb >= 1:
        if 0 <= ta <= 1 and 0 <= tb <= 1:
            return "degenerate"  # endpoint touch in projection
        return None
    pt = (a0[0] + ta * u[0], a0[1] + ta * u[1])
    return (pt, ta, tb)


def linking_number_projection(a: ClosedPolygon, b: ClosedPolygon, direction: ExactPoint) -> int:
    """Linking number as a signed crossing count in an exact projection.

    The sum runs over crossings where ``a`` passes over ``b`` (larger
    component along the projection direction); each crossing contributes the
    orientation sign of (over-segment endpoints, under-segment endpoints).
    """
    _check_disjoint(a, b)
    ok, why = direction_is_generic(a, b, direction)
    if not ok:
        raise NonGenericDirectionError(why)
    proj = _projector(direction)
    pa = [proj(p) for p in a.points]
    pb = [proj(p) for p in b.points]
    na, nb = len(pa), len(pb)
    total_over = 0
    total_under = 0
    for ka, sa in enumerate(a.segments()):
        for kb, sb in enumerate(b.segments()):
            res = _proj_crossing(pa[ka], pa[(ka + 1) % na], pb[kb], pb[(kb + 1) % nb])
            if res is None:
                continue
            assert res != "degenerate"
            _pt, ta, tb = res
            ha = (sa.a + (sa.b - sa.a).scale(ta)).dot(direction)
            hb = (sb.a + (sb.b - sb.a).scale(tb)).dot(direction)
            assert ha != hb
            chi = orient3d(sa.a, sa.b, sb.a, sb.b)
            assert chi != 0
            if ha > hb:
                total_over += chi
            else:
                total_under += chi
    assert total_over == total_under, "crossing bookkeeping out of balance"
    return total_over


def linking_number_cone(a: ClosedPolygon, apex: ExactPoint, b: ClosedPolygon) -> int:
    """Linking number as the signed count of passes of ``b`` through the cone
    over ``a`` from a generic apex."""
    _check_disjoint(a, b)
    n = len(a.points)
    tris = []
    for i in range(n):
        p, q = a.points[i], a.points[(i + 1) % n]
        if collinear(apex, p, q):
            raise NonGenericApexError(f"apex collinear with polygon chord {i}")
        tris.append(Triangle(apex, p, q))
    for pt in b.points:
        if pt == apex:
            raise NonGenericApexError("apex lies on the other curve")
    total = 0
    for sb in b.segments():
        for tri in tris:
            contacts = segment_triangle_contacts(sb, tri)
            if not contacts:
                continue
            c = contacts[0]
            if c.kind != "point" or c.feature != ("interior",):
                raise NonGenericApexError(
                    f"curve touches the cone's edges or vertices: {c.feature!r}"
                )
            if c.point == sb.a or c.point == sb.b:
                raise NonGenericApexError("curve vertex lies on the cone")
            total += orient3d(tri.p, tri.q, tri.r, sb.b)
    return total


def find_generic_direction(a: ClosedPolygon, b: ClosedPolygon) -> ExactPoint:
    """Deterministic generic projection direction: (1, q, q^2) for the first
    prime q that passes the exact genericity test."""
    for q in _PRIMES:
        cand = ExactPoint(1, q, q * q)
        ok, _ = direction_is_generic(a, b, cand)
        if ok:
            return cand
    raise NonGenericDirectionError("no generic direction in the deterministic sequence")


def find_generic_apex(a: ClosedPolygon, b: ClosedPolygon) -> ExactPoint:
    """Deterministic generic cone apex: scaled (q, q^2, q^3) candidates."""
    scale = Fraction(1)
    for poly in (a, b):
        for p in poly.points:
            scale = max(scale, abs(p.x), abs(p.y), abs(p.z))
    for q in _PRIMES:
        cand = ExactPoint(scale * q + 1, scale * q * q + 2, scale * q * q * q + 3)
        try:
            linking_number_cone(a, cand, b)
        except NonGenericApexError:
            continue
        return cand
    raise NonGenericApexError("no generic apex in the deterministic sequence")


@dataclass(frozen=True)
class LinkPair:
    cycle_a: Tuple
    cycle_b: Tuple
    linking_number: int


@dataclass(frozen=True)
class LinkReport:
    pairs: Tuple[LinkPair, ...]

    def to_jsonable(self) -> dict:
        return {
            "pairs": [
                {
                    "cycle_a": list(p.cycle_a),
                    "cycle_b": list(p.cycle_b),
                    "linking_number": p.linking_number,
                }
                for p in self.pairs
            ]
        }


def pairwise_link_scan(e, max_cycle_len: int) -> LinkReport:
    """Linking numbers of every vertex-disjoint simple cycle pair.

    Each pair's value is computed by the projection route with a
    deterministically found generic direction and cross-checked against the
    cone route; a mismatch aborts with a diagnostic.  ``max_cycle_len``
    above :data:`MAX_CYCLE_LEN` raises :class:`ConfigError`.
    """
    from .graphs import enumerate_cycles, validate_embedding

    if max_cycle_len > MAX_CYCLE_LEN:
        raise ConfigError(f"max_cycle_len must be <= {MAX_CYCLE_LEN}", "max_cycle_len")
    res = validate_embedding(e)
    if not res.valid:
        raise CurvesIntersectError(f"embedding invalid: {res.witness!r}")
    cycles = enumerate_cycles(e.graph, max_cycle_len)
    polygons = [ClosedPolygon([e.position[v] for v in c]) for c in cycles]
    pairs: List[LinkPair] = []
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            if set(cycles[i]) & set(cycles[j]):
                continue
            pa, pb = polygons[i], polygons[j]
            direction = find_generic_direction(pa, pb)
            lk_proj = linking_number_projection(pa, pb, direction)
            apex = find_generic_apex(pa, pb)
            lk_cone = linking_number_cone(pa, apex, pb)
            if lk_proj != lk_cone:
                raise AssertionError(
                    "linking algorithms disagree on cycles "
                    f"{cycles[i]!r} / {cycles[j]!r}: projection {lk_proj}, cone {lk_cone}"
                )
            pairs.append(LinkPair(cycles[i], cycles[j], lk_proj))
    return LinkReport(tuple(pairs))
