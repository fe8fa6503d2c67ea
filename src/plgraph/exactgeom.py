"""Exact rational geometric kernel.

Points live in R^3 with arbitrary-precision rational coordinates.  Every
predicate in this module is an exact sign computation; there are no
tolerances and no floating point.  Running any predicate twice on the same
inputs gives identical results.

A point's only state is one canonical integer tuple ``(X, Y, Z, D)`` with
``D > 0``, ``gcd(X, Y, Z, D) = 1`` and ``x = X/D`` etc.  Point arithmetic
runs on those integers and reduces each result once; a determinant sign
(``orient3d``) cross-multiplies the denominators and stays in integers.
``fractions.Fraction`` appears as the read-only coordinate views ``x``,
``y``, ``z`` (for JSON, reports and sort keys) and as the scalar type of dot
products and segment parameters.

One touch rule serves polylines, polygons and graph embeddings
(``segment_contact``): each segment names its two endpoints (point indices,
or vertex ids), two segments of one set may meet only at the endpoint they
both name, and segments of two sets may not meet at all.  Bounding boxes are
compared as integers on one common denominator, and a pair that names a
common endpoint is decided by an integer ray test from that endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Tuple, Union

from .errors import DegenerateGeometryError

Rational = Union[int, str, Fraction]


def frac(value: Rational) -> Fraction:
    """Coerce ints, strings like ``"3/7"``, and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def sign(x) -> int:
    """Sign of an int or Fraction as -1, 0, or +1."""
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


class ExactPoint:
    """A point of R^3 with exact rational coordinates.

    The state is ``irep = (X, Y, Z, D)``: ``D > 0`` and ``gcd(X, Y, Z, D) =
    1``, so equal points have equal tuples.  ``x``, ``y`` and ``z`` are
    Fraction views of it.  Also doubles as a vector (difference of points);
    arithmetic is componentwise and exact.
    """

    __slots__ = ("irep",)

    def __init__(self, x: Rational, y: Rational, z: Rational):
        # Reduced coordinates over the lcm of their denominators are canonical.
        x, y, z = frac(x), frac(y), frac(z)
        dx, dy, dz = x.denominator, y.denominator, z.denominator
        d = lcm(dx, dy, dz)
        self.irep = (x.numerator * (d // dx), y.numerator * (d // dy), z.numerator * (d // dz), d)

    x = property(lambda self: Fraction(self.irep[0], self.irep[3]))
    y = property(lambda self: Fraction(self.irep[1], self.irep[3]))
    z = property(lambda self: Fraction(self.irep[2], self.irep[3]))

    def coords(self) -> Tuple[Fraction, Fraction, Fraction]:
        return (self.x, self.y, self.z)

    def __add__(self, other: "ExactPoint") -> "ExactPoint":
        X, Y, Z, D = self.irep
        U, V, W, E = other.irep
        return _point(X * E + U * D, Y * E + V * D, Z * E + W * D, D * E)

    def __sub__(self, other: "ExactPoint") -> "ExactPoint":
        X, Y, Z, D = self.irep
        U, V, W, E = other.irep
        return _point(X * E - U * D, Y * E - V * D, Z * E - W * D, D * E)

    def scale(self, k: Rational) -> "ExactPoint":
        k = frac(k)
        X, Y, Z, D = self.irep
        n = k.numerator
        return _point(X * n, Y * n, Z * n, D * k.denominator)

    def dot(self, other: "ExactPoint") -> Fraction:
        return Fraction(idot(self.irep, other.irep), self.irep[3] * other.irep[3])

    def cross(self, other: "ExactPoint") -> "ExactPoint":
        return _point(*icross(self.irep, other.irep), self.irep[3] * other.irep[3])

    def norm2(self) -> Fraction:
        return self.dot(self)

    def is_zero(self) -> bool:
        X, Y, Z, _ = self.irep
        return X == 0 and Y == 0 and Z == 0

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPoint) and self.irep == other.irep

    def __hash__(self):
        return hash(self.irep)

    def __repr__(self):
        return f"ExactPoint({self.x}, {self.y}, {self.z})"


def _point(X: int, Y: int, Z: int, D: int) -> ExactPoint:
    """The point (X/D, Y/D, Z/D) for D > 0, in canonical form."""
    g = gcd(X, Y, Z, D)
    if g != 1:
        X, Y, Z, D = X // g, Y // g, Z // g, D // g
    p = object.__new__(ExactPoint)
    p.irep = (X, Y, Z, D)
    return p


def icross(u: Sequence[int], v: Sequence[int]) -> Tuple[int, int, int]:
    """Cross product of the first three entries of two integer vectors."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def idot(u: Sequence[int], v: Sequence[int]) -> int:
    """Dot product of the first three entries of two integer vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def orient3d(a: ExactPoint, b: ExactPoint, c: ExactPoint, d: ExactPoint) -> int:
    """Sign of det[b-a, c-a, d-a]: +1, -1, or 0 (0 iff coplanar).

    Positive means d lies on the positive side of the plane oriented by the
    right-handed frame (b-a, c-a).
    """
    ax, ay, az, ad = a.irep
    bx, by, bz, bd = b.irep
    cx, cy, cz, cd = c.irep
    dx, dy, dz, dd = d.irep
    # Each row is the cross-multiplied difference; its denominator is positive,
    # so the determinant sign is unaffected.
    r1x = bx * ad - ax * bd
    r1y = by * ad - ay * bd
    r1z = bz * ad - az * bd
    r2x = cx * ad - ax * cd
    r2y = cy * ad - ay * cd
    r2z = cz * ad - az * cd
    r3x = dx * ad - ax * dd
    r3y = dy * ad - ay * dd
    r3z = dz * ad - az * dd
    det = (
        r1x * (r2y * r3z - r2z * r3y)
        - r1y * (r2x * r3z - r2z * r3x)
        + r1z * (r2x * r3y - r2y * r3x)
    )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def plane_crossing(tri: Triangle, a: ExactPoint, b: ExactPoint) -> ExactPoint:
    """The point where segment ab crosses the triangle's plane.

    a and b must lie strictly on opposite sides of the plane, so their
    signed heights hA, hB differ and the crossing parameter is
    hA / (hA - hB).
    """
    ha, hb = (a - tri.p).dot(tri.normal), (b - tri.p).dot(tri.normal)
    return a + (b - a).scale(ha / (ha - hb))


def collinear(a: ExactPoint, b: ExactPoint, c: ExactPoint) -> bool:
    return (b - a).cross(c - a).is_zero()


class Segment:
    """A straight segment with distinct exact endpoints."""

    __slots__ = ("a", "b")

    def __init__(self, a: ExactPoint, b: ExactPoint):
        if a == b:
            raise DegenerateGeometryError(f"segment endpoints coincide: {a!r}")
        self.a = a
        self.b = b

    def reversed(self) -> "Segment":
        return Segment(self.b, self.a)

    def __eq__(self, other):
        return isinstance(other, Segment) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"Segment({self.a!r}, {self.b!r})"


class Triangle:
    """A non-degenerate triangle.  Vertices are ordered; edge k runs from
    vertex k to vertex (k+1) mod 3."""

    __slots__ = ("p", "q", "r", "normal")

    def __init__(self, p: ExactPoint, q: ExactPoint, r: ExactPoint):
        normal = (q - p).cross(r - p)
        if normal.is_zero():
            raise DegenerateGeometryError(f"collinear triangle: {p!r}, {q!r}, {r!r}")
        self.p = p
        self.q = q
        self.r = r
        self.normal = normal

    @property
    def vertices(self) -> Tuple[ExactPoint, ExactPoint, ExactPoint]:
        return (self.p, self.q, self.r)

    def edge_side(self, k: int, x: ExactPoint) -> Fraction:
        """A value whose sign says where the in-plane point x lies against
        edge k's line: positive on the triangle's side, zero on the line,
        negative beyond it."""
        v = self.vertices
        return (v[(k + 1) % 3] - v[k]).cross(x - v[k]).dot(self.normal)

    def edge(self, k: int) -> Segment:
        v = self.vertices
        return Segment(v[k], v[(k + 1) % 3])

    def __repr__(self):
        return f"Triangle({self.p!r}, {self.q!r}, {self.r!r})"


# ---------------------------------------------------------------------------
# Segment / segment classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegSegResult:
    kind: str  # 'disjoint' | 'endpoint-touch' | 'interior-cross' | 'collinear-overlap'
    point: Optional[ExactPoint] = None
    overlap: Optional[Tuple[ExactPoint, ExactPoint]] = None


def _collinear_overlap(s: Segment, t: Segment) -> SegSegResult:
    """All four endpoints lie on one line.  Interval arithmetic on the line."""
    u = s.b - s.a
    lam = lambda p: (p - s.a).dot(u)
    s_lo, s_hi = Fraction(0), u.dot(u)
    t0, t1 = lam(t.a), lam(t.b)
    t_lo, t_hi = (t0, t1) if t0 <= t1 else (t1, t0)
    lo = max(s_lo, t_lo)
    hi = min(s_hi, t_hi)
    if lo > hi:
        return SegSegResult("disjoint")
    if lo == hi:
        pt = s.a + u.scale(lo / u.dot(u))
        return SegSegResult("endpoint-touch", point=pt)
    p1 = s.a + u.scale(lo / u.dot(u))
    p2 = s.a + u.scale(hi / u.dot(u))
    return SegSegResult("collinear-overlap", overlap=(p1, p2))


def segment_segment_classify(s: Segment, t: Segment) -> SegSegResult:
    """Exact classification of the intersection of two segments in R^3."""
    if orient3d(s.a, s.b, t.a, t.b) != 0:
        return SegSegResult("disjoint")  # not coplanar, cannot meet
    if collinear(s.a, s.b, t.a) and collinear(s.a, s.b, t.b):
        return _collinear_overlap(s, t)
    u = s.b - s.a
    w = t.b - t.a
    n = u.cross(w)
    if n.is_zero():
        return SegSegResult("disjoint")  # parallel distinct lines
    # Coplanar, non-parallel lines: unique line intersection.
    m = t.a - s.a
    nn = n.dot(n)
    t1 = m.cross(w).dot(n) / nn
    t2 = m.cross(u).dot(n) / nn
    if t1 < 0 or t1 > 1 or t2 < 0 or t2 > 1:
        return SegSegResult("disjoint")
    pt = s.a + u.scale(t1)
    if 0 < t1 < 1 and 0 < t2 < 1:
        return SegSegResult("interior-cross", point=pt)
    return SegSegResult("endpoint-touch", point=pt)


def boxed_segment(seg: Segment, ends: tuple) -> tuple:
    """``(seg, ends, box)``: the segment, the names of its endpoints ``a`` and
    ``b``, and its exact bounding box as integers ``(d, x_lo, x_hi, y_lo,
    y_hi, z_lo, z_hi)`` over the common denominator ``d`` of its endpoints."""
    A, B = seg.a.irep, seg.b.irep
    d = lcm(A[3], B[3])
    ka, kb = d // A[3], d // B[3]
    box = [d]
    for k in range(3):
        u, w = A[k] * ka, B[k] * kb
        box += (u, w) if u <= w else (w, u)
    return seg, ends, tuple(box)


def polyline_segments(points: Sequence[ExactPoint], closed: bool = False) -> list:
    """A polyline's boxed segments: segment i runs from point i to point i+1
    (a closed polyline's last one back to point 0) and names them by index."""
    n = len(points)
    return [boxed_segment(Segment(points[i], points[(i + 1) % n]), (i, (i + 1) % n))
            for i in range(n if closed else n - 1)]


def _common_boxes(*sets: Sequence[tuple]) -> list:
    """Each set's segment boxes as integer sextuples over one denominator,
    the lcm of the boxes' own: comparing them compares the exact boxes."""
    den = lcm(*(box[0] for segs in sets for _, _, box in segs))
    return [[tuple(c * (den // box[0]) for c in box[1:]) for _, _, box in segs]
            for segs in sets]


def segment_contact(segs: Sequence[tuple], others: Optional[Sequence[tuple]] = None
                    ) -> Optional[Tuple[int, int, SegSegResult]]:
    """The first pair of boxed segments that meet where they must not.

    The touch rule: within one set (``others`` is None, pairs i < j), two
    segments may meet only at the endpoint they both name; across two sets
    (segment i of ``segs``, j of ``others``), they may not meet at all.
    Pairs whose bounding boxes are apart are disjoint; the boxes are compared
    as integers, put on the lcm of the call's box denominators.  A pair
    whose boxes meet is decided exactly.  Both segments of a pair that names
    a common endpoint p leave p (so their boxes meet), and they meet beyond
    it exactly when their other endpoints lie on the same ray from p: an
    integer test on the differences, with classification run only to build
    the witness.  Any other pair is classified.  Returns ``(i, j, result)``
    for the first offender in (i, j) order, or None.
    """
    same = others is None
    if same:
        others = segs
    ibox, jbox = _common_boxes(segs, others)
    for i, (s, (sa, sb), _) in enumerate(segs):
        x0, x1, y0, y1, z0, z1 = ibox[i]
        lo = i + 1 if same else 0
        near = [j for j, b in enumerate(jbox[lo:], lo)
                if b[0] <= x1 and x0 <= b[1] and b[2] <= y1 and y0 <= b[3]
                and b[4] <= z1 and z0 <= b[5]]
        for j in near:
            t, (ta, tb), _ = others[j]
            if same and (sa == ta or sa == tb or sb == ta or sb == tb):
                p, q = (s.a, s.b) if sa == ta or sa == tb else (s.b, s.a)
                r = t.b if t.a == p else t.a
                u, w = (q - p).irep, (r - p).irep
                if icross(u, w) == (0, 0, 0) and idot(u, w) > 0:
                    return i, j, segment_segment_classify(s, t)
                continue
            res = segment_segment_classify(s, t)
            if res.kind != "disjoint":
                return i, j, res
    return None


# ---------------------------------------------------------------------------
# Segment / triangle classification
# ---------------------------------------------------------------------------

# Triangle features: ('interior',) | ('edge', k) | ('vertex', k).
Feature = Tuple

# Which edge signs are zero -> the feature of a point that is on no edge's
# wrong side.  Edge k runs from vertex k to vertex k+1, so two zero edges meet
# at the vertex they share.
_FEATURE_BY_ZERO_EDGES = {
    (False, False, False): ("interior",),
    (True, False, False): ("edge", 0),
    (False, True, False): ("edge", 1),
    (False, False, True): ("edge", 2),
    (True, True, False): ("vertex", 1),
    (False, True, True): ("vertex", 2),
    (True, False, True): ("vertex", 0),
}


def edge_sign_feature(e0: int, e1: int, e2: int) -> Feature:
    """Triangle feature of a point from its three edge signs, given that
    every nonzero sign says inside."""
    return _FEATURE_BY_ZERO_EDGES[(e0 == 0, e1 == 0, e2 == 0)]


@dataclass(frozen=True)
class Contact:
    """One connected component of a segment/triangle intersection.

    ``kind`` is 'point' or 'segment'.  For points, ``feature`` locates the
    point on the triangle.  For segments, ``feature`` is ('edge', k) when the
    overlap lies inside edge k's line, or ('chord',) when its relative
    interior crosses the open triangle.
    """

    kind: str
    feature: Feature
    point: Optional[ExactPoint] = None
    seg: Optional[Tuple[ExactPoint, ExactPoint]] = None

    def witness_point(self) -> ExactPoint:
        if self.kind == "point":
            return self.point
        a, b = self.seg
        return a + (b - a).scale(Fraction(1, 2))


def _locate_in_plane(pt: ExactPoint, tri: Triangle) -> Optional[Feature]:
    """Locate a point known to lie in the triangle's plane.

    Returns ('interior',), ('edge', k), ('vertex', k), or None if outside.
    """
    sides = [sign(tri.edge_side(k, pt)) for k in range(3)]
    if any(s < 0 for s in sides):
        return None
    return edge_sign_feature(*sides)


def _coplanar_segment_triangle(s: Segment, tri: Triangle) -> list:
    """Contacts of a segment lying in the triangle's plane: the clipped
    segment, a point located on the triangle or a piece of an edge or a
    chord."""
    pts = _clip_polygon_in_plane([s.a, s.b], tri)
    if len(pts) < 2:
        return [Contact("point", _locate_in_plane(p, tri), point=p) for p in pts]
    v = tri.vertices
    u = s.b - s.a
    for k in range(3):
        e = v[(k + 1) % 3] - v[k]
        if u.cross(e).is_zero() and collinear(v[k], v[(k + 1) % 3], pts[0]):
            return [Contact("segment", ("edge", k), seg=tuple(pts))]
    return [Contact("segment", ("chord",), seg=tuple(pts))]


def segment_triangle_contacts(s: Segment, tri: Triangle) -> list:
    """All contacts of a segment with a closed triangle, exactly.

    The result is a list of :class:`Contact`; it is empty iff the segment and
    the triangle are disjoint.
    """
    da = orient3d(tri.p, tri.q, tri.r, s.a)
    db = orient3d(tri.p, tri.q, tri.r, s.b)
    if da == 0 and db == 0:
        return _coplanar_segment_triangle(s, tri)
    if da == 0 or db == 0:
        pt = s.a if da == 0 else s.b
        feat = _locate_in_plane(pt, tri)
        return [Contact("point", feat, point=pt)] if feat is not None else []
    if da == db:
        return []
    # Proper plane crossing.
    e1 = orient3d(s.a, s.b, tri.p, tri.q)
    e2 = orient3d(s.a, s.b, tri.q, tri.r)
    e3 = orient3d(s.a, s.b, tri.r, tri.p)
    want = -da
    for e in (e1, e2, e3):
        if e != 0 and e != want:
            return []
    pt = plane_crossing(tri, s.a, s.b)
    return [Contact("point", edge_sign_feature(e1, e2, e3), point=pt)]


@dataclass(frozen=True)
class SegTriResult:
    kind: str  # 'disjoint' | 'boundary-touch' | 'interior-cross' | 'coplanar-overlap'
    contacts: tuple = ()

    def witness_point(self) -> Optional[ExactPoint]:
        return self.contacts[0].witness_point() if self.contacts else None


def segment_triangle_classify(s: Segment, tri: Triangle) -> SegTriResult:
    """Exact classification of a segment against a closed triangle.

    interior-cross: the intersection is a single point in the open triangle
    (a transversal crossing, or a segment endpoint resting on the open
    triangle).  boundary-touch: the intersection is nonempty but contained in
    the triangle's boundary.  coplanar-overlap: the segment lies in the
    triangle's plane and the overlap has positive length through the open
    triangle.
    """
    contacts = segment_triangle_contacts(s, tri)
    if not contacts:
        return SegTriResult("disjoint")
    c = contacts[0]
    if c.kind == "segment":
        if c.feature == ("chord",):
            return SegTriResult("coplanar-overlap", tuple(contacts))
        return SegTriResult("boundary-touch", tuple(contacts))
    if c.feature == ("interior",):
        return SegTriResult("interior-cross", tuple(contacts))
    return SegTriResult("boundary-touch", tuple(contacts))


# ---------------------------------------------------------------------------
# Triangle / triangle intersection
# ---------------------------------------------------------------------------

def _clip_polygon_in_plane(poly, tri: Triangle):
    """Clip in-plane points by the triangle's three half-planes: the
    vertices of a convex polygon (another triangle), or the one or two ends
    of a segment (a segment in the plane, or a triangle's section by it).
    The points that survive keep their order, so a segment comes back as
    the ends of its clipped piece, still from its a end toward its b end."""
    pts = list(poly)
    for k in range(3):
        if not pts:
            return []
        keep = []
        hs = [tri.edge_side(k, p) for p in pts]
        m = len(pts)
        for i in range(m):
            j = (i + 1) % m
            hi_, hj = hs[i], hs[j]
            if hi_ >= 0:
                keep.append(pts[i])
            if (hi_ > 0 and hj < 0) or (hi_ < 0 and hj > 0):
                t = hi_ / (hi_ - hj)
                keep.append(pts[i] + (pts[j] - pts[i]).scale(t))
        pts = list(dict.fromkeys(keep))
    return pts


def triangle_triangle_intersection(t1: Triangle, t2: Triangle):
    """Exact intersection of two closed triangles.

    Returns one of::

        ("empty",)
        ("point", p)
        ("segment", p, q)
        ("polygon", [p0, p1, ...])   # positive-area coplanar overlap
    """
    s2 = [orient3d(t1.p, t1.q, t1.r, x) for x in t2.vertices]
    if all(s > 0 for s in s2) or all(s < 0 for s in s2):
        return ("empty",)
    verts = t2.vertices
    if s2 == [0, 0, 0]:
        # Coplanar: clip t2 against t1 within the shared plane.
        poly = list(verts)
    else:
        # Clip t2's section by t1's plane, a point or a segment.
        poly = [verts[k] for k in range(3) if s2[k] == 0]
        poly += [plane_crossing(t1, verts[k], verts[(k + 1) % 3])
                 for k in range(3) if s2[k] * s2[(k + 1) % 3] < 0]
    pts = _clip_polygon_in_plane(poly, t1)
    if not pts:
        return ("empty",)
    if len(pts) == 1:
        return ("point", pts[0])
    # Check for positive area (points might be collinear after clipping).
    base = pts[0]
    for i in range(1, len(pts) - 1):
        if not collinear(base, pts[i], pts[i + 1]):
            return ("polygon", pts)
    return ("segment", pts[0], pts[-1])
