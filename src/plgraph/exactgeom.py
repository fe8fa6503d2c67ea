"""Exact rational geometric kernel.

Points live in R^3 with arbitrary-precision rational coordinates.  Every
predicate in this module is an exact sign computation; there are no
tolerances and no floating point.  Running any predicate twice on the same
inputs gives identical results.

A point's only state is one canonical integer tuple ``(X, Y, Z, D)`` with
``D > 0``, ``gcd(X, Y, Z, D) = 1`` and ``x = X/D`` etc.  Point arithmetic
runs on those integers and reduces each result once; a determinant sign
(``orient3d``) cross-multiplies the denominators and stays in integers.  So
do the constructions: a plane, or an edge's line within a triangle's plane,
is an integer linear form on ``(X, Y, Z, D)`` (``_plane_form``), a point's
side of it is the sign of the form's value, and a segment crosses it at the
homogeneous combination of its ends' ireps weighted by those values
(``_crossing``), reduced once.  ``fractions.Fraction`` appears only as
``ExactPoint``'s read-only views and arithmetic (``x``, ``y``, ``z`` for
JSON, reports and sort keys; ``dot`` and ``scale`` for callers outside the
kernel) and as the scalar 1/2 of a witness midpoint.

One touch rule serves polylines, polygons and graph embeddings
(``segment_contact``): each segment names its two endpoints (point indices,
or vertex ids), two segments of one set may meet only at the endpoint they
both name, and segments of two sets may not meet at all.  Bounding boxes are
rounded outward to one fixed grid and compared as integers, and a pair that
names a common endpoint is decided by an integer ray test from that endpoint.
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


def _plane_form(P: Sequence[int], n: Sequence[int]) -> Tuple[int, int, int, int]:
    """The integer linear form ``L`` of the plane through the point with irep
    ``P`` and integer normal ``n``.  Its value at a point with irep ``X`` (see
    :func:`_height`) is ``X[3] * P[3] * n . (x - p)``: positive on the side
    ``n`` points to, zero on the plane."""
    d = P[3]
    return (n[0] * d, n[1] * d, n[2] * d, -idot(n, P))


def _height(L: Sequence[int], X: Sequence[int]) -> int:
    """The value of the integer linear form ``L`` at the irep ``X``."""
    return L[0] * X[0] + L[1] * X[1] + L[2] * X[2] + L[3] * X[3]


def _crossing(A: Sequence[int], B: Sequence[int], ha: int, hb: int) -> ExactPoint:
    """The point where segment AB, given by the ireps of its ends, crosses the
    zero set of a linear form whose values ``ha`` at A and ``hb`` at B have
    strictly opposite signs: the homogeneous point ``ha B - hb A``.

    Its last entry ``ha B[3] - hb A[3]`` is nonzero and takes ``ha``'s sign,
    so the combination is negated when ``ha < 0``; then it is reduced once.
    On the affine points it is ``(ha' b - hb' a) / (ha' - hb')`` with
    ``ha' = ha B[3]`` and ``hb' = hb A[3]`` of opposite signs, a point of the
    segment, at parameter ``ha / (ha - hb)`` for heights on one scale.
    """
    if ha < 0:
        ha, hb = -ha, -hb
    return _point(ha * B[0] - hb * A[0], ha * B[1] - hb * A[1], ha * B[2] - hb * A[2],
                  ha * B[3] - hb * A[3])


def plane_crossing(tri: Triangle, a: ExactPoint, b: ExactPoint) -> ExactPoint:
    """The point where segment ab crosses the triangle's plane.

    a and b must lie strictly on opposite sides of the plane.  Their integer
    heights over the triangle's integer normal weigh the crossing
    (:func:`_crossing`).
    """
    L = _plane_form(tri.p.irep, tri.normal.irep)
    A, B = a.irep, b.irep
    return _crossing(A, B, _height(L, A), _height(L, B))


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

    __slots__ = ("p", "q", "r", "normal", "_edges")

    def __init__(self, p: ExactPoint, q: ExactPoint, r: ExactPoint):
        normal = (q - p).cross(r - p)
        if normal.is_zero():
            raise DegenerateGeometryError(f"collinear triangle: {p!r}, {q!r}, {r!r}")
        self.p = p
        self.q = q
        self.r = r
        self.normal = normal
        self._edges = None

    @property
    def vertices(self) -> Tuple[ExactPoint, ExactPoint, ExactPoint]:
        return (self.p, self.q, self.r)

    def edge(self, k: int) -> Segment:
        v = self.vertices
        return Segment(v[k], v[(k + 1) % 3])

    def __repr__(self):
        return f"Triangle({self.p!r}, {self.q!r}, {self.r!r})"


def _edge_forms(tri: Triangle) -> tuple:
    """The integer linear forms of the triangle's three edges, made once per
    triangle.  Form k is that of the plane through edge k with normal
    ``n x e_k`` (``n`` the triangle's normal, ``e_k`` the edge's direction):
    at a point of the triangle's plane it is positive on the triangle's side
    of edge k's line, zero on the line and negative beyond it, with the sign
    of ``(e_k x (x - v_k)) . n``."""
    forms = tri._edges
    if forms is None:
        n = tri.normal.irep
        v = [p.irep for p in tri.vertices]
        forms = []
        for k in range(3):
            P, Q = v[k], v[(k + 1) % 3]
            e = (Q[0] * P[3] - P[0] * Q[3], Q[1] * P[3] - P[1] * Q[3], Q[2] * P[3] - P[2] * Q[3])
            forms.append(_plane_form(P, icross(n, e)))
        tri._edges = forms = tuple(forms)
    return forms


# ---------------------------------------------------------------------------
# Segment / segment classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegSegResult:
    kind: str  # 'disjoint' | 'endpoint-touch' | 'interior-cross' | 'collinear-overlap'
    point: Optional[ExactPoint] = None
    overlap: Optional[Tuple[ExactPoint, ExactPoint]] = None


def _collinear_overlap(s: Segment, t: Segment) -> SegSegResult:
    """All four endpoints lie on one line.  Interval arithmetic on the line:
    points are ordered by ``u . x`` for s's integer direction ``u``, as the
    pairs ``(u . X, D)`` of their ireps, compared by cross-multiplying.  The
    ends of the overlap are endpoints of s or t."""
    u = (s.b - s.a).irep

    def before(p: ExactPoint, q: ExactPoint) -> bool:
        return idot(u, p.irep) * q.irep[3] < idot(u, q.irep) * p.irep[3]

    t_lo, t_hi = (t.b, t.a) if before(t.b, t.a) else (t.a, t.b)
    lo = t_lo if before(s.a, t_lo) else s.a
    hi = t_hi if before(t_hi, s.b) else s.b
    if before(hi, lo):
        return SegSegResult("disjoint")
    if lo == hi:
        return SegSegResult("endpoint-touch", point=lo)
    return SegSegResult("collinear-overlap", overlap=(lo, hi))


def segment_segment_classify(s: Segment, t: Segment) -> SegSegResult:
    """Exact classification of the intersection of two segments in R^3.

    Two coplanar segments on non-parallel lines with common normal ``n``:
    s's ends get integer heights over the plane through t's line with normal
    ``w x n``, and t's ends over the plane through s's line with normal
    ``u x n``.  Each segment contains the lines' one common point exactly
    when its ends are not strictly on one side, and has it inside when both
    heights are nonzero.  The point is an end of s, or s's crossing
    (:func:`_crossing`).
    """
    if orient3d(s.a, s.b, t.a, t.b) != 0:
        return SegSegResult("disjoint")  # not coplanar, cannot meet
    if collinear(s.a, s.b, t.a) and collinear(s.a, s.b, t.b):
        return _collinear_overlap(s, t)
    u = (s.b - s.a).irep
    w = (t.b - t.a).irep
    n = icross(u, w)
    if n == (0, 0, 0):
        return SegSegResult("disjoint")  # parallel distinct lines
    A, B, C, E = s.a.irep, s.b.irep, t.a.irep, t.b.irep
    L = _plane_form(C, icross(w, n))
    ha, hb = _height(L, A), _height(L, B)
    L = _plane_form(A, icross(u, n))
    hc, he = _height(L, C), _height(L, E)
    if ha * hb > 0 or hc * he > 0:
        return SegSegResult("disjoint")
    pt = s.a if ha == 0 else s.b if hb == 0 else _crossing(A, B, ha, hb)
    if ha and hb and hc and he:
        return SegSegResult("interior-cross", point=pt)
    return SegSegResult("endpoint-touch", point=pt)


# Segment boxes are rounded outward to multiples of 1 / _BOX_GRID.
_BOX_GRID = 1 << 32


def boxed_segment(seg: Segment, ends: tuple) -> tuple:
    """``(seg, ends, box)``: the segment, the names of its endpoints ``a`` and
    ``b``, and its bounding box rounded outward to the grid of multiples of
    ``1 / _BOX_GRID``, as the integers ``(x_lo, x_hi, y_lo, y_hi, z_lo,
    z_hi)`` in grid units.  The rounded box contains the exact one."""
    A, B = seg.a.irep, seg.b.irep
    box = []
    for k in range(3):
        u, w = A[k] * _BOX_GRID, B[k] * _BOX_GRID
        box += (min(u // A[3], w // B[3]), max(-(-u // A[3]), -(-w // B[3])))
    return seg, ends, tuple(box)


def polyline_segments(points: Sequence[ExactPoint], closed: bool = False) -> list:
    """A polyline's boxed segments: segment i runs from point i to point i+1
    (a closed polyline's last one back to point 0) and names them by index."""
    n = len(points)
    return [boxed_segment(Segment(points[i], points[(i + 1) % n]), (i, (i + 1) % n))
            for i in range(n if closed else n - 1)]


def segment_contact(segs: Sequence[tuple], others: Optional[Sequence[tuple]] = None
                    ) -> Optional[Tuple[int, int, SegSegResult]]:
    """The first pair of boxed segments that meet where they must not.

    The touch rule: within one set (``others`` is None, pairs i < j), two
    segments may meet only at the endpoint they both name; across two sets
    (segment i of ``segs``, j of ``others``), they may not meet at all.
    Pairs whose bounding boxes are apart are disjoint; the boxes are compared
    as stored, rounded outward to one fixed grid, so no meeting pair is
    missed.  A pair whose boxes meet is decided exactly.  Both segments of a
    pair that names a common endpoint p leave p (so their boxes meet), and
    they meet beyond it exactly when their other endpoints lie on the same
    ray from p: an integer test on the differences, with classification run
    only to build the witness.  Any other pair is classified.  Returns
    ``(i, j, result)`` for the first offender in (i, j) order, or None.
    """
    same = others is None
    if same:
        others = segs
    jbox = [box for _, _, box in others]
    for i, (s, (sa, sb), (x0, x1, y0, y1, z0, z1)) in enumerate(segs):
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
    The three signs are those of the triangle's integer edge forms at the
    point's irep.
    """
    X = pt.irep
    sides = [sign(_height(L, X)) for L in _edge_forms(tri)]
    if -1 in sides:
        return None
    return edge_sign_feature(*sides)


def _coplanar_segment_triangle(s: Segment, tri: Triangle) -> list:
    """Contacts of a segment lying in the triangle's plane: the clipped
    segment, a point located on the triangle or a piece of an edge or a
    chord."""
    pts = _clip_polygon_in_plane([s.a, s.b], tri)
    if len(pts) < 2:
        return [Contact("point", _locate_in_plane(p, tri), point=p) for p in pts]
    # The clipped piece lies along edge k when both its ends are on its line.
    P, Q = pts[0].irep, pts[1].irep
    for k, L in enumerate(_edge_forms(tri)):
        if _height(L, P) == 0 and _height(L, Q) == 0:
            return [Contact("segment", ("edge", k), seg=tuple(pts))]
    return [Contact("segment", ("chord",), seg=tuple(pts))]


def _contacts_from_signs(s: Segment, tri: Triangle, da: int, db: int, edge_signs) -> list:
    """The contacts of segment ab with a closed triangle, from the signs
    ``da`` and ``db`` of a and b against the triangle's plane (those of
    ``orient3d(p, q, r, a)`` and ``orient3d(p, q, r, b)``).

    A segment in the plane is clipped there, and an endpoint in the plane is
    located on the triangle.  Only when a and b lie strictly on opposite sides
    is ``edge_signs()`` called; it returns the signs of
    ``orient3d(a, b, p, q)``, ``orient3d(a, b, q, r)`` and
    ``orient3d(a, b, r, p)``, and the segment meets the closed triangle
    exactly when each nonzero one is ``-da``.
    """
    if da == 0 and db == 0:
        return _coplanar_segment_triangle(s, tri)
    if da == 0 or db == 0:
        pt = s.a if da == 0 else s.b
        feat = _locate_in_plane(pt, tri)
        return [Contact("point", feat, point=pt)] if feat is not None else []
    if da == db:
        return []
    edges = edge_signs()
    for x in edges:
        if x != 0 and x != -da:
            return []
    return [Contact("point", edge_sign_feature(*edges), point=plane_crossing(tri, s.a, s.b))]


def segment_triangle_contacts(s: Segment, tri: Triangle) -> list:
    """All contacts of a segment with a closed triangle, exactly.

    The result is a list of :class:`Contact`; it is empty iff the segment and
    the triangle are disjoint.  Both plane sides and, for a proper crossing,
    the three edge signs come from ``orient3d``; the decision is
    :func:`_contacts_from_signs`, which the fan classifier also feeds from its
    integer tables.
    """
    p, q, r = tri.vertices
    return _contacts_from_signs(
        s, tri, orient3d(p, q, r, s.a), orient3d(p, q, r, s.b),
        lambda: (orient3d(s.a, s.b, p, q), orient3d(s.a, s.b, q, r), orient3d(s.a, s.b, r, p)))


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
    the ends of its clipped piece, still from its a end toward its b end.

    Each half-plane is an integer edge form; a point's height is the form's
    value at its irep, and an edge from a point of positive height to one of
    negative height is cut at their :func:`_crossing`."""
    pts = list(poly)
    for L in _edge_forms(tri):
        if not pts:
            return []
        keep = []
        hs = [_height(L, p.irep) for p in pts]
        m = len(pts)
        for i in range(m):
            j = (i + 1) % m
            hi_, hj = hs[i], hs[j]
            if hi_ >= 0:
                keep.append(pts[i])
            if (hi_ > 0 and hj < 0) or (hi_ < 0 and hj > 0):
                keep.append(_crossing(pts[i].irep, pts[j].irep, hi_, hj))
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
