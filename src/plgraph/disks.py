"""Piecewise-linear disks built as triangle fans over polylines.

A :class:`FanDisk` is an apex coned onto a rim polyline with straight
triangles.  Open fans (the default) have boundary rim + first spoke + last
spoke, so the apex sits on the disk's boundary; closed fans cone onto a
closed polygon, the rim is the whole boundary, and the apex is an interior
point of the disk.

The disk's interior is its topological interior: the open triangles plus the
open shared spokes (and, for closed fans, the apex).  All classification here
is exact; the hot paths run on cached integer vectors.

A segment is classified only on the triangles that plane(apex, a, b) can cut,
read from the signs of the rim directions against that plane.  For a segment
from a registered endpoint a (:meth:`FanDisk.index_endpoint`) those signs come
from a pencil index: every plane through the line apex-a is one angle about
that line, so the signs depend only on where x falls among the rim
directions' angles, found by a binary search.  With A = a - apex, e1 = A x t
for an integer t not parallel to A, and e2 = A x e1, a vector w has the
plane coordinates w2 = (w . e1, w . e2), and

    cross2(U2, d2) = |e1|^2 det(A, U, d) = |e1|^2 ((A x U) . d)

for U = x - apex and a rim direction d, so the sign of one 2-D cross
product is the sign of d against the plane's normal A x U.  The general
path computes the signs as one row of dot products with that normal.

Two triangles with a common apex meet away from it exactly when their
direction cones share a direction.  Fan validation and the disk/disk check
decide that only for the pairs whose cube-surface boxes meet: each cone's
image on the surface of the cube [-1, 1]^3 is boxed on the touch rule's
integer grid (``_cone_boxes``), and one box sweep (``exactgeom._box_pairs``)
lists the pairs of boxes that meet.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import chain
from math import gcd
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    BoundaryMismatchError,
    ConfigError,
    DegenerateGeometryError,
    FanConstructionError,
    PatchConstructionError,
)
from .exactgeom import (
    _BOX_GRID,
    Contact,
    ExactPoint,
    Segment,
    Triangle,
    _box_pairs,
    _contacts_from_signs,
    _locate_in_plane,
    collinear,
    icross,
    idot,
    midpoint,
    orient3d,
    segment_triangle_contacts,
    sign,
    triangle_triangle_intersection,
)

# Disk-level features.  Boundary/interior status depends on the fan's
# topology (open vs closed); see FanDisk.feature_is_interior.
#   ('face', i)     open triangle i
#   ('spoke', i)    open segment apex->rim[i], endpoints excluded
#   ('rim', i)      open rim chord rim[i]->rim[i+1]
#   ('rimvert', i)  rim vertex i
#   ('apex',)       the apex point
DiskFeature = Tuple


def _in_cone(w, a, b, n) -> bool:
    """Is integer direction w inside the 2D cone spanned by a, b (closed)?

    n must be icross(a, b) (nonzero) and w must lie in the plane of a, b.
    """
    return idot(icross(a, w), n) >= 0 and idot(icross(w, b), n) >= 0


def _side_row(n, dirs) -> bytes:
    """The sign (plus 1) of each integer direction in ``dirs`` against the
    integer normal ``n``.  :meth:`FanDisk.classify_segment` culls a segment's
    triangles with the row of its plane's normal."""
    n0, n1, n2 = n
    return bytes([(v > 0) - (v < 0) + 1
                  for v in [n0 * x + n1 * y + n2 * z for x, y, z, _ in dirs]])


def _cross2(u, w) -> int:
    """The 2-D cross product of integer vectors u and w."""
    return u[0] * w[1] - u[1] * w[0]


def _upper(x: int, y: int) -> int:
    """The factor +-1 that puts the nonzero vector (x, y) into the upper
    half-plane (y > 0, or y = 0 and x > 0); 0 for the zero vector."""
    return 1 if y > 0 or (y == 0 and x > 0) else -1 if x or y else 0


class _Pencil(NamedTuple):
    """The pencil index of an anchor a over a fan's rim directions.

    ``e1`` and ``e2`` span the plane coordinates (see the module
    docstring).  Each rim direction d_k maps to d2_k = (d_k . e1, d_k . e2),
    scaled to primitive and put into the upper half-plane by the factor
    ``tau[k]`` = ``_upper(d2_k)``; a direction on the axis has d2_k = 0 and
    ``tau[k]`` = 0.  ``events`` holds the distinct normalised d2 in
    increasing angle, and ``rank[k]`` is the index of d_k's event.  In state
    r (x's plane coordinates, put into the upper half-plane by the factor f,
    lie past the first r events and before the rest), row entry k is
    f tau[k] when rank[k] >= r and -f tau[k] otherwise; ``live[r]`` holds the
    triangles that row keeps, which do not depend on f.  The row keeps
    triangle i when entry i is 0 or differs from entry i + 1.  So with lo <=
    hi the ranks of its two directions, triangle i is live in every state
    when tau[i] or tau[i + 1] is 0; in the states lo < r <= hi, where the
    two entries have opposite factors, when tau[i] = tau[i + 1]; and in the
    other states when tau[i] = -tau[i + 1].
    """

    e1: Tuple[int, int, int]
    e2: Tuple[int, int, int]
    events: List[Tuple[int, int]]
    live: List[Tuple[int, ...]]
    tau: List[int]
    rank: List[int]


def _pencil_index(A, dirs) -> _Pencil:
    """The pencil index of an anchor with nonzero apex-relative integer
    direction ``A``, over the fan's rim directions ``dirs``."""
    # t is the coordinate axis along which A is shortest, so not parallel to A.
    j = min(range(3), key=lambda i: abs(A[i]))
    e1 = icross(A, tuple(int(i == j) for i in range(3)))
    e2 = icross(A, e1)
    tau, keys = [], []
    for d in dirs:
        x, y = idot(d, e1), idot(d, e2)
        f, g = _upper(x, y), gcd(x, y) or 1
        tau.append(f)
        keys.append((f * x // g, f * y // g) if f else None)
    events = sorted({k for k in keys if k is not None},
                    key=cmp_to_key(lambda u, w: -_cross2(u, w)))
    rank_of = {e: r for r, e in enumerate(events)}
    rank = [rank_of.get(k, 0) for k in keys]
    states = len(events) + 1
    live = [[] for _ in range(states)]
    for i in range(len(dirs) - 1):
        lo, hi = sorted(rank[i:i + 2])
        if not tau[i] or not tau[i + 1]:
            kept = range(states)
        elif tau[i] == tau[i + 1]:
            kept = range(lo + 1, hi + 1)
        else:
            kept = chain(range(lo + 1), range(hi + 1, states))
        for r in kept:
            live[r].append(i)
    live = [tuple(triangles) for triangles in live]
    return _Pencil(e1, e2, events, live, tau, rank)


def _pencil_cull(index, U):
    """The live triangles and the row entry of each rim direction for the
    segment from the index's anchor to the point with apex-relative integer
    direction ``U``, or None when the row must decide: when U is on the
    axis (U2 = 0), or when plane(apex, a, x) holds a rim direction off the
    axis (U2 is on an event)."""
    e1, e2, events, live, tau, rank = index
    x, y = idot(U, e1), idot(U, e2)
    f = _upper(x, y)
    if not f:
        return None
    x, y = f * x, f * y
    lo, hi = 0, len(events)
    while lo < hi:
        mid = (lo + hi) // 2
        ex, ey = events[mid]
        if ex * y - ey * x > 0:  # event mid comes strictly before U2
            lo = mid + 1
        else:
            hi = mid
    if lo < len(events) and _cross2(events[lo], (x, y)) == 0:
        return None
    return live[lo], lambda k: f * tau[k] if rank[k] >= lo else -f * tau[k]


def _cones_share_direction(a, b, c, d) -> bool:
    """Do the 2D positive cones span(a,b) and span(c,d) share a nonzero
    direction?  All arguments are integer vectors; each pair is linearly
    independent."""
    n1 = icross(a, b)
    c1 = sign(idot(n1, c))
    d1 = sign(idot(n1, d))
    if c1 != 0 and c1 == d1:
        return False
    n2 = icross(c, d)
    a2 = sign(idot(n2, a))
    b2 = sign(idot(n2, b))
    if a2 != 0 and a2 == b2:
        return False
    w = icross(n1, n2)
    if w == (0, 0, 0):
        # Coplanar cones: interval overlap on the shared great circle.
        return (
            _in_cone(c, a, b, n1)
            or _in_cone(d, a, b, n1)
            or _in_cone(a, c, d, n2)
            or _in_cone(b, c, d, n2)
        )
    if _in_cone(w, a, b, n1) and _in_cone(w, c, d, n2):
        return True
    wn = (-w[0], -w[1], -w[2])
    return _in_cone(wn, a, b, n1) and _in_cone(wn, c, d, n2)


# The planes x = +-y, y = +-z and z = +-x: a direction's largest coordinate,
# and so its face of the cube [-1, 1]^3, changes only on one of them.
_FACE_PLANES = ((1, -1, 0), (1, 1, 0), (0, 1, -1), (0, 1, 1), (-1, 0, 1), (1, 0, 1))


def _cube_image(w) -> tuple:
    """The box of w / max|w_k|, the point where the integer direction w
    leaves the cube [-1, 1]^3, rounded outward to the grid of multiples of
    ``1 / _BOX_GRID`` as ``(x_lo, x_hi, y_lo, y_hi, z_lo, z_hi)``.  Where
    w_k = +max, the low entry ``box[2k]`` is ``_BOX_GRID``; where w_k = -max,
    the high entry ``box[2k + 1]`` is ``-_BOX_GRID``."""
    m = max(abs(w[0]), abs(w[1]), abs(w[2]))
    x, y, z = w[0] * _BOX_GRID, w[1] * _BOX_GRID, w[2] * _BOX_GRID
    return (x // m, -(-x // m), y // m, -(-y // m), z // m, -(-z // m))


def _cone_boxes(dirs) -> List[tuple]:
    """One integer box per triangle i, holding the cube-surface image of the
    cone spanned by the integer directions ``dirs[i]`` and ``dirs[i + 1]``,
    on the touch rule's grid.

    The image runs straight between breakpoints, where the cone passes from
    one closed cube face to the next, so the box of its two ends and its
    breakpoints holds it.  When both directions lie in one closed face (one
    coordinate is +max for both, or -max for both), the cone stays in it and
    the ends are enough.  Otherwise the breakpoints are among the crossings
    with the planes ``_FACE_PLANES``: for a normal q with q . d and q . e of
    strictly opposite signs, sign(q . d) ((q . d) e - (q . e) d) is an integer
    vector of the cone on that plane.  Two cones that share a direction share
    its image point, so their boxes meet.
    """
    images = [_cube_image(w) for w in dirs]
    top = (_BOX_GRID, -_BOX_GRID) * 3
    boxes = []
    for i in range(len(dirs) - 1):
        u, w = images[i], images[i + 1]
        pts = [u, w]
        if not any(u[k] == w[k] == top[k] for k in range(6)):
            d, e = dirs[i], dirs[i + 1]
            for q in _FACE_PLANES:
                s, t = idot(q, d), idot(q, e)
                if s * t < 0:
                    f = 1 if s > 0 else -1
                    pts.append(_cube_image([f * (s * e[k] - t * d[k]) for k in range(3)]))
        c = list(zip(*pts))
        boxes.append((min(c[0]), max(c[1]), min(c[2]), max(c[3]), min(c[4]), max(c[5])))
    return boxes


def _first_meeting(i, normals1, dirs1, normals2, dirs2, js) -> Optional[int]:
    """The first j in ``js`` whose triangle (apex, dirs2[j], dirs2[j + 1])
    meets triangle (apex, dirs1[i], dirs1[i + 1]) away from their common
    apex, or None: their direction cones share a direction.

    ``normals1[i]`` and ``normals2[j]`` are the two triangles' cached
    integer normals.  A pair is apart when either triangle's two directions
    lie strictly on one side of the other's plane, which four integer dots
    decide; only the rest reach :func:`_cones_share_direction`.  Callers
    pass as ``js`` the candidates of a box sweep over :func:`_cone_boxes`,
    in ascending order; the triangles it leaves out cannot meet triangle i.
    """
    n, a, b = normals1[i], dirs1[i], dirs1[i + 1]
    for j in js:
        c, d = dirs2[j], dirs2[j + 1]
        if idot(n, c) * idot(n, d) > 0:
            continue
        m = normals2[j]
        if idot(m, a) * idot(m, b) > 0:
            continue
        if _cones_share_direction(a, b, c, d):
            return j
    return None


class FanDisk:
    """A PL disk: an apex coned onto a rim polyline with straight triangles.

    Construction validates embeddedness exactly: every pair of derived
    triangles must intersect exactly in its shared apex/edge features.
    """

    def __init__(self, apex: ExactPoint, rim: Sequence[ExactPoint], closed: bool = False):
        rim = list(rim)
        if len(rim) < (3 if closed else 2):
            raise FanConstructionError(
                "degenerate-triangle", f"rim needs at least {'3' if closed else '2'} points"
            )
        seen = set()
        for i, p in enumerate(rim):
            if p == apex:
                raise FanConstructionError("degenerate-triangle", ("rim-point-at-apex", i))
            if p in seen:
                raise FanConstructionError("degenerate-triangle", ("duplicate-rim-point", i))
            seen.add(p)
        self.apex = apex
        self.rim = rim
        self.closed = closed
        # Pencil indexes of registered segment endpoints, keyed by irep.
        self._pencils = {}
        # Integer rim directions rim[k] - apex.  A closed fan's direction 0
        # repeats at the end, so triangle i always spans entries i and i + 1.
        dirs = [(p - apex).irep for p in rim]
        self._idirs = dirs + dirs[:1] if closed else dirs
        self._inormals = []
        self.triangles: List[Triangle] = []
        m = len(rim)
        for i in range(len(self._idirs) - 1):
            n = icross(self._idirs[i], self._idirs[i + 1])
            if n == (0, 0, 0):
                raise FanConstructionError("degenerate-triangle", ("chord-through-apex", i))
            self._inormals.append(n)
            self.triangles.append(Triangle(apex, rim[i], rim[(i + 1) % m]))
        # Triangle i's cube-surface box (see _cone_boxes), for the box sweeps.
        self._boxes = _cone_boxes(self._idirs)
        self._validate_embedded()

    # -- structure ---------------------------------------------------------

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def feature_is_interior(self, feature: DiskFeature) -> bool:
        kind = feature[0]
        if kind == "face":
            return True
        if kind == "spoke":
            if self.closed:
                return True
            return 0 < feature[1] < len(self.rim) - 1
        if kind == "apex":
            return self.closed
        return False  # rim chords and rim vertices are always boundary

    # -- embeddedness validation -------------------------------------------

    def _validate_embedded(self):
        """Every pair of fan triangles meets only in its shared features.

        Adjacent pairs go through :meth:`_check_adjacent`.  Every other pair
        shares only the apex, so :func:`_first_meeting` decides it, and only
        when a box sweep (``_box_pairs``) over the cube-surface boxes of the
        triangles' direction cones (:func:`_cone_boxes`) lists it: a pair
        whose boxes are apart shares no direction.  Pairs are decided in
        (i, j) order, so the first offending pair is the one reported.
        """
        cols, normals = self._idirs, self._inormals
        count = len(self.triangles)
        pairs = _box_pairs(self._boxes)
        for i in range(count):
            if i + 1 < count:
                self._check_adjacent(i, i + 1)
            closing = self.closed and i == 0
            stop = count - 1 if closing else count
            j = _first_meeting(i, normals, cols, normals, cols,
                               [j for j in pairs[i] if i + 2 <= j < stop])
            if j is not None:
                raise FanConstructionError(
                    "self-intersecting",
                    ("triangles-meet", i, j, self._common_point_witness(i, j)),
                )
            if closing:
                self._check_adjacent(0, count - 1)

    def _check_adjacent(self, i: int, j: int):
        """Raise unless adjacent triangles i < j meet only in their shared
        spoke: rim direction j when j == i + 1, or rim direction 0 for the
        closing pair (0, m - 1) of a closed fan."""
        dirs = self._idirs
        if j == i + 1:
            sh, p1, p2 = dirs[j], dirs[i], dirs[j + 1]
        else:
            sh, p1, p2 = dirs[0], dirs[1], dirs[j]
        n = icross(p1, sh)
        if idot(n, p2) != 0:
            return  # planes distinct: intersection is the spoke
        # Coplanar wedge pair: valid only when the two free directions sit
        # strictly on opposite sides of the shared spoke line within the
        # common plane.
        s1 = sign(idot(icross(sh, p1), n))
        s2 = sign(idot(icross(sh, p2), n))
        if s1 == s2:
            raise FanConstructionError("self-intersecting", ("adjacent-overlap", i, j))

    def _common_point_witness(self, i: int, j: int) -> Optional[ExactPoint]:
        ev = triangle_triangle_intersection(self.triangles[i], self.triangles[j])
        if ev[0] == "point":
            return ev[1]
        if ev[0] == "segment":
            p, q = ev[1], ev[2]
            mid = midpoint(p, q)
            return mid if mid != self.apex else p if p != self.apex else q
        if ev[0] == "polygon":
            return ev[1][0]
        return None

    # -- point location -----------------------------------------------------

    def locate_point(self, p: ExactPoint) -> Optional[DiskFeature]:
        """Locate a point on the disk, or None if it is not on the carrier.
        Triangle i is tried only when p - apex is orthogonal to its cached
        integer normal, the plane test :meth:`classify_segment` makes."""
        if p == self.apex:
            return ("apex",)
        w = (p - self.apex).irep
        for i, n in enumerate(self._inormals):
            if idot(n, w) != 0:
                continue
            feat = _locate_in_plane(p, self.triangles[i])
            if feat is None:
                continue
            return self._map_feature(i, feat)
        return None

    def _map_feature(self, i: int, feat) -> DiskFeature:
        """Map a triangle-level feature of triangle i to a disk feature."""
        j = (i + 1) % len(self.rim)
        kind = feat[0]
        if kind in ("interior", "chord"):
            return ("face", i)
        if kind == "edge":
            return (("spoke", i), ("rim", i), ("spoke", j))[feat[1]]
        return (("apex",), ("rimvert", i), ("rimvert", j))[feat[1]]

    # -- segment classification ---------------------------------------------

    def index_endpoint(self, a: ExactPoint) -> None:
        """Build and keep the pencil index of ``a``, so that
        :meth:`classify_segment` culls the segments that start at ``a`` by
        a binary search instead of a row.  Registering a point again, or the
        apex, keeps nothing new.  The results do not change."""
        A = (a - self.apex).irep
        if a.irep not in self._pencils and A[:3] != (0, 0, 0):
            self._pencils[a.irep] = _pencil_index(A, self._idirs)

    def classify_segment(self, s: Segment) -> "DiskSegmentResult":
        """Exact classification of a segment against this disk.

        meets-interior iff the segment intersects the disk's interior (open
        triangles, open shared spokes, and the apex for closed fans);
        boundary-only iff it meets the disk only in its boundary.  The
        contacts are the kernel's :class:`Contact`s with the triangle feature
        mapped to the disk feature, sorted by feature; contacts on shared
        features are reported once.  A straight segment meets each disk
        feature in at most one connected set, so contacts are keyed by
        feature, and a contact is interior when its disk feature is.

        One sign row per segment decides which triangles are visited.  With
        N = (a - apex) x (b - apex), the normal of plane(apex, a, b), entry k
        of the row is the sign of N . (rim[k] - apex), which is
        ``orient3d(a, b, apex, rim[k])``; it also serves as the spoke test of
        every triangle that touches rim point k.  A triangle whose two rim
        points lie strictly on one side of that plane meets the plane only at
        the apex, and the apex is off the segment whenever N is nonzero, so
        the triangle is skipped: it could contribute no contact.  When N is
        zero (apex, a and b collinear, an endpoint at the apex included) the
        row is all zeros and every triangle is visited, as in the full loop.

        When ``a`` was registered with :meth:`index_endpoint`, the kept
        triangles and the entries come from its pencil index instead: with
        U2 = ((b - apex) . e1, (b - apex) . e2), entry k is the sign of
        cross2(U2, d2_k) (see the module docstring), and a binary search of
        U2 among the rim directions' angles about the line apex-a names the
        state whose kept triangles were listed when the index was built.
        The row decides as before when U2 = 0 (b on that line, so N = 0) and
        when U2 lies on a rim direction's angle (apex, a, b and a rim point
        coplanar); segments from other points always take the row.

        Each visited triangle is decided by the kernel's
        ``_contacts_from_signs``: the plane sides of a and b are integer dot
        products with the triangle's cached normal, and the edge signs of a
        proper crossing are the two spoke entries of the row and one
        ``orient3d`` against the rim chord.  An overlap's endpoints may rest
        on finer features (edges or vertices); those are enumerated too.
        """
        entries = {}

        def add(i, kind, tri_feat, point=None, seg=None):
            dfeat = self._map_feature(i, tri_feat)
            if dfeat not in entries:
                entries[dfeat] = Contact(kind, dfeat, point, seg)

        va = (s.a - self.apex).irep
        vb = (s.b - self.apex).irep
        index = self._pencils.get(s.a.irep)
        cull = index and _pencil_cull(index, vb)
        if cull:
            live, spoke = cull
        else:
            row = _side_row(icross(va, vb), self._idirs)
            live = [i for i in range(len(self.triangles)) if row[i] == 1 or row[i] != row[i + 1]]
            spoke = lambda k: row[k] - 1
        for i in live:
            n, tri = self._inormals[i], self.triangles[i]
            edges = lambda: (spoke(i), orient3d(s.a, s.b, tri.q, tri.r), -spoke(i + 1))
            for c in _contacts_from_signs(s, tri, sign(idot(n, va)), sign(idot(n, vb)), edges):
                add(i, c.kind, c.feature, c.point, c.seg)
                if c.kind != "segment":
                    continue
                for endpoint in c.seg:
                    efeat = _locate_in_plane(endpoint, tri)
                    if efeat is not None and efeat != c.feature:
                        add(i, "point", efeat, point=endpoint)
        contacts = tuple(entries[f] for f in sorted(entries, key=_feature_key))
        for c in contacts:
            if self.feature_is_interior(c.feature):
                return DiskSegmentResult("meets-interior", contacts, witness=c.witness_point())
        return DiskSegmentResult("boundary-only" if contacts else "disjoint", contacts)

    # -- serialization helpers ----------------------------------------------

    def to_jsonable(self) -> dict:
        from .jsonio import point_to_json

        return {
            "apex": point_to_json(self.apex),
            "rim": [point_to_json(p) for p in self.rim],
            "closed": self.closed,
        }


def cone(apex: ExactPoint, rim: Sequence[ExactPoint], closed: bool = False) -> FanDisk:
    """Cone an apex onto a polyline with straight triangles, yielding a disk.

    Raises :class:`FanConstructionError` when a fan triangle is degenerate
    (rim chord through the apex) or two non-adjacent triangles meet.
    """
    return FanDisk(apex, rim, closed=closed)


def _feature_key(feature: DiskFeature):
    return (str(feature[0]), feature[1:])


@dataclass(frozen=True)
class DiskSegmentResult:
    kind: str  # 'disjoint' | 'boundary-only' | 'meets-interior'
    contacts: Tuple[Contact, ...] = ()  # features are disk features
    witness: Optional[ExactPoint] = None


# ---------------------------------------------------------------------------
# Disk / disk classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskDiskResult:
    kind: str  # 'single-point' | 'larger-intersection'
    point: Optional[ExactPoint] = None
    on_boundary_1: Optional[bool] = None
    on_boundary_2: Optional[bool] = None
    witness: Optional[tuple] = None


def disk_disk_classify(d1: FanDisk, d2: FanDisk) -> DiskDiskResult:
    """Exact classification of the intersection of two fans with a common
    apex; fans with different apexes raise :class:`ConfigError` naming
    ``apex``.

    The fans meet beyond the apex at the first triangle pair, in (i, j)
    order, that :func:`_first_meeting` finds: a larger-intersection with
    the witness ``(i, j, ev)``, ``ev`` their triangle/triangle intersection.
    Otherwise they meet in the apex alone, which is interior exactly to a
    closed fan.  Only the pairs whose cube-surface cone boxes
    (:func:`_cone_boxes`) meet, as one box sweep across the two fans lists
    them, are decided; the others share no direction.
    """
    if d1.apex != d2.apex:
        raise ConfigError("disk/disk classification needs fans with a common apex", "apex")
    dirs1, dirs2 = d1._idirs, d2._idirs
    pairs = _box_pairs(d1._boxes, d2._boxes)
    for i, js in enumerate(pairs):
        j = _first_meeting(i, d1._inormals, dirs1, d2._inormals, dirs2, js)
        if j is not None:
            ev = triangle_triangle_intersection(d1.triangles[i], d2.triangles[j])
            return DiskDiskResult("larger-intersection", witness=(i, j, ev))
    return DiskDiskResult("single-point", point=d1.apex,
                          on_boundary_1=not d1.closed, on_boundary_2=not d2.closed)


# ---------------------------------------------------------------------------
# Panel check
# ---------------------------------------------------------------------------

def _drop_collinear(points: List[ExactPoint]) -> List[ExactPoint]:
    """Drop collinear interior vertices of a closed polygon."""
    pts = list(points)
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            if collinear(pts[i - 1], pts[i], pts[(i + 1) % len(pts)]):
                pts.pop(i)
                changed = True
                break
    return pts


def _same_cycle(p: List[ExactPoint], q: List[ExactPoint]) -> bool:
    """Are the point cycles p and q equal up to rotation and reflection?"""
    return len(p) == len(q) and any(q[r:] + q[:r] in (p, p[::-1]) for r in range(len(q)))


@dataclass(frozen=True)
class PanelResult:
    kind: str  # 'paneled' | 'violated'
    witness: Optional[tuple] = None  # (description, feature, point)


def panel_check(d: FanDisk, e, boundary_cycle: Sequence) -> PanelResult:
    """Is the disk a panel for the cycle: boundary matches, interior avoided?

    ``e`` is a LinearEmbedding; ``boundary_cycle`` a vertex sequence forming a
    cycle of its graph.  Raises BoundaryMismatchError when the disk's boundary
    and the cycle polygon, collinear vertices dropped, differ as point cycles
    up to rotation and reflection.  A violating edge names the first, that
    is the least, of its sorted interior contacts.
    """
    cycle = list(boundary_cycle)
    if len(cycle) < 3:
        raise BoundaryMismatchError("cycle must have at least 3 vertices")
    if len(set(cycle)) != len(cycle):
        raise BoundaryMismatchError("cycle revisits a vertex")
    for u, w in zip(cycle, cycle[1:] + cycle[:1]):
        if not e.graph.has_edge(u, w):
            raise BoundaryMismatchError(f"cycle step {u!r}-{w!r} is not a graph edge")
    cyc_pts = [e.position[v] for v in cycle]
    bound_pts = ([] if d.closed else [d.apex]) + list(d.rim)
    if not _same_cycle(_drop_collinear(cyc_pts), _drop_collinear(bound_pts)):
        raise BoundaryMismatchError("disk boundary differs from the cycle polygon")
    # Vertices against the interior.
    for v in sorted(e.graph.vertices, key=repr):
        feat = d.locate_point(e.position[v])
        if feat is not None and d.feature_is_interior(feat):
            return PanelResult("violated", ("vertex", v, feat, e.position[v]))
    # Edges against the interior.
    for edge in e.graph.sorted_edges():
        u, w = tuple(sorted(edge, key=repr))
        res = d.classify_segment(Segment(e.position[u], e.position[w]))
        if res.kind == "meets-interior":
            feat = next(c.feature for c in res.contacts if d.feature_is_interior(c.feature))
            return PanelResult("violated", ("edge", (u, w), feat, res.witness))
    return PanelResult("paneled")


# ---------------------------------------------------------------------------
# Triangulated patches between two polylines (the sphere-side flap)
# ---------------------------------------------------------------------------

class TriPatch:
    """A triangulated strip between two polylines sharing both endpoints.

    Used for the spherical flap bounded by an arc and its replacement.  The
    strip is triangulated by a monotone zigzag between the two polylines and
    validated to be embedded (every triangle pair meets exactly in its shared
    declared feature).
    """

    def __init__(self, triangles: List[Triangle], boundary_a: List[ExactPoint],
                 boundary_b: List[ExactPoint]):
        self.triangles = triangles
        self.boundary_a = boundary_a
        self.boundary_b = boundary_b
        # Edges of two strip triangles: open ones are inside the patch.
        edge_count = Counter(_edge_key(t, k) for t in triangles for k in range(3))
        self._shared_edges = {key for key, count in edge_count.items() if count == 2}

    @classmethod
    def between_polylines(cls, side_a: Sequence[ExactPoint], side_b: Sequence[ExactPoint]) -> "TriPatch":
        a = list(side_a)
        b = list(side_b)
        if len(a) < 2 or len(b) < 2 or a[0] != b[0] or a[-1] != b[-1]:
            raise PatchConstructionError("polylines must share both endpoints")
        tris: List[Triangle] = []
        i, j = 0, 0
        na, nb = len(a) - 1, len(b) - 1
        while i < na or j < nb:
            adv_a = i < na and (j == nb or (i + 1) * nb <= (j + 1) * na)
            try:
                if adv_a:
                    # Corner coincidences happen only at the shared endpoints,
                    # where the zero-area triangle is simply dropped.
                    if b[j] != a[i] and b[j] != a[i + 1]:
                        tris.append(Triangle(a[i], a[i + 1], b[j]))
                    i += 1
                else:
                    if a[i] != b[j] and a[i] != b[j + 1]:
                        tris.append(Triangle(a[i], b[j + 1], b[j]))
                    j += 1
            except DegenerateGeometryError as exc:
                raise PatchConstructionError(f"degenerate strip triangle: {exc}") from exc
        patch = cls(tris, a, b)
        patch._validate()
        return patch

    def _validate(self):
        tris = self.triangles
        for i in range(len(tris)):
            vi = set(tris[i].vertices)
            for j in range(i + 1, len(tris)):
                vj = set(tris[j].vertices)
                shared = vi & vj
                ev = triangle_triangle_intersection(tris[i], tris[j])
                if len(shared) == 2:
                    if ev[0] != "segment":
                        raise PatchConstructionError(f"strip pair {i},{j}: expected shared edge")
                    got = {ev[1], ev[2]}
                    if got != shared:
                        raise PatchConstructionError(f"strip pair {i},{j}: edge mismatch")
                elif len(shared) == 1:
                    if ev[0] != "point" or ev[1] not in shared:
                        raise PatchConstructionError(f"strip pair {i},{j}: expected shared vertex")
                else:
                    if ev[0] != "empty":
                        raise PatchConstructionError(f"strip pair {i},{j}: unexpected contact")

    def segment_meets_open_patch(self, s: Segment) -> bool:
        """Does the segment meet the union of open strip triangles plus their
        shared open edges (the patch minus its outer boundary)?"""
        for t in self.triangles:
            for c in segment_triangle_contacts(s, t):
                if c.feature in (("interior",), ("chord",)):
                    return True
                if c.feature[0] == "edge" and _edge_key(t, c.feature[1]) in self._shared_edges:
                    return True
        return False


def _edge_key(t: Triangle, k: int) -> frozenset:
    """Triangle t's edge k as an unordered pair of points."""
    v = t.vertices
    return frozenset((v[k], v[(k + 1) % 3]))
