"""Piecewise-linear disks built as triangle fans over polylines.

A :class:`FanDisk` is an apex coned onto a rim polyline with straight
triangles.  Open fans (the default) have boundary rim + first spoke + last
spoke, so the apex sits on the disk's boundary; closed fans cone onto a
closed polygon, the rim is the whole boundary, and the apex is an interior
point of the disk.

The disk's interior is its topological interior: the open triangles plus the
open shared spokes (and, for closed fans, the apex).  All classification here
is exact; the hot paths run on cached integer vectors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    BoundaryMismatchError,
    ConfigError,
    DegenerateGeometryError,
    FanConstructionError,
    PatchConstructionError,
)
from .exactgeom import (
    ExactPoint,
    Segment,
    Triangle,
    _contacts_from_signs,
    _locate_in_plane,
    collinear,
    icross,
    idot,
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


def _side_rows(normals, dirs) -> List[bytes]:
    """One ``bytes`` row per integer normal: the sign (plus 1) of each
    integer direction in ``dirs`` against it."""
    return [bytes([(v > 0) - (v < 0) + 1 for v in
                   [n0 * x + n1 * y + n2 * z for x, y, z, _ in dirs]])
            for n0, n1, n2 in normals]


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
        self._validate_embedded()

    # -- structure ---------------------------------------------------------

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def rim_chord(self, i: int) -> Segment:
        return Segment(self.rim[i], self.rim[(i + 1) % len(self.rim)])

    def boundary_segments(self) -> List[Segment]:
        """The disk's boundary as segments: the rim polyline plus, for open
        fans, the two extreme spokes."""
        m = len(self.rim)
        segs = [self.rim_chord(i) for i in range(m if self.closed else m - 1)]
        if not self.closed:
            segs.append(Segment(self.apex, self.rim[0]))
            segs.append(Segment(self.rim[m - 1], self.apex))
        return segs

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

        Triangles i and j share the apex, so they meet elsewhere exactly when
        their direction cones share a direction.  ``side[i][k]`` is, once per
        triangle, the sign (plus 1, one byte) of rim direction k against
        triangle i's normal; triangle j spans columns j and j + 1 of
        ``_idirs``.  A non-adjacent pair is apart when either triangle's two
        rim directions lie strictly on one side of the other's plane, read
        from the table; only the rest reach :func:`_cones_share_direction`.
        Pairs are decided in (i, j) order, so the first offending pair is the
        one reported.
        """
        cols = self._idirs
        count = len(self.triangles)
        side = _side_rows(self._inormals, cols)
        for i in range(count):
            si = side[i]
            if i + 1 < count:
                self._check_adjacent(i, i + 1)
            closing = self.closed and i == 0
            unsettled = [j for j in range(i + 2, count - 1 if closing else count)
                         if (si[j] == 1 or si[j] != si[j + 1])
                         and (side[j][i] == 1 or side[j][i] != side[j][i + 1])]
            for j in unsettled:
                if _cones_share_direction(cols[i], cols[i + 1], cols[j], cols[j + 1]):
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
            mid = p + (q - p).scale(Fraction(1, 2))
            return mid if mid != self.apex else p if p != self.apex else q
        if ev[0] == "polygon":
            return ev[1][0]
        return None

    # -- point location -----------------------------------------------------

    def locate_point(self, p: ExactPoint) -> Optional[DiskFeature]:
        """Locate a point on the disk, or None if it is not on the carrier."""
        if p == self.apex:
            return ("apex",)
        for i, t in enumerate(self.triangles):
            if orient3d(t.p, t.q, t.r, p) != 0:
                continue
            feat = _locate_in_plane(p, t)
            if feat is None:
                continue
            return self._map_feature(i, feat)
        return None

    def _map_feature(self, i: int, feat) -> DiskFeature:
        """Map a triangle-level feature of triangle i to a disk feature."""
        m = len(self.rim)
        j = (i + 1) % m
        kind = feat[0]
        if kind == "interior":
            return ("face", i)
        if kind == "chord":
            return ("face", i)
        if kind == "edge":
            k = feat[1]
            if k == 0:
                return ("spoke", i)
            if k == 1:
                return ("rim", i)
            return ("spoke", j)
        # vertex
        k = feat[1]
        if k == 0:
            return ("apex",)
        if k == 1:
            return ("rimvert", i)
        return ("rimvert", j)

    # -- segment classification ---------------------------------------------

    def classify_segment(self, s: Segment) -> "DiskSegmentResult":
        """Exact classification of a segment against this disk.

        meets-interior iff the segment intersects the disk's interior (open
        triangles, open shared spokes, and the apex for closed fans);
        boundary-only iff it meets the disk only in its boundary; contacts on
        shared features are reported once.  A straight segment meets each
        disk feature in at most one connected set, so contacts are keyed by
        feature.

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

        Each visited triangle is decided by the kernel's
        ``_contacts_from_signs``: the plane sides of a and b are integer dot
        products with the triangle's cached normal, and the edge signs of a
        proper crossing are the two spoke entries of the row and one
        ``orient3d`` against the rim chord.  An overlap's endpoints may rest
        on finer features (edges or vertices); those are enumerated too.
        """
        entries = {}

        def add(i, tri_feat, point=None, seg=None):
            dfeat = self._map_feature(i, tri_feat)
            if dfeat not in entries:
                interior = self.feature_is_interior(dfeat) or tri_feat == ("chord",)
                entries[dfeat] = (interior, point, seg)

        va = (s.a - self.apex).irep
        vb = (s.b - self.apex).irep
        row = _side_rows([icross(va, vb)], self._idirs)[0]
        live = [i for i in range(len(self.triangles)) if row[i] == 1 or row[i] != row[i + 1]]
        for i in live:
            n, tri = self._inormals[i], self.triangles[i]
            edges = lambda: (row[i] - 1, orient3d(s.a, s.b, tri.q, tri.r), 1 - row[i + 1])
            for c in _contacts_from_signs(s, tri, sign(idot(n, va)), sign(idot(n, vb)), edges):
                add(i, c.feature, point=c.point, seg=c.seg)
                if c.kind != "segment":
                    continue
                for endpoint in c.seg:
                    efeat = _locate_in_plane(endpoint, tri)
                    if efeat is not None and efeat != c.feature:
                        add(i, efeat, point=endpoint)
        contacts = []
        witness = None
        any_interior = False
        for dfeat in sorted(entries, key=_feature_key):
            interior, point, seg = entries[dfeat]
            c = DiskContact(dfeat, point=point, seg=seg)
            contacts.append(c)
            if interior:
                any_interior = True
                if witness is None:
                    witness = c.witness_point()
        if any_interior:
            return DiskSegmentResult("meets-interior", tuple(contacts), witness=witness)
        if contacts:
            return DiskSegmentResult("boundary-only", tuple(contacts))
        return DiskSegmentResult("disjoint", ())

    # -- serialization helpers ----------------------------------------------

    def to_jsonable(self) -> dict:
        from .jsonio import point_to_json

        return {
            "apex": point_to_json(self.apex),
            "rim": [point_to_json(p) for p in self.rim],
            "closed": self.closed,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "FanDisk":
        from .jsonio import bool_from_json, point_from_json

        if not isinstance(obj, dict):
            raise ConfigError("fan document must be a JSON object", "fan")
        for key in ("apex", "rim"):
            if key not in obj:
                raise ConfigError("missing required field", key)
        if not isinstance(obj["rim"], list):
            raise ConfigError("expected a list of points", "rim")
        return cls(
            point_from_json(obj["apex"], "apex"),
            [point_from_json(p, f"rim[{k}]") for k, p in enumerate(obj["rim"])],
            closed=bool_from_json(obj.get("closed", False), "closed"),
        )


def cone(apex: ExactPoint, rim: Sequence[ExactPoint], closed: bool = False) -> FanDisk:
    """Cone an apex onto a polyline with straight triangles, yielding a disk.

    Raises :class:`FanConstructionError` when a fan triangle is degenerate
    (rim chord through the apex) or two non-adjacent triangles meet.
    """
    return FanDisk(apex, rim, closed=closed)


def _feature_key(feature: DiskFeature):
    return (str(feature[0]), feature[1:])


@dataclass(frozen=True)
class DiskContact:
    feature: DiskFeature
    point: Optional[ExactPoint] = None
    seg: Optional[Tuple[ExactPoint, ExactPoint]] = None

    def witness_point(self) -> ExactPoint:
        if self.point is not None:
            return self.point
        a, b = self.seg
        return a + (b - a).scale(Fraction(1, 2))


@dataclass(frozen=True)
class DiskSegmentResult:
    kind: str  # 'disjoint' | 'boundary-only' | 'meets-interior'
    contacts: Tuple[DiskContact, ...] = ()
    witness: Optional[ExactPoint] = None

    def boundary_features(self) -> Tuple[DiskFeature, ...]:
        return tuple(c.feature for c in self.contacts)


# ---------------------------------------------------------------------------
# Disk / disk classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiskDiskResult:
    kind: str  # 'disjoint' | 'single-point' | 'larger-intersection'
    point: Optional[ExactPoint] = None
    on_boundary_1: Optional[bool] = None
    on_boundary_2: Optional[bool] = None
    witness: Optional[tuple] = None


def _shared_apex_classify(d1: FanDisk, d2: FanDisk) -> DiskDiskResult:
    """Fan pair with a common apex: triangles meet away from the apex iff
    their direction cones share a direction, which is an exact integer test.

    ``side1[i]`` holds the signs of d2's rim directions against d1's
    triangle i, and ``side2[j]`` those of d1's rim directions against d2's
    triangle j (rows as in :meth:`FanDisk._validate_embedded`).  A pair is
    apart when either triangle's two rim directions lie strictly on one side
    of the other's plane, read from the rows; only the rest reach
    :func:`_cones_share_direction`.  Pairs are decided in (i, j) order, so
    the first meeting pair is the one reported.
    """
    apex = d1.apex
    dirs1, dirs2 = d1._idirs, d2._idirs
    side1 = _side_rows(d1._inormals, dirs2)
    side2 = _side_rows(d2._inormals, dirs1)
    for i, si in enumerate(side1):
        unsettled = [j for j, sj in enumerate(side2)
                     if (si[j] == 1 or si[j] != si[j + 1])
                     and (sj[i] == 1 or sj[i] != sj[i + 1])]
        for j in unsettled:
            if _cones_share_direction(dirs1[i], dirs1[i + 1], dirs2[j], dirs2[j + 1]):
                ev = triangle_triangle_intersection(d1.triangles[i], d2.triangles[j])
                return DiskDiskResult("larger-intersection", witness=(i, j, ev))
    f1 = d1.locate_point(apex)
    f2 = d2.locate_point(apex)
    return DiskDiskResult(
        "single-point",
        point=apex,
        on_boundary_1=not d1.feature_is_interior(f1),
        on_boundary_2=not d2.feature_is_interior(f2),
    )


def disk_disk_classify(d1: FanDisk, d2: FanDisk) -> DiskDiskResult:
    """Exact classification of the intersection of two fan disks.

    single-point reports the common point and whether it lies on each disk's
    boundary; anything bigger is larger-intersection with a witness.
    """
    if d1.apex == d2.apex:
        return _shared_apex_classify(d1, d2)
    found_point: Optional[ExactPoint] = None
    for i, t1 in enumerate(d1.triangles):
        for j, t2 in enumerate(d2.triangles):
            ev = triangle_triangle_intersection(t1, t2)
            if ev[0] == "empty":
                continue
            if ev[0] != "point":
                return DiskDiskResult("larger-intersection", witness=(i, j, ev))
            p = ev[1]
            if found_point is None:
                found_point = p
            elif found_point != p:
                return DiskDiskResult(
                    "larger-intersection", witness=(i, j, ("two-points", found_point, p))
                )
    if found_point is None:
        return DiskDiskResult("disjoint")
    f1 = d1.locate_point(found_point)
    f2 = d2.locate_point(found_point)
    return DiskDiskResult(
        "single-point",
        point=found_point,
        on_boundary_1=not d1.feature_is_interior(f1),
        on_boundary_2=not d2.feature_is_interior(f2),
    )


# ---------------------------------------------------------------------------
# Panel check
# ---------------------------------------------------------------------------

def _canonical_polygon(points: List[ExactPoint]) -> List[ExactPoint]:
    """Drop collinear interior vertices of a closed polygon, then rotate and
    reflect to the lexicographically least form."""
    pts = list(points)
    changed = True
    while changed and len(pts) > 3:
        changed = False
        for i in range(len(pts)):
            a = pts[(i - 1) % len(pts)]
            b = pts[i]
            c = pts[(i + 1) % len(pts)]
            if collinear(a, b, c):
                pts.pop(i)
                changed = True
                break
    def key(p):
        return (p.x, p.y, p.z)

    best = None
    m = len(pts)
    for rev in (False, True):
        seq = list(reversed(pts)) if rev else pts
        for r in range(m):
            cand = seq[r:] + seq[:r]
            k = tuple(key(p) for p in cand)
            if best is None or k < best[0]:
                best = (k, cand)
    return best[1]


@dataclass(frozen=True)
class PanelResult:
    kind: str  # 'paneled' | 'violated'
    witness: Optional[tuple] = None  # (description, feature, point)


def panel_check(d: FanDisk, e, boundary_cycle: Sequence) -> PanelResult:
    """Is the disk a panel for the cycle: boundary matches, interior avoided?

    ``e`` is a LinearEmbedding; ``boundary_cycle`` a vertex sequence forming a
    cycle of its graph.  Raises BoundaryMismatchError when the disk's boundary
    differs from the cycle polygon as a point set.
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
    if _canonical_polygon(cyc_pts) != _canonical_polygon(bound_pts):
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
            feat = min(
                (c.feature for c in res.contacts if d.feature_is_interior(c.feature)),
                key=_feature_key,
            )
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
            adv_a = i < na and (j == nb or Fraction(i + 1, na) <= Fraction(j + 1, nb))
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
