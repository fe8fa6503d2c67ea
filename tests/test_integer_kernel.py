"""The kernel's integer constructions against Fraction references written here.

``plane_crossing``, ``_locate_in_plane``, the in-plane clip,
``segment_segment_classify`` and ``midpoint`` compute on the points'
canonical integers.  Each reference below computes the same answer on
Fraction coordinate triples, with the textbook formula (a crossing
parameter, barycentric coordinates, a parameter interval, a line/line solve,
``a + (b - a) / 2``), and builds an ``ExactPoint`` only to compare.  Points are seeded rationals with denominators up to 10**6, or
lattice points.  A crossing point is compared by its irep, so a
non-canonical result (a negative or unreduced denominator) fails as well as
a wrong point.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from plgraph.exactgeom import (
    ExactPoint,
    Segment,
    Triangle,
    _clip_polygon_in_plane,
    _locate_in_plane,
    midpoint,
    plane_crossing,
    segment_segment_classify,
    segment_triangle_contacts,
    triangle_triangle_intersection,
)
from plgraph.jsonio import point_from_json
from test_exactgeom import edge_side, parametric_coplanar_contacts

F = Fraction
BIG = 10 ** 6


# -- Fraction vector helpers --------------------------------------------------

def coords(p):
    return (p.x, p.y, p.z)


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def mul(k, u):
    return tuple(k * a for a in u)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def combo(weights, points):
    """The affine combination of Fraction triples with the given weights."""
    out = (F(0), F(0), F(0))
    for w, p in zip(weights, points):
        out = add(out, mul(w, p))
    return out


def pt(u):
    return ExactPoint(*u)


def rational(rng, span=BIG):
    return F(rng.randint(-span, span), rng.randint(1, BIG))


def rational_triple(rng):
    return (rational(rng), rational(rng), rational(rng))


def lattice_triple(rng, span=6):
    return tuple(F(rng.randint(-span, span)) for _ in range(3))


def random_triangle(rng, make):
    while True:
        v = [make(rng) for _ in range(3)]
        if cross(sub(v[1], v[0]), sub(v[2], v[0])) != (0, 0, 0):
            return v, Triangle(*map(pt, v))


def canonical(p):
    X, Y, Z, D = p.irep
    return D > 0 and gcd(X, Y, Z, D) == 1


# -- references -----------------------------------------------------------------

def ref_plane_crossing(v, a, b):
    """Segment ab against the plane of triangle v, by its crossing
    parameter t = ha / (ha - hb) on Fraction heights."""
    n = cross(sub(v[1], v[0]), sub(v[2], v[0]))
    ha, hb = dot(sub(a, v[0]), n), dot(sub(b, v[0]), n)
    return add(a, mul(ha / (ha - hb), sub(b, a)))


def ref_feature(lam):
    """Triangle feature from the barycentric coordinates of a point of its
    plane: edge k runs from vertex k to vertex k + 1, so it is where the
    coordinate of vertex k + 2 is zero."""
    if any(x < 0 for x in lam):
        return None
    zeros = [k for k in range(3) if lam[k] == 0]
    if not zeros:
        return ("interior",)
    if len(zeros) == 1:
        return ("edge", (zeros[0] + 1) % 3)
    return ("vertex", next(k for k in range(3) if lam[k] != 0))


def ref_clip(points, tri):
    """Sutherland-Hodgman against the three edge half-planes, with
    Fraction edge sides and Fraction cut parameters."""
    pts = list(points)
    for k in range(3):
        if not pts:
            return []
        hs = [edge_side(tri, k, pt(p)) for p in pts]
        keep = []
        for i in range(len(pts)):
            j = (i + 1) % len(pts)
            if hs[i] >= 0:
                keep.append(pts[i])
            if hs[i] * hs[j] < 0:
                keep.append(add(pts[i], mul(hs[i] / (hs[i] - hs[j]), sub(pts[j], pts[i]))))
        pts = list(dict.fromkeys(keep))
    return [pt(p) for p in pts]


def ref_segment_segment(s, t):
    """(kind, point, overlap) of two segments by the Fraction line/line
    solve and interval arithmetic on a shared line."""
    a, b, c, d = coords(s.a), coords(s.b), coords(t.a), coords(t.b)
    u, w = sub(b, a), sub(d, c)
    if dot(cross(u, sub(c, a)), sub(d, a)) != 0:
        return ("disjoint", None, None)
    if cross(u, sub(c, a)) == (0, 0, 0) and cross(u, sub(d, a)) == (0, 0, 0):
        uu = dot(u, u)
        t0, t1 = sorted((dot(sub(c, a), u) / uu, dot(sub(d, a), u) / uu))
        lo, hi = max(F(0), t0), min(F(1), t1)
        if lo > hi:
            return ("disjoint", None, None)
        if lo == hi:
            return ("endpoint-touch", pt(add(a, mul(lo, u))), None)
        return ("collinear-overlap", None, (pt(add(a, mul(lo, u))), pt(add(a, mul(hi, u)))))
    n = cross(u, w)
    if n == (0, 0, 0):
        return ("disjoint", None, None)
    m, nn = sub(c, a), dot(n, n)
    t1, t2 = dot(cross(m, w), n) / nn, dot(cross(m, u), n) / nn
    if not (0 <= t1 <= 1 and 0 <= t2 <= 1):
        return ("disjoint", None, None)
    kind = "interior-cross" if 0 < t1 < 1 and 0 < t2 < 1 else "endpoint-touch"
    return (kind, pt(add(a, mul(t1, u))), None)


# -- plane_crossing ------------------------------------------------------------------

def crossing_cases(rng, make, count):
    """(triangle vertices, triangle, a, b, crossing) with a and b strictly on
    opposite sides: the crossing is planted on the plane inside, at a vertex,
    on an edge or outside the triangle, and a and b leave it along a
    direction off the plane."""
    out = []
    while len(out) < 4 * count:
        v, tri = random_triangle(rng, make)
        n = cross(sub(v[1], v[0]), sub(v[2], v[0]))
        r = F(rng.randint(1, BIG - 1), BIG)
        planted = [
            combo((F(1, 3), F(1, 3), F(1, 3)), v),
            v[rng.randrange(3)],
            combo((r, 1 - r, F(0)), v),
            combo((F(2), F(-1, 2), F(-1, 2)), v),
        ]
        d = make(rng)
        if dot(d, n) == 0:
            continue
        for x in planted:
            sa, sb = rational(rng, BIG) ** 2 + 1, rational(rng, BIG) ** 2 + 1
            out.append((v, tri, add(x, mul(sa, d)), sub(x, mul(sb, d)), x))
    return out


@pytest.mark.parametrize("make", [rational_triple, lattice_triple], ids=["rational", "lattice"])
def test_plane_crossing_matches_the_fraction_parameter(make):
    rng = random.Random(7101 if make is rational_triple else 7102)
    for v, tri, a, b, x in crossing_cases(rng, make, 60):
        for p, q in ((a, b), (b, a)):
            got = plane_crossing(tri, pt(p), pt(q))
            assert canonical(got)
            assert got.irep == pt(x).irep == pt(ref_plane_crossing(v, p, q)).irep


def test_plane_crossing_on_lattice_segments():
    """Lattice segments whose ends are strictly on opposite sides of a
    lattice triangle's plane, both ways round."""
    rng = random.Random(7103)
    checked = 0
    while checked < 300:
        v, tri = random_triangle(rng, lattice_triple)
        a, b = lattice_triple(rng), lattice_triple(rng)
        n = cross(sub(v[1], v[0]), sub(v[2], v[0]))
        if dot(sub(a, v[0]), n) * dot(sub(b, v[0]), n) >= 0:
            continue
        checked += 1
        assert plane_crossing(tri, pt(a), pt(b)).irep == pt(ref_plane_crossing(v, a, b)).irep
        assert plane_crossing(tri, pt(b), pt(a)).irep == pt(ref_plane_crossing(v, a, b)).irep


# -- _locate_in_plane ------------------------------------------------------------------

def barycentric_cases(rng):
    """Barycentric coordinates of points on each of the seven features and
    outside the triangle."""
    r = F(rng.randint(1, BIG - 1), BIG)
    s = F(rng.randint(1, BIG // 2 - 1), BIG)
    inside = [(F(1, 3), F(1, 3), F(1, 3)), (s, s, 1 - 2 * s)]
    on_edges = [(r, 1 - r, F(0)), (F(0), r, 1 - r), (1 - r, F(0), r)]
    vertices = [(F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
    # Beyond an edge's end on its line, past a vertex, and just outside.
    outside = [(-r, 1 + r, F(0)), (F(2), F(-1), F(0)), (r, F(1), -r),
               (F(-1, BIG), F(1, 2), F(1, 2) + F(1, BIG))]
    return inside + on_edges + vertices + outside


@pytest.mark.parametrize("make", [rational_triple, lattice_triple], ids=["rational", "lattice"])
def test_locate_in_plane_matches_barycentric_signs(make):
    rng = random.Random(7201 if make is rational_triple else 7202)
    seen = set()
    for _ in range(60):
        v, tri = random_triangle(rng, make)
        for lam in barycentric_cases(rng):
            x = pt(combo(lam, v))
            want = ref_feature(lam)
            assert _locate_in_plane(x, tri) == want, lam
            signs = [edge_side(tri, k, x) for k in range(3)]
            assert (want is None) == any(h < 0 for h in signs)
            seen.add(want)
    assert seen == {None, ("interior",), ("edge", 0), ("edge", 1), ("edge", 2),
                    ("vertex", 0), ("vertex", 1), ("vertex", 2)}


# -- the in-plane clip -------------------------------------------------------------------

def in_plane_points(rng, v, count):
    """Points of triangle v's plane from seeded barycentric coordinates,
    many of them outside the triangle."""
    out = []
    for _ in range(count):
        l1, l2 = rational(rng, 2 * BIG), rational(rng, 2 * BIG)
        out.append(combo((1 - l1 - l2, l1, l2), v))
    return out


@pytest.mark.parametrize("make", [rational_triple, lattice_triple], ids=["rational", "lattice"])
def test_clip_matches_the_fraction_clip(make):
    """Coplanar segments and triangles clipped by a triangle, against the
    Fraction clip; segments also against the parametric clip."""
    rng = random.Random(7301 if make is rational_triple else 7302)
    kinds = set()
    for _ in range(80):
        v, tri = random_triangle(rng, make)
        pts = in_plane_points(rng, v, 5)
        a, b = pts[0], pts[1]
        if a != b:
            s = Segment(pt(a), pt(b))
            assert segment_triangle_contacts(s, tri) == parametric_coplanar_contacts(s, tri)
        for poly in ([a, b], pts[2:], [v[0], pts[2], pts[3]]):
            got = _clip_polygon_in_plane([pt(p) for p in poly], tri)
            assert [p.irep for p in got] == [p.irep for p in ref_clip(poly, tri)]
            kinds.add(len(got))
    assert {0, 1, 2, 3, 4, 5} <= kinds


def test_clip_of_a_triangle_section_matches_the_fraction_route():
    """A triangle crossing another's plane: its section, clipped."""
    rng = random.Random(7303)
    nonempty = 0
    for _ in range(200):
        v, t1 = random_triangle(rng, rational_triple)
        w, t2 = random_triangle(rng, rational_triple)
        n = cross(sub(v[1], v[0]), sub(v[2], v[0]))
        h = [dot(sub(x, v[0]), n) for x in w]
        if all(x != 0 for x in h) and (all(x > 0 for x in h) or all(x < 0 for x in h)):
            continue
        section = [w[k] for k in range(3) if h[k] == 0]
        section += [ref_plane_crossing(v, w[k], w[(k + 1) % 3])
                    for k in range(3) if h[k] * h[(k + 1) % 3] < 0]
        want = ref_clip(section, t1)
        got = triangle_triangle_intersection(t1, t2)
        if not want:
            assert got == ("empty",)
            continue
        nonempty += 1
        assert got == (("point", want[0]) if len(want) == 1 else ("segment", want[0], want[-1]))
    assert nonempty >= 20


# -- segment_segment_classify --------------------------------------------------------------

def segment_pairs(rng):
    """Coplanar pairs in a seeded rational plane: crossing, touching (an end
    on the other segment, or a shared end), collinear (overlapping, touching
    or apart), parallel, and unplanned; plus a skew pair."""
    o, e1, e2 = rational_triple(rng), lattice_triple(rng), lattice_triple(rng)
    if cross(e1, e2) == (0, 0, 0):
        return []
    lift = lambda p: pt(add(o, add(mul(p[0], e1), mul(p[1], e2))))
    q = lambda: (rational(rng, 4 * BIG), rational(rng, 4 * BIG))
    at = lambda p, d, t: (p[0] + t * d[0], p[1] + t * d[1])
    r = lambda: F(rng.randint(1, BIG - 1), BIG)
    p, d1, d2 = q(), q(), q()
    out = [
        ("crossing", (at(p, d1, -r()), at(p, d1, r())), (at(p, d2, -r()), at(p, d2, r()))),
        ("end on segment", (at(p, d1, -r()), at(p, d1, r())), (p, at(p, d2, r()))),
        ("shared end", (p, at(p, d1, r())), (at(p, d2, r()), p)),
        ("ends apart", (p, at(p, d1, r())), (at(p, d2, r()), at(p, d2, 1 + r()))),
    ]
    t = sorted(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4))
    if len(set(t)) == 4:
        a, b, c, e = (at(p, d1, x) for x in t)
        out += [("collinear overlap", (a, c), (b, e)), ("collinear inside", (a, e), (c, b)),
                ("collinear apart", (a, b), (c, e)), ("collinear touch", (a, b), (b, e))]
    off = q()
    out += [("parallel", (p, at(p, d1, r())), (at(off, d1, -r()), at(off, d1, 1 + r()))),
            ("unplanned", (q(), q()), (q(), q()))]
    pairs = [(name, Segment(lift(a), lift(b)), Segment(lift(c), lift(e)))
             for name, (a, b), (c, e) in out if a != b and c != e]
    s = Segment(pt(rational_triple(rng)), pt(rational_triple(rng)))
    return pairs + [("skew", s, Segment(pt(rational_triple(rng)), pt(rational_triple(rng))))]


def test_segment_segment_classify_matches_the_fraction_solve():
    rng = random.Random(7401)
    kinds = {}
    for _ in range(120):
        for name, s, t in segment_pairs(rng):
            for a, b in ((s, t), (t, s), (s.reversed(), t), (s, t.reversed())):
                got = segment_segment_classify(a, b)
                assert (got.kind, got.point, got.overlap) == ref_segment_segment(a, b), name
                for p in (got.point,) + (got.overlap or ()):
                    assert p is None or canonical(p)
                kinds.setdefault(name, set()).add(got.kind)
    assert kinds["crossing"] == {"interior-cross"}
    assert kinds["end on segment"] == kinds["shared end"] == {"endpoint-touch"}
    assert kinds["collinear overlap"] == kinds["collinear inside"] == {"collinear-overlap"}
    assert kinds["collinear touch"] == {"endpoint-touch"}
    assert kinds["collinear apart"] == kinds["parallel"] == kinds["ends apart"] == {"disjoint"}
    assert kinds["skew"] == {"disjoint"}


# -- midpoint ------------------------------------------------------------------------

def pair_point(rng):
    """A point read from ``[numerator, denominator]`` pairs that may be
    unreduced, have negative denominators, and mix integers with large
    denominators."""
    pairs = []
    for _ in range(3):
        n, d = rng.randint(-BIG, BIG), rng.choice((1, 2, rng.randint(1, BIG)))
        g, s = rng.choice((1, 2, 6, rng.randint(1, 999))), rng.choice((1, -1))
        pairs.append([s * g * n, s * g * d])
    return point_from_json(pairs)


def test_midpoint_matches_the_fraction_midpoint():
    rng = random.Random(7501)
    cases = [(pair_point(rng), pair_point(rng)) for _ in range(300)]
    cases += [(pt(lattice_triple(rng)), pt(lattice_triple(rng))) for _ in range(60)]
    a = pair_point(rng)
    cases += [(a, a), (a, pt((F(0), F(0), F(0))))]
    for a, b in cases:
        for p, q in ((a, b), (b, a)):
            got = midpoint(p, q)
            assert got.irep == pt(add(coords(p), mul(F(1, 2), sub(coords(q), coords(p))))).irep
