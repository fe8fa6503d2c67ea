"""Exact kernel predicates: unit cases and randomized properties."""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

from plgraph.exactgeom import (
    Contact,
    ExactPoint,
    Segment,
    Triangle,
    _locate_in_plane,
    collinear,
    orient3d,
    segment_segment_classify,
    segment_triangle_classify,
    segment_triangle_contacts,
    triangle_triangle_intersection,
)
from plgraph.errors import DegenerateGeometryError

P = ExactPoint


def det3_oracle(a, b, c, d):
    """Independent reference: cofactor expansion over plain Fractions."""
    rows = [
        (b.x - a.x, b.y - a.y, b.z - a.z),
        (c.x - a.x, c.y - a.y, c.z - a.z),
        (d.x - a.x, d.y - a.y, d.z - a.z),
    ]
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rows
    return (
        m00 * (m11 * m22 - m12 * m21)
        - m01 * (m10 * m22 - m12 * m20)
        + m02 * (m10 * m21 - m11 * m20)
    )


def rand_point(rng, span=60):
    return P(
        Fraction(rng.randint(-span, span), rng.randint(1, 9)),
        Fraction(rng.randint(-span, span), rng.randint(1, 9)),
        Fraction(rng.randint(-span, span), rng.randint(1, 9)),
    )


def perm_sign(perm):
    sign = 1
    seen = set()
    for start in range(4):
        if start in seen:
            continue
        length = 0
        k = start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_rational_scalars_are_canonical():
    # Fractions are the scalar type: reduced form, positive denominator,
    # structural equality, closed under field operations.
    x = Fraction(6, -8)
    assert (x.numerator, x.denominator) == (-3, 4)
    assert x + Fraction(3, 4) == 0
    assert Fraction(1, 3) / Fraction(7, 9) == Fraction(3, 7)
    assert P(Fraction(2, 4), 0, 0) == P(Fraction(1, 2), 0, 0)


def _ref_coord(rng):
    """A degenerate-heavy rational: 0, +-1, small shared or coprime
    denominators, or a numerator near 10**30."""
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.choice((-1, 1)))
    if kind == 2:
        return Fraction(rng.randint(-12, 12), 6)
    if kind == 3:
        return Fraction(rng.randint(-40, 40), rng.choice((7, 11, 13, 64)))
    if kind == 4:
        return Fraction(rng.choice((-1, 1)) * (10**30 + rng.randint(0, 999)),
                        rng.randint(1, 9))
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))


def _ref_triple(rng):
    return tuple(_ref_coord(rng) for _ in range(3))


def _assert_canonical(p, ref):
    X, Y, Z, D = p.irep
    assert D > 0
    assert gcd(X, Y, Z, D) == 1
    assert (Fraction(X, D), Fraction(Y, D), Fraction(Z, D)) == tuple(ref)
    assert (p.x, p.y, p.z) == p.coords() == tuple(ref)


def test_point_operators_match_fraction_triples():
    """Each ExactPoint operator against plain Fraction-triple arithmetic, and
    every result in canonical form: D > 0 and gcd(X, Y, Z, D) = 1."""
    rng = random.Random(31)
    for _ in range(400):
        u, v = _ref_triple(rng), _ref_triple(rng)
        if rng.random() < 0.2:
            v = u  # equal points: the difference is exactly zero
        k = rng.choice((0, -1, Fraction(-3, 7), _ref_coord(rng)))
        p, q = P(*u), P(*v)
        _assert_canonical(p, u)
        _assert_canonical(p + q, [a + b for a, b in zip(u, v)])
        _assert_canonical(p - q, [a - b for a, b in zip(u, v)])
        _assert_canonical(p.scale(k), [a * k for a in u])
        _assert_canonical(p.cross(q), (u[1] * v[2] - u[2] * v[1],
                                       u[2] * v[0] - u[0] * v[2],
                                       u[0] * v[1] - u[1] * v[0]))
        assert p.dot(q) == sum(a * b for a, b in zip(u, v))
        assert p.norm2() == sum(a * a for a in u)
        assert (p - q).is_zero() == (u == v)
        assert (p == q) == (u == v)
        if u == v:
            assert hash(p) == hash(q)
        assert (p - p).irep == (0, 0, 0, 1)
        assert p.scale(0).irep == (0, 0, 0, 1)


def test_equal_points_compare_and_hash_equal():
    half = [P("1/2", 0, -1), P(Fraction(2, 4), 0, -1),
            P(1, 0, -2).scale(Fraction(1, 2)),
            P("3/2", "1/3", -1) - P(1, "1/3", 0),
            P(1, 2, 3).cross(P(0, 0, 0)) + P(Fraction(-5, -10), "0/7", Fraction(-6, 6))]
    for p in half:
        assert p == half[0]
        assert hash(p) == hash(half[0])
        assert p.irep == (1, 0, -2, 2)
    assert len(set(half)) == 1
    assert P(1, 0, 0) != P(2, 0, 0) and P(1, 0, 0) != (1, 0, 0)


def test_point_json_round_trip_gives_back_the_inputs():
    from plgraph.jsonio import point_from_json, point_to_json

    rng = random.Random(32)
    for _ in range(200):
        ref = _ref_triple(rng)
        p = P(*ref)
        assert (p.x, p.y, p.z) == ref
        back = point_from_json(point_to_json(p))
        assert back == p and back.coords() == ref and back.irep == p.irep


def test_point_from_unreduced_json_pairs_is_canonical():
    """Pairs that are not reduced, or have negative denominators, give the
    point the Fractions give, in canonical form."""
    from plgraph.jsonio import point_from_json

    rng = random.Random(33)
    for _ in range(400):
        pairs = []
        for _ in range(3):
            n = rng.choice((0, rng.randint(-50, 50), rng.randint(-10**25, 10**25)))
            d = rng.choice((1, -1, rng.randint(1, 12), -rng.randint(1, 12), rng.randint(1, 10**9)))
            k = rng.choice((1, -1, rng.randint(2, 9), -rng.randint(2, 9)))
            pairs.append([n * k, d * k])
        p = point_from_json(pairs)
        ref = tuple(Fraction(n, d) for n, d in pairs)
        assert p == P(*ref)
        _assert_canonical(p, ref)


@pytest.mark.parametrize("bad", [[True, 1], [1, True], [False, 1], [1.0, 2], [1, 2, 3], "1/2"])
def test_json_pairs_must_be_integers_not_booleans(bad):
    from plgraph.errors import ConfigError
    from plgraph.jsonio import point_from_json, rat_from_json

    with pytest.raises(ConfigError) as exc:
        rat_from_json(bad, "epsilon")
    assert exc.value.field == "epsilon"
    assert "expected a [numerator, denominator] integer pair" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        point_from_json([[0, 1], bad, [0, 1]], "center")
    assert exc.value.field == "center[1]"
    assert "expected a [numerator, denominator] integer pair" in str(exc.value)


def test_json_zero_denominator_names_the_coordinate():
    from plgraph.errors import ConfigError
    from plgraph.jsonio import point_from_json

    with pytest.raises(ConfigError) as exc:
        point_from_json([[0, 1], [0, 1], [3, 0]], "alpha[4]")
    assert exc.value.field == "alpha[4][2]"
    assert "zero denominator" in str(exc.value)


def test_orient3d_unit_tetrahedron():
    assert orient3d(P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)) == 1


def test_orient3d_coplanar():
    assert orient3d(P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(1, 1, 0)) == 0


def test_orient3d_odd_permutation_flips():
    assert orient3d(P(0, 0, 0), P(0, 1, 0), P(1, 0, 0), P(0, 0, 1)) == -1


def test_orient3d_matches_oracle_and_permutation_parity():
    rng = random.Random(20240811)
    for trial in range(300):
        pts = [rand_point(rng) for _ in range(4)]
        if trial % 3 == 0:
            # Force coplanarity: d is an affine rational combination.
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            mu = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            a, b, c, _ = pts
            pts[3] = a + (b - a).scale(lam) + (c - a).scale(mu)
        base = orient3d(*pts)
        assert base == (det3_oracle(*pts) > 0) - (det3_oracle(*pts) < 0)
        perm = list(range(4))
        rng.shuffle(perm)
        assert orient3d(*(pts[k] for k in perm)) == perm_sign(perm) * base


def test_orient3d_antisymmetric_under_each_transposition():
    rng = random.Random(7)
    swaps = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for _ in range(100):
        pts = [rand_point(rng) for _ in range(4)]
        base = orient3d(*pts)
        for i, j in swaps:
            q = list(pts)
            q[i], q[j] = q[j], q[i]
            assert orient3d(*q) == -base


def test_segment_requires_distinct_endpoints():
    with pytest.raises(DegenerateGeometryError):
        Segment(P(1, 2, 3), P(1, 2, 3))


def test_triangle_rejects_collinear():
    with pytest.raises(DegenerateGeometryError):
        Triangle(P(0, 0, 0), P(1, 1, 1), P(2, 2, 2))


class TestSegmentSegment:
    def test_separated_collinear(self):
        r = segment_segment_classify(
            Segment(P(0, 0, 0), P(1, 0, 0)), Segment(P(2, 0, 0), P(3, 0, 0))
        )
        assert r.kind == "disjoint"

    def test_square_diagonals(self):
        r = segment_segment_classify(
            Segment(P(0, 0, 0), P(1, 1, 0)), Segment(P(1, 0, 0), P(0, 1, 0))
        )
        assert r.kind == "interior-cross"
        assert r.point == P(Fraction(1, 2), Fraction(1, 2), 0)

    def test_shared_endpoint(self):
        r = segment_segment_classify(
            Segment(P(0, 0, 0), P(1, 0, 0)), Segment(P(1, 0, 0), P(1, 1, 0))
        )
        assert r.kind == "endpoint-touch"
        assert r.point == P(1, 0, 0)

    def test_collinear_overlap(self):
        r = segment_segment_classify(
            Segment(P(0, 0, 0), P(2, 0, 0)), Segment(P(1, 0, 0), P(3, 0, 0))
        )
        assert r.kind == "collinear-overlap"
        assert r.overlap == (P(1, 0, 0), P(2, 0, 0))

    def test_skew_disjoint(self):
        r = segment_segment_classify(
            Segment(P(0, 0, 0), P(1, 0, 0)), Segment(P(0, 1, 1), P(1, 1, 2))
        )
        assert r.kind == "disjoint"

    def test_symmetry_under_endpoint_swaps(self):
        rng = random.Random(99)
        for _ in range(200):
            s = Segment(rand_point(rng, 10), rand_point(rng, 10))
            t = Segment(rand_point(rng, 10), rand_point(rng, 10))
            kinds = {
                segment_segment_classify(a, b).kind
                for a in (s, s.reversed())
                for b in (t, t.reversed())
            }
            assert len(kinds) == 1


TRI = Triangle(P(-1, -1, 0), P(2, -1, 0), P(-1, 2, 0))


class TestSegmentTriangle:
    def test_transversal_interior(self):
        r = segment_triangle_classify(Segment(P(0, 0, -1), P(0, 0, 1)), TRI)
        assert r.kind == "interior-cross"
        assert r.witness_point() == P(0, 0, 0)

    def test_far_outside(self):
        r = segment_triangle_classify(Segment(P(5, 5, -1), P(5, 5, 1)), TRI)
        assert r.kind == "disjoint"

    def test_through_vertex(self):
        r = segment_triangle_classify(Segment(P(-1, -1, -1), P(-1, -1, 1)), TRI)
        assert r.kind == "boundary-touch"
        assert r.contacts[0].feature == ("vertex", 0)
        assert r.witness_point() == P(-1, -1, 0)

    def test_endpoint_resting_on_open_triangle(self):
        r = segment_triangle_classify(Segment(P(0, 0, 0), P(0, 0, 5)), TRI)
        assert r.kind == "interior-cross"
        assert r.witness_point() == P(0, 0, 0)

    def test_coplanar_chord(self):
        r = segment_triangle_classify(Segment(P(-2, 0, 0), P(2, 0, 0)), TRI)
        assert r.kind == "coplanar-overlap"

    def test_coplanar_along_edge(self):
        r = segment_triangle_classify(Segment(P(-1, -1, 0), P(3, -1, 0)), TRI)
        assert r.kind == "boundary-touch"
        assert r.contacts[0].kind == "segment"

    def test_relabeling_invariance(self):
        rng = random.Random(4242)
        for _ in range(120):
            tri_pts = [rand_point(rng, 8) for _ in range(3)]
            if collinear(*tri_pts):
                continue
            s = Segment(rand_point(rng, 8), rand_point(rng, 8))
            kinds = set()
            for perm in permutations(range(3)):
                t = Triangle(*(tri_pts[k] for k in perm))
                kinds.add(segment_triangle_classify(s, t).kind)
                kinds.add(segment_triangle_classify(s.reversed(), t).kind)
            assert len(kinds) == 1

    def test_determinism(self):
        s = Segment(P(Fraction(1, 3), Fraction(1, 7), -2), P(0, 0, 3))
        first = segment_triangle_classify(s, TRI)
        second = segment_triangle_classify(s, TRI)
        assert first == second


def edge_side(tri, k, x):
    """A Fraction whose sign says where the in-plane point x lies against
    edge k's line: positive on the triangle's side, zero on the line,
    negative beyond it."""
    v = tri.vertices
    return (v[(k + 1) % 3] - v[k]).cross(x - v[k]).dot(tri.normal)


def parametric_coplanar_contacts(s, tri):
    """Oracle for the kernel's in-plane clip: the segment clipped by one
    parameter interval against the three edge lines, in Fractions."""
    point_at = lambda t: s.a + (s.b - s.a).scale(t)
    v = tri.vertices
    u = s.b - s.a
    lo, hi = Fraction(0), Fraction(1)
    for k in range(3):
        h0 = edge_side(tri, k, s.a)
        h1 = edge_side(tri, k, s.b)
        if h0 < 0 and h1 < 0:
            return []
        if h0 >= 0 and h1 >= 0:
            continue
        tstar = h0 / (h0 - h1)
        if h0 < 0:
            lo = max(lo, tstar)
        else:
            hi = min(hi, tstar)
        if lo > hi:
            return []
    if lo > hi:
        return []
    if lo == hi:
        pt = point_at(lo)
        feat = _locate_in_plane(pt, tri)
        assert feat is not None
        return [Contact("point", feat, point=pt)]
    p1 = point_at(lo)
    p2 = point_at(hi)
    # Collinear with an edge line?
    for k in range(3):
        e = v[(k + 1) % 3] - v[k]
        if u.cross(e).is_zero() and collinear(v[k], v[(k + 1) % 3], p1):
            return [Contact("segment", ("edge", k), seg=(p1, p2))]
    return [Contact("segment", ("chord",), seg=(p1, p2))]


def planar_cases(A, B, C):
    """In-plane segments against triangle ABC (as plane coordinates), each
    with the contact kind and feature the clip must give."""
    G = tuple(Fraction(a + b + c, 3) for a, b, c in zip(A, B, C))
    at = lambda p, q, t: tuple(x + t * (y - x) for x, y in zip(p, q))
    mab, mac = at(A, B, Fraction(1, 2)), at(A, C, Fraction(1, 2))
    return {
        "through a vertex": (at(G, A, 2), G, "segment", ("chord",)),
        "along an edge": (at(A, B, -1), at(A, B, Fraction(1, 2)), "segment", ("edge", 0)),
        "crossing two edges": (at(mab, mac, -1), at(mab, mac, 2), "segment", ("chord",)),
        "inside": (G, at(G, A, Fraction(1, 2)), "segment", ("chord",)),
        "touching at one vertex": (A, at(G, A, 2), "point", ("vertex", 0)),
        "outside": (at(G, A, 3), at(G, B, 3), None, None),
    }


PLANES = {
    "flat": lambda p: P(p[0], p[1], 0),
    "tilted": lambda p: P(Fraction(1, 7) + p[0] - Fraction(p[1], 4),
                          Fraction(-2, 5) + Fraction(p[0], 3) + p[1],
                          3 + Fraction(p[0], 2) + Fraction(2 * p[1], 3)),
}


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_in_plane_clip_matches_parametric_clip(plane):
    """Segments in a lattice triangle's plane get the same contacts, kind,
    feature, point and endpoint order, from the polygon clip as from the
    parametric one, in both directions; each planted case gives its
    contact."""
    rng = random.Random(808)
    lift = PLANES[plane]
    lattice = [(x, y) for x in range(-3, 4) for y in range(-3, 4)]
    seen = set()
    for _ in range(80):
        A, B, C = rng.sample(lattice, 3)
        if (B[0] - A[0]) * (C[1] - A[1]) == (B[1] - A[1]) * (C[0] - A[0]):
            continue
        tri = Triangle(lift(A), lift(B), lift(C))
        cases = planar_cases(A, B, C)
        segs = [(a, b) for a, b, _kind, _feat in cases.values()]
        segs += [tuple(rng.sample(lattice, 2)) for _ in range(6)]
        for a, b in segs:
            for s in (Segment(lift(a), lift(b)), Segment(lift(b), lift(a))):
                assert segment_triangle_contacts(s, tri) == parametric_coplanar_contacts(s, tri), s
        for name, (a, b, kind, feat) in cases.items():
            got = segment_triangle_contacts(Segment(lift(a), lift(b)), tri)
            assert [(c.kind, c.feature) for c in got] == ([(kind, feat)] if kind else []), name
            seen.add(name)
    assert seen == {"through a vertex", "along an edge", "crossing two edges", "inside",
                    "touching at one vertex", "outside"}


def _brute_boundary_contacts(t1, t2):
    """Contacts of each triangle's boundary edges with the other triangle."""
    from plgraph.exactgeom import segment_triangle_contacts

    pts, segs = [], []
    for ta, tb in ((t1, t2), (t2, t1)):
        for k in range(3):
            for c in segment_triangle_contacts(ta.edge(k), tb):
                if c.kind == "point":
                    pts.append(c.point)
                else:
                    segs.append(c.seg)
    return pts, segs


def _point_in_tri(p, t):
    from plgraph.exactgeom import _locate_in_plane

    return orient3d(t.p, t.q, t.r, p) == 0 and _locate_in_plane(p, t) is not None


def _on_segment(x, a, b):
    if not collinear(a, b, x):
        return False
    lam = (x - a).dot(b - a)
    return 0 <= lam <= (b - a).norm2()


def test_triangle_triangle_differential():
    """Each verdict must be consistent with an independent reconstruction of
    the intersection from boundary-edge contacts and membership tests."""
    rng = random.Random(424242)

    def rp():
        return P(Fraction(rng.randint(-20, 20), 4),
                 Fraction(rng.randint(-20, 20), 4),
                 Fraction(rng.randint(-20, 20), 4))

    def rtri(maker):
        while True:
            a, b, c = maker(), maker(), maker()
            if not collinear(a, b, c):
                return Triangle(a, b, c)

    cases = 0
    trial = -1
    while cases < 600:
        trial += 1
        t1 = rtri(rp)
        mode = trial % 6
        if mode == 0:
            t2 = rtri(rp)
        elif mode == 1:  # shared vertex
            a, b = rp(), rp()
            if collinear(t1.p, a, b):
                continue
            t2 = Triangle(t1.p, a, b)
        elif mode == 2:  # shared edge
            x = rp()
            if collinear(t1.p, t1.q, x):
                continue
            t2 = Triangle(t1.p, t1.q, x)
        elif mode == 3:  # coplanar
            def inplane():
                lam = Fraction(rng.randint(-8, 8), 4)
                mu = Fraction(rng.randint(-8, 8), 4)
                return t1.p + (t1.q - t1.p).scale(lam) + (t1.r - t1.p).scale(mu)

            t2 = rtri(inplane)
        elif mode == 4:  # one vertex exactly on t1's plane
            lam = Fraction(rng.randint(-6, 6), 3)
            mu = Fraction(rng.randint(-6, 6), 3)
            v = t1.p + (t1.q - t1.p).scale(lam) + (t1.r - t1.p).scale(mu)
            a, b = rp(), rp()
            if collinear(v, a, b):
                continue
            t2 = Triangle(v, a, b)
        else:  # an edge piercing t1's interior
            w = t1.p + (t1.q - t1.p).scale(Fraction(1, 3)) \
                + (t1.r - t1.p).scale(Fraction(1, 3))
            n = t1.normal
            a = w + n.scale(Fraction(1, 7))
            b = w - n.scale(Fraction(1, 9))
            c = rp()
            if collinear(a, b, c):
                continue
            t2 = Triangle(a, b, c)
        cases += 1
        ev = triangle_triangle_intersection(t1, t2)
        pts, segs = _brute_boundary_contacts(t1, t2)
        allpts = pts + [q for s in segs for q in s]
        if ev[0] == "empty":
            assert not allpts
            if all(orient3d(t1.p, t1.q, t1.r, v) == 0 for v in t2.vertices):
                assert not any(_point_in_tri(v, t1) for v in t2.vertices)
                assert not any(_point_in_tri(v, t2) for v in t1.vertices)
        elif ev[0] == "point":
            p = ev[1]
            assert _point_in_tri(p, t1) and _point_in_tri(p, t2)
            assert all(q == p for q in allpts)
        elif ev[0] == "segment":
            a, b = ev[1], ev[2]
            mid = a + (b - a).scale(Fraction(1, 2))
            for x in (a, b, mid):
                assert _point_in_tri(x, t1) and _point_in_tri(x, t2)
            assert all(_on_segment(q, a, b) for q in allpts)
        else:
            verts = ev[1]
            cen = verts[0]
            for v in verts[1:]:
                cen = cen + v
            cen = cen.scale(Fraction(1, len(verts)))
            for x in list(verts) + [cen]:
                assert _point_in_tri(x, t1) and _point_in_tri(x, t2)


class TestTriangleTriangle:
    def test_transversal_piercing(self):
        t1 = Triangle(P(0, 0, 0), P(4, 0, 0), P(0, 4, 0))
        t2 = Triangle(P(1, 1, -1), P(1, 1, 1), P(3, 3, 1))
        ev = triangle_triangle_intersection(t1, t2)
        assert ev[0] == "segment"

    def test_coplanar_overlap_polygon(self):
        t1 = Triangle(P(0, 0, 0), P(2, 0, 0), P(0, 2, 0))
        t2 = Triangle(P(1, 0, 0), P(3, 0, 0), P(0, 3, 0))
        ev = triangle_triangle_intersection(t1, t2)
        assert ev[0] == "polygon"

    def test_shared_vertex_only(self):
        t1 = Triangle(P(0, 0, 0), P(1, 0, 1), P(0, 1, 1))
        t2 = Triangle(P(0, 0, 0), P(-1, 0, -1), P(0, -1, -1))
        assert triangle_triangle_intersection(t1, t2) == ("point", P(0, 0, 0))

    def test_disjoint_parallel(self):
        t1 = Triangle(P(0, 0, 0), P(1, 0, 0), P(0, 1, 0))
        t2 = Triangle(P(0, 0, 5), P(1, 0, 5), P(0, 1, 5))
        assert triangle_triangle_intersection(t1, t2) == ("empty",)

    def test_symmetric_classification(self):
        rng = random.Random(11)
        for _ in range(80):
            pts = [rand_point(rng, 6) for _ in range(6)]
            if collinear(pts[0], pts[1], pts[2]) or collinear(pts[3], pts[4], pts[5]):
                continue
            t1 = Triangle(pts[0], pts[1], pts[2])
            t2 = Triangle(pts[3], pts[4], pts[5])
            e12 = triangle_triangle_intersection(t1, t2)
            e21 = triangle_triangle_intersection(t2, t1)
            assert e12[0] == e21[0]
            if e12[0] == "point":
                assert e12[1] == e21[1]
