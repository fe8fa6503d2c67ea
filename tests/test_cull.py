"""The fan cull and the independent route's integer table change no result.

``FanDisk.classify_segment`` and ``crosscheck.fan_contact_features`` visit
only the fan triangles whose two rim points are not strictly on one side of
plane(apex, a, b), and ``crosscheck`` takes its signs from a per-fan table of
integers.  Each route is compared here with a full Fraction loop over every
triangle, kept in this file: on every scan segment of the control scene and
of a reduced default grid, and on seeded segments against integer and
rational lattice fans with the degenerate cases planted.  On the integer
lattice fans, rigid integer moves of the whole picture and a reversal of an
open fan's rim are checked to move ``classify_segment``'s answer with it.
"""

import gc
import random
import weakref
from fractions import Fraction

import pytest

from plgraph.crosscheck import (
    _along,
    _bary_feature,
    _cross,
    _disk_feature,
    _dot,
    _sub,
    _tri_barycentric,
    fan_contact_features,
    fan_meets_interior,
)
from plgraph.disks import DiskContact, DiskSegmentResult, _feature_key, cone
from plgraph.errors import FanConstructionError
from plgraph.exactgeom import (
    ExactPoint,
    Segment,
    _locate_in_plane,
    collinear,
    edge_sign_feature,
    idot,
    orient3d,
    plane_crossing,
    segment_triangle_contacts,
    sign,
)
from plgraph.scene import GridSpec, build_scene, default_paper_config
from plgraph.verify import _anchor_data, _classify_with_discount, upper_sample_points

P = ExactPoint


def full_classify_segment(fan, s):
    """``classify_segment`` as a loop over every triangle, with a memoised
    orient3d per spoke."""
    entries = {}

    def add(i, tri_feat, point=None, seg=None, lazy_cross=None):
        dfeat = fan._map_feature(i, tri_feat)
        if dfeat in entries:
            return
        interior = fan.feature_is_interior(dfeat) or tri_feat == ("chord",)
        entries[dfeat] = (interior, i, point, seg, lazy_cross)

    va = (s.a - fan.apex).irep
    vb = (s.b - fan.apex).irep
    spoke = {}

    def espoke(i):
        if i not in spoke:
            spoke[i] = orient3d(s.a, s.b, fan.apex, fan.rim[i])
        return spoke[i]

    slow = []
    m = len(fan.rim)
    for i, n in enumerate(fan._inormals):
        sa, sb = sign(idot(n, va)), sign(idot(n, vb))
        if sa == 0 or sb == 0:
            slow.append(i)
            continue
        if sa == sb:
            continue
        j = (i + 1) % m
        e1, e2, e3 = espoke(i), orient3d(s.a, s.b, fan.rim[i], fan.rim[j]), -espoke(j)
        want = -sa
        if (e1 != 0 and e1 != want) or (e2 != 0 and e2 != want) or (e3 != 0 and e3 != want):
            continue
        add(i, edge_sign_feature(e1, e2, e3), lazy_cross=i)
    for i in slow:
        for c in segment_triangle_contacts(s, fan.triangles[i]):
            if c.kind == "point":
                add(i, c.feature, point=c.point)
            else:
                add(i, c.feature, seg=c.seg)
                for endpoint in c.seg:
                    efeat = _locate_in_plane(endpoint, fan.triangles[i])
                    if efeat is not None and efeat != c.feature:
                        add(i, efeat, point=endpoint)
    contacts, witness = [], None
    for dfeat in sorted(entries, key=_feature_key):
        interior, i, point, seg, lazy = entries[dfeat]
        if point is None and seg is None and lazy is not None:
            point = plane_crossing(fan.triangles[lazy], s.a, s.b)
        c = DiskContact(dfeat, point=point, seg=seg)
        contacts.append(c)
        if interior and witness is None:
            witness = c.witness_point()
    if witness is not None:
        return DiskSegmentResult("meets-interior", tuple(contacts), witness=witness)
    if contacts:
        return DiskSegmentResult("boundary-only", tuple(contacts))
    return DiskSegmentResult("disjoint", ())


def full_contact_features(fan, seg):
    """``crosscheck.fan_contact_features`` as a loop over every triangle."""
    meets_interior, witness, features = False, None, set()

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
    p = fan.apex.coords()
    ap, bp = _sub(a, p), _sub(b, p)
    m = len(fan.rim)
    for i in range(fan.n_triangles):
        q, r = fan.rim[i].coords(), fan.rim[(i + 1) % m].coords()
        tri = (p, q, r, _cross(_sub(q, p), _sub(r, p)))
        h0, h1 = _dot(ap, tri[3]), _dot(bp, tri[3])
        if h0 == 0 and h1 == 0:
            lo, hi = Fraction(0), Fraction(1)
            ok = True
            wa, wb = _tri_barycentric(tri, a), _tri_barycentric(tri, b)
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
        elif (h0 > 0) == (h1 > 0):
            continue
        else:
            x = _along(a, h0 / (h0 - h1), d)
        feat = _bary_feature(*_tri_barycentric(tri, x))
        if feat is not None:
            note(i, feat, x)
    return meets_interior, features, None if witness is None else ExactPoint(*witness)


def assert_both_routes_match(fan, seg):
    """Compare both routes with the full loops; return the interior answer."""
    assert fan.classify_segment(seg) == full_classify_segment(fan, seg), seg
    full = full_contact_features(fan, seg)
    assert fan_contact_features(fan, seg) == full, seg
    assert fan_meets_interior(fan, seg) == full[0], seg
    return full[0]


def scan_segments(scene, samples):
    """Every segment the star scan and the equator check classify: the
    three attachment segments of each placement against the panel fan, the
    premise segment against the full cone, and, for each placement that
    passes the premise, the segment to each upper sample."""
    cfg = scene.config
    anchors = _anchor_data(scene)
    c_feature = next((("rimvert", i) for i, p in enumerate(scene.delta_disk.rim)
                      if p == scene.c), None)
    upper = upper_sample_points(scene, samples)
    star, equator = [], []
    for x in cfg.grid.placements(scene.v, cfg.epsilon):
        if x == scene.v:
            continue
        star += [Segment(anchor, x) for anchor, _feat in anchors]
        equator.append(Segment(scene.c, x))
        if _classify_with_discount(scene.delta_disk, scene.c, c_feature, x).status == "disjoint":
            equator += [Segment(p, x) for p in upper]
    return star, equator


def test_control_scan_segments(control_scene):
    star, equator = scan_segments(control_scene, 5)
    assert len(star) == 3 * 724
    for seg in star:
        assert_both_routes_match(control_scene.gamma_prime, seg)
    for seg in equator:
        assert_both_routes_match(control_scene.delta_disk, seg)


def test_reduced_default_scan_segments():
    cfg = default_paper_config()
    cfg.grid = GridSpec(shells=1, frequency=4)
    scene = build_scene(cfg)
    star, equator = scan_segments(scene, 60)
    assert len(star) == 3 * 162 and len(equator) > 162
    for seg in star:
        assert_both_routes_match(scene.gamma_prime, seg)
    for seg in equator:
        assert_both_routes_match(scene.delta_disk, seg)


LATTICE = [P(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
HALF = Fraction(1, 2)


def midpoint(p, q):
    return p + (q - p).scale(HALF)


def lattice_segments(rng, fan, lattice=LATTICE):
    """Random segments between lattice points, plus one of each planted
    degenerate kind."""
    apex, rim, m = fan.apex, fan.rim, len(fan.rim)
    k = rng.randrange(fan.n_triangles)
    r0, r1 = rim[k], rim[(k + 1) % m]
    other = rng.choice([p for p in lattice if p != apex])
    segs = [tuple(rng.sample(lattice, 2)) for _ in range(6)]
    segs += [
        (apex, other),                                         # endpoint at the apex
        (apex + (apex - other), other),                        # through the apex
        (apex + (other - apex).scale(2), other),               # apex on the line, off the segment
        (midpoint(apex, r0), rng.choice(lattice)),             # endpoint on a spoke
        (midpoint(r0, r1), rng.choice(lattice)),               # endpoint on a rim chord
        (midpoint(apex, r0), midpoint(r0, r1)),                # coplanar with triangle k
        (r0 + (r0 - other), other),                            # rim point on plane(o, a, b)
    ]
    return [Segment(a, b) for a, b in segs if a != b]


def degenerate_kinds(fan, seg):
    """The planted kinds that this segment shows."""
    apex, a, b = fan.apex, seg.a, seg.b
    kinds = set()
    if collinear(a, b, apex):
        kinds.add("apex on line ab")
        if apex in (a, b):
            kinds.add("endpoint at apex")
        elif _between(apex, a, b):
            kinds.add("segment through apex")
    m = len(fan.rim)
    for i, t in enumerate(fan.triangles):
        if orient3d(t.p, t.q, t.r, a) == 0 and orient3d(t.p, t.q, t.r, b) == 0:
            kinds.add("coplanar with a triangle")
        for end in (a, b):
            feat = _locate_in_plane(end, t) if orient3d(t.p, t.q, t.r, end) == 0 else None
            if feat in (("edge", 0), ("edge", 2)):
                kinds.add("endpoint on a spoke")
            if feat == ("edge", 1):
                kinds.add("endpoint on a rim chord")
    if not collinear(a, b, apex) and any(orient3d(a, b, apex, r) == 0 for r in fan.rim):
        kinds.add("rim point on plane(o, a, b)")
    return kinds


def _between(p, a, b):
    """Is p strictly between a and b?  (p is on line ab.)"""
    return (p - a).dot(b - a) > 0 and (p - b).dot(a - b) > 0


ALL_KINDS = {
    "apex on line ab", "endpoint at apex", "segment through apex", "endpoint on a spoke",
    "coplanar with a triangle", "endpoint on a rim chord", "rim point on plane(o, a, b)",
}


@pytest.mark.parametrize("closed", [False, True])
def test_lattice_fans_match_full_loop(closed):
    kinds, coplanar_answers = set(), set()
    fans = 0
    for seed in range(500):
        rng = random.Random(seed)
        apex, *rim = rng.sample(LATTICE, rng.randint(4, 7))
        try:
            fan = cone(apex, rim, closed=closed)
        except FanConstructionError:
            continue
        fans += 1
        for seg in lattice_segments(rng, fan):
            meets = assert_both_routes_match(fan, seg)
            seg_kinds = degenerate_kinds(fan, seg)
            kinds |= seg_kinds
            if "coplanar with a triangle" in seg_kinds:
                coplanar_answers.add(meets)
    assert fans >= 100
    assert kinds == ALL_KINDS
    # fan_meets_interior solves a coplanar triangle itself, and answers both ways.
    assert coplanar_answers == {False, True}


def rational_lattice(rng, size=12):
    """Points with coordinates k/d, k in [-6, 6] and d in 1..7 drawn per
    coordinate, so a fan's points share no denominator."""
    return [P(*(Fraction(rng.randint(-6, 6), rng.randint(1, 7)) for _ in range(3)))
            for _ in range(size)]


@pytest.mark.parametrize("closed", [False, True])
def test_rational_lattice_fans_match_full_loop(closed):
    kinds, coplanar_answers = set(), set()
    fans = 0
    denominators = set()
    for seed in range(400):
        rng = random.Random(seed)
        lattice = rational_lattice(rng)
        apex, *rim = rng.sample(lattice, rng.randint(4, 7))
        try:
            fan = cone(apex, rim, closed=closed)
        except FanConstructionError:
            continue
        fans += 1
        denominators |= {c.denominator for p in [apex, *rim] for c in p.coords()}
        for seg in lattice_segments(rng, fan, lattice):
            meets = assert_both_routes_match(fan, seg)
            seg_kinds = degenerate_kinds(fan, seg)
            kinds |= seg_kinds
            if "coplanar with a triangle" in seg_kinds:
                coplanar_answers.add(meets)
    assert fans >= 100
    assert denominators == set(range(1, 8))
    assert kinds == ALL_KINDS
    # fan_meets_interior solves a coplanar triangle itself, and answers both ways.
    assert coplanar_answers == {False, True}


def test_table_cache_follows_each_fan():
    """Two fans used in turn, then fans dropped and new ones built in their
    place, all answer as the reference loop does on freshly built fans; a
    dropped fan is not kept alive."""
    rng = random.Random(7)

    def some_fan():
        while True:
            lattice = rational_lattice(rng)
            apex, *rim = rng.sample(lattice, 6)
            try:
                return cone(apex, rim), lattice
            except FanConstructionError:
                continue

    def check(fan, segs):
        for seg in segs:
            full = full_contact_features(fan, seg)
            assert fan_contact_features(fan, seg) == full, seg
            assert fan_meets_interior(fan, seg) == full[0], seg

    (fan_a, lat_a), (fan_b, lat_b) = some_fan(), some_fan()
    segs_a, segs_b = lattice_segments(rng, fan_a, lat_a), lattice_segments(rng, fan_b, lat_b)
    for _ in range(3):
        check(fan_a, segs_a)
        check(fan_b, segs_b)
    for _ in range(10):
        dropped = weakref.ref(fan_a)
        del fan_a
        gc.collect()
        assert dropped() is None
        fan_a, lat_a = some_fan()
        check(fan_a, lattice_segments(rng, fan_a, lat_a))
        check(fan_b, segs_b)


def moved_result(res, move):
    """A classification with every point moved; the features stay."""
    return DiskSegmentResult(
        res.kind,
        tuple(DiskContact(c.feature, point=c.point and move(c.point),
                          seg=c.seg and tuple(move(p) for p in c.seg)) for c in res.contacts),
        witness=res.witness and move(res.witness))


def lattice_moves(rng):
    """A seeded integer translation, axis permutation and sign flip."""
    shift = P(*(rng.randint(-9, 9) for _ in range(3)))
    perm = rng.sample(range(3), 3)
    flip = rng.randrange(3)
    return [
        lambda p: p + shift,
        lambda p: P(*(p.coords()[k] for k in perm)),
        lambda p: P(*(-c if k == flip else c for k, c in enumerate(p.coords()))),
    ]


def seeded_lattice_fans(closed, seeds=150):
    """``(seed, rng, apex, rim, fan)`` for each seed whose sample of lattice
    points makes a valid fan."""
    for seed in range(seeds):
        rng = random.Random(seed)
        apex, *rim = rng.sample(LATTICE, rng.randint(4, 7))
        try:
            fan = cone(apex, rim, closed=closed)
        except FanConstructionError:
            continue
        yield seed, rng, apex, rim, fan


@pytest.mark.parametrize("closed", [False, True])
def test_lattice_moves_carry_the_classification(closed):
    fans = 0
    for seed, rng, apex, rim, fan in seeded_lattice_fans(closed):
        fans += 1
        segs = lattice_segments(rng, fan)
        for move in lattice_moves(rng):
            moved = cone(move(apex), [move(p) for p in rim], closed=closed)
            for seg in segs:
                got = moved.classify_segment(Segment(move(seg.a), move(seg.b)))
                assert got == moved_result(fan.classify_segment(seg), move), (seed, seg)
    assert fans >= 50


def reversed_feature(feature, m):
    """The feature of an open fan on m rim points, seen on its reversed rim."""
    if feature[0] in ("face", "rim"):
        return (feature[0], m - 2 - feature[1])
    if feature[0] in ("spoke", "rimvert"):
        return (feature[0], m - 1 - feature[1])
    return feature


def test_open_fan_rim_reversal_maps_the_features():
    fans = 0
    for seed, rng, apex, rim, fan in seeded_lattice_fans(closed=False):
        fans += 1
        back, m = cone(apex, rim[::-1]), len(rim)
        for seg in lattice_segments(rng, fan):
            res, got = fan.classify_segment(seg), back.classify_segment(seg)
            assert got.kind == res.kind, (seed, seg)
            assert {c.feature: (c.point, c.seg) for c in got.contacts} == \
                {reversed_feature(c.feature, m): (c.point, c.seg) for c in res.contacts}, (seed, seg)
    assert fans >= 50
