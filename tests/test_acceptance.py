"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavyweight scans
are shared session fixtures (see conftest); criterion 9 re-runs them from
scratch and compares reports byte for byte.
"""

import random
import time
from fractions import Fraction

import pytest

from float_points import sphere_point
from plgraph.crosscheck import fan_contact_features, panel_check_bruteforce
from plgraph.disks import cone, disk_disk_classify, panel_check
from plgraph.errors import (
    CurvesIntersectError,
    DegenerateGeometryError,
    EmbeddingInvalidError,
)
from plgraph.exactgeom import ExactPoint, Segment, orient3d
from plgraph.graphs import (
    LinearEmbedding,
    SpatialGraph,
    contract_edge,
    expand_to_psi,
    validate_embedding,
)
from plgraph.jsonio import canonical_dumps
from plgraph.linking import (
    ClosedPolygon,
    find_generic_apex,
    find_generic_direction,
    linking_number_cone,
    linking_number_projection,
)
from plgraph.scene import build_scene
from plgraph.verify import check_equator_claim, verify_star

P = ExactPoint


def report_line(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


# -- 1: predicate soundness ---------------------------------------------------

def det3_oracle(a, b, c, d):
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


def test_criterion_1_predicate_soundness():
    rng = random.Random(1001)
    swaps = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    t0 = time.monotonic()
    zeros = 0
    for trial in range(1000):
        pts = [
            P(Fraction(rng.randint(-90, 90), rng.randint(1, 11)),
              Fraction(rng.randint(-90, 90), rng.randint(1, 11)),
              Fraction(rng.randint(-90, 90), rng.randint(1, 11)))
            for _ in range(4)
        ]
        if trial % 4 == 0:
            lam = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            mu = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            a, b, c, _ = pts
            pts[3] = a + (b - a).scale(lam) + (c - a).scale(mu)
        base = orient3d(*pts)
        oracle = det3_oracle(*pts)
        assert base == (oracle > 0) - (oracle < 0)
        zeros += base == 0
        for i, j in swaps:
            q = list(pts)
            q[i], q[j] = q[j], q[i]
            assert orient3d(*q) == -base
    elapsed = time.monotonic() - t0
    report_line(1, "predicate soundness", elapsed < 5 and zeros >= 200,
                f"1000 tuples, {zeros} exact zeros, {elapsed:.2f}s < 5s")


# -- 2: linking algorithm equivalence ----------------------------------------

def _random_polygon(rng, center, spread=4):
    while True:
        pts = [
            P(center[0] + Fraction(rng.randint(-spread * 6, spread * 6), 6),
              center[1] + Fraction(rng.randint(-spread * 6, spread * 6), 6),
              center[2] + Fraction(rng.randint(-spread * 6, spread * 6), 6))
            for _ in range(rng.randint(3, 12))
        ]
        try:
            return ClosedPolygon(pts)
        except DegenerateGeometryError:
            continue


def _threaded_polygon_pair(rng):
    def j():
        return Fraction(rng.randint(-2, 2), 16)

    ring = ClosedPolygon([
        P(2 + j(), j(), j()), P(j(), 2 + j(), j()),
        P(-2 + j(), j(), j()), P(j(), -2 + j(), j()),
    ])
    loop = ClosedPolygon([
        P(j(), j(), Fraction(-3, 2) + j()),
        P(j(), j(), Fraction(3, 2) + j()),
        P(5 + j(), 1 + j(), j()),
    ])
    return ring, loop


def test_criterion_2_linking_equivalence():
    rng = random.Random(2002)
    t0 = time.monotonic()
    done = 0
    linked = 0
    trials = 0
    while done < 100 and trials < 1200:
        trials += 1
        if done % 5 == 4:
            try:
                a, b = _threaded_polygon_pair(rng)
            except DegenerateGeometryError:
                continue
        else:
            a = _random_polygon(rng, (0, 0, 0))
            b = _random_polygon(rng, (rng.randint(-3, 9), rng.randint(-3, 9),
                                      rng.randint(-3, 9)))
        try:
            d = find_generic_direction(a, b)
            lp = linking_number_projection(a, b, d)
            apex = find_generic_apex(a, b)
            lc = linking_number_cone(a, apex, b)
        except CurvesIntersectError:
            continue
        assert lp == lc, f"disagreement: projection {lp} vs cone {lc}"
        linked += lp != 0
        done += 1
    # Fixed fixtures.
    square = ClosedPolygon([P(1, 1, 0), P(-1, 1, 0), P(-1, -1, 0), P(1, -1, 0)])
    threaded = ClosedPolygon([P(0, 0, 0), P(1, 0, 1), P(2, 0, 0), P(1, 0, -1)])
    far = ClosedPolygon([P(10, 0, 0), P(11, 0, 1), P(12, 0, 0), P(11, 0, -1)])
    d = find_generic_direction(square, threaded)
    hopf_p = linking_number_projection(square, threaded, d)
    hopf_c = linking_number_cone(square, find_generic_apex(square, threaded), threaded)
    far_p = linking_number_projection(square, far, d)
    far_c = linking_number_cone(square, find_generic_apex(square, far), far)
    elapsed = time.monotonic() - t0
    ok = (done == 100 and abs(hopf_p) == 1 and hopf_p == hopf_c
          and far_p == 0 == far_c and elapsed < 30)
    report_line(2, "linking equivalence", ok,
                f"100 random pairs ({linked} linked), |lk(hopf)|={abs(hopf_p)}, "
                f"lk(separated)={far_p}, {elapsed:.2f}s < 30s")


# -- 3: scene validity --------------------------------------------------------

def test_criterion_3_scene_validity(default_config):
    t0 = time.monotonic()
    scene = build_scene(default_config)
    res = disk_disk_classify(scene.d_f, scene.gamma_prime)
    elapsed = time.monotonic() - t0
    ok = (res.kind == "single-point" and res.point == scene.v
          and res.on_boundary_1 and res.on_boundary_2 and elapsed < 10)
    report_line(3, "scene validity", ok,
                f"separating cone meets panel fan in exactly the center, "
                f"on both boundaries; build+certify {elapsed:.2f}s < 10s")


# -- 4: the placement scan ----------------------------------------------------

@pytest.mark.slow
def test_criterion_4_star_refutation(default_scene, default_star):
    rep = default_star.value
    spot_ok = True
    anchors = [
        (default_scene.a1, ("rimvert", 0)),
        (default_scene.c, ("rimvert", default_scene.config.n)),
        (default_scene.b1, ("rimvert", 2 * default_scene.config.n)),
    ]
    for w in rep.witnesses()[:20]:
        for (anchor, feat), st in zip(anchors, w.segments):
            meets, features, _ = fan_contact_features(
                default_scene.gamma_prime, Segment(anchor, w.x))
            spot_ok &= meets == (st.kind == "meets-interior")
    ok = (rep.evaluated_count >= 5000 and rep.min_blocked is not None
          and rep.min_blocked >= 1
          and rep.to_jsonable()["summary"]["recheck"]["all_match"] is True
          and rep.recheck_count == len(rep.witness_indices)
          and spot_ok and default_star.elapsed < 300)
    report_line(4, "statement-star refutation", ok,
                f"min blocked {rep.min_blocked} over {rep.evaluated_count} "
                f"placements (>=5000), {rep.recheck_count} witnesses "
                f"re-verified independently, {default_star.elapsed:.1f}s < 300s")


# -- 5: harness honesty -------------------------------------------------------

def test_criterion_5_negative_control(control_star):
    rep = control_star.value
    witness_clean = bool(rep.witness_indices) and all(
        st.kind == "disjoint" for st in rep.witnesses()[0].segments
    )
    ok = (rep.min_blocked == 0 and witness_clean
          and rep.to_jsonable()["summary"]["recheck"]["all_match"] is True
          and control_star.elapsed < 60)
    report_line(5, "harness honesty (negative control)", ok,
                f"min blocked 0 with {len(rep.witness_indices)} explicit "
                f"witnesses, {control_star.elapsed:.1f}s < 60s")


# -- 6: equator lemma ---------------------------------------------------------

@pytest.mark.slow
def test_criterion_6_equator(default_equator, control_equator):
    rep = default_equator.value
    ctl = control_equator.value
    total_elapsed = default_equator.elapsed + control_equator.elapsed
    ok = (rep.pairs_checked >= 500 and len(rep.counter_pairs) == 0
          and not rep.vacuous and rep.to_jsonable()["summary"]["recheck_all_match"] is True
          and len(ctl.counter_pairs) >= 1 and total_elapsed < 120)
    report_line(6, "equator lemma", ok,
                f"{rep.pairs_checked} premise pairs (>=500), 0 counter-pairs, "
                f"{len(rep.degenerate_pairs)} degenerate grazes; control finds "
                f"{len(ctl.counter_pairs)} counters; {total_elapsed:.1f}s < 120s")


# -- 7: split/contract round trip ---------------------------------------------

def _random_valid_embedding(rng):
    from itertools import combinations

    while True:
        nv = rng.randint(2, 11)
        verts = ["v"] + list(range(nv))
        edges = [("v", w) for w in range(nv) if rng.random() < 0.6]
        if not edges:
            continue
        edges += [e for e in combinations(range(nv), 2) if rng.random() < 0.25]
        g = SpatialGraph(verts, edges)
        pos = {"v": P(0, 0, 0)}
        for w in range(nv):
            pos[w] = P(Fraction(rng.randint(-60, 60), rng.randint(1, 7)),
                       Fraction(rng.randint(-60, 60), rng.randint(1, 7)),
                       Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
        emb = LinearEmbedding(g, pos)
        if validate_embedding(emb).valid:
            return emb


def test_criterion_7_round_trip():
    rng = random.Random(7007)
    fan = cone(P(0, 0, 0), [P(Fraction(1, 2), 0, 0), P(0, Fraction(1, 2), 0)])
    tri = fan.triangles[0]
    done = 0
    while done < 50:
        emb = _random_valid_embedding(rng)
        nbrs = sorted(emb.graph.neighbors("v"))
        nx = {w for w in nbrs if rng.random() < 0.6}
        ny = set(nbrs) - nx
        for w in nbrs:
            if rng.random() < 0.3:
                ny.add(w)
        t = Fraction(1, 4)
        out = None
        for _ in range(60):
            try:
                out = expand_to_psi(emb, "v", fan, t, nx=nx, ny=ny)
                break
            except EmbeddingInvalidError:
                t /= 2
        assert out is not None, "no valid split offset found"
        back = contract_edge(out.graph, "x", "y", "v")
        assert back == emb.graph
        sx = orient3d(tri.p, tri.q, tri.r, out.position["x"])
        sy = orient3d(tri.p, tri.q, tri.r, out.position["y"])
        assert sx == -sy != 0
        done += 1
    report_line(7, "split/contract round trip", done == 50,
                f"{done} seeded embeddings round-tripped with opposite-side splits")


# -- 8: panel oracle equivalence ----------------------------------------------

def _random_fan_scene(rng, index):
    while True:
        m = rng.randint(4, 14)
        closed = rng.random() < 0.4
        lon_step = (300.0 if not closed else 330.0) / m
        rim = [
            sphere_point(55 + 18 * rng.random(), lon_step * k + 3 * rng.random())
            for k in range(m + 1)
        ]
        if closed:
            rim = rim[:-1]
        try:
            d = cone(P(0, 0, 0), rim, closed=closed)
        except Exception:
            continue
        cycle = list(range(len(rim))) if closed else ["apex"] + list(range(len(rim)))
        verts = list(cycle)
        pos = {}
        if not closed:
            pos["apex"] = P(0, 0, 0)
        for k, p in enumerate(rim):
            pos[k] = p
        edges = list(zip(cycle, cycle[1:] + cycle[:1]))
        # Extra features: either a far edge (harmless) or one stabbing a
        # fan triangle through its centroid (violated).
        stab = index % 2 == 0
        tri = d.triangles[rng.randrange(len(d.triangles))]
        centroid = (tri.p + tri.q + tri.r).scale(Fraction(1, 3))
        n = tri.normal
        if stab:
            a = centroid + n.scale(Fraction(1, 5))
            b = centroid - n.scale(Fraction(1, 5))
        else:
            a = P(3 + rng.randint(0, 3), 3, rng.randint(-2, 2))
            b = a + P(1, 1, 1)
        verts += ["u", "w"]
        pos["u"], pos["w"] = a, b
        edges.append(("u", "w"))
        emb = LinearEmbedding(SpatialGraph(verts, edges), pos)
        return d, emb, cycle, stab


def test_criterion_8_panel_oracle():
    rng = random.Random(8008)
    violated_seen = 0
    total_triangles = 0
    for index in range(20):
        d, emb, cycle, stab = _random_fan_scene(rng, index)
        total_triangles += d.n_triangles
        assert d.n_triangles <= 50
        main = panel_check(d, emb, cycle)
        brute_kind, brute_witness = panel_check_bruteforce(d, emb, cycle)
        assert main.kind == brute_kind, f"scene {index}: {main.kind} vs {brute_kind}"
        if main.kind == "violated":
            violated_seen += 1
            assert main.witness[0] == brute_witness[0]
            assert main.witness[1] == brute_witness[1]
            assert main.witness[2] == brute_witness[2], (
                f"witness feature mismatch: {main.witness[2]} vs {brute_witness[2]}"
            )
    report_line(8, "panel oracle equivalence", violated_seen >= 1,
                f"20 seeded scenes matched the oracle, {violated_seen} violated "
                f"with identical witness features")


# -- 9: determinism -----------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_determinism(default_scene, default_star, default_equator,
                                 control_scene, control_star, control_equator):
    t0 = time.monotonic()
    star2 = verify_star(default_scene)
    eq2 = check_equator_claim(default_scene, sample_count=60)
    ctl_star2 = verify_star(control_scene)
    ctl_eq2 = check_equator_claim(control_scene, sample_count=5)
    pairs = [
        (default_star.value.to_jsonable(full=True), star2.to_jsonable(full=True)),
        (default_equator.value.to_jsonable(), eq2.to_jsonable()),
        (control_star.value.to_jsonable(full=True), ctl_star2.to_jsonable(full=True)),
        (control_equator.value.to_jsonable(), ctl_eq2.to_jsonable()),
    ]
    identical = all(canonical_dumps(a) == canonical_dumps(b) for a, b in pairs)
    elapsed = time.monotonic() - t0
    report_line(9, "determinism", identical,
                f"4 reports byte-identical across independent runs ({elapsed:.1f}s)")
