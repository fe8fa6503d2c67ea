"""Scene construction, invariances, and the placement scan on small scenes."""

import json
from fractions import Fraction

import pytest

from plgraph.disks import disk_disk_classify
from plgraph.errors import ConfigError, SceneInvariantViolation, SpliceMismatchError
from plgraph.exactgeom import ExactPoint, Segment
from plgraph.graphs import validate_embedding
from plgraph.jsonio import canonical_dumps
from plgraph.scene import (
    GridSpec,
    SceneConfig,
    build_scene,
    contracted_scene_embedding,
    control_short_arc_config,
    default_paper_config,
    icosphere_directions,
    scene_graph,
    segment_meets_delta_prime_interior,
    sphere_point,
    split_scene_embedding,
)
from plgraph.verify import check_equator_claim, star_exit_code, verify_star

P = ExactPoint


class TestConfig:
    def test_default_config_satisfies_invariants(self):
        default_paper_config().validate()

    def test_control_config_satisfies_invariants(self):
        control_short_arc_config().validate()

    def test_json_round_trip_is_bit_exact(self):
        cfg = control_short_arc_config()
        doc = cfg.to_jsonable()
        back = SceneConfig.from_jsonable(json.loads(canonical_dumps(doc)))
        assert back.to_jsonable() == doc

    def test_perturbed_replacement_arc_is_splice_mismatch(self):
        cfg = control_short_arc_config()
        bad = list(cfg.eta_prime)
        bad[0] = bad[0] + P(0, 0, Fraction(1, 10 ** 7))
        cfg.eta_prime = bad
        with pytest.raises(SpliceMismatchError):
            cfg.validate()

    def test_anchor_order_enforced(self):
        cfg = control_short_arc_config()
        cfg.c_index, cfg.b1_index = cfg.b1_index, cfg.c_index
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_off_sphere_point_rejected(self):
        cfg = control_short_arc_config()
        pts = list(cfg.alpha)
        pts[3] = pts[3].scale(Fraction(11, 10))
        cfg.alpha = pts
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_missing_field_diagnostic_names_it(self):
        doc = control_short_arc_config().to_jsonable()
        del doc["epsilon"]
        with pytest.raises(ConfigError) as exc:
            SceneConfig.from_jsonable(doc)
        assert "epsilon" in str(exc.value)


class TestIcosphere:
    def test_counts_follow_frequency(self):
        assert len(icosphere_directions(1)) == 12
        assert len(icosphere_directions(2)) == 42
        assert len(icosphere_directions(6)) == 362

    def test_directions_are_near_unit_and_inside(self):
        for d in icosphere_directions(3):
            assert Fraction(995, 1000) ** 2 < d.norm2() <= 1

    def test_deterministic(self):
        a = icosphere_directions(4)
        b = icosphere_directions(4)
        assert a == b

    def test_grid_radii_exact(self):
        grid = GridSpec(shells=3, frequency=2)
        eps = Fraction(1, 100)
        pts = grid.placements(P(0, 0, 0), eps)
        assert len(pts) == 3 * 42
        assert all(0 < p.norm2() <= eps * eps for p in pts)


class TestBuildScene:
    def test_control_scene_shape(self, control_scene, control_config):
        assert control_scene.gamma_prime.n_triangles == 2 * control_config.n
        assert control_scene.delta_disk.n_triangles == len(control_config.alpha) - 1

    def test_separating_cone_meets_panel_fan_only_at_center(self, control_scene):
        r = disk_disk_classify(control_scene.d_f, control_scene.gamma_prime)
        assert r.kind == "single-point"
        assert r.point == control_scene.v
        assert r.on_boundary_1 and r.on_boundary_2

    def test_chain_points_lie_on_the_spliced_curve(self, control_scene, control_config):
        ap = control_config.alpha_prime()
        chords = [Segment(ap[i], ap[i + 1]) for i in range(len(ap) - 1)]
        from plgraph.exactgeom import collinear

        for q in control_scene.a_chain + control_scene.b_chain:
            on_curve = any(
                collinear(ch.a, ch.b, q)
                and 0 <= (q - ch.a).dot(ch.b - ch.a) <= (ch.b - ch.a).norm2()
                for ch in chords
            )
            assert on_curve

    def test_boundary_is_the_anchor_cycle(self, control_scene):
        rim = control_scene.gamma_prime.rim
        assert rim[0] == control_scene.a1
        assert rim[control_scene.config.n] == control_scene.c
        assert rim[-1] == control_scene.b1

    def test_crossing_curve_rejected(self):
        cfg = control_short_arc_config()
        # Drag beta up so it stabs through the main curve's region.
        cfg.beta = [sphere_point(10.0, -25.0 + 12.0 * k) for k in range(5)]
        with pytest.raises(SceneInvariantViolation):
            build_scene(cfg)


def _statuses(report):
    return [
        (p.skipped, tuple(st.status for st in (p.segments or ())), p.blocked)
        for p in report.placements
    ]


class TestStarScan:
    def test_control_minimum_is_zero_with_witness(self, control_star):
        rep = control_star.value
        assert rep.min_blocked == 0
        assert len(rep.witness_indices) > 0
        w = rep.witnesses()[0]
        assert all(st.status == "disjoint" for st in w.segments)
        assert rep.recheck_all_match

    def test_exit_code_contract(self, control_star):
        assert star_exit_code(control_star.value) == 2

    def test_center_placement_is_skipped(self):
        cfg = control_short_arc_config()
        cfg.grid = GridSpec(shells=1, frequency=1, include_center=True)
        scene = build_scene(cfg)
        rep = verify_star(scene)
        center = rep.placements[0]
        assert center.skipped and center.skip_reason == "coincides-with-apex"

    def test_deterministic_byte_identical(self, control_scene, control_star):
        again = verify_star(control_scene)
        a = canonical_dumps(control_star.value.to_jsonable(full=True))
        b = canonical_dumps(again.to_jsonable(full=True))
        assert a == b

    def test_threads_do_not_change_the_report(self, control_scene, control_star):
        threaded = verify_star(control_scene, threads=2)
        assert canonical_dumps(threaded.to_jsonable(full=True)) == canonical_dumps(
            control_star.value.to_jsonable(full=True)
        )

    def test_workers_capped_at_cpu_count(self, control_scene, control_star, monkeypatch):
        import multiprocessing
        import os

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        capped = verify_star(control_scene, threads=64)
        assert canonical_dumps(capped.to_jsonable(full=True)) == canonical_dumps(
            control_star.value.to_jsonable(full=True)
        )

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, control_scene, threads):
        with pytest.raises(ConfigError) as exc:
            verify_star(control_scene, threads=threads)
        assert exc.value.field == "threads"
        with pytest.raises(ConfigError):
            check_equator_claim(control_scene, sample_count=5, threads=threads)

    def test_scale_invariance(self, control_star):
        k = Fraction(7, 2)
        cfg = control_short_arc_config()
        cfg.sphere_radius *= k
        cfg.epsilon *= k
        cfg.tol *= k
        cfg.alpha = [p.scale(k) for p in cfg.alpha]
        cfg.eta_prime = [p.scale(k) for p in cfg.eta_prime]
        cfg.beta = [p.scale(k) for p in cfg.beta]
        rep = verify_star(build_scene(cfg))
        assert _statuses(rep) == _statuses(control_star.value)

    def test_rotation_invariance(self, control_star):
        # Exact rational rotation from the 3-4-5 triple, about the z axis.
        def rot(p):
            return P(
                p.x * Fraction(3, 5) - p.y * Fraction(4, 5),
                p.x * Fraction(4, 5) + p.y * Fraction(3, 5),
                p.z,
            )

        cfg = control_short_arc_config()
        cfg.alpha = [rot(p) for p in cfg.alpha]
        cfg.eta_prime = [rot(p) for p in cfg.eta_prime]
        cfg.beta = [rot(p) for p in cfg.beta]
        scene = build_scene(cfg)
        # The grid directions are not rotated with the scene, so compare
        # against a freshly scanned rotated grid: statuses must match the
        # unrotated run placement by placement under the same rotation.
        base_scene = build_scene(control_short_arc_config())
        from plgraph.verify import _anchor_data, _classify_with_discount

        anchors_rot = _anchor_data(scene)
        anchors_base = _anchor_data(base_scene)
        pts = control_short_arc_config().grid.placements(base_scene.v, Fraction(1, 100))
        for x in pts[:300]:
            xr = rot(x)
            for (anc_b, feat_b), (anc_r, feat_r) in zip(anchors_base, anchors_rot):
                st_b = _classify_with_discount(base_scene.gamma_prime, anc_b, feat_b, x)
                st_r = _classify_with_discount(scene.gamma_prime, anc_r, feat_r, xr)
                assert st_b.status == st_r.status
                assert st_b.features == st_r.features


class TestEquator:
    def test_control_finds_counter_pairs(self, control_equator):
        rep = control_equator.value
        assert len(rep.counter_pairs) >= 1
        assert not rep.vacuous

    def test_threads_do_not_change_the_report(self, control_scene, control_equator):
        threaded = check_equator_claim(control_scene, sample_count=5, threads=2)
        assert canonical_dumps(threaded.to_jsonable()) == canonical_dumps(
            control_equator.value.to_jsonable()
        )

    def test_vacuous_when_no_placement_satisfies_premise(self):
        cfg = default_paper_config()
        cfg.grid = GridSpec(shells=1, frequency=1)
        scene = build_scene(cfg)
        rep = check_equator_claim(scene, sample_count=4)
        assert rep.vacuous
        assert rep.pairs_checked == 0
        assert len(rep.premise_indices) == 0


class TestSceneGraph:
    def test_contracted_embedding_is_valid(self, control_scene):
        emb = contracted_scene_embedding(control_scene)
        assert validate_embedding(emb).valid
        assert emb.graph.neighbors("v") == {"a1", "b1", "c"}

    def test_split_embedding_is_valid_and_round_trips(self, control_scene):
        from plgraph.graphs import contract_edge

        psi = split_scene_embedding(control_scene, Fraction(1, 10 ** 4))
        assert validate_embedding(psi).valid
        g, x, y = scene_graph(control_scene.config.n)
        assert psi.graph == g
        back = contract_edge(psi.graph, "x", "y", "v")
        assert back == contracted_scene_embedding(control_scene).graph

    def test_split_pair_straddles_the_first_fan_triangle(self, control_scene):
        from plgraph.exactgeom import orient3d

        psi = split_scene_embedding(control_scene, Fraction(1, 10 ** 4))
        t = control_scene.gamma_prime.triangles[0]
        sx = orient3d(t.p, t.q, t.r, psi.position["x"])
        sy = orient3d(t.p, t.q, t.r, psi.position["y"])
        assert sx == -sy != 0


class TestDefaultSceneInvariants:
    def test_scene_serialization(self, default_scene):
        doc = default_scene.to_jsonable()
        assert len(doc["gamma_prime"]["rim"]) == 2 * default_scene.config.n + 1
        assert doc["delta_patch_triangles"] > 0
        # The document is canonically serializable.
        canonical_dumps(doc)

    def test_blocked_segments_also_meet_the_union_disk(self, default_scene, default_star):
        # Whatever crosses the panel fan's interior also crosses the union
        # of the full cone and the near-sphere strip; checked on all minimal
        # witnesses and a deterministic sample of other placements.
        rep = default_star.value
        anchors = (default_scene.a1, default_scene.c, default_scene.b1)
        sample = list(rep.witnesses()) + [
            p for p in rep.placements[: 40 * 3: 3] if not p.skipped
        ]
        checked = 0
        for placement in sample:
            for anchor, st in zip(anchors, placement.segments):
                if st.status != "meets-interior":
                    continue
                seg = Segment(anchor, placement.x)
                assert segment_meets_delta_prime_interior(default_scene, seg)
                checked += 1
        assert checked > 100

    def test_default_min_blocked_at_least_one(self, default_star):
        assert default_star.value.min_blocked >= 1

    def test_star_exit_code_zero_for_default(self, default_star):
        assert star_exit_code(default_star.value) == 0


class TestDeltaPrime:
    def test_patch_region_counts_as_union_interior(self, control_scene):
        # A segment through the open patch but not the cone still meets the
        # union disk's interior.
        patch = control_scene.delta_patch
        assert patch is not None
        tri = patch.triangles[0]
        centroid = (tri.p + tri.q + tri.r).scale(Fraction(1, 3))
        seg = Segment(centroid.scale(Fraction(1, 2)), centroid.scale(Fraction(3, 2)))
        assert segment_meets_delta_prime_interior(control_scene, seg)

    def test_far_segment_misses_union(self, control_scene):
        seg = Segment(P(5, 5, 5), P(6, 6, 6))
        assert not segment_meets_delta_prime_interior(control_scene, seg)
