"""Scene construction, invariances, and the placement scan on small scenes."""

import hashlib
import json
from fractions import Fraction

import pytest

from float_points import sphere_point
from plgraph import crosscheck
from plgraph.disks import SegmentKind, disk_disk_classify
from plgraph.errors import ConfigError, SceneInvariantViolation, SpliceMismatchError
from plgraph.exactgeom import ExactPoint, Segment
from plgraph.graphs import LinearEmbedding, SpatialGraph, validate_embedding
from plgraph.jsonio import canonical_dumps
from plgraph.linking import MAX_CYCLE_LEN, pairwise_link_scan
from plgraph.scene import (
    MAX_CURVE_POINTS,
    MAX_GRID_FREQUENCY,
    MAX_GRID_SHELLS,
    MAX_N,
    GridSpec,
    SceneConfig,
    build_scene,
    contracted_scene_embedding,
    control_short_arc_config,
    default_paper_config,
    icosphere_directions,
    scene_graph,
    segment_meets_delta_prime_interior,
    split_scene_embedding,
)
from plgraph.verify import (
    MAX_SAMPLES,
    _anchor_data,
    _recheck,
    check_equator_claim,
    star_exit_code,
    upper_sample_points,
    verify_star,
)

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

    @pytest.mark.parametrize("where, value, field", [
        ("grid.shells", 2.9, "grid.shells"),
        ("grid.shells", 2.0, "grid.shells"),
        ("grid.frequency", True, "grid.frequency"),
        ("grid.frequency", "4", "grid.frequency"),
        ("grid.include_center", 1, "grid.include_center"),
        ("grid", [2, 4], "grid"),
        ("n", 4.7, "n"),
        ("n", False, "n"),
        ("a1_index", 2.5, "a1_index"),
        ("c_index", True, "c_index"),
        ("b1_index", 9.0, "b1_index"),
        ("eta_range.0", 1.5, "eta_range"),
        ("eta_range.1", True, "eta_range"),
        ("eta_range", [1, 2, 3], "eta_range"),
        ("beta_closed", 0, "beta_closed"),
        ("beta_closed", "false", "beta_closed"),
        ("alpha", 5, "alpha"),
        ("eta_prime", 5, "eta_prime"),
        ("beta", 5, "beta"),
        ("beta.1", 5, "beta[1]"),
    ])
    def test_mistyped_field_rejected_not_truncated(self, where, value, field):
        doc = control_short_arc_config().to_jsonable()
        *parents, last = [int(k) if k.isdigit() else k for k in where.split(".")]
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError) as exc:
            SceneConfig.from_jsonable(doc)
        assert exc.value.field == field


# SHA-256 of the canonical integers of icosphere_directions(f) for
# f = 1..16, and of upper_sample_points on the control scene at 5 and 60
# samples (see ireps_digest).
GOLDEN_NETS = "9e11a462530d7a9f13f57b57d940a5c7ee27b19f37434366495d22c8437a8e39"
GOLDEN_UPPER_SAMPLES = "374f8f9fbb022d1304eecc368e958047726a8f41282fa8622b627862c934af2b"


def ireps_digest(rows) -> str:
    """The SHA-256 of ``json.dumps`` of nested lists of ireps."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


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

    def test_nets_keep_their_golden_points(self):
        """Every net's canonical integers, f = 1..16, in order: the grid and
        the upper samples are made of these, so a change to how the net is
        rounded shows here before it shows in a report."""
        nets = [[list(d.irep) for d in icosphere_directions(f)] for f in range(1, 17)]
        assert ireps_digest(nets) == GOLDEN_NETS

    def test_upper_samples_keep_their_golden_points(self, control_scene):
        samples = [[list(p.irep) for p in upper_sample_points(control_scene, n)]
                   for n in (5, 60)]
        assert ireps_digest(samples) == GOLDEN_UPPER_SAMPLES

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
        (p.skipped, tuple(st.kind for st in (p.segments or ())), p.blocked)
        for p in report.placements
    ]


class TestStarScan:
    def test_control_minimum_is_zero_with_witness(self, control_star):
        rep = control_star.value
        assert rep.min_blocked == 0
        assert len(rep.witness_indices) > 0
        w = rep.witnesses()[0]
        assert all(st.kind == "disjoint" for st in w.segments)
        assert rep.to_jsonable()["summary"]["recheck"]["all_match"] is True

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
                assert st_b.kind == st_r.kind
                assert [c.feature for c in st_b.contacts] == [c.feature for c in st_r.contacts]


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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_below_one_rejected(self, control_scene, samples, monkeypatch):
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        with pytest.raises(ConfigError) as exc:
            upper_sample_points(control_scene, samples)
        assert exc.value.field == "samples"
        with pytest.raises(ConfigError) as exc:
            check_equator_claim(control_scene, sample_count=samples, threads=2)
        assert exc.value.field == "samples"
        assert str(exc.value) == "samples: samples must be >= 1"

    def test_vacuous_when_no_placement_satisfies_premise(self):
        cfg = default_paper_config()
        cfg.grid = GridSpec(shells=1, frequency=1)
        scene = build_scene(cfg)
        rep = check_equator_claim(scene, sample_count=4)
        assert rep.vacuous
        assert rep.pairs_checked == 0
        assert len(rep.premise_indices) == 0


# The scenes of the recheck tests and the equator check's sample count on each.
RECHECK_SCENES = {"control": 5, "reduced-default": 10}


def _scene(request, which):
    return request.getfixturevalue("control_scene" if which == "control" else
                                   "reduced_default_scene")


class TestIndependentRecheck:
    """A "meets the interior" answer is rechecked from the fan triangle the
    fast route names; the independent route still decides every answer."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        """``(answer, triangles solved)`` for each call of the independent
        interior test."""
        calls, solved = [], [0]
        solve, meets_interior = crosscheck._triangle_contacts, crosscheck.fan_meets_interior

        def counted(*args):
            solved[0] += 1
            return solve(*args)

        def recording(fan, seg, first=0):
            solved[0] = 0
            answer = meets_interior(fan, seg, first)
            calls.append((answer, solved[0]))
            return answer

        monkeypatch.setattr(crosscheck, "_triangle_contacts", counted)
        monkeypatch.setattr(crosscheck, "fan_meets_interior", recording)
        return calls

    @pytest.mark.parametrize("which", list(RECHECK_SCENES))
    def test_each_yes_solves_one_triangle(self, request, recorded, which):
        scene = _scene(request, which)
        star = verify_star(scene)
        star_yes = [solved for answer, solved in recorded if answer]
        assert len(star_yes) == sum(st.kind == "meets-interior"
                                    for w in star.witnesses() for st in w.segments)
        del recorded[:]
        equator = check_equator_claim(scene, sample_count=RECHECK_SCENES[which])
        equator_yes = [solved for answer, solved in recorded if answer]
        assert len(recorded) == equator.pairs_checked
        assert len(equator_yes) == equator.blocked_pairs > 0
        assert set(star_yes + equator_yes) == {1}
        if which == "reduced-default":
            assert star.min_blocked == 1 and star_yes

    @pytest.mark.parametrize("which", list(RECHECK_SCENES))
    def test_recheck_status_does_not_depend_on_the_fast_status(self, request, which):
        """On every witness segment the recheck passes the status that the
        full independent classification gives, and raises on each other
        status the fast route could have said."""
        scene = _scene(request, which)
        star = request.getfixturevalue("control_star").value if which == "control" \
            else verify_star(scene)
        fan, anchors = scene.gamma_prime, _anchor_data(scene)
        segments = 0
        for w in star.witnesses():
            for (anchor, feat), st in zip(anchors, w.segments):
                seg = Segment(anchor, w.x)
                meets, features, _ = crosscheck.fan_contact_features(fan, seg)
                full = "meets-interior" if meets else \
                    "boundary-only" if set(features) - {feat} else "disjoint"
                assert st.kind == full
                _recheck(fan, seg, st, feat)
                for wrong in ("meets-interior", "boundary-only", "disjoint"):
                    if wrong != full:
                        with pytest.raises(AssertionError, match="independent recheck disagrees"):
                            _recheck(fan, seg, SegmentKind(wrong, st.triangle), feat)
                segments += 1
        assert segments > 0

    def test_a_no_from_the_independent_route_raises(self, reduced_default_scene, monkeypatch):
        """A "no" from the independent interior test alone raises, in both
        scans, even though recomputing every contact would say yes."""
        scene = reduced_default_scene
        monkeypatch.setattr(crosscheck, "fan_meets_interior", lambda fan, seg, first=0: False)
        with pytest.raises(AssertionError, match="independent recheck disagrees"):
            check_equator_claim(scene, sample_count=10)
        with pytest.raises(AssertionError, match="independent recheck disagrees"):
            verify_star(scene)

    def test_a_yes_from_the_independent_route_raises(self, control_scene, monkeypatch):
        monkeypatch.setattr(crosscheck, "fan_meets_interior", lambda fan, seg, first=0: True)
        with pytest.raises(AssertionError, match="independent recheck disagrees"):
            check_equator_claim(control_scene, sample_count=5)

    def test_a_disjoint_pair_called_boundary_only_raises(self, control_scene, control_equator,
                                                         monkeypatch):
        """The boundary-only/disjoint split of an equator pair decides
        whether it is a counter-pair, so a fast route that calls a disjoint
        pair boundary-only is caught."""
        scene, delta = control_scene, control_scene.delta_disk
        assert control_equator.value.counter_pairs
        walk = delta.segment_kind

        def grazing(seg, discount=None):
            answer = walk(seg, discount)
            if seg.a == scene.c or answer.kind != "disjoint":
                return answer
            return SegmentKind("boundary-only")

        monkeypatch.setattr(delta, "segment_kind", grazing)
        with pytest.raises(AssertionError, match="independent recheck disagrees"):
            check_equator_claim(scene, sample_count=5)


def _two_triangles():
    g = SpatialGraph(range(6), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    pos = {0: P(0, 0, 0), 1: P(2, 0, 0), 2: P(0, 2, 0),
           3: P(10, 0, 0), 4: P(12, 0, 0), 5: P(10, 2, 1)}
    return LinearEmbedding(g, pos)


class TestInputBounds:
    """Oversized inputs raise ConfigError naming their field, before any
    grid is built or worker started."""

    @pytest.fixture
    def nothing_starts(self, monkeypatch):
        import multiprocessing

        from plgraph import scene as scene_module
        from plgraph import verify as verify_module

        def refuse(*args, **kwargs):
            raise AssertionError("a grid was built or a worker pool was started")

        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        monkeypatch.setattr(scene_module, "icosphere_directions", refuse)
        monkeypatch.setattr(verify_module, "icosphere_directions", refuse)

    def test_limits_leave_room_above_the_shipped_inputs(self):
        default = default_paper_config()
        assert MAX_GRID_FREQUENCY >= 4 * default.grid.frequency
        assert MAX_GRID_SHELLS >= 4 * default.grid.shells
        assert MAX_N >= 4 * default.n
        assert MAX_CURVE_POINTS >= 4 * len(default.alpha)
        assert MAX_SAMPLES >= 4 * 60 and MAX_CYCLE_LEN >= 4 * 6

    @pytest.mark.parametrize("shells, frequency, field", [
        (MAX_GRID_SHELLS + 1, 2, "grid.shells"),
        (1, MAX_GRID_FREQUENCY + 1, "grid.frequency"),
        (10 ** 9, 10 ** 9, "grid.shells"),
    ])
    def test_grid_above_limit_rejected(self, nothing_starts, shells, frequency, field):
        cfg = control_short_arc_config()
        cfg.grid = GridSpec(shells=shells, frequency=frequency)
        with pytest.raises(ConfigError) as exc:
            build_scene(cfg)
        assert exc.value.field == field

    def test_icosphere_above_limit_rejected(self):
        with pytest.raises(ConfigError) as exc:
            icosphere_directions(MAX_GRID_FREQUENCY + 1)
        assert str(exc.value) == f"grid.frequency: frequency must be <= {MAX_GRID_FREQUENCY}"

    def test_n_above_limit_rejected(self, nothing_starts):
        cfg = control_short_arc_config()
        cfg.n = MAX_N + 1
        with pytest.raises(ConfigError) as exc:
            build_scene(cfg)
        assert str(exc.value) == f"n: n must be <= {MAX_N}"

    @pytest.mark.parametrize("field", ["alpha", "eta_prime", "beta"])
    def test_curve_above_limit_rejected(self, nothing_starts, field):
        message = f"{field}: {field} must have at most {MAX_CURVE_POINTS} points"
        cfg = control_short_arc_config()
        setattr(cfg, field, getattr(cfg, field)[:1] * (MAX_CURVE_POINTS + 1))
        with pytest.raises(ConfigError) as exc:
            build_scene(cfg)
        assert str(exc.value) == message
        # A document is checked before any of its points is parsed, so the
        # malformed points are never reached.
        doc = control_short_arc_config().to_jsonable()
        doc[field] = [None] * (MAX_CURVE_POINTS + 1)
        with pytest.raises(ConfigError) as exc:
            SceneConfig.from_jsonable(doc)
        assert str(exc.value) == message

    def test_samples_above_limit_rejected(self, control_scene, nothing_starts):
        with pytest.raises(ConfigError) as exc:
            upper_sample_points(control_scene, MAX_SAMPLES + 1)
        assert exc.value.field == "samples"
        with pytest.raises(ConfigError) as exc:
            check_equator_claim(control_scene, sample_count=10 ** 9, threads=2)
        assert str(exc.value) == f"samples: samples must be <= {MAX_SAMPLES}"

    def test_max_cycle_len_above_limit_rejected(self, nothing_starts):
        with pytest.raises(ConfigError) as exc:
            pairwise_link_scan(_two_triangles(), MAX_CYCLE_LEN + 1)
        assert str(exc.value) == f"max_cycle_len: max_cycle_len must be <= {MAX_CYCLE_LEN}"

    def test_limits_themselves_accepted(self, control_scene):
        GridSpec(shells=MAX_GRID_SHELLS, frequency=MAX_GRID_FREQUENCY).validate()
        cfg = control_short_arc_config()
        cfg.n = MAX_N
        cfg.validate()
        doc = cfg.to_jsonable()
        doc["beta"] = doc["beta"][:1] * MAX_CURVE_POINTS
        assert len(SceneConfig.from_jsonable(doc).beta) == MAX_CURVE_POINTS
        assert len(upper_sample_points(control_scene, MAX_SAMPLES)) == MAX_SAMPLES
        assert len(pairwise_link_scan(_two_triangles(), MAX_CYCLE_LEN).pairs) == 1


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

    @pytest.mark.slow
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
                if st.kind != "meets-interior":
                    continue
                seg = Segment(anchor, placement.x)
                assert segment_meets_delta_prime_interior(default_scene, seg)
                checked += 1
        assert checked > 100

    @pytest.mark.slow
    def test_default_min_blocked_at_least_one(self, default_star):
        assert default_star.value.min_blocked >= 1

    @pytest.mark.slow
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

    @pytest.mark.parametrize("kind, offset, meets", [
        ("rim", 0, True), ("rimvert", 1, True), ("rimvert", 0, False), ("rim", -1, False),
    ], ids=["first-arc-chord", "inner-arc-vertex", "arc-end-vertex", "chord-before-arc"])
    def test_open_glue_arc_counts_as_union_interior(self, control_scene, kind, offset, meets):
        """A segment radially out from the center that touches the full
        cone only at one rim feature meets the union's interior exactly when
        that feature lies on the open glue arc: a chord of ``eta_range`` or
        a rim vertex strictly inside it."""
        d, v = control_scene.delta_disk, control_scene.v
        i = control_scene.config.eta_range[0] + offset
        q = d.rim[i] if kind == "rimvert" else \
            d.rim[i] + (d.rim[i + 1] - d.rim[i]).scale(Fraction(1, 2))
        seg = Segment(q, v + (q - v).scale(2))
        res = d.classify_segment(seg)
        assert (res.kind, [c.feature for c in res.contacts]) == ("boundary-only", [(kind, i)])
        assert segment_meets_delta_prime_interior(control_scene, seg) == meets

    def test_far_segment_misses_union(self, control_scene):
        seg = Segment(P(5, 5, 5), P(6, 6, 6))
        assert not segment_meets_delta_prime_interior(control_scene, seg)
