"""The pencil index culls exactly as the sign row does.

``FanDisk.index_endpoint(a)`` builds an index from which
``classify_segment`` reads, for a segment a -> x, the triangles that
plane(apex, a, x) can cut and the signs of the rim directions against that
plane, by a binary search of x's angle about the line apex-a.  The row of
dot products stays the general path.  Here the index is compared with the
row entry by entry, and ``classify_segment`` with and without registration:
on the scan segments of the control scene and of a reduced default grid, and
on seeded lattice fans with the anchor at a rim vertex, on a spoke line
beyond the rim, at a generic point and at the apex, with x planted on an
event plane, on the axis and at the apex, and with rim directions coplanar
with the axis; and, for the scans' anchors and the lattice fans, at one
point inside each state's angle about the line apex-a.  The scans are
checked to register their anchors and still call ``classify_segment`` once
per segment, and an index to live and die with its fan and to stay small.
"""

import gc
import importlib.util
import inspect
import random
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path

import pytest

from plgraph.disks import FanDisk, _pencil_cull, _pencil_index, _side_row, cone
from plgraph.errors import FanConstructionError
from plgraph.exactgeom import ExactPoint, Segment, icross
from plgraph.scene import GridSpec, SceneConfig, build_scene, default_paper_config
from plgraph.verify import _anchor_data, check_equator_claim, verify_star

P = ExactPoint
LATTICE = [P(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def row_cull(fan, a, x):
    """The row path's kept triangles and entries for segment a -> x."""
    row = _side_row(icross((a - fan.apex).irep, (x - fan.apex).irep), fan._idirs)
    live = [i for i in range(fan.n_triangles) if row[i] == 1 or row[i] != row[i + 1]]
    return live, [v - 1 for v in row]


def row_reason(fan, a, x):
    """Why the row must decide a -> x, or None: "axis" when x is on the line
    apex-a (the apex included), "event" when a rim direction off that line
    lies in plane(apex, a, x)."""
    A, U = (a - fan.apex).irep, (x - fan.apex).irep
    if icross(A, U) == (0, 0, 0):
        return "axis"
    _live, entries = row_cull(fan, a, x)
    if any(e == 0 and icross(A, d) != (0, 0, 0) for e, d in zip(entries, fan._idirs)):
        return "event"
    return None


def assert_index_matches_row(fan, a, xs):
    """Register a on the fan and compare its index with the row on every
    segment a -> x, and classify_segment's answers before and after.
    Returns how many segments the index decided ("index") and how many it
    left to the row, by reason."""
    before = [fan.classify_segment(Segment(a, x)) for x in xs]
    fan.index_endpoint(a)
    index = fan._pencils.get(a.irep)
    assert (index is None) == (a == fan.apex)
    outcomes = Counter()
    for x, old in zip(xs, before):
        if index is not None:
            cull = _pencil_cull(index, (x - fan.apex).irep)
            reason = row_reason(fan, a, x)
            assert (cull is None) == (reason is not None), (a, x)
            outcomes[reason or "index"] += 1
            if cull is not None:
                live, entries = row_cull(fan, a, x)
                assert list(cull[0]) == live, (a, x)
                assert [cull[1](k) for k in range(len(entries))] == entries, (a, x)
        assert fan.classify_segment(Segment(a, x)) == old, (a, x)
    return outcomes


def state_points(fan, a):
    """One point x strictly inside each reachable state's angle of a's
    pencil index, as ``(state, x)``.  With x - apex = u |e2|^2 e1 + v |e1|^2
    e2 (e1 and e2 are orthogonal), x's plane coordinates are |e1|^2 |e2|^2
    (u, v), and (u, v) is the sum of two consecutive events, or a direction
    before the first event or past the last.  State 0 is empty when the
    first event is (1, 0), the first direction of the upper half-plane."""
    index = _pencil_index((a - fan.apex).irep, fan._idirs)
    e1, e2, events = index.e1, index.e2, index.events
    n1, n2 = sum(c * c for c in e1), sum(c * c for c in e2)
    (x0, y0), (xn, yn) = events[0], events[-1]
    dirs = [(0, (1, 0))] if y0 > 0 else []
    dirs += [(r, (u0 + u1, v0 + v1))
             for r, ((u0, v0), (u1, v1)) in enumerate(zip(events, events[1:]), 1)]
    dirs.append((len(events), (xn - abs(xn) - 1, yn + 1)))
    return [(r, fan.apex + P(*[u * n2 * e1[k] + v * n1 * e2[k] for k in range(3)]))
            for r, (u, v) in dirs]


def assert_every_state_matches_row(fan, a):
    """Compare the index with the row at one point inside each reachable
    state, and check that the binary search finds that state."""
    points = state_points(fan, a)
    assert assert_index_matches_row(fan, a, [x for _r, x in points])["index"] == len(points)
    index = fan._pencils[a.irep]
    for r, x in points:
        assert _pencil_cull(index, (x - fan.apex).irep)[0] is index.live[r], (a, x, r)
    return len(points)


def scan_anchors_and_points(scene):
    """The fixed anchors of both scans with their placements: a1, c and b1
    on the panel fan, and c on the full cone."""
    cfg = scene.config
    xs = [x for x in cfg.grid.placements(scene.v, cfg.epsilon) if x != scene.v]
    star = [(scene.gamma_prime, anchor, xs) for anchor, _feat in _anchor_data(scene)]
    return star + [(scene.delta_disk, scene.c, xs)]


def test_control_scan_segments(control_scene):
    for fan, a, xs in scan_anchors_and_points(control_scene):
        assert assert_index_matches_row(fan, a, xs)["index"] > len(xs) // 2
        assert assert_every_state_matches_row(fan, a) >= len(fan._pencils[a.irep].events)


def test_reduced_default_scan_segments():
    cfg = default_paper_config()
    cfg.grid = GridSpec(shells=1, frequency=4)
    scene = build_scene(cfg)
    for fan, a, xs in scan_anchors_and_points(scene):
        assert assert_index_matches_row(fan, a, xs)["index"] > len(xs) // 2
        assert assert_every_state_matches_row(fan, a) >= len(fan._pencils[a.irep].events)


def planted_points(rng, fan, a):
    """Lattice points, plus points on an event plane, on the axis and at
    the apex."""
    apex = fan.apex
    axis = a - apex
    xs = rng.sample(LATTICE, 8) + [apex, apex + axis.scale(3), apex - axis]
    for r in rng.sample(fan.rim, 2):
        s, t = rng.choice([-2, 1, 3]), rng.choice([-1, 1, 2])
        xs.append(apex + axis.scale(s) + (r - apex).scale(t))   # on plane(apex, a, r)
    return [x for x in xs if x != a]


def lattice_fans(closed, seeds):
    for seed in seeds:
        rng = random.Random(seed)
        apex, *rim = rng.sample(LATTICE, rng.randint(4, 7))
        try:
            yield rng, cone(apex, rim, closed=closed)
        except FanConstructionError:
            continue


@pytest.mark.parametrize("closed", [False, True])
def test_lattice_fans_match_the_row(closed):
    fans, outcomes = 0, Counter()
    for rng, fan in lattice_fans(closed, range(300)):
        fans += 1
        apex, rim = fan.apex, fan.rim
        k = rng.randrange(len(rim))
        anchors = [
            rim[k],                                  # rim vertex
            apex + (rim[k] - apex).scale(2),         # spoke line beyond the rim
            rng.choice([p for p in LATTICE if p != apex]),
            apex,
        ]
        for a in anchors:
            outcomes += assert_index_matches_row(fan, a, planted_points(rng, fan, a))
            if a != apex:
                outcomes["state"] += assert_every_state_matches_row(fan, a)
    assert fans >= 100 and outcomes["state"] >= 1000
    assert outcomes["index"] >= 1000 and outcomes["axis"] >= 100 and outcomes["event"] >= 100


def tied_events(index, closed):
    """How many rim directions share an event with another one (the closing
    repeat of a closed fan's first direction not counted)."""
    rank = index.rank[:-1] if closed else index.rank
    ranks = [r for r, t in zip(rank, index.tau) if t]
    return len(ranks) - len(set(ranks))


@pytest.mark.parametrize("closed", [False, True])
def test_rim_directions_coplanar_with_the_axis(closed):
    """An anchor a = apex + d_i +- d_j puts rim directions i and j in one
    plane with the axis A: their events tie, with opposite factors tau when
    A lies between them and equal ones when it does not."""
    fans = ties = 0
    factors = set()
    for rng, fan in lattice_fans(closed, range(300)):
        apex, rim = fan.apex, fan.rim
        i, j = rng.sample(range(len(rim)), 2)
        a = rim[i] + (rim[j] - apex).scale(rng.choice([-1, 1]))
        if a == apex:
            continue
        fans += 1
        assert_index_matches_row(fan, a, planted_points(rng, fan, a))
        index = fan._pencils[a.irep]
        ties += tied_events(index, closed) > 0
        factors.add(index.tau[i] * index.tau[j])
    assert fans >= 100 and ties >= 50 and {-1, 1} <= factors


def test_planted_square_fan():
    """Rim directions (1,0,0), (0,1,0), (-1,0,0) and (0,-1,0) seen from the
    anchor on the z axis: all four lie in planes through the axis two by
    two, so two events hold two directions each."""
    square = [P(1, 0, 0), P(0, 1, 0), P(-1, 0, 0), P(0, -1, 0)]
    for closed in (False, True):
        fan = cone(P(0, 0, 0), square, closed=closed)
        a = P(0, 0, 2)
        xs = [P(x, y, z) for x in (-1, 0, 2) for y in (-1, 0, 1) for z in (-1, 1, 2)
              if (x, y, z) != (0, 0, 2)]
        outcomes = assert_index_matches_row(fan, a, xs)
        assert outcomes["index"] and outcomes["axis"] and outcomes["event"]
        index = fan._pencils[a.irep]
        assert len(index.events) == 2 and tied_events(index, closed) == 2
        # The rim vertex (1, 0, 0) as anchor: its own direction is the axis.
        a = square[0]
        assert_index_matches_row(fan, a, xs)
        assert fan._pencils[a.irep].tau[0] == 0


def test_scans_call_classify_segment_once_per_segment(control_scene, monkeypatch):
    calls = {}
    original = FanDisk.classify_segment

    def counting(fan, s):
        calls[id(fan)] = calls.get(id(fan), 0) + 1
        return original(fan, s)

    assert list(inspect.signature(original).parameters) == ["self", "s"]
    monkeypatch.setattr(FanDisk, "classify_segment", counting)
    scene = control_scene
    cfg = scene.config
    xs = [x for x in cfg.grid.placements(scene.v, cfg.epsilon) if x != scene.v]
    verify_star(scene)
    assert calls == {id(scene.gamma_prime): 3 * len(xs)}
    calls.clear()
    samples = 5
    report = check_equator_claim(scene, sample_count=samples)
    premises = len(report.premise_indices)
    assert premises > 0
    assert calls == {id(scene.delta_disk): len(xs) + premises * samples}
    assert set(scene.gamma_prime._pencils) == {a.irep for a, _f in _anchor_data(scene)}
    assert set(scene.delta_disk._pencils) == {scene.c.irep}


def test_registration_is_idempotent_and_skips_the_apex():
    square = [P(1, 0, 0), P(0, 1, 0), P(-1, 0, 0), P(0, -1, 0)]
    fan = cone(P(0, 0, 0), square)
    assert fan._pencils == {}
    fan.index_endpoint(P(0, 0, 0))
    assert fan._pencils == {}
    fan.index_endpoint(P(0, 0, 1))
    index = fan._pencils[P(0, 0, 1).irep]
    fan.index_endpoint(P(0, 0, 1))
    assert len(fan._pencils) == 1 and fan._pencils[P(0, 0, 1).irep] is index
    # Another fan on the same points starts with no index.
    assert cone(P(0, 0, 0), square)._pencils == {}


def test_index_goes_with_its_fan():
    for _rng, fan in lattice_fans(False, range(20)):
        fan.index_endpoint(fan.rim[0])
        assert fan._pencils
        dropped = weakref.ref(fan)
        del fan
        gc.collect()
        assert dropped() is None


INPUTS = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"


def test_spiral_indexes_stay_small():
    """The rotated spiral scene of the benchmark (seed 5): its four indexes,
    three on the panel fan and one on the full cone, take 150 KB at most."""
    spec = importlib.util.spec_from_file_location("bench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    scene = build_scene(SceneConfig.from_jsonable(inputs.scene_config_doc("spiral", 5)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for anchor, _feat in _anchor_data(scene):
            scene.gamma_prime.index_endpoint(anchor)
        scene.delta_disk.index_endpoint(scene.c)
        size = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(scene.gamma_prime._pencils) == 3 and len(scene.delta_disk._pencils) == 1
    assert size <= 150 * 1024
