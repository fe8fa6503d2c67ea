"""The box sweep that certifies a scene, against brute force.

``exactgeom._box_pairs`` lists the pairs of integer boxes that meet, and
the touch rule, fan validation and the disk/disk check decide only those
pairs.  Its lists are compared with a plain all-pairs loop on seeded boxes
full of ties: shared faces, equal ``x_lo``, zero-width and nested boxes.
``disks._cone_boxes`` gives each fan triangle the box of its direction
cone's image on the cube surface; every pair of cones that share a
direction must be a candidate, or validation could pass a fan that is not
embedded.  On the shipped scenes the sweep leaves almost nothing to decide,
and a guard on the candidate counts keeps it that way.
"""

import random

import pytest

from plgraph.disks import _FACE_PLANES, _cone_boxes, _cones_share_direction
from plgraph.exactgeom import _box_pairs, icross, idot, polyline_segments


def brute_pairs(boxes, others=None):
    """The meeting pairs by the all-pairs loop of closed-interval tests."""
    def meet(a, b):
        return all(a[2 * k] <= b[2 * k + 1] and b[2 * k] <= a[2 * k + 1] for k in range(3))

    if others is None:
        return [[j for j in range(i + 1, len(boxes)) if meet(boxes[i], boxes[j])]
                for i in range(len(boxes))]
    return [[j for j in range(len(others)) if meet(b, others[j])] for b in boxes]


def random_boxes(rng, count, span):
    """Boxes on a small integer range, so that ties abound; about one in
    five is zero-width along some axis."""
    boxes = []
    for _ in range(count):
        box = []
        for _k in range(3):
            lo = rng.randint(0, span)
            hi = lo if rng.random() < 0.2 else rng.randint(lo, span)
            box += (lo, hi)
        boxes.append(tuple(box))
    return boxes


def test_box_pairs_matches_brute_force():
    """Seeded boxes in one set and across two sets, empty sets included."""
    kinds = {"shared-face": 0, "equal-x-lo": 0, "zero-width": 0, "nested": 0}
    for seed in range(400):
        rng = random.Random(seed)
        span = rng.choice((2, 4, 9, 40))
        boxes = random_boxes(rng, rng.randint(0, 14), span)
        others = random_boxes(rng, rng.randint(0, 14), span)
        assert _box_pairs(boxes) == brute_pairs(boxes), seed
        assert _box_pairs(boxes, others) == brute_pairs(boxes, others), seed
        for a in boxes:
            for b in boxes + others:
                if a is b:
                    continue
                kinds["equal-x-lo"] += a[0] == b[0]
                kinds["shared-face"] += a[1] == b[0]
                kinds["zero-width"] += a[0] == a[1]
                kinds["nested"] += all(a[2 * k] <= b[2 * k] and b[2 * k + 1] <= a[2 * k + 1]
                                       for k in range(3))
    assert min(kinds.values()) > 0, kinds
    assert _box_pairs([]) == [] and _box_pairs([], [(0, 1, 0, 1, 0, 1)]) == []
    assert _box_pairs([(0, 1, 0, 1, 0, 1)], []) == [[]]


def test_box_pairs_on_touching_and_nested_boxes():
    unit = (0, 2, 0, 2, 0, 2)
    boxes = [unit, (2, 4, 0, 2, 0, 2), (0, 2, 2, 2, 0, 2), (1, 1, 1, 1, 1, 1), (3, 4, 3, 4, 3, 4)]
    assert _box_pairs(boxes) == [[1, 2, 3], [2], [], [], []]
    assert _box_pairs(boxes[:2], boxes) == [[0, 1, 2, 3], [0, 1, 2]]


def lattice_directions(rng, k, count):
    """A polyline of nonzero integer directions in [-k, k]^3 whose
    consecutive entries are linearly independent, as fan rims give."""
    dirs = []
    while len(dirs) < count:
        w = tuple(rng.randint(-k, k) for _ in range(3))
        if w == (0, 0, 0) or (dirs and icross(dirs[-1], w) == (0, 0, 0)):
            continue
        dirs.append(w)
    return dirs


def planes_crossed(d, e):
    """How many of the face planes the arc from d to e strictly crosses."""
    return sum(idot(q, d) * idot(q, e) < 0 for q in _FACE_PLANES)


def _at_max(w):
    """How many coordinates of w reach max|w_k|: 2 on a cube edge, 3 at a corner."""
    m = max(map(abs, w))
    return sum(abs(c) == m for c in w)


def test_cone_boxes_miss_no_meeting_pair():
    """Every pair of direction cones that share a direction, within one
    polyline (adjacent pairs included) and across two, is a box-sweep
    candidate."""
    crossed, corners, meeting = set(), set(), 0
    for k in (1, 2, 3, 5):
        for seed in range(400):
            rng = random.Random(1000 * k + seed)
            dirs1 = lattice_directions(rng, k, rng.randint(2, 9))
            dirs2 = lattice_directions(rng, k, rng.randint(2, 9))
            boxes1, boxes2 = _cone_boxes(dirs1), _cone_boxes(dirs2)
            within, across = _box_pairs(boxes1), _box_pairs(boxes1, boxes2)
            for i in range(len(dirs1) - 1):
                crossed.add(planes_crossed(dirs1[i], dirs1[i + 1]))
                corners.add(_at_max(dirs1[i]))
                for j in range(i + 1, len(dirs1) - 1):
                    if _cones_share_direction(dirs1[i], dirs1[i + 1], dirs1[j], dirs1[j + 1]):
                        meeting += 1
                        assert j in within[i], (k, seed, i, j)
                for j in range(len(dirs2) - 1):
                    if _cones_share_direction(dirs1[i], dirs1[i + 1], dirs2[j], dirs2[j + 1]):
                        meeting += 1
                        assert j in across[i], (k, seed, i, j)
    assert {1, 2, 3} <= crossed and {2, 3} <= corners and meeting > 0


def test_cone_box_holds_edge_and_corner_directions():
    """Directions on a cube edge and at a corner map to exact grid points,
    and an arc over a cube edge keeps its breakpoint inside its box."""
    g = 1 << 32
    (box,) = _cone_boxes([(1, 1, 0), (1, 1, 1)])
    assert box == (g, g, g, g, 0, g)
    # From the +x face over the edge x = y to the +y face: the arc passes
    # the corner (1, 1, 1), so its box reaches z = 1, which neither end does.
    (box,) = _cone_boxes([(2, 0, 1), (0, 2, 1)])
    assert box == (0, g, 0, g, g // 2, g)


def candidate_counts(fan):
    """Non-adjacent candidate pairs of a fan's own validation."""
    count = fan.n_triangles
    pairs = _box_pairs(fan._boxes)
    return sum(sum(1 for j in js if i + 2 <= j < (count - 1 if fan.closed and i == 0 else count))
               for i, js in enumerate(pairs))


@pytest.mark.parametrize("which", ["default_scene", "control_scene"])
def test_shipped_scenes_leave_few_pairs_to_decide(which, request):
    """A guard on counts, not times: each fan's validation, and the
    separating cone against the panel fan, leave at most m candidate pairs
    (m triangles), and each polyline's touch rule at most its segment
    count.  The shipped scenes need none beyond the adjacent pairs."""
    scene = request.getfixturevalue(which)
    fans = (scene.gamma_prime, scene.delta_disk, scene.d_f)
    for fan in fans:
        assert candidate_counts(fan) <= fan.n_triangles
    cross = _box_pairs(scene.d_f._boxes, scene.gamma_prime._boxes)
    assert sum(map(len, cross)) <= min(scene.d_f.n_triangles, scene.gamma_prime.n_triangles)
    cfg = scene.config
    for points in (cfg.alpha, cfg.alpha_prime(), cfg.beta):
        segs = polyline_segments(points)
        assert sum(map(len, _box_pairs([b for _, _, b in segs]))) <= len(segs)
    segs_b, segs_a = polyline_segments(cfg.beta), polyline_segments(cfg.alpha_prime())
    assert sum(map(len, _box_pairs([b for _, _, b in segs_b], [b for _, _, b in segs_a]))) \
        <= min(len(segs_b), len(segs_a))
