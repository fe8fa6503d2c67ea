"""Seeded input generators for the benchmark workloads.

The program under test only ever sees the files written here: a scene config
for ``spiral`` and ``control-t2``, an embedding for ``lk``.  The same seed
always yields the same bytes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from plgraph import graphs, jsonio, scene
from plgraph.exactgeom import ExactPoint

# Scan sizes, chosen so that one repetition takes a few seconds: a run then
# holds enough repetitions for a steady median.  The spiral grid needs
# frequency 5: the equator check's premise placements sit in a thin wedge next
# to the south-pole spoke, and at frequency 4 the rotations t = -85/97 and
# t = -16/97 put no grid direction in it, which makes the check vacuous.  At
# frequency 5 each of the 193 rotations has 2 to 8 premises (4 on most), and
# 30 to 39 minimal witnesses.  Ten samples keep the premise count from
# dominating the equator time.
SPIRAL_GRID = scene.GridSpec(shells=1, frequency=5)
SPIRAL_SAMPLES = 10
CONTROL_GRID = scene.GridSpec(shells=1, frequency=4)
CONTROL_SAMPLES = 5
CONTROL_THREADS = 2
LK_MAX_CYCLE_LEN = 3
# Smoke mode: the same call sequence on inputs that finish in seconds.
SMOKE_SPIRAL_SAMPLES = 2
SMOKE_CONTROL_GRID = scene.GridSpec(shells=1, frequency=2)

_T_DENOM = 97
_HOPF_OFFSET = 1000  # K7 coordinates stay within +-60, so x = 500 separates


def half_angle_tangent(seed: int) -> Fraction:
    """The z-rotation of a seed, as the tangent of half its angle.

    Seed 0 is the identity.  Other seeds draw t = p/97 with 1 <= |p| <= 96,
    an angle within +-90 degrees; the shipped spiral is close to half-turn
    symmetric, so this covers its distinct orientations.  A fixed denominator
    keeps coordinate sizes alike across seeds, and leaves 193 distinct
    rotations in all.
    """
    if seed == 0:
        return Fraction(0)
    rng = random.Random(seed)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, _T_DENOM - 1), _T_DENOM)


def rotate_z(cfg: scene.SceneConfig, t: Fraction) -> scene.SceneConfig:
    """Rotate alpha, eta_prime and beta about the z axis through the origin by
    the exact rational rotation with half-angle tangent t (norms are kept
    exactly, so every point stays within tol of the sphere)."""
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)

    def rot(p: ExactPoint) -> ExactPoint:
        return ExactPoint(c * p.x - s * p.y, s * p.x + c * p.y, p.z)

    cfg.alpha = [rot(p) for p in cfg.alpha]
    cfg.eta_prime = [rot(p) for p in cfg.eta_prime]
    cfg.beta = [rot(p) for p in cfg.beta]
    return cfg


def scene_config_doc(kind: str, seed: int, smoke: bool = False) -> dict:
    """Config JSON for ``kind`` in {'spiral', 'control'} under seed's rotation."""
    if kind == "spiral":
        cfg = scene.default_paper_config()
        cfg.grid = SPIRAL_GRID
    elif kind == "control":
        cfg = scene.control_short_arc_config()
        cfg.grid = SMOKE_CONTROL_GRID if smoke else CONTROL_GRID
    else:
        raise ValueError(f"unknown scene kind {kind!r}")
    t = half_angle_tangent(seed)
    if t:
        rotate_z(cfg, t)
    return cfg.to_jsonable()


def _rand_coord(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 7))


HOPF_A = ("h0", "h1", "h2")
HOPF_B = ("h3", "h4", "h5")
K7 = tuple(f"k{i}" for i in range(7))


def lk_embedding_doc(seed: int) -> dict:
    """K7 at seeded rational positions plus a planted Hopf link far away.

    Positions are drawn as in the split/contract acceptance criterion
    (numerators in +-60, denominators 1..7) and redrawn until the straight-line
    embedding is valid.  The planted pair is two linked triangles beyond the
    plane x = 500, which separates them from every K7 cycle.
    """
    rng = random.Random(seed)
    edges = [list(e) for e in combinations(K7, 2)]
    edges += [[HOPF_A[i], HOPF_A[(i + 1) % 3]] for i in range(3)]
    edges += [[HOPF_B[i], HOPF_B[(i + 1) % 3]] for i in range(3)]
    o = _HOPF_OFFSET
    hopf = {
        "h0": (o + 2, 0, 0), "h1": (o - 1, 2, 0), "h2": (o - 1, -2, 0),
        "h3": (o + 1, 0, 2), "h4": (o + 1, 0, -2), "h5": (o + 4, 0, 0),
    }
    while True:
        pos = {v: ExactPoint(*(_rand_coord(rng) for _ in range(3))) for v in K7}
        pos.update({v: ExactPoint(*c) for v, c in hopf.items()})
        emb = graphs.LinearEmbedding(
            graphs.SpatialGraph(list(pos), [tuple(e) for e in edges]), pos)
        if graphs.validate_embedding(emb).valid:
            break
    return {
        "vertices": [{"id": v, "pos": jsonio.point_to_json(pos[v])} for v in sorted(pos)],
        "edges": edges,
    }


def lk_expected_pairs(max_cycle_len: int) -> tuple:
    """(K7/K7, K7/planted) vertex-disjoint cycle pairs of the lk embedding;
    the planted triangles add one pair of their own.

    K7 has C(7,k) (k-1)!/2 cycles of length k.  Two disjoint K7 cycles need
    at most 7 vertices: triangle/triangle (70 pairs) and triangle/4-cycle
    (35 * 3 = 105 pairs).  Every K7 cycle pairs with each planted triangle,
    and the planted triangles pair with each other.
    """
    k7_cycles = sum(comb(7, k) * factorial(k - 1) // 2
                    for k in range(3, min(max_cycle_len, 7) + 1))
    internal = 70 + (105 if max_cycle_len >= 4 else 0)
    return internal, 2 * k7_cycles
