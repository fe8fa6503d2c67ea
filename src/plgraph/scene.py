"""Data-driven construction of the spherical-spiral panel scene.

A scene is built from a configuration describing curves near a sphere around
a center point ``v``: an open curve ``alpha`` with a spliced replacement arc,
anchor vertices on the spliced curve, and a separate closed-ish curve
``beta``.  Building yields four certified objects:

* ``gamma_prime``: the panel fan, ``v`` coned onto the subdivided vertex
  chain from the first anchor through the bottom anchor to the last anchor;
* ``delta_disk``: ``v`` coned onto the original curve ``alpha``;
* ``delta_patch``: the near-sphere strip between the replaced arc and its
  replacement;
* ``d_f``: ``v`` coned onto ``beta``, certified to meet the panel fan in
  exactly the one point ``v``.

Every geometric check performed here is exact; a failed invariant raises
with a concrete witness.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import List, Optional, Sequence, Tuple

from .disks import FanDisk, TriPatch, cone, disk_disk_classify
from .errors import ConfigError, SceneInvariantViolation, SpliceMismatchError
from .exactgeom import ExactPoint, Segment, _point, polyline_segments, segment_contact
from .jsonio import (bool_from_json, int_from_json, point_from_json, point_to_json,
                     points_from_json, rat_from_json, rat_to_json)

RATIONAL_DENOM = 10 ** 6

# Upper bounds on the sizes a config or the CLI may ask for, each 4x the
# largest that any shipped config, test, demo or bench input uses, so that a
# mistyped value exits 1 naming its field instead of running for days or
# filling memory.
# A frequency-f grid has 10 f^2 + 2 directions per shell: 23,042 at 48,
# against 1,442 at the default scene's 12.
MAX_GRID_FREQUENCY = 48
# The default scene's 4 shells, times 4: with MAX_GRID_FREQUENCY, a grid of
# at most 368,672 placements.
MAX_GRID_SHELLS = 16
# The chain subdivision count, 4x the default scene's 64: the panel fan
# has 2 n triangles, and the scans' cost grows with them.
MAX_N = 256
# Points in each of the curves alpha, eta_prime and beta, 7x the default
# scene's 289-point alpha: every curve and its cone are certified by box
# sweeps, near-linear on real curves but pairwise in the worst case.
MAX_CURVE_POINTS = 2048
_CURVE_FIELDS = ("alpha", "eta_prime", "beta")


# ---------------------------------------------------------------------------
# Icosahedral direction nets
# ---------------------------------------------------------------------------

_ICO_FACES = (
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
)


def icosphere_directions(frequency: int) -> List[ExactPoint]:
    """Rational near-unit directions from a frequency-f geodesic icosahedron.

    Exactly 10 f^2 + 2 directions, each with rational norm <= 1, sorted
    lexicographically for determinism.  The net refines by increasing f.

    The net is built and deduplicated in floats; each float direction c
    then becomes integers at once.  Its numerators are floor(|c| * 10^6)
    with the sign of c, over 10^6.  When X^2 + Y^2 + Z^2 > (10^6)^2 the
    direction is shrunk by 999999/10^6, so every direction is put on the
    common denominator 10^12: X * 999999 for a shrunk one, X * 10^6 for the
    others.  With one positive denominator for all, sorting those integer
    triples gives the order of their coordinates, and each direction is
    reduced once by :func:`~plgraph.exactgeom._point`.
    """
    if frequency < 1:
        raise ConfigError("frequency must be >= 1", "grid.frequency")
    if frequency > MAX_GRID_FREQUENCY:
        raise ConfigError(f"frequency must be <= {MAX_GRID_FREQUENCY}", "grid.frequency")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1.0, phi, 0.0), (1.0, phi, 0.0), (-1.0, -phi, 0.0), (1.0, -phi, 0.0),
        (0.0, -1.0, phi), (0.0, 1.0, phi), (0.0, -1.0, -phi), (0.0, 1.0, -phi),
        (phi, 0.0, -1.0), (phi, 0.0, 1.0), (-phi, 0.0, -1.0), (-phi, 0.0, 1.0),
    ]

    def unit(v):
        n = math.sqrt(v[0] ** 2 + v[1] ** 2 + v[2] ** 2)
        return (v[0] / n, v[1] / n, v[2] / n)

    base = [unit(v) for v in raw]
    f = frequency
    seen = {}
    for fa, fb, fc in _ICO_FACES:
        A, B, C = base[fa], base[fb], base[fc]
        for i in range(f + 1):
            for j in range(f + 1 - i):
                k = f - i - j
                v = unit(tuple(k * A[t] + i * B[t] + j * C[t] for t in range(3)))
                key = tuple(round(c, 9) for c in v)
                if key not in seen:
                    seen[key] = v
    D = RATIONAL_DENOM
    nums = []
    for v in seen.values():
        X, Y, Z = (-math.floor(-c * D) if c < 0 else math.floor(c * D) for c in v)
        k = D - 1 if X * X + Y * Y + Z * Z > D * D else D
        nums.append((X * k, Y * k, Z * k))
    expected = 10 * f * f + 2
    if len(nums) != expected:
        raise AssertionError(f"icosphere dedupe produced {len(nums)} of {expected} points")
    nums.sort()
    return [_point(X, Y, Z, D * D) for X, Y, Z in nums]


@dataclass(frozen=True)
class GridSpec:
    """Deterministic placement grid: concentric shells of icosphere directions."""

    shells: int = 4
    frequency: int = 12
    include_center: bool = False

    def validate(self):
        if self.shells < 1:
            raise ConfigError("shells must be >= 1", "grid.shells")
        if self.shells > MAX_GRID_SHELLS:
            raise ConfigError(f"shells must be <= {MAX_GRID_SHELLS}", "grid.shells")
        if self.frequency < 1:
            raise ConfigError("frequency must be >= 1", "grid.frequency")
        if self.frequency > MAX_GRID_FREQUENCY:
            raise ConfigError(f"frequency must be <= {MAX_GRID_FREQUENCY}", "grid.frequency")

    def placements(self, center: ExactPoint, epsilon: Fraction) -> List[ExactPoint]:
        """Points x with 0 < |x - center| <= epsilon (plus the center itself
        when include_center is set, for degeneracy-handling tests)."""
        dirs = icosphere_directions(self.frequency)
        pts: List[ExactPoint] = []
        if self.include_center:
            pts.append(center)
        for i in range(1, self.shells + 1):
            r = epsilon * Fraction(i, self.shells)
            for d in dirs:
                pts.append(center + d.scale(r))
        return pts

    def to_jsonable(self) -> dict:
        return {
            "shells": self.shells,
            "frequency": self.frequency,
            "include_center": self.include_center,
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "GridSpec":
        if not isinstance(obj, dict):
            raise ConfigError("expected a JSON object", "grid")
        return cls(
            shells=int_from_json(obj.get("shells", 4), "grid.shells"),
            frequency=int_from_json(obj.get("frequency", 12), "grid.frequency"),
            include_center=bool_from_json(obj.get("include_center", False), "grid.include_center"),
        )


# ---------------------------------------------------------------------------
# Scene configuration
# ---------------------------------------------------------------------------

def _check_curve_length(count: int, name: str):
    if count > MAX_CURVE_POINTS:
        raise ConfigError(f"{name} must have at most {MAX_CURVE_POINTS} points", name)


@dataclass
class SceneConfig:
    """Everything needed to build a scene, all rational.

    ``alpha`` is an open polyline near the sphere; ``eta_range = (i0, i1)``
    designates the subarc ``alpha[i0..i1]`` replaced by ``eta_prime`` (which
    must share its endpoints).  Anchor indices refer to the spliced curve.
    """

    sphere_radius: Fraction = Fraction(1)
    center: ExactPoint = field(default_factory=lambda: ExactPoint(0, 0, 0))
    alpha: List[ExactPoint] = field(default_factory=list)
    eta_range: Tuple[int, int] = (0, 1)
    eta_prime: List[ExactPoint] = field(default_factory=list)
    beta: List[ExactPoint] = field(default_factory=list)
    beta_closed: bool = False
    a1_index: int = 0
    c_index: int = 0
    b1_index: int = 0
    n: int = 1
    epsilon: Fraction = Fraction(1, 100)
    grid: GridSpec = field(default_factory=GridSpec)
    tol: Fraction = Fraction(1, 10 ** 6)

    # -- derived -------------------------------------------------------------

    def alpha_prime(self) -> List[ExactPoint]:
        i0, i1 = self.eta_range
        return list(self.alpha[: i0 + 1]) + list(self.eta_prime[1:-1]) + list(self.alpha[i1:])

    # -- validation ------------------------------------------------------------

    def validate(self):
        if self.sphere_radius <= 0:
            raise ConfigError("sphere_radius must be positive", "sphere_radius")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive", "epsilon")
        if self.n < 1:
            raise ConfigError("n must be >= 1", "n")
        if self.n > MAX_N:
            raise ConfigError(f"n must be <= {MAX_N}", "n")
        if self.tol < 0:
            raise ConfigError("tol must be >= 0", "tol")
        for name in _CURVE_FIELDS:
            _check_curve_length(len(getattr(self, name)), name)
        if len(self.alpha) < 2:
            raise ConfigError("alpha needs at least 2 points", "alpha")
        i0, i1 = self.eta_range
        if not (0 <= i0 < i1 < len(self.alpha)):
            raise ConfigError(f"eta_range {self.eta_range} out of bounds", "eta_range")
        if len(self.eta_prime) < 2:
            raise ConfigError("eta_prime needs at least 2 points", "eta_prime")
        if self.eta_prime[0] != self.alpha[i0] or self.eta_prime[-1] != self.alpha[i1]:
            raise SpliceMismatchError(
                "replacement arc endpoints differ from the replaced arc's endpoints"
            )
        if len(self.beta) < 2:
            raise ConfigError("beta needs at least 2 points", "beta")
        if self.beta_closed and len(self.beta) < 3:
            raise ConfigError("closed beta needs at least 3 points", "beta")
        ap = self.alpha_prime()
        if not (0 <= self.a1_index < self.c_index < self.b1_index < len(ap)):
            raise ConfigError(
                "anchor indices must satisfy a1 < c < b1 along the spliced curve",
                "anchors",
            )
        grid = self.grid
        grid.validate()
        lo = self.sphere_radius - self.tol
        lo2 = lo * lo if lo > 0 else Fraction(0)
        hi2 = (self.sphere_radius + self.tol) ** 2
        for name, pts in (("alpha", self.alpha), ("eta_prime", self.eta_prime),
                          ("beta", self.beta)):
            for k, p in enumerate(pts):
                d2 = (p - self.center).norm2()
                if d2 < lo2 or d2 > hi2:
                    raise ConfigError(
                        f"point {k} is farther than tol from the sphere", name
                    )

    # -- serialization ---------------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "sphere_radius": rat_to_json(self.sphere_radius),
            "center": point_to_json(self.center),
            "alpha": [point_to_json(p) for p in self.alpha],
            "eta_range": list(self.eta_range),
            "eta_prime": [point_to_json(p) for p in self.eta_prime],
            "beta": [point_to_json(p) for p in self.beta],
            "beta_closed": self.beta_closed,
            "a1_index": self.a1_index,
            "c_index": self.c_index,
            "b1_index": self.b1_index,
            "n": self.n,
            "epsilon": rat_to_json(self.epsilon),
            "grid": self.grid.to_jsonable(),
            "tol": rat_to_json(self.tol),
        }

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SceneConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config document must be a JSON object", "config")
        required = ("alpha", "eta_range", "eta_prime", "beta",
                    "a1_index", "c_index", "b1_index", "n", "epsilon")
        for key in required:
            if key not in obj:
                raise ConfigError("missing required field", key)
        for name in _CURVE_FIELDS:
            if isinstance(obj[name], list):
                _check_curve_length(len(obj[name]), name)
        eta_range = obj["eta_range"]
        if not (isinstance(eta_range, list) and len(eta_range) == 2):
            raise ConfigError("expected a pair of integers", "eta_range")
        cfg = cls(
            sphere_radius=rat_from_json(obj.get("sphere_radius", [1, 1]), "sphere_radius"),
            center=point_from_json(obj.get("center", [[0, 1], [0, 1], [0, 1]]), "center"),
            alpha=points_from_json(obj["alpha"], "alpha"),
            eta_range=tuple(int_from_json(v, "eta_range") for v in eta_range),
            eta_prime=points_from_json(obj["eta_prime"], "eta_prime"),
            beta=points_from_json(obj["beta"], "beta"),
            beta_closed=bool_from_json(obj.get("beta_closed", False), "beta_closed"),
            a1_index=int_from_json(obj["a1_index"], "a1_index"),
            c_index=int_from_json(obj["c_index"], "c_index"),
            b1_index=int_from_json(obj["b1_index"], "b1_index"),
            n=int_from_json(obj["n"], "n"),
            epsilon=rat_from_json(obj["epsilon"], "epsilon"),
            grid=GridSpec.from_jsonable(obj.get("grid", {})),
            tol=rat_from_json(obj.get("tol", [1, 10 ** 6]), "tol"),
        )
        return cfg


# ---------------------------------------------------------------------------
# Scene
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    """The built, certified scene (see module docstring)."""

    config: SceneConfig
    v: ExactPoint
    gamma_prime: FanDisk
    delta_disk: FanDisk
    delta_patch: Optional[TriPatch]
    d_f: FanDisk
    a_chain: List[ExactPoint]  # a1 .. an
    b_chain: List[ExactPoint]  # b1 .. bn
    c: ExactPoint

    @property
    def a1(self) -> ExactPoint:
        return self.a_chain[0]

    @property
    def b1(self) -> ExactPoint:
        return self.b_chain[0]

    def to_jsonable(self) -> dict:
        """The built scene with its disks serialized (apex plus rim triples)."""
        return {
            "config": self.config.to_jsonable(),
            "v": point_to_json(self.v),
            "c": point_to_json(self.c),
            "a_chain": [point_to_json(p) for p in self.a_chain],
            "b_chain": [point_to_json(p) for p in self.b_chain],
            "gamma_prime": self.gamma_prime.to_jsonable(),
            "delta_disk": self.delta_disk.to_jsonable(),
            "d_f": self.d_f.to_jsonable(),
            "delta_patch_triangles": (
                len(self.delta_patch.triangles) if self.delta_patch else 0
            ),
        }


def _polyline_simple(points: Sequence[ExactPoint], what: str):
    """Exact simplicity check for an open polyline."""
    hit = segment_contact(polyline_segments(points))
    if hit is not None:
        i, j, res = hit
        raise SceneInvariantViolation(
            f"{what} is not simple at segments {i},{j} ({res.kind})", witness=hit
        )


def _polylines_disjoint(pa: Sequence[ExactPoint], pb: Sequence[ExactPoint], what: str):
    hit = segment_contact(polyline_segments(pa), polyline_segments(pb))
    if hit is not None:
        i, j, res = hit
        raise SceneInvariantViolation(
            f"{what}: segments {i},{j} are not disjoint ({res.kind})", witness=hit
        )


def _subdivide_on_polyline(points: Sequence[ExactPoint], n: int) -> List[ExactPoint]:
    """n+1 equal-parameter points along a polyline, snapped onto its chords.

    Parameter is polyline index: vertex k sits at parameter k, so the points
    at j * (segments/n) for j = 0..n are exact rational combinations of the
    polyline's own vertices.  Includes both endpoints.
    """
    m = len(points) - 1
    out: List[ExactPoint] = []
    for j in range(n + 1):
        t = Fraction(j * m, n)
        k = int(t)
        fr = t - k
        if k == m:
            out.append(points[m])
        elif fr == 0:
            out.append(points[k])
        else:
            out.append(points[k] + (points[k + 1] - points[k]).scale(fr))
    return out


def build_scene(cfg: SceneConfig) -> Scene:
    """Build and certify a scene from its configuration.

    Splices the replacement arc, places the subdivided anchor chains, builds
    the four disks, and verifies every scene invariant exactly; any failure
    raises with a witness.
    """
    cfg.validate()
    v = cfg.center
    alpha_prime = cfg.alpha_prime()
    _polyline_simple(cfg.alpha, "alpha")
    _polyline_simple(alpha_prime, "alpha_prime")
    _polyline_simple(cfg.beta, "beta")
    _polylines_disjoint(cfg.beta, alpha_prime, "beta vs alpha_prime")

    # Anchor chains: equal-parameter subdivision snapped onto the curve.
    a_branch = alpha_prime[cfg.a1_index: cfg.c_index + 1]
    b_branch = list(reversed(alpha_prime[cfg.c_index: cfg.b1_index + 1]))
    a_pts = _subdivide_on_polyline(a_branch, cfg.n)   # a1 .. an, c
    b_pts = _subdivide_on_polyline(b_branch, cfg.n)   # b1 .. bn, c
    a_chain = a_pts[:-1]
    b_chain = b_pts[:-1]
    c = a_pts[-1]
    if b_pts[-1] != c:
        raise SceneInvariantViolation("anchor chains disagree about the middle anchor")

    rim = a_chain + [c] + list(reversed(b_chain))
    gamma_prime = cone(v, rim)
    delta_disk = cone(v, cfg.alpha)
    d_f = cone(v, cfg.beta, closed=cfg.beta_closed)

    i0, i1 = cfg.eta_range
    eta = cfg.alpha[i0: i1 + 1]
    if list(cfg.eta_prime) == list(eta):
        delta_patch = None
    else:
        delta_patch = TriPatch.between_polylines(eta, cfg.eta_prime)

    res = disk_disk_classify(d_f, gamma_prime)
    if res.kind != "single-point" or res.point != v:
        raise SceneInvariantViolation(
            f"separating cone meets the panel fan beyond the center: {res.kind}",
            witness=res.witness,
        )
    scene = Scene(
        config=cfg,
        v=v,
        gamma_prime=gamma_prime,
        delta_disk=delta_disk,
        delta_patch=delta_patch,
        d_f=d_f,
        a_chain=a_chain,
        b_chain=b_chain,
        c=c,
    )
    expected = 2 * cfg.n
    if gamma_prime.n_triangles != expected:
        raise SceneInvariantViolation(
            f"panel fan has {gamma_prime.n_triangles} triangles, expected {expected}"
        )
    return scene


def segment_meets_delta_prime_interior(scene: Scene, seg: Segment) -> bool:
    """Does a segment meet the interior of the union disk (full cone plus the
    near-sphere strip glued along the replaced arc)?

    The union's interior is the cone's interior, the strip's open part, and
    the open glue arc (the replaced subarc, its endpoints excluded).
    """
    res = scene.delta_disk.classify_segment(seg)
    if res.kind == "meets-interior":
        return True
    i0, i1 = scene.config.eta_range
    if res.kind == "boundary-only":
        for ct in res.contacts:
            kind = ct.feature[0]
            if kind == "rim" and i0 <= ct.feature[1] < i1:
                return True
            if kind == "rimvert" and i0 < ct.feature[1] < i1:
                return True
    if scene.delta_patch is not None and scene.delta_patch.segment_meets_open_patch(seg):
        return True
    return False


# ---------------------------------------------------------------------------
# The scene's graph: chain cycle through x, plus a pendant y
# ---------------------------------------------------------------------------

def scene_graph(n: int):
    """The scene's abstract graph.

    Vertices: x, y, a1..an, c, bn..b1.  x rides the cycle
    x a1 ... an c bn ... b1 x and also has the chord edge x-c; y is adjacent
    to x only.  Returns (graph, x, y).
    """
    from .graphs import SpatialGraph

    a = [f"a{i}" for i in range(1, n + 1)]
    b = [f"b{i}" for i in range(1, n + 1)]
    vertices = ["x", "y", "c"] + a + b
    edges = [("x", "y"), ("x", "a1"), ("x", "b1"), ("x", "c")]
    edges += [(a[i], a[i + 1]) for i in range(n - 1)] + [(a[-1], "c")]
    edges += [(b[i], b[i + 1]) for i in range(n - 1)] + [(b[-1], "c")]
    return SpatialGraph(vertices, edges), "x", "y"


def contracted_scene_embedding(scene: Scene):
    """The straight-line embedding of the contracted graph: the split pair
    collapsed to a vertex v at the center, chains at their scene positions."""
    from .graphs import LinearEmbedding, contract_edge

    n = scene.config.n
    g, x, y = scene_graph(n)
    gc = contract_edge(g, x, y, "v")
    position = {"v": scene.v, "c": scene.c}
    for i, p in enumerate(scene.a_chain):
        position[f"a{i + 1}"] = p
    for i, p in enumerate(scene.b_chain):
        position[f"b{i + 1}"] = p
    return LinearEmbedding(gc, position)


def split_scene_embedding(scene: Scene, t) -> "LinearEmbedding":
    """Re-expand the contracted vertex against the panel fan's first triangle
    normal, yielding the straight-line embedding with x and y near v."""
    from .graphs import expand_to_psi

    contracted = contracted_scene_embedding(scene)
    return expand_to_psi(
        contracted, "v", scene.gamma_prime, t,
        nx={"a1", "b1", "c"}, ny=set(),
    )


# ---------------------------------------------------------------------------
# Shipped configurations
# ---------------------------------------------------------------------------

def _shipped_config(name: str) -> SceneConfig:
    """The config stored in the package's ``data/`` directory under ``name``."""
    text = resources.files(__package__).joinpath("data", name).read_text(encoding="utf-8")
    return SceneConfig.from_jsonable(json.loads(text))


def default_paper_config() -> SceneConfig:
    """The shipped scene (``data/default_paper.json``): a two-armed spherical
    spiral meeting at the south pole.

    Arm A descends from colatitude 30 degrees at longitude 0, winding three
    turns (48 samples per turn) down to the south pole; arm B is its exact
    half-turn rotation, traversed back up, so the spliced curve runs first
    anchor, descending arm, pole (the bottom anchor), ascending arm, last
    anchor, with the two top endpoints on roughly opposite sides.  A short
    subarc just after the first anchor is replaced by a detour pushed away
    from the first anchor's spoke.  The separating curve is an open polar
    loop well above everything.  The points are stored as rationals, so
    every machine builds the same scene; ``tests/test_shipped_configs.py``
    rebuilds them from their angles with a float constructor of its own.
    """
    return _shipped_config("default_paper.json")


def control_short_arc_config() -> SceneConfig:
    """Negative control (``data/control_short_arc.json``): the whole curve is
    a short arc near the north pole.

    All three anchors sit inside the arc, so placements on the far side of
    the center see every attachment segment run clear of the panel fan; the
    verifier must find those witnesses.  Stored as rationals, as the default
    scene is.
    """
    return _shipped_config("control_short_arc.json")
