"""Placement scans over the built scene.

``verify_star`` classifies, for every grid placement ``x`` in the punctured
ball around the center, the three attachment segments (first anchor to x,
bottom anchor to x, last anchor to x) against the panel fan's interior.  A
segment's unavoidable touch at its own anchor vertex (the anchor lies on the
fan's rim by construction) is structural and is discounted; any other
boundary-only grazing makes the placement degenerate and it is skipped, since
measure-zero touches say nothing about interiors.  Every placement achieving
the minimum blocked count is re-verified through the independent brute-force
route before the summary is trusted.

``check_equator_claim`` tests the cone over the full curve: for placements
whose bottom-anchor segment misses that cone entirely (beyond the structural
touch), every sampled near-sphere point with z above the center must send a
segment through the cone's interior.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import crosscheck
from .disks import FanDisk
from .errors import ConfigError
from .exactgeom import ExactPoint, Segment
from .jsonio import point_to_json
from .scene import Scene, SceneConfig, icosphere_directions

SEGMENT_NAMES = ("a1x", "cx", "b1x")

# The most upper samples the equator check takes: 4x the CLI's default of
# 60, which no shipped test or bench input exceeds.  upper_sample_points
# reaches it at icosphere frequency 8 (642 directions), and the check
# classifies every premise placement against every sample.
MAX_SAMPLES = 256


def _feature_jsonable(feature) -> list:
    return [feature[0]] + [int(v) for v in feature[1:]]


@dataclass(frozen=True)
class SegmentStatus:
    """Classification of one attachment segment after the structural
    anchor-touch discount."""

    status: str  # 'meets-interior' | 'boundary-only' | 'disjoint'
    features: Tuple = ()
    witness: Optional[ExactPoint] = None

    def to_jsonable(self) -> dict:
        out = {"status": self.status,
               "features": [_feature_jsonable(f) for f in self.features]}
        if self.witness is not None:
            out["witness"] = point_to_json(self.witness)
        return out


@dataclass(frozen=True)
class Placement:
    index: int
    x: ExactPoint
    segments: Tuple[SegmentStatus, ...] = ()
    blocked: int = 0
    skipped: bool = False
    skip_reason: Optional[str] = None

    def to_jsonable(self) -> dict:
        out = {
            "index": self.index,
            "x": point_to_json(self.x),
            "skipped": self.skipped,
        }
        if self.skipped:
            out["skip_reason"] = self.skip_reason
        if self.segments:
            out["segments"] = {
                name: st.to_jsonable() for name, st in zip(SEGMENT_NAMES, self.segments)
            }
            out["blocked"] = self.blocked
        return out


@dataclass(frozen=True)
class StarReport:
    placements: Tuple[Placement, ...]
    min_blocked: Optional[int]
    witness_indices: Tuple[int, ...]
    histogram: Dict[int, int]
    skipped_count: int
    recheck_count: int
    recheck_all_match: bool

    @property
    def evaluated_count(self) -> int:
        return len(self.placements) - self.skipped_count

    def witnesses(self) -> List[Placement]:
        by_index = {p.index: p for p in self.placements}
        return [by_index[i] for i in self.witness_indices]

    def to_jsonable(self, manifest: Optional[dict] = None, full: bool = False) -> dict:
        out = {
            "kind": "star-report",
            "summary": {
                "total_placements": len(self.placements),
                "skipped": self.skipped_count,
                "evaluated": self.evaluated_count,
                "min_blocked": self.min_blocked,
                "blocked_histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "witness_count": len(self.witness_indices),
                "witness_indices": list(self.witness_indices),
                "recheck": {
                    "witnesses_rechecked": self.recheck_count,
                    "all_match": self.recheck_all_match,
                },
            },
        }
        if manifest is not None:
            out["manifest"] = manifest
        if full:
            out["placements"] = [p.to_jsonable() for p in self.placements]
        else:
            out["witnesses"] = [p.to_jsonable() for p in self.witnesses()]
        return out


def _classify_with_discount(fan: FanDisk, anchor: ExactPoint, anchor_feature,
                            x: ExactPoint) -> SegmentStatus:
    """Classify segment anchor->x against the fan, discounting the contact at
    the anchor's own rim vertex (pass anchor_feature=None for no discount)."""
    res = fan.classify_segment(Segment(anchor, x))
    kept = []
    witness = res.witness
    for c in res.contacts:
        if anchor_feature is not None and c.feature == anchor_feature \
                and c.seg is None and c.point == anchor:
            continue
        kept.append(c)
    if res.kind == "meets-interior":
        return SegmentStatus("meets-interior", tuple(c.feature for c in kept), witness)
    if kept:
        return SegmentStatus("boundary-only", tuple(c.feature for c in kept))
    return SegmentStatus("disjoint")


def _recheck_with_discount(fan: FanDisk, anchor: ExactPoint, anchor_feature,
                           x: ExactPoint) -> str:
    """The same discounted classification through the independent route."""
    meets, features, _witness = crosscheck.fan_contact_features(fan, Segment(anchor, x))
    if meets:
        return "meets-interior"
    features = set(features)
    features.discard(anchor_feature)
    return "boundary-only" if features else "disjoint"


def _anchor_data(scene: Scene):
    """The three anchors a1, c and b1 with their rim-vertex features on the
    panel fan: rim entries 0, n and 2 n."""
    rim, n = scene.gamma_prime.rim, scene.config.n
    return tuple((rim[k], ("rimvert", k)) for k in (0, n, 2 * n))


def _evaluate_placement(scene: Scene, anchors, k: int, x: ExactPoint) -> Placement:
    if x == scene.v:
        return Placement(k, x, skipped=True, skip_reason="coincides-with-apex")
    fan = scene.gamma_prime
    statuses = tuple(
        _classify_with_discount(fan, anchor, feat, x) for anchor, feat in anchors
    )
    if any(st.status == "boundary-only" for st in statuses):
        return Placement(k, x, segments=statuses, skipped=True,
                         skip_reason="boundary-touch")
    blocked = sum(1 for st in statuses if st.status == "meets-interior")
    return Placement(k, x, segments=statuses, blocked=blocked)


_WORKER_STATE: dict = {}


def _worker_init(fn, args):
    _WORKER_STATE["job"] = (fn, args)


def _worker_chunk(chunk) -> list:
    start, xs = chunk
    fn, args = _WORKER_STATE["job"]
    return [fn(*args, start + k, x) for k, x in enumerate(xs)]


def _parallel_map(fn, args: tuple, xs: list, threads: int) -> list:
    """``[fn(*args, k, x) for k, x in enumerate(xs)]``, serially or across
    worker processes, in the order of ``xs`` either way.

    ``threads`` must be at least 1; the number of workers is capped at the
    CPU count (and at ``len(xs)``).  Workers are forked, so they inherit
    ``fn`` and ``args`` (the built scene) without pickling them; forking is
    safe because plgraph starts no threads.  ``multiprocessing`` is imported
    only when workers are used, which keeps it out of serial runs' memory.
    """
    if threads < 1:
        raise ConfigError("threads must be >= 1", "threads")
    workers = min(threads, os.cpu_count() or 1, len(xs))
    if workers <= 1:
        return [fn(*args, k, x) for k, x in enumerate(xs)]
    import multiprocessing

    size = -(-len(xs) // (4 * workers))
    chunks = [(s, xs[s: s + size]) for s in range(0, len(xs), size)]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=workers, initializer=_worker_init, initargs=(fn, args)) as pool:
        parts = pool.map(_worker_chunk, chunks)
    return [out for part in parts for out in part]


def verify_star(scene: Scene, cfg: Optional[SceneConfig] = None,
                threads: int = 1) -> StarReport:
    """Scan the placement grid and report how each placement fares.

    For each non-degenerate placement, ``blocked`` counts how many of the
    three attachment segments meet the panel fan's interior.  The summary
    carries the minimum over non-degenerate placements and every placement
    attaining it, each re-verified by the independent brute-force route (a
    mismatch raises).  The scan is deterministic for a fixed grid; placements
    are independent, so ``threads > 1`` distributes them across worker
    processes (see :func:`_parallel_map`) without changing the report.
    """
    cfg = cfg or scene.config
    anchors = _anchor_data(scene)
    grid_points = cfg.grid.placements(scene.v, cfg.epsilon)
    placements = _parallel_map(_evaluate_placement, (scene, anchors), grid_points, threads)
    histogram: Dict[int, int] = {}
    skipped = 0
    for p in placements:
        if p.skipped:
            skipped += 1
        else:
            histogram[p.blocked] = histogram.get(p.blocked, 0) + 1
    evaluated = [p for p in placements if not p.skipped]
    if evaluated:
        min_blocked = min(p.blocked for p in evaluated)
        witness_indices = tuple(p.index for p in evaluated if p.blocked == min_blocked)
    else:
        min_blocked = None
        witness_indices = ()
    # Independent re-verification of every minimal witness.
    fan = scene.gamma_prime
    rechecked = 0
    by_index = {p.index: p for p in placements}
    for i in witness_indices:
        p = by_index[i]
        for (anchor, feat), st in zip(anchors, p.segments):
            other = _recheck_with_discount(fan, anchor, feat, p.x)
            if other != st.status:
                raise AssertionError(
                    f"independent recheck disagrees at placement {i}: "
                    f"{st.status} vs {other}"
                )
        rechecked += 1
    return StarReport(
        placements=tuple(placements),
        min_blocked=min_blocked,
        witness_indices=witness_indices,
        histogram=histogram,
        skipped_count=skipped,
        recheck_count=rechecked,
        recheck_all_match=True,
    )


def star_exit_code(report: StarReport) -> int:
    """Stable CLI contract: 0 when every placement is blocked, 2 when a
    zero-blocked witness exists, 1 when nothing could be evaluated."""
    if report.min_blocked is None:
        return 1
    return 0 if report.min_blocked >= 1 else 2


# ---------------------------------------------------------------------------
# Equator claim
# ---------------------------------------------------------------------------

_REPORT_LIST_CAP = 200


@dataclass(frozen=True)
class EquatorReport:
    premise_indices: Tuple[int, ...]
    sample_count: int
    pairs_checked: int
    blocked_pairs: int
    counter_pairs: Tuple[dict, ...]
    degenerate_pairs: Tuple[dict, ...]
    vacuous: bool
    recheck_all_match: bool

    def to_jsonable(self, manifest: Optional[dict] = None) -> dict:
        out = {
            "kind": "equator-report",
            "summary": {
                "premise_placements": len(self.premise_indices),
                "premise_indices": list(self.premise_indices[:_REPORT_LIST_CAP]),
                "sample_count": self.sample_count,
                "pairs_checked": self.pairs_checked,
                "blocked_pairs": self.blocked_pairs,
                "counter_pair_count": len(self.counter_pairs),
                "degenerate_pair_count": len(self.degenerate_pairs),
                "vacuous": self.vacuous,
                "recheck_all_match": self.recheck_all_match,
            },
            "counter_pairs": list(self.counter_pairs[:_REPORT_LIST_CAP]),
            "degenerate_pairs": list(self.degenerate_pairs[:_REPORT_LIST_CAP]),
        }
        if manifest is not None:
            out["manifest"] = manifest
        return out


def upper_sample_points(scene: Scene, sample_count: int) -> List[ExactPoint]:
    """Deterministic rational near-sphere samples with z above the center,
    from the icosphere net of frequency 4, doubled until there are enough.

    ``sample_count`` must be at least 1 and at most :data:`MAX_SAMPLES`.
    """
    if sample_count < 1:
        raise ConfigError("samples must be >= 1", "samples")
    if sample_count > MAX_SAMPLES:
        raise ConfigError(f"samples must be <= {MAX_SAMPLES}", "samples")
    f = 4
    while True:
        dirs = icosphere_directions(f)
        out = []
        for d in dirs:
            p = scene.v + d.scale(scene.config.sphere_radius)
            if p.z > scene.v.z:
                out.append(p)
        if len(out) >= sample_count:
            return out[:sample_count]
        f *= 2


def _equator_row(scene: Scene, c_feature, samples, k: int, x: ExactPoint):
    """One placement's full equator row: premise test, then all sample pairs.

    Returns None when the placement is excluded or fails the premise,
    otherwise (k, blocked, counters, degenerates)."""
    delta = scene.delta_disk
    if x == scene.v:
        return None
    st = _classify_with_discount(delta, scene.c, c_feature, x)
    if st.status != "disjoint":
        return None
    blocked = 0
    counter = []
    degenerate = []
    for p in samples:
        seg = Segment(p, x)
        res = delta.classify_segment(seg)
        # Every pair is re-verified through the independent route.
        other = crosscheck.fan_meets_interior(delta, seg)
        if other != (res.kind == "meets-interior"):
            raise AssertionError(
                f"independent recheck disagrees on pair {k}: "
                f"{res.kind} vs meets-interior={other}"
            )
        if res.kind == "meets-interior":
            blocked += 1
            continue
        rec = {
            "placement_index": k,
            "x": point_to_json(x),
            "p": point_to_json(p),
            "classification": res.kind,
        }
        if res.kind == "boundary-only":
            # A measure-zero graze of the disk's boundary says nothing
            # about its interior; reported, but not a counterexample.
            rec["features"] = [_feature_jsonable(c.feature) for c in res.contacts]
            degenerate.append(rec)
        else:
            counter.append(rec)
    return (k, blocked, counter, degenerate)


def check_equator_claim(scene: Scene, cfg: Optional[SceneConfig] = None,
                        sample_count: int = 60, threads: int = 1) -> EquatorReport:
    """Check: whenever the bottom anchor's segment misses the full cone, all
    sampled upper points send segments through the cone's interior.

    Counter-pairs are reported exactly; none is expected on the shipped
    configuration, and the short-arc control must produce some.  Placement
    rows are independent, so ``threads > 1`` distributes them across worker
    processes (see :func:`_parallel_map`) without changing the report.
    ``sample_count`` below 1 or above :data:`MAX_SAMPLES` raises
    :class:`ConfigError` before any placement is evaluated.
    """
    cfg = cfg or scene.config
    delta = scene.delta_disk
    # The bottom anchor usually is a rim vertex of the full cone; its
    # structural touch is discounted only when it actually lies there.
    c_feature = None
    for i, p in enumerate(delta.rim):
        if p == scene.c:
            c_feature = ("rimvert", i)
            break
    samples = upper_sample_points(scene, sample_count)
    grid_points = cfg.grid.placements(scene.v, cfg.epsilon)
    rows = _parallel_map(_equator_row, (scene, c_feature, samples), grid_points, threads)
    rows = [row for row in rows if row is not None]
    counter = []
    degenerate = []
    blocked = 0
    for _k, row_blocked, row_counter, row_degenerate in rows:
        blocked += row_blocked
        counter.extend(row_counter)
        degenerate.extend(row_degenerate)
    pairs = len(rows) * len(samples)
    return EquatorReport(
        premise_indices=tuple(row[0] for row in rows),
        sample_count=len(samples),
        pairs_checked=pairs,
        blocked_pairs=blocked,
        counter_pairs=tuple(counter),
        degenerate_pairs=tuple(degenerate),
        vacuous=(pairs == 0),
        recheck_all_match=True,
    )
