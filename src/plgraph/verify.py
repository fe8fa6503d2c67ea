"""Placement scans over the built scene.

``verify_star`` classifies, for every grid placement ``x`` in the punctured
ball around the center, the three attachment segments (first anchor to x,
bottom anchor to x, last anchor to x) against the panel fan's interior.  A
segment's unavoidable touch at its own anchor vertex (the anchor lies on the
fan's rim by construction) is structural and is discounted; any other
boundary-only grazing makes the placement degenerate and it is skipped, since
measure-zero touches say nothing about interiors.  Every segment of every
placement achieving the minimum blocked count is confirmed through the
independent route before the summary is trusted.

``check_equator_claim`` tests the cone over the full curve: for placements
whose bottom-anchor segment misses that cone entirely (beyond the structural
touch), every sampled near-sphere point with z above the center must send a
segment through the cone's interior.  Every such pair is confirmed through
the independent route.

**Kinds from the walk, contacts for the report.**  Both scans decide each
segment with :meth:`~plgraph.disks.FanDisk.segment_kind`, the fan's
early-exit walk over its live triangles (anchor-discounted for the star's
segments and the equator premise): it stops at the first interior contact
and builds no crossing point.  A :class:`Placement` keeps only those
answers.  A full :class:`~plgraph.disks.DiskSegmentResult` from
:meth:`~plgraph.disks.FanDisk.classify_segment` is built only for what a
report writes: an equator pair called "boundary-only" (its features,
during the scan), and the non-disjoint segments of each star-report entry
when the report is written (:func:`_entry`): the minimal witnesses', or,
for ``StarReport.to_jsonable(full=True)``, every placement's, across as
many workers as the scan used.  A "disjoint" answer already is the full
result: no kept contact and no witness.

**One confirmation rule.**  Each fast answer a scan confirms goes to
:func:`_recheck`, the only caller of :mod:`plgraph.crosscheck`, which shares
no predicate with the fast route; a disagreement raises.  A
"meets-interior", and every answer with no discount (each equator pair),
goes to the independent interior test, which starts at the triangle the
walk names (where it first met the interior), so a "yes" solves that one
triangle.  The start changes only the order in which the independent route
solves triangles, never its answer.  Every other star answer, and a
"boundary-only", is then confirmed by recomputing every contact over the
whole fan.

Not confirmed, the same whether a kind comes from the walk or from full
contacts: the equator premise (the bottom anchor's segment missing the
cone), the boundary-only/disjoint split of an equator pair the fast route
calls disjoint (it is confirmed only as not meeting the interior), and the
segments of star placements above the minimum.

Both scans register their fixed anchors with
:meth:`~plgraph.disks.FanDisk.index_endpoint` before fanning out (a1, c and
b1 on the panel fan, c on the full cone), so the segments from them are
culled by a binary search instead of a sign row, in the workers too; the
answers are the same either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import crosscheck
from .disks import DiskSegmentResult, FanDisk, SegmentKind
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


def _segment_jsonable(res: DiskSegmentResult) -> dict:
    out = {"status": res.kind,
           "features": [_feature_jsonable(c.feature) for c in res.contacts]}
    if res.witness is not None:
        out["witness"] = point_to_json(res.witness)
    return out


@dataclass(frozen=True)
class Placement:
    """One grid placement.  ``segments`` holds the walk's answer for each
    attachment segment (a1x, cx, b1x); the report entry's contacts are
    built from them when it is written (:func:`_entry`)."""

    index: int
    x: ExactPoint
    segments: Tuple[SegmentKind, ...] = ()
    blocked: int = 0
    skipped: bool = False
    skip_reason: Optional[str] = None


@dataclass(frozen=True)
class StarReport:
    placements: Tuple[Placement, ...]
    min_blocked: Optional[int]
    witness_indices: Tuple[int, ...]
    histogram: Dict[int, int]
    skipped_count: int
    recheck_count: int
    # The panel fan, the anchors with their discounted features and the
    # scan's thread count, with which to_jsonable builds the entries.
    fan: FanDisk = field(repr=False, compare=False)
    anchors: tuple = field(repr=False, compare=False)
    threads: int = field(repr=False, compare=False)

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
                    # A disagreement raises in verify_star, before any
                    # report exists.
                    "all_match": True,
                },
            },
        }
        if manifest is not None:
            out["manifest"] = manifest
        ks = range(len(self.placements)) if full else self.witness_indices
        entries = _parallel_map(_entry, (self.fan, self.anchors, self.placements), ks,
                                self.threads if full else 1)
        out["placements" if full else "witnesses"] = entries
        return out


def _classify_with_discount(fan: FanDisk, anchor: ExactPoint, anchor_feature,
                            x: ExactPoint) -> DiskSegmentResult:
    """Classify segment anchor->x against the fan, discounting the contact on
    the anchor's own rim-vertex feature (pass anchor_feature=None for no
    discount), as :meth:`~plgraph.disks.FanDisk.segment_kind` does."""
    res = fan.classify_segment(Segment(anchor, x))
    kept = tuple(c for c in res.contacts if c.feature != anchor_feature)
    return DiskSegmentResult(res.kind if kept else "disjoint", kept, res.witness)


def _entry(fan: FanDisk, anchors, placements, _pos: int, k: int) -> dict:
    """The report entry of ``placements[k]``.  A "disjoint" walk answer is
    already the full result; every other segment is classified with the
    anchor's discount.  :func:`_parallel_map` is given only the indexes: a
    worker reads the placements from the state it forked with, which spares
    pickling them (about 0.2 s of the default scene's 5,768)."""
    p = placements[k]
    out = {"index": p.index, "x": point_to_json(p.x), "skipped": p.skipped}
    if p.skipped:
        out["skip_reason"] = p.skip_reason
    if p.segments:
        out["segments"] = {
            name: _segment_jsonable(
                DiskSegmentResult("disjoint") if answer.kind == "disjoint"
                else _classify_with_discount(fan, anchor, feat, p.x))
            for name, (anchor, feat), answer in zip(SEGMENT_NAMES, anchors, p.segments)
        }
        out["blocked"] = p.blocked
    return out


def _recheck(fan: FanDisk, seg: Segment, fast: SegmentKind, anchor_feature=None) -> None:
    """Confirm the walk's answer ``fast`` for ``seg`` through the
    independent route, or raise.  ``anchor_feature`` is the discounted rim
    vertex, as in :meth:`~plgraph.disks.FanDisk.segment_kind`.

    A "meets-interior", and every answer with no discount, is confirmed by
    the independent interior test, started at the triangle the walk names.
    Every other discounted answer, and a "boundary-only", is then confirmed
    by recomputing every contact.  An undiscounted "disjoint" is confirmed
    only as not meeting the interior."""
    meets = fast.kind == "meets-interior"
    if meets or anchor_feature is None:
        if crosscheck.fan_meets_interior(fan, seg, fast.triangle) != meets:
            raise AssertionError(f"independent recheck disagrees on {seg}: {fast.kind} "
                                 f"vs meets-interior={not meets}")
    if not meets and (anchor_feature is not None or fast.kind == "boundary-only"):
        other_meets, features, _witness = crosscheck.fan_contact_features(fan, seg)
        features = set(features) - {anchor_feature}
        other = "meets-interior" if other_meets else "boundary-only" if features else "disjoint"
        if other != fast.kind:
            raise AssertionError(f"independent recheck disagrees on {seg}: {fast.kind} vs {other}")


def _rim_feature(fan: FanDisk, p: ExactPoint):
    """The rim-vertex feature of ``p`` on ``fan``, or None off the rim's
    vertices."""
    return ("rimvert", fan.rim.index(p)) if p in fan.rim else None


def _anchor_data(scene: Scene):
    """The three anchors a1, c and b1 with their rim-vertex features on the
    panel fan."""
    anchors = (scene.a1, scene.c, scene.b1)
    return tuple((a, _rim_feature(scene.gamma_prime, a)) for a in anchors)


def _evaluate_placement(scene: Scene, anchors, k: int, x: ExactPoint) -> Placement:
    if x == scene.v:
        return Placement(k, x, skipped=True, skip_reason="coincides-with-apex")
    fan = scene.gamma_prime
    kinds = tuple(fan.segment_kind(Segment(anchor, x), feat) for anchor, feat in anchors)
    if any(st.kind == "boundary-only" for st in kinds):
        return Placement(k, x, segments=kinds, skipped=True, skip_reason="boundary-touch")
    blocked = sum(1 for st in kinds if st.kind == "meets-interior")
    return Placement(k, x, segments=kinds, blocked=blocked)


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
    mismatch raises).  Every placement keeps only the walk's answers; the
    contacts a report entry writes are built when the report is written
    (``to_jsonable(full=True)`` with ``threads`` workers too).  The scan is
    deterministic for a fixed grid; placements are independent, so
    ``threads > 1`` distributes them across worker processes (see
    :func:`_parallel_map`) without changing the report.
    """
    cfg = cfg or scene.config
    fan = scene.gamma_prime
    anchors = _anchor_data(scene)
    for anchor, _feat in anchors:
        fan.index_endpoint(anchor)
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
    min_blocked = min((p.blocked for p in evaluated), default=None)
    witnesses = [p for p in evaluated if p.blocked == min_blocked]
    # Independent re-verification of every minimal witness.
    for p in witnesses:
        for (anchor, feat), answer in zip(anchors, p.segments):
            _recheck(fan, Segment(anchor, p.x), answer, feat)
    return StarReport(
        placements=tuple(placements),
        min_blocked=min_blocked,
        witness_indices=tuple(p.index for p in witnesses),
        histogram=histogram,
        skipped_count=skipped,
        recheck_count=len(witnesses),
        fan=fan,
        anchors=anchors,
        threads=threads,
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
                # A disagreement raises in check_equator_claim, before any
                # report exists.
                "recheck_all_match": True,
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
        # The radius is positive (SceneConfig.validate), so a sample is
        # above the center exactly when its direction points up.
        up = [d for d in icosphere_directions(f) if d.z > 0]
        if len(up) >= sample_count:
            return [scene.v + d.scale(scene.config.sphere_radius) for d in up[:sample_count]]
        f *= 2


def _equator_row(scene: Scene, c_feature, samples, k: int, x: ExactPoint):
    """One placement's full equator row: premise test, then all sample pairs.

    Returns None when the placement is excluded or fails the premise,
    otherwise (k, blocked, counters, degenerates)."""
    delta = scene.delta_disk
    if x == scene.v:
        return None
    if delta.segment_kind(Segment(scene.c, x), c_feature).kind != "disjoint":
        return None
    blocked = 0
    counter = []
    degenerate = []
    for p in samples:
        seg = Segment(p, x)
        answer = delta.segment_kind(seg)
        _recheck(delta, seg, answer)
        if answer.kind == "meets-interior":
            blocked += 1
            continue
        rec = {
            "placement_index": k,
            "x": point_to_json(x),
            "p": point_to_json(p),
            "classification": answer.kind,
        }
        if answer.kind == "boundary-only":
            # A measure-zero graze of the disk's boundary says nothing
            # about its interior; reported, but not a counterexample.
            contacts = delta.classify_segment(seg).contacts
            rec["features"] = [_feature_jsonable(c.feature) for c in contacts]
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
    c_feature = _rim_feature(delta, scene.c)
    samples = upper_sample_points(scene, sample_count)
    delta.index_endpoint(scene.c)
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
    )
