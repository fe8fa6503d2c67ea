"""Spans and counters around the calls into each plgraph layer.

The benchmark's own wrappers are patched in where the caller looks the name
up (``plgraph.scene.cone``, ``plgraph.disks.orient3d``, the ``plgraph.crosscheck``
module attributes that ``verify`` reaches through the module, ...), so the
program itself is unchanged.  Each span records name, start, end, parent and
run id; spans stay in memory until the benchmark writes them out.

Calls that take a few microseconds (``orient3d``, ``segment_*``,
``triangle_triangle_intersection``) are only counted: a span would cost more
than the call.  Even a counting wrapper adds about half a microsecond to the
span around it, so a tracer made with ``count_calls=False`` leaves them
alone; the benchmark counts on its first traced repetition and times spans on
the later ones.  ``orient3d`` also keeps the arguments of its first calls,
and its per-call cost comes from a timed batch over those arguments.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Dict, List

from plgraph import crosscheck, disks, exactgeom, graphs, jsonio, linking, scene, verify

ORIENT3D_SAMPLE = 20000

# (owner, attribute, span name): calls that get a span.
_SPANNED = (
    (scene, "build_scene", "scene.build_scene"),
    (scene, "cone", "disks.cone"),
    (scene, "disk_disk_classify", "disks.disk_disk_classify"),
    (scene.GridSpec, "placements", "scene.grid"),
    (scene, "icosphere_directions", "scene.grid"),
    (verify, "icosphere_directions", "scene.grid"),
    (verify, "verify_star", "verify.verify_star"),
    (verify, "check_equator_claim", "verify.check_equator_claim"),
    (crosscheck, "fan_contact_features", "crosscheck.fan_contact_features"),
    (crosscheck, "fan_meets_interior", "crosscheck.fan_meets_interior"),
    (graphs, "validate_embedding", "graphs.validate_embedding"),
    (graphs, "enumerate_cycles", "graphs.enumerate_cycles"),
    (linking, "pairwise_link_scan", "linking.pairwise_link_scan"),
    (linking, "find_generic_direction", "linking.find_generic_direction"),
    (linking, "find_generic_apex", "linking.find_generic_apex"),
    (linking, "direction_is_generic", "linking.direction_is_generic"),
    (linking, "linking_number_projection", "linking.linking_number_projection"),
    (linking, "linking_number_cone", "linking.linking_number_cone"),
    (jsonio, "write_canonical", "jsonio.write_canonical"),
)

# (owners, attribute, counter name): calls that are only counted.
_COUNTED = (
    ((exactgeom, disks, linking), "orient3d", "exactgeom.orient3d"),
    ((exactgeom, disks, linking), "segment_triangle_contacts",
     "exactgeom.segment_triangle_contacts"),
    ((exactgeom, scene, graphs, linking), "segment_segment_classify",
     "exactgeom.segment_segment_classify"),
    ((exactgeom, disks), "triangle_triangle_intersection",
     "exactgeom.triangle_triangle_intersection"),
)


class Tracer:
    """In-memory spans ``[name, start, end, parent, run]`` and counters."""

    def __init__(self, run: int = 0, count_calls: bool = True):
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.run = run
        self.count_calls = count_calls
        self.orient3d_args: List[tuple] = []
        self._stack: List[int] = []
        self._saved: List[tuple] = []
        self._orient3d = exactgeom.orient3d

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn: Callable, on_result=None) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{name}.raised"] += 1
                raise
            finally:
                self._close(rec)
            if on_result is not None:
                on_result(rec, args, result)
            return result
        return wrapper

    def _classify_segment(self, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(fan, seg):
            rec = self._open(f"disks.classify_segment.m{fan.n_triangles}")
            try:
                result = fn(fan, seg)
            finally:
                self._close(rec)
            counts["disks.classify_segment.contacts"] += len(result.contacts)
            if result.kind == "meets-interior":
                counts["disks.classify_segment.interior"] += 1
            return result
        return wrapper

    def _counted(self, name: str, fn: Callable, keep_args: bool) -> Callable:
        counts = self.counts
        if not keep_args:
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper
        kept = self.orient3d_args

        def keeping(*args):
            counts[name] += 1
            if len(kept) < ORIENT3D_SAMPLE:
                kept.append(args)
            return fn(*args)
        return keeping

    def _note_result(self, rec, args, result):
        name = rec[0]
        if name == "verify.verify_star":
            self.counts["verify.placements"] += len(result.placements)
            self.counts["verify.evaluated"] += result.evaluated_count
            self.counts["verify.skipped"] += result.skipped_count
            self.counts["verify.rechecked"] += result.recheck_count
        elif name == "verify.check_equator_claim":
            self.counts["verify.premises"] += len(result.premise_indices)
        elif name == "graphs.enumerate_cycles":
            self.counts["graphs.cycles"] += len(result)
        elif name == "linking.direction_is_generic" and not result[0]:
            self.counts["linking.direction_is_generic.rejected"] += 1
        elif name == "linking.pairwise_link_scan":
            self.counts["linking.pairs"] += len(result.pairs)
        elif name == "jsonio.write_canonical":
            self.counts["jsonio.report_bytes"] += len(result)

    # -- patching -------------------------------------------------------------

    def install(self):
        """Patch every wrapper in; ``uninstall`` puts the originals back."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr), self._note_result))
        cls = disks.FanDisk
        self._patch(cls, "classify_segment", self._classify_segment(cls.classify_segment))
        if not self.count_calls:
            return
        for owners, attr, name in _COUNTED:
            original = getattr(exactgeom, attr)
            wrapper = self._counted(name, original, keep_args=(attr == "orient3d"))
            for owner in owners:
                if getattr(owner, attr, None) is original:
                    self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ---------------------------------------------------------------

    def orient3d_us(self, batches: int = 5) -> float:
        """Per-call microseconds of the original orient3d over kept arguments
        (best of several batches)."""
        args = self.orient3d_args
        if not args:
            return 0.0
        f = self._orient3d
        best = float("inf")
        for _ in range(batches):
            t0 = time.perf_counter()
            for a in args:
                f(*a)
            best = min(best, time.perf_counter() - t0)
        return best / len(args) * 1e6

    def to_jsonable(self) -> dict:
        return {
            "run": self.run,
            "count_calls": self.count_calls,
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }


def span_table(tracers: List[Tracer], scale: Dict[int, float] = None) -> Dict[str, dict]:
    """Per span name, summed over the tracers: calls, total time (outermost
    spans of that name only, so recursion is not double counted), self time
    (duration minus children), and self time and calls under each top-level
    scan.  ``scale`` maps a run id to the factor its durations are multiplied
    by (default 1)."""
    scale = scale or {}
    out: Dict[str, dict] = {}
    for tr in tracers:
        spans = tr.spans
        factor = scale.get(tr.run, 1.0)
        durs = [(rec[2] - rec[1]) * factor for rec in spans]
        child = [0.0] * len(spans)
        for rec, dur in zip(spans, durs):
            if rec[3] is not None:
                child[rec[3]] += dur
        for k, rec in enumerate(spans):
            name = rec[0]
            dur = durs[k]
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "self_by_scan": Counter(), "calls_by_scan": Counter()})
            row["calls"] += 1
            row["self_s"] += dur - child[k]
            scan = None
            recursive = False
            p = rec[3]
            while p is not None:
                if spans[p][0] == name:
                    recursive = True
                if spans[p][0] in ("verify.verify_star", "verify.check_equator_claim"):
                    scan = spans[p][0]
                p = spans[p][3]
            if not recursive:
                row["s"] += dur
            if scan is not None:
                row["self_by_scan"][scan] += dur - child[k]
                row["calls_by_scan"][scan] += 1
    return out
