"""The workload call sequences and the checks of their verdicts.

Each repetition calls the public functions that the matching CLI commands
call, in the same order, and writes the same canonical reports (manifest
included).  Calls go through module attributes (``verify.verify_star``,
``jsonio.write_canonical``, ...) so that the tracer's patches see them.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

from plgraph import __version__, jsonio, linking, scene, verify

import inputs


def cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children (pool workers)."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest child."""
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (s + c) / 1024.0


# Host-speed calibration.  The shared host's speed drifts over seconds by up
# to about 1.7x, for every process alike (CPU time inflates with wall time).
# A fixed pure-Python loop of exact Fraction geometry, which imports nothing
# from plgraph and so never changes with it, is timed between phases; each
# phase is scaled by CALIBRATION_REF / (mean of the loop times around it),
# i.e. reported in seconds of a host on which the loop takes 2.5 ms.  Each
# loop time is the best of five, so an interruption does not count as a
# slow host.
CALIBRATION_REF = 0.0025
_CAL_POINTS = tuple(
    (Fraction(i * 7919 % 100003, 10 ** 6), Fraction(i * 104729 % 100019, 10 ** 6),
     Fraction(i * 1299709 % 99991, 999983))
    for i in range(40)
)


def _calibration_loop() -> int:
    hits = 0
    pts = _CAL_POINTS
    for i in range(len(pts) - 2):
        p, q, r = pts[i], pts[i + 1], pts[i + 2]
        u = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        v = (r[0] - p[0], r[1] - p[1], r[2] - p[2])
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        hits += (n[0] * p[0] + n[1] * p[1] + n[2] * p[2]) > 0
    return hits


def calibration_seconds(rounds: int = 2, tries: int = 5) -> float:
    best = float("inf")
    for _ in range(tries):
        t0 = time.perf_counter()
        for _ in range(rounds):
            _calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Rep:
    """One repetition: per phase, samples of (wall s, CPU s, calibration
    index); calibration loop times; and the report bytes."""

    samples: Dict[str, List[tuple]] = field(default_factory=dict)
    calibrations: List[float] = field(default_factory=list)
    reports: Dict[str, bytes] = field(default_factory=dict)
    star_exit: int = -1

    def calibrate(self):
        self.calibrations.append(calibration_seconds())

    def add(self, phase: str, wall: float, cpu: float):
        self.samples.setdefault(phase, []).append((wall, cpu, len(self.calibrations) - 1))

    def _scale(self, k: int) -> float:
        cal = self.calibrations
        return CALIBRATION_REF / ((cal[k] + cal[k + 1]) / 2)

    def wall(self, phase: str) -> List[float]:
        """Raw wall seconds of each sample of ``phase``."""
        return [w for w, _c, _k in self.samples.get(phase, ())]

    def scaled(self, phase: str, cpu: bool = False) -> List[float]:
        """Calibrated wall (or CPU) seconds of each sample of ``phase``."""
        return [(c if cpu else w) * self._scale(k) for w, c, k in self.samples.get(phase, ())]


class _Phase:
    def __init__(self, rep: Rep, name: str):
        self.rep, self.name = rep, name

    def __enter__(self):
        self.t0, self.c0 = time.perf_counter(), cpu_seconds()

    def __exit__(self, *exc):
        self.rep.add(self.name, time.perf_counter() - self.t0, cpu_seconds() - self.c0)
        return False


def _manifest(command, config_path, overrides, out_path, doc) -> dict:
    return {
        "command": command,
        "config_path": config_path,
        "overrides": overrides,
        "output": out_path,
        "tool_version": __version__,
        "config_hash": jsonio.content_hash(doc),
    }


@dataclass(frozen=True)
class Inputs:
    """Paths (relative to the checkout root) and sizes of one workload's input."""

    workload: str
    kind: str            # 'scene' | 'lk'
    input_path: str
    out_dir: str
    threads: int = 1
    samples: int = 0
    max_cycle_len: int = 0
    setup_repeats: int = 1


def scene_rep(inp: Inputs, threads: int) -> Rep:
    """load config -> build_scene -> verify_star + report -> equator + report."""
    rep = Rep()
    star_out = f"{inp.out_dir}/star_report.json"
    eq_out = f"{inp.out_dir}/equator_report.json"
    rep.calibrate()
    for _ in range(inp.setup_repeats):
        with _Phase(rep, "setup_s"):
            with open(inp.input_path, "r", encoding="utf-8") as fh:
                cfg = scene.SceneConfig.from_jsonable(json.load(fh))
            sc = scene.build_scene(cfg)
    rep.calibrate()
    with _Phase(rep, "star_s"):
        report = verify.verify_star(sc, cfg, threads=threads)
        manifest = _manifest("verify-star", inp.input_path, {}, star_out, cfg.to_jsonable())
        rep.reports["star"] = jsonio.write_canonical(
            star_out, report.to_jsonable(manifest=manifest, full=False))
        rep.star_exit = verify.star_exit_code(report)
    rep.calibrate()
    with _Phase(rep, "equator_s"):
        eq = verify.check_equator_claim(sc, cfg, sample_count=inp.samples, threads=threads)
        manifest = _manifest("equator", inp.input_path, {}, eq_out, cfg.to_jsonable())
        rep.reports["equator"] = jsonio.write_canonical(eq_out, eq.to_jsonable(manifest=manifest))
    rep.calibrate()
    return rep


def lk_rep(inp: Inputs, threads: int = 1) -> Rep:
    """load embedding -> pairwise_link_scan + report."""
    rep = Rep()
    out = f"{inp.out_dir}/link_report.json"
    rep.calibrate()
    for _ in range(inp.setup_repeats):
        with _Phase(rep, "setup_s"):
            with open(inp.input_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            emb = jsonio.embedding_from_json(doc)
    rep.calibrate()
    with _Phase(rep, "lk_s"):
        report = linking.pairwise_link_scan(emb, inp.max_cycle_len)
        body = report.to_jsonable()
        body["kind"] = "link-report"
        body["manifest"] = {
            "command": "lk",
            "config_path": inp.input_path,
            "overrides": {"max_cycle_len": inp.max_cycle_len},
            "output": out,
            "tool_version": __version__,
            "config_hash": jsonio.content_hash(doc),
        }
        rep.reports["lk"] = jsonio.write_canonical(out, body)
    rep.calibrate()
    return rep


def run_rep(inp: Inputs, threads: int) -> Rep:
    return (scene_rep if inp.kind == "scene" else lk_rep)(inp, threads)


SCAN_PHASES = {"scene": ("star_s", "equator_s"), "lk": ("lk_s",)}


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

def check_star(expect: str, doc: dict, exit_code: int) -> List[str]:
    """Problems with a star report against the known answer of ``expect``."""
    s = doc["summary"]
    bad = []
    if expect == "spiral":
        if exit_code != 0:
            bad.append(f"star exit code {exit_code}, expected 0")
        if s["min_blocked"] is None or s["min_blocked"] < 1:
            bad.append(f"min_blocked {s['min_blocked']}, expected >= 1")
    else:
        if exit_code != 2:
            bad.append(f"star exit code {exit_code}, expected 2")
        if s["min_blocked"] != 0:
            bad.append(f"min_blocked {s['min_blocked']}, expected 0")
    if not s["recheck"]["all_match"]:
        bad.append("independent recheck disagrees")
    if s["recheck"]["witnesses_rechecked"] != s["witness_count"]:
        bad.append("not every minimal witness was rechecked")
    return bad


def check_equator(expect: str, doc: dict) -> List[str]:
    s = doc["summary"]
    bad = []
    if expect == "spiral":
        if s["counter_pair_count"] != 0:
            bad.append(f"{s['counter_pair_count']} counter-pairs, expected 0")
        if s["vacuous"]:
            bad.append("equator check is vacuous")
    elif s["counter_pair_count"] < 1:
        bad.append("no counter-pair, expected at least 1")
    if not s["recheck_all_match"]:
        bad.append("independent recheck disagrees")
    return bad


def check_lk(doc: dict, max_cycle_len: int) -> List[str]:
    """The planted Hopf pair has |lk| = 1; every K7-cycle / planted-triangle
    pair has lk 0 (a plane separates them)."""
    bad = []
    pairs = doc["pairs"]
    internal, separated = inputs.lk_expected_pairs(max_cycle_len)
    want = internal + separated + 1
    if len(pairs) != want:
        bad.append(f"{len(pairs)} cycle pairs, expected {want}")
    planted = {tuple(sorted(inputs.HOPF_A)), tuple(sorted(inputs.HOPF_B))}
    hopf = 0
    mixed = 0
    for p in pairs:
        a, b = tuple(sorted(p["cycle_a"])), tuple(sorted(p["cycle_b"]))
        if a in planted and b in planted:
            hopf += 1
            if abs(p["linking_number"]) != 1:
                bad.append(f"planted Hopf pair has lk {p['linking_number']}")
        elif a in planted or b in planted:
            mixed += 1
            if p["linking_number"] != 0:
                bad.append(f"separated pair {a}/{b} has lk {p['linking_number']}")
    if hopf != 1:
        bad.append(f"planted Hopf pair found {hopf} times")
    if mixed != separated:
        bad.append(f"{mixed} K7/planted pairs, expected {separated}")
    return bad


def verdicts(expect: str, rep: Rep, max_cycle_len: int = 0) -> List[Tuple[str, List[str]]]:
    """[(verdict name, problems)] for one repetition; no problems means correct."""
    out = []
    if "star" in rep.reports:
        out.append(("star", check_star(expect, json.loads(rep.reports["star"]), rep.star_exit)))
    if "equator" in rep.reports:
        out.append(("equator", check_equator(expect, json.loads(rep.reports["equator"]))))
    if "lk" in rep.reports:
        out.append(("lk", check_lk(json.loads(rep.reports["lk"]), max_cycle_len)))
    return out
