"""plgraph benchmark: time to a verdict on three seeded workloads.

    python3 bench/run.py --workload spiral --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --workload lk --seed 3 --seconds 35 --trace 1
    python3 bench/run.py --workload control-t2 --seed 0 --seconds 1 --smoke
    python3 bench/run.py --self-test

Run from the root of a checkout; the program under test is the checkout's
``src/plgraph``, and every file the benchmark writes goes under
``.bench_out/``.  Stdlib only.

Workloads (each repetition calls what the CLI commands call, in order):

* ``spiral``: the shipped two-armed spiral, z-rotated by the seed; build_scene,
  verify_star, check_equator_claim with 10 samples; serial.
* ``control-t2``: the short-arc control, z-rotated by the seed; the same scans
  with 5 samples and two worker processes.  Its reports are also compared,
  once per invocation and outside the timing, with a serial run's.
* ``lk``: K7 at seeded rational positions plus a planted Hopf link;
  pairwise_link_scan with cycles up to length 3.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each cycle runs one untraced repetition (plus a serial one for
control-t2) and one serial traced repetition, and the last line carries the
per-layer metrics.  Every repetition's verdicts are checked against the known
answers, and its report bytes against the first repetition's; ``failed``
counts the verdicts that were wrong (``fail_ratio`` in the table).

Every time is calibrated (see ``scans.CALIBRATION_REF``): the shared host's
speed drifts over seconds by up to 1.7x, which spreads raw medians by about
20 % from run to run; scaled by a fixed loop timed between phases, they stay
within a few per cent.  A reported time is the median over the run's
samples; the table above the JSON line also gives the sample count, the
fastest sample, the highest percentile with at least ten samples beyond it,
and the uncalibrated medians.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ".bench_out"
WORKLOADS = ("spiral", "control-t2", "lk")

# Reported on the last line with --trace 0 / --trace 1 (mirrored in
# BENCHMARK.json).  Per-layer times that read 0 on a workload that never
# calls the layer are printed in the table but kept off the JSON line.
END_TO_END = (
    ("setup_s", "s"), ("scan_s", "s"), ("total_s", "s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)
PER_LAYER_JSON = (
    "exactgeom.orient3d.calls", "exactgeom.orient3d.us",
    "exactgeom.segment_triangle_contacts.calls",
    "exactgeom.segment_segment_classify.calls",
    "exactgeom.triangle_triangle_intersection.calls",
    "disks.classify_segment.m8.calls", "disks.classify_segment.m12.calls",
    "disks.classify_segment.m128.calls",
    "disks.classify_segment.m288.calls", "disks.classify_segment.interior_ratio",
    "disks.classify_segment.contacts_per_call", "disks.cone.calls",
    "crosscheck.fan_contact_features.calls", "crosscheck.fan_meets_interior.calls",
    "crosscheck.share.star", "crosscheck.share.equator",
    "verify.recheck_ratio", "verify.skip_ratio", "verify.premise_ratio",
    "verify.fanout.cores_busy",
    "graphs.enumerate_cycles.cycles",
    "linking.pairs", "linking.cone_calls_per_pair", "linking.genericity_checks_per_pair",
    "jsonio.write_canonical.s", "jsonio.report_bytes",
    "trace.overhead_s", "trace.spans",
)


class BenchError(Exception):
    pass


def _load_program():
    """Import plgraph from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "plgraph" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {src / 'plgraph'} is missing")
    sys.path.insert(0, str(src))
    import plgraph

    if Path(plgraph.__file__).resolve().parent != (src / "plgraph").resolve():
        raise BenchError(f"imported plgraph from {plgraph.__file__}, not from {src}")
    return plgraph


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summary(xs):
    """(n, min, (percentile label, value) or None) of a sample."""
    xs = sorted(xs)
    n = len(xs)
    tail = None
    if n >= 11:
        i = n - 11  # the last sample with ten beyond it
        tail = (f"p{int(100 * i / (n - 1))}", xs[i])
    return n, xs[0], tail


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_table(title, rows):
    """rows: (name, value, unit, samples or None)."""
    print(f"# {title}")
    print(f"#   {'metric':46s} {'value':>12s} {'unit':6s} {'n':>4s} {'min':>12s} tail")
    for name, value, unit, samples in rows:
        extra = ""
        if samples:
            n, lo, tail = summary(samples)
            extra = f"{n:4d} {_fmt(lo):>12s} " + (f"{tail[0]}={_fmt(tail[1])}" if tail else "-")
        print(f"#   {name:46s} {_fmt(value):>12s} {unit:6s} {extra}")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def prepare(workload: str, seed: int, smoke: bool):
    """Write the seed's input file and return its scans.Inputs."""
    import inputs
    import scans

    out_dir = f"{OUT}/{workload}"
    os.makedirs(out_dir, exist_ok=True)
    # A scene build takes about 0.3 s (spiral) or 10 ms (control), an
    # embedding parse well under 1 ms; the short ones are repeated within each
    # repetition so that setup_s has enough samples for a steady median.
    if workload == "lk":
        doc = inputs.lk_embedding_doc(seed)
        path = f"{out_dir}/embedding_seed{seed}.json"
        inp = scans.Inputs(workload, "lk", path, out_dir, setup_repeats=25,
                           max_cycle_len=inputs.LK_MAX_CYCLE_LEN)
    elif workload == "spiral":
        doc = inputs.scene_config_doc("spiral", seed, smoke)
        path = f"{out_dir}/config_seed{seed}.json"
        inp = scans.Inputs(workload, "scene", path, out_dir,
                           samples=(inputs.SMOKE_SPIRAL_SAMPLES if smoke
                                    else inputs.SPIRAL_SAMPLES))
    elif workload == "control-t2":
        doc = inputs.scene_config_doc("control", seed, smoke)
        path = f"{out_dir}/config_seed{seed}.json"
        inp = scans.Inputs(workload, "scene", path, out_dir, threads=inputs.CONTROL_THREADS,
                           samples=inputs.CONTROL_SAMPLES, setup_repeats=10)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
    return inp


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Tally:
    """Verdicts attempted and failed, with the reasons for failures."""

    def __init__(self, expect: str, max_cycle_len: int):
        self.expect, self.max_cycle_len = expect, max_cycle_len
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = None

    def check(self, rep, label: str):
        import scans

        if self.first is None:
            self.first = dict(rep.reports)
        for name, bad in scans.verdicts(self.expect, rep, self.max_cycle_len):
            if rep.reports[name] != self.first[name]:
                bad = bad + [f"{name} report bytes differ from the first repetition"]
            self.record(bad, f"{label} {name}")

    def record(self, bad, label: str):
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(bad)}")


def _one_rep(inp, threads, tally, label):
    """One repetition; an exception counts as a failed verdict."""
    import scans

    gc.collect()
    try:
        rep = scans.run_rep(inp, threads)
    except Exception as exc:  # the run must go on and report the failure
        tally.record([f"{type(exc).__name__}: {exc}"], label)
        return None
    tally.check(rep, label)
    return rep


def _rep_totals(inp, rep):
    """Calibrated (scan, total, cpu) seconds of a repetition; the total runs
    from the start of its last setup to its last report."""
    import scans

    phases = scans.SCAN_PHASES[inp.kind]
    scan = sum(sum(rep.scaled(p)) for p in phases)
    cpu = rep.scaled("setup_s", cpu=True)[-1] + sum(sum(rep.scaled(p, cpu=True)) for p in phases)
    return scan, rep.scaled("setup_s")[-1] + scan, cpu


def _keep_going(started, seconds, reps_done, last_len):
    elapsed = time.perf_counter() - started
    if reps_done < 2:
        return reps_done == 0 or elapsed < seconds
    return elapsed + last_len <= seconds


def run_untraced(inp, seconds: float, tally: Tally):
    import scans

    reps = []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(reps), last):
        t0 = time.perf_counter()
        rep = _one_rep(inp, inp.threads, tally, f"rep {len(reps) + 1}")
        if rep is None:
            break
        reps.append(rep)
        last = time.perf_counter() - t0
    if inp.threads > 1 and reps:
        # Thread-count independence: serial reports equal the threaded ones.
        serial = _one_rep(inp, 1, Tally(tally.expect, tally.max_cycle_len), "serial")
        bad = ["serial run failed"] if serial is None else [
            f"{k} report differs between threads=1 and threads={inp.threads}"
            for k in reps[0].reports if serial.reports[k] != reps[0].reports[k]]
        tally.record(bad, "thread-count independence")
    return reps


def end_to_end_metrics(inp, reps):
    """Medians of the calibrated samples; the table adds the raw wall times."""
    import scans

    rows = []
    values = {}
    totals = [_rep_totals(inp, r) for r in reps]
    series = {
        "setup_s": [x for r in reps for x in r.scaled("setup_s")],
        "scan_s": [t[0] for t in totals],
        "total_s": [t[1] for t in totals],
        "cpu_s": [t[2] for t in totals],
    }
    for phase in scans.SCAN_PHASES[inp.kind]:
        xs = [sum(r.scaled(phase)) for r in reps]
        rows.append((phase, statistics.median(xs), "s", xs))
    for name, unit in END_TO_END:
        if name == "peak_rss_mb":
            values[name] = scans.peak_rss_mb()
            rows.append((name, values[name], unit, None))
        else:
            values[name] = statistics.median(series[name])
            rows.append((name, values[name], unit, series[name]))
    for phase in ("setup_s",) + scans.SCAN_PHASES[inp.kind]:
        xs = [x for r in reps for x in r.wall(phase)]
        rows.append((f"{phase} uncalibrated", statistics.median(xs), "s", xs))
    cal = [c for r in reps for c in r.calibrations]
    rows.append(("calibration loop", statistics.median(cal), "s", cal))
    return values, rows


def run_traced(inp, seconds: float, tally: Tally):
    """Cycles of (untraced rep, [untraced serial rep], traced serial rep).

    The first traced repetition also counts the short calls; the later ones
    only record spans, so the counting wrappers do not inflate their times."""
    import tracer as tracing

    once = dataclasses.replace(inp, setup_repeats=1)  # per-layer counts per build
    tracers, untraced, serial, traced = [], [], [], []
    started = time.perf_counter()
    last = 0.0
    while _keep_going(started, seconds, len(traced), last):
        t0 = time.perf_counter()
        k = len(traced) + 1
        rep = _one_rep(inp, inp.threads, tally, f"cycle {k} untraced")
        if rep is None:
            break
        untraced.append(rep)
        if inp.threads > 1:
            rep = _one_rep(inp, 1, tally, f"cycle {k} serial")
            if rep is None:
                break
            bad = [f"{n} report differs between threads=1 and threads={inp.threads}"
                   for n in rep.reports if rep.reports[n] != untraced[-1].reports[n]]
            tally.record(bad, f"cycle {k} thread-count independence")
        serial.append(rep)
        tr = tracing.Tracer(run=k, count_calls=(k == 1))
        with tr:
            rep = _one_rep(once, 1, tally, f"cycle {k} traced")
        if rep is None:
            break
        tracers.append(tr)
        traced.append(rep)
        last = time.perf_counter() - t0
    return tracers, untraced, serial, traced


def per_layer_metrics(inp, tracers, untraced, serial, traced):
    """{name: (value, unit)} for every per-layer metric.  Counts come from the
    first traced repetition; times from the later ones (the first if alone),
    per repetition."""
    import scans
    import tracer as tracing

    counted = tracers[0]
    c = counted.counts
    calls_table = tracing.span_table([counted])
    timed = tracers[1:] or tracers
    # Span durations are calibrated like the end-to-end times, per repetition.
    scale = {tr.run: scans.CALIBRATION_REF / statistics.mean(r.calibrations)
             for tr, r in zip(tracers, traced)}
    time_table = tracing.span_table(timed, scale)
    n = len(timed)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "self_by_scan": {}, "calls_by_scan": {}}

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return calls_table.get(name, empty)["calls"]

    def secs(name, key="s"):
        return time_table.get(name, empty)[key] / n

    def ms_per_call(name):
        row = time_table.get(name, empty)
        return ratio(row["s"], row["calls"]) * 1e3

    m = {}
    m["exactgeom.orient3d.calls"] = (c["exactgeom.orient3d"], "count")
    before = scans.calibration_seconds()
    us = counted.orient3d_us()
    after = scans.calibration_seconds()
    m["exactgeom.orient3d.us"] = (us * scans.CALIBRATION_REF / ((before + after) / 2), "us")
    for f in ("segment_triangle_contacts", "segment_segment_classify",
              "triangle_triangle_intersection"):
        m[f"exactgeom.{f}.calls"] = (c[f"exactgeom.{f}"], "count")
    all_classify = 0
    for size in (8, 12, 128, 288):
        name = f"disks.classify_segment.m{size}"
        all_classify += calls(name)
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ms"] = (ms_per_call(name), "ms")
    m["disks.classify_segment.interior_ratio"] = (
        ratio(c["disks.classify_segment.interior"], all_classify), "1")
    m["disks.classify_segment.contacts_per_call"] = (
        ratio(c["disks.classify_segment.contacts"], all_classify), "count")
    m["disks.cone.calls"] = (calls("disks.cone"), "count")
    m["disks.cone.s"] = (secs("disks.cone"), "s")
    m["disks.disk_disk_classify.s"] = (secs("disks.disk_disk_classify"), "s")
    for f in ("fan_contact_features", "fan_meets_interior"):
        name = f"crosscheck.{f}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.ms"] = (ms_per_call(name), "ms")
        m[f"{name}.self_s"] = (secs(name, "self_s"), "s")
    for scan, label in (("verify.verify_star", "star"), ("verify.check_equator_claim", "equator")):
        cc = sum(time_table.get(f"crosscheck.{f}", empty)["self_by_scan"].get(scan, 0.0)
                 for f in ("fan_contact_features", "fan_meets_interior"))
        m[f"crosscheck.share.{label}"] = (ratio(cc, time_table.get(scan, empty)["s"]), "1")
    m["scene.build_scene.s"] = (secs("scene.build_scene"), "s")
    m["scene.grid.s"] = (secs("scene.grid"), "s")
    m["verify.verify_star.self_s"] = (secs("verify.verify_star", "self_s"), "s")
    m["verify.check_equator_claim.self_s"] = (secs("verify.check_equator_claim", "self_s"), "s")
    m["verify.recheck_ratio"] = (ratio(c["verify.rechecked"], c["verify.evaluated"]), "1")
    m["verify.skip_ratio"] = (ratio(c["verify.skipped"], c["verify.placements"]), "1")
    m["verify.premise_ratio"] = (ratio(c["verify.premises"], c["verify.placements"]), "1")
    phases = scans.SCAN_PHASES[inp.kind]
    busy = [ratio(sum(sum(r.scaled(p, cpu=True)) for p in phases),
                  sum(sum(r.scaled(p)) for p in phases)) for r in untraced]
    m["verify.fanout.cores_busy"] = (statistics.median(busy), "1")
    m["graphs.validate_embedding.s"] = (secs("graphs.validate_embedding"), "s")
    m["graphs.enumerate_cycles.s"] = (secs("graphs.enumerate_cycles"), "s")
    m["graphs.enumerate_cycles.cycles"] = (c["graphs.cycles"], "count")
    pairs = c["linking.pairs"]
    m["linking.pairs"] = (pairs, "count")
    m["linking.linking_number_projection.self_s"] = (
        secs("linking.linking_number_projection", "self_s"), "s")
    m["linking.linking_number_cone.self_s"] = (secs("linking.linking_number_cone", "self_s"), "s")
    m["linking.cone_calls_per_pair"] = (ratio(calls("linking.linking_number_cone"), pairs), "1")
    m["linking.genericity_checks_per_pair"] = (
        ratio(calls("linking.direction_is_generic"), pairs), "1")
    m["jsonio.write_canonical.s"] = (secs("jsonio.write_canonical"), "s")
    m["jsonio.report_bytes"] = (c["jsonio.report_bytes"], "bytes")
    # Paired within each cycle, so that drift between cycles cancels.
    pairs_run = list(zip(traced, serial))
    extra = [_rep_totals(inp, t)[1] - _rep_totals(inp, p)[1]
             for t, p in (pairs_run[1:] or pairs_run)]
    m["trace.overhead_s"] = (statistics.median(extra), "s")
    m["trace.spans"] = (len(counted.spans), "count")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def _parse(argv):
    ap = argparse.ArgumentParser(description="plgraph benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs that finish in seconds (not comparable)")
    ap.add_argument("--self-test", action="store_true", help="run the benchmark's own tests")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args):
    """Run one workload: (result, table rows, spans doc or None, tally,
    inputs, repetitions)."""
    inp = prepare(args.workload, args.seed, args.smoke)
    expect = "spiral" if args.workload == "spiral" else (
        "control" if args.workload == "control-t2" else "lk")
    tally = Tally(expect, inp.max_cycle_len)
    if args.trace:
        tracers, untraced, serial, traced = run_traced(inp, args.seconds, tally)
        metrics = per_layer_metrics(inp, tracers, untraced, serial, traced) if traced else {}
        rows = [(k, v, u, None) for k, (v, u) in sorted(metrics.items())]
        out = {k: metrics[k] for k in PER_LAYER_JSON if k in metrics}
        spans = [tr.to_jsonable() for tr in tracers]
        reps = len(traced)
    else:
        reps_list = run_untraced(inp, args.seconds, tally)
        values, rows = end_to_end_metrics(inp, reps_list) if reps_list else ({}, [])
        out = {k: (values[k], u) for k, u in END_TO_END if k in values}
        spans = None
        reps = len(reps_list)
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    rows.append(("fail_ratio", fail_ratio, "1", None))
    result = {
        "correct": tally.failed == 0 and reps > 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.items()},
    }
    return result, rows, spans, tally, inp, reps


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        os.chdir(ROOT)
        _load_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.self_test:
        import selftest

        return selftest.main()
    result, rows, spans, tally, inp, reps = run(args)
    if spans is not None:
        path = f"{OUT}/{args.workload}/spans_seed{args.seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        print(f"# spans written to {path}")
    for p in tally.problems[:20]:
        print(f"# FAILED {p}")
    mode = "traced" if args.trace else "untraced"
    print_table(f"{args.workload} seed {args.seed}: {reps} {mode} repetitions; "
                f"input {inp.input_path}", rows)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.exit(main())
