"""Command-line front end.

Three subcommands: ``verify-star`` runs the placement scan against the panel
fan, ``lk`` computes pairwise linking numbers of an embedding's cycles, and
``export`` writes the built scene as an OBJ mesh.  Every JSON report embeds
the manifest that produced it (command, config path, overrides, output paths,
tool version, config content hash), and re-running a manifest reproduces the
report byte for byte.

Exit codes for ``verify-star`` are a stable contract: 0 when every
non-degenerate placement is blocked, 2 when a zero-blocked witness exists,
1 on errors, usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import __version__
from .errors import ConfigError, PLGraphError
from .jsonio import content_hash, embedding_from_json, write_canonical
from .linking import MAX_CYCLE_LEN, pairwise_link_scan
from .meshio import write_obj
from .scene import (
    MAX_CURVE_POINTS,
    MAX_GRID_FREQUENCY,
    MAX_GRID_SHELLS,
    MAX_N,
    GridSpec,
    SceneConfig,
    build_scene,
    default_paper_config,
)
from .verify import MAX_SAMPLES, check_equator_claim, star_exit_code, verify_star


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise PLGraphError(f"cannot read {what}: {exc}")
    except ValueError as exc:
        # JSONDecodeError, or an integer literal over the interpreter's
        # digit limit for int/str conversion.
        raise PLGraphError(f"{what} is not valid JSON: {exc}")


def _load_config(args) -> tuple:
    """Returns (config, config_path_string)."""
    if args.demo:
        return default_paper_config(), None
    if not args.config:
        raise PLGraphError("either --config PATH or --demo is required")
    return SceneConfig.from_jsonable(_read_json(args.config, "config")), args.config


def _parse_rational(text: str) -> Fraction:
    """The value of ``--epsilon``; a malformed one raises ConfigError naming it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}: {exc}", "epsilon")


def _apply_overrides(cfg: SceneConfig, args) -> dict:
    overrides = {}
    if getattr(args, "grid_shells", None) is not None:
        cfg.grid = GridSpec(shells=args.grid_shells, frequency=cfg.grid.frequency,
                            include_center=cfg.grid.include_center)
        overrides["grid_shells"] = args.grid_shells
    if getattr(args, "grid_dirs", None) is not None:
        cfg.grid = GridSpec(shells=cfg.grid.shells, frequency=args.grid_dirs,
                            include_center=cfg.grid.include_center)
        overrides["grid_dirs"] = args.grid_dirs
    if getattr(args, "n", None) is not None:
        cfg.n = args.n
        overrides["n"] = args.n
    if getattr(args, "epsilon", None) is not None:
        cfg.epsilon = _parse_rational(args.epsilon)
        overrides["epsilon"] = args.epsilon
    return overrides


def _manifest(command: str, config_path: Optional[str], overrides: dict,
              out_path: Optional[str], input_doc) -> dict:
    return {
        "command": command,
        "config_path": config_path if config_path is not None else "--demo",
        "overrides": overrides,
        "output": out_path,
        "tool_version": __version__,
        "config_hash": content_hash(input_doc),
    }


def cmd_verify_star(args) -> int:
    cfg, path = _load_config(args)
    overrides = _apply_overrides(cfg, args)
    scene = build_scene(cfg)
    report = verify_star(scene, cfg, threads=args.threads)
    manifest = _manifest("verify-star", path, overrides, args.out, cfg.to_jsonable())
    doc = report.to_jsonable(manifest=manifest, full=args.full_dump)
    write_canonical(args.out, doc)
    code = star_exit_code(report)
    summary = doc["summary"]
    print(
        f"verify-star: min_blocked={summary['min_blocked']} over "
        f"{summary['evaluated']} placements ({summary['skipped']} skipped); "
        f"report: {args.out}"
    )
    return code


def cmd_equator(args) -> int:
    cfg, path = _load_config(args)
    overrides = _apply_overrides(cfg, args)
    scene = build_scene(cfg)
    report = check_equator_claim(scene, cfg, sample_count=args.samples,
                                 threads=args.threads)
    manifest = _manifest("equator", path, overrides, args.out, cfg.to_jsonable())
    write_canonical(args.out, report.to_jsonable(manifest=manifest))
    n_counter = len(report.counter_pairs)
    print(
        f"equator: {report.pairs_checked} pairs, {n_counter} counter-pairs, "
        f"{len(report.degenerate_pairs)} degenerate; report: {args.out}"
    )
    return 0 if n_counter == 0 else 2


def cmd_lk(args) -> int:
    doc = _read_json(args.embedding, "embedding")
    emb = embedding_from_json(doc)
    report = pairwise_link_scan(emb, args.max_cycle_len)
    manifest = _manifest("lk", args.embedding, {"max_cycle_len": args.max_cycle_len},
                         args.out, doc)
    out = report.to_jsonable()
    out["kind"] = "link-report"
    out["manifest"] = manifest
    write_canonical(args.out, out)
    print(f"lk: {len(report.pairs)} vertex-disjoint cycle pairs; report: {args.out}")
    return 0


def cmd_export(args) -> int:
    cfg, _path = _load_config(args)
    scene = build_scene(cfg)
    groups = {
        "delta": scene.delta_disk.triangles,
        "delta_patch": scene.delta_patch.triangles if scene.delta_patch else [],
        "gamma_prime": scene.gamma_prime.triangles,
        "d_f": scene.d_f.triangles,
    }
    try:
        write_obj(args.out, groups)
    except OSError as exc:
        raise PLGraphError(f"cannot write mesh: {exc}")
    counts = ", ".join(f"{k}={len(v)}" for k, v in groups.items())
    print(f"export: wrote {args.out} ({counts})")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error, so that a script never
    reads one as exit 2's verdict; ``--help`` and ``--version`` exit 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="plgraph",
        description="Exact PL spatial-graph toolkit: panel scans, linking numbers, mesh export.",
    )
    ap.add_argument("--version", action="version", version=f"plgraph {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_config_opts(p, grid=True):
        p.add_argument("--config",
                       help="scene config JSON path; the curves alpha, eta_prime and "
                            f"beta hold 2 to {MAX_CURVE_POINTS} points each")
        p.add_argument("--demo", action="store_true",
                       help="use the built-in default configuration")
        if grid:
            p.add_argument("--grid-shells", type=int,
                           help=f"override shell count, 1 to {MAX_GRID_SHELLS}")
            p.add_argument("--grid-dirs", type=int,
                           help="override icosphere frequency f, 1 to "
                                f"{MAX_GRID_FREQUENCY} (directions = 10 f^2 + 2)")
            p.add_argument("--n", type=int,
                           help=f"override chain subdivision count, 1 to {MAX_N}")
            p.add_argument("--epsilon", help="override placement-ball radius (rational)")

    p = sub.add_parser("verify-star", help="scan placements against the panel fan")
    add_config_opts(p)
    p.add_argument("--out", default="star_report.json", help="report path")
    p.add_argument("--full-dump", action="store_true",
                   help="serialize every placement, not just the summary and witnesses")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, >= 1 (capped at the CPU count)")
    p.set_defaults(func=cmd_verify_star)

    p = sub.add_parser("equator", help="check the upper-hemisphere blocking claim")
    add_config_opts(p)
    p.add_argument("--samples", type=int, default=60,
                   help=f"upper-hemisphere sample count, 1 to {MAX_SAMPLES}")
    p.add_argument("--out", default="equator_report.json", help="report path")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes, >= 1 (capped at the CPU count)")
    p.set_defaults(func=cmd_equator)

    p = sub.add_parser("lk", help="pairwise linking numbers of an embedding's cycles")
    p.add_argument("embedding", help="embedding JSON path")
    p.add_argument("--max-cycle-len", type=int, default=6,
                   help=f"longest cycle to enumerate, 3 to {MAX_CYCLE_LEN}")
    p.add_argument("--out", default="link_report.json", help="report path")
    p.set_defaults(func=cmd_lk)

    p = sub.add_parser("export", help="write the scene as an OBJ mesh")
    add_config_opts(p, grid=False)
    p.add_argument("--out", default="scene.obj", help="mesh path")
    p.set_defaults(func=cmd_export)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PLGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
