"""Command-line behavior: exit codes, reports, manifests, reproducibility."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plgraph.cli import _apply_overrides, _manifest
from plgraph.jsonio import canonical_dumps
from plgraph.linking import MAX_CYCLE_LEN
from plgraph.scene import (
    MAX_CURVE_POINTS,
    MAX_GRID_FREQUENCY,
    MAX_GRID_SHELLS,
    MAX_N,
    GridSpec,
    control_short_arc_config,
)
from plgraph.verify import MAX_SAMPLES

SRC = Path(__file__).resolve().parents[1] / "src"
PKG_DATA = SRC / "plgraph" / "data"
CONTROL = PKG_DATA / "control_short_arc.json"


def run_cli(*args, cwd=None):
    """Run ``python -m plgraph`` on this checkout's sources, whatever else is
    on the caller's path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plgraph", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )
    return proc


def test_shipped_control_file_matches_constructor():
    with open(CONTROL, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert canonical_dumps(doc) == canonical_dumps(control_short_arc_config().to_jsonable())


@pytest.mark.parametrize("option, name", [("grid_shells", "shells"), ("grid_dirs", "frequency")])
def test_a_grid_override_keeps_every_other_grid_field(option, name):
    cfg = control_short_arc_config()
    grid = cfg.grid = GridSpec(shells=2, frequency=3, include_center=True)
    assert _apply_overrides(cfg, argparse.Namespace(**{option: 1})) == {option: 1}
    assert vars(cfg.grid) == {**vars(grid), name: 1}


class TestVerifyStar:
    def test_control_config_exits_2_with_witness(self, tmp_path):
        out = tmp_path / "ctl.json"
        proc = run_cli("verify-star", "--config", str(CONTROL), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        doc = json.loads(out.read_text())
        assert doc["summary"]["min_blocked"] == 0
        assert doc["summary"]["witness_count"] > 0
        assert doc["manifest"]["command"] == "verify-star"
        assert doc["manifest"]["config_hash"]
        assert doc["witnesses"]  # explicit witness placements in the report

    @pytest.mark.slow
    def test_full_demo_exits_0(self, tmp_path):
        # The complete shipped scan: every non-degenerate placement blocked.
        out = tmp_path / "demo_full.json"
        proc = run_cli("verify-star", "--demo", "--out", str(out))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        doc = json.loads(out.read_text())
        assert doc["summary"]["min_blocked"] >= 1
        assert doc["summary"]["evaluated"] >= 5000
        assert doc["summary"]["recheck"]["all_match"]

    def test_demo_with_reduced_grid_exits_0(self, tmp_path):
        out = tmp_path / "demo.json"
        proc = run_cli(
            "verify-star", "--demo", "--grid-shells", "1", "--grid-dirs", "3",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        doc = json.loads(out.read_text())
        assert doc["summary"]["min_blocked"] >= 1
        assert doc["manifest"]["overrides"] == {"grid_shells": 1, "grid_dirs": 3}
        assert doc["manifest"]["config_path"] == "--demo"

    def test_missing_config_exits_1(self, tmp_path):
        proc = run_cli("verify-star", "--config", str(tmp_path / "missing.json"),
                       "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_malformed_config_exits_1_with_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(CONTROL.read_text())
        del doc["alpha"]
        bad.write_text(json.dumps(doc))
        proc = run_cli("verify-star", "--config", str(bad),
                       "--out", str(tmp_path / "x.json"))
        assert proc.returncode == 1
        assert "alpha" in proc.stderr

    @pytest.mark.parametrize("key, value, message", [
        ("n", 4.7, "n: expected an integer, got 4.7"),
        ("a1_index", 2.5, "a1_index: expected an integer, got 2.5"),
        ("beta_closed", 1, "beta_closed: expected true or false, got 1"),
        ("grid", {"shells": 2.9, "frequency": 2}, "grid.shells: expected an integer, got 2.9"),
        ("grid", {"shells": 1, "frequency": True}, "grid.frequency: expected an integer, got True"),
    ])
    def test_mistyped_config_field_exits_1_naming_it(self, tmp_path, key, value, message):
        bad = tmp_path / "bad.json"
        doc = json.loads(CONTROL.read_text())
        doc[key] = value
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        proc = run_cli("verify-star", "--config", str(bad), "--out", str(out))
        assert proc.returncode == 1
        assert message in proc.stderr
        assert not out.exists()

    def test_splice_mismatch_exits_1_naming_eta_prime(self, tmp_path):
        bad = tmp_path / "bad.json"
        doc = json.loads(CONTROL.read_text())
        doc["eta_prime"][0] = doc["eta_prime"][1]
        bad.write_text(json.dumps(doc))
        out = tmp_path / "x.json"
        proc = run_cli("verify-star", "--config", str(bad), "--out", str(out))
        assert proc.returncode == 1
        assert "error: eta_prime: replacement arc endpoints differ" in proc.stderr
        assert not out.exists()

    def test_rerunning_reproduces_byte_identical_report(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r1.json"  # same path in the manifest both times
        run_cli("verify-star", "--config", str(CONTROL), "--out", str(out1))
        first = out1.read_bytes()
        run_cli("verify-star", "--config", str(CONTROL), "--out", str(out2))
        assert out2.read_bytes() == first

    def test_full_dump_includes_all_placements(self, tmp_path):
        out = tmp_path / "full.json"
        proc = run_cli("verify-star", "--config", str(CONTROL), "--out", str(out),
                       "--full-dump")
        assert proc.returncode == 2
        doc = json.loads(out.read_text())
        assert len(doc["placements"]) == doc["summary"]["total_placements"]

    def test_threads_flag_accepted(self, tmp_path):
        out = tmp_path / "t.json"
        proc = run_cli("verify-star", "--config", str(CONTROL), "--out", str(out),
                       "--threads", "2")
        assert proc.returncode == 2
        base = tmp_path / "b.json"
        run_cli("verify-star", "--config", str(CONTROL), "--out", str(base))
        assert json.loads(out.read_text())["summary"] == json.loads(base.read_text())["summary"]

    def test_threads_below_one_exits_1_naming_the_field(self, tmp_path):
        out = tmp_path / "t.json"
        proc = run_cli("verify-star", "--config", str(CONTROL), "--out", str(out),
                       "--threads", "0")
        assert proc.returncode == 1
        assert "threads" in proc.stderr
        assert not out.exists()


class TestExport:
    def test_obj_groups_match_scene(self, tmp_path, control_scene):
        out = tmp_path / "scene.obj"
        proc = run_cli("export", "--config", str(CONTROL), "--out", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        groups = [ln.split()[1] for ln in text.splitlines() if ln.startswith("g ")]
        assert groups == ["delta", "delta_patch", "gamma_prime", "d_f"]
        face_counts = {}
        current = None
        for ln in text.splitlines():
            if ln.startswith("g "):
                current = ln.split()[1]
                face_counts[current] = 0
            elif ln.startswith("f "):
                face_counts[current] += 1
        assert face_counts["gamma_prime"] == control_scene.gamma_prime.n_triangles
        assert face_counts["delta"] == control_scene.delta_disk.n_triangles
        assert face_counts["d_f"] == control_scene.d_f.n_triangles
        assert face_counts["delta_patch"] == len(control_scene.delta_patch.triangles)

    def test_unwritable_path_exits_1(self, tmp_path):
        proc = run_cli("export", "--config", str(CONTROL),
                       "--out", str(tmp_path / "no" / "dir" / "scene.obj"))
        assert proc.returncode == 1


HOPF_EMBEDDING = {
    "vertices": [
        {"id": 0, "pos": [[2, 1], [0, 1], [0, 1]]},
        {"id": 1, "pos": [[-1, 1], [2, 1], [0, 1]]},
        {"id": 2, "pos": [[-1, 1], [-2, 1], [0, 1]]},
        {"id": 3, "pos": [[1, 1], [0, 1], [2, 1]]},
        {"id": 4, "pos": [[1, 1], [0, 1], [-2, 1]]},
        {"id": 5, "pos": [[4, 1], [0, 1], [0, 1]]},
    ],
    "edges": [[0, 1], [1, 2], [2, 0], [3, 4], [4, 5], [5, 3]],
}


class TestLk:
    def test_hopf_fixture(self, tmp_path):
        emb = tmp_path / "hopf.json"
        emb.write_text(json.dumps(HOPF_EMBEDDING))
        out = tmp_path / "lk.json"
        proc = run_cli("lk", str(emb), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert len(doc["pairs"]) == 1
        assert abs(doc["pairs"][0]["linking_number"]) == 1
        assert doc["manifest"]["command"] == "lk"

    def test_k4_fixture_empty(self, tmp_path):
        emb = tmp_path / "k4.json"
        emb.write_text(json.dumps({
            "vertices": [
                {"id": 0, "pos": [[0, 1], [0, 1], [0, 1]]},
                {"id": 1, "pos": [[3, 1], [0, 1], [0, 1]]},
                {"id": 2, "pos": [[0, 1], [3, 1], [0, 1]]},
                {"id": 3, "pos": [[0, 1], [0, 1], [3, 1]]},
            ],
            "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        }))
        out = tmp_path / "lk.json"
        proc = run_cli("lk", str(emb), "--max-cycle-len", "4", "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["pairs"] == []

    def test_reports_reproduce(self, tmp_path):
        emb = tmp_path / "hopf.json"
        emb.write_text(json.dumps(HOPF_EMBEDDING))
        out = tmp_path / "lk.json"
        run_cli("lk", str(emb), "--out", str(out))
        first = out.read_bytes()
        run_cli("lk", str(emb), "--out", str(out))
        assert out.read_bytes() == first

    def test_manifest_is_the_shared_manifest(self, tmp_path):
        emb = tmp_path / "hopf.json"
        emb.write_text(json.dumps(HOPF_EMBEDDING))
        out = tmp_path / "lk.json"
        proc = run_cli("lk", str(emb), "--max-cycle-len", "4", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        want = _manifest("lk", str(emb), {"max_cycle_len": 4}, str(out), HOPF_EMBEDDING)
        assert json.loads(out.read_text())["manifest"] == want


@pytest.mark.parametrize("command, key, value, message", [
    ("verify-star", "alpha", 5, "alpha: expected a list of points"),
    ("verify-star", "beta", [5], "beta[0]: expected three rational pairs"),
    ("lk", "vertices", 5, "vertices: expected a list"),
    ("lk", "edges", 5, "edges: expected a list"),
    ("lk", "edges", [[0, [1]]], "edges[0]: edge endpoints must be strings or integers"),
    ("lk", "vertices", [{**rec, "id": "a"} if k == 2 else rec
                        for k, rec in enumerate(HOPF_EMBEDDING["vertices"])],
     "vertices[2].id: vertex ids must be all strings or all integers"),
])
def test_mistyped_list_field_exits_1_naming_it(tmp_path, command, key, value, message):
    doc = json.loads(CONTROL.read_text()) if command == "verify-star" else dict(HOPF_EMBEDDING)
    doc[key] = value
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    args = ["--config", str(path)] if command == "verify-star" else [str(path)]
    out = tmp_path / "out.json"
    proc = run_cli(command, *args, "--out", str(out))
    assert proc.returncode == 1
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, what", [("verify-star", "config"), ("lk", "embedding")])
def test_unreadable_or_malformed_input_exits_1(tmp_path, command, what):
    path = tmp_path / "input.json"
    args = [command, "--config", str(path)] if command == "verify-star" else [command, str(path)]
    proc = run_cli(*args, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 1
    assert f"cannot read {what}:" in proc.stderr
    path.write_text("{not json")
    proc = run_cli(*args, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 1
    assert f"{what} is not valid JSON:" in proc.stderr
    # A denominator over the interpreter's 4,300-digit limit for int/str
    # conversion, which the JSON parser reports as a plain ValueError.
    doc = json.loads(CONTROL.read_text()) if command == "verify-star" else HOPF_EMBEDDING
    text = json.dumps(doc)
    assert "[0, 1]" in text
    path.write_text(text.replace("[0, 1]", "[0, 1" + "0" * 4999 + "]", 1))
    proc = run_cli(*args, "--out", str(tmp_path / "out.json"))
    assert proc.returncode == 1
    assert f"{what} is not valid JSON:" in proc.stderr
    assert "Traceback" not in proc.stderr


class TestEquatorCommand:
    def test_control_reports_counters(self, tmp_path):
        out = tmp_path / "eq.json"
        proc = run_cli("equator", "--config", str(CONTROL), "--samples", "2",
                       "--out", str(out))
        assert proc.returncode == 2
        doc = json.loads(out.read_text())
        assert doc["summary"]["counter_pair_count"] >= 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exits_1_naming_the_field(self, tmp_path, samples):
        # Serial (the default --threads 1), so no worker process can start.
        out = tmp_path / "eq.json"
        proc = run_cli("equator", "--config", str(CONTROL), "--samples", samples,
                       "--out", str(out))
        assert proc.returncode == 1
        assert "samples: samples must be >= 1" in proc.stderr
        assert not out.exists()


@pytest.mark.parametrize("command, option, limit, message", [
    ("verify-star", "--grid-dirs", MAX_GRID_FREQUENCY, "grid.frequency: frequency must be <="),
    ("verify-star", "--grid-shells", MAX_GRID_SHELLS, "grid.shells: shells must be <="),
    ("verify-star", "--n", MAX_N, "n: n must be <="),
    ("equator", "--samples", MAX_SAMPLES, "samples: samples must be <="),
    ("lk", "--max-cycle-len", MAX_CYCLE_LEN, "max_cycle_len: max_cycle_len must be <="),
])
def test_oversized_input_exits_1_naming_the_field(tmp_path, command, option, limit, message):
    # Serial (the default --threads 1), so no worker process can start.
    out = tmp_path / "out.json"
    proc = run_cli(command, *input_args(tmp_path, command), option, str(limit + 1),
                   "--out", str(out))
    assert proc.returncode == 1
    assert f"{message} {limit}" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command, option, value, message", [
    ("lk", "--max-cycle-len", "2", "max_cycle_len: max_cycle_len must be at least 3"),
    ("lk", "--max-cycle-len", "0", "max_cycle_len: max_cycle_len must be at least 3"),
    ("lk", "--max-cycle-len", "-5", "max_cycle_len: max_cycle_len must be at least 3"),
    ("verify-star", "--epsilon", "abc", "epsilon: bad rational 'abc'"),
    ("verify-star", "--epsilon", "1/0", "epsilon: bad rational '1/0'"),
])
def test_undersized_or_malformed_option_exits_1_naming_the_field(tmp_path, command, option,
                                                                 value, message):
    out = tmp_path / "out.json"
    proc = run_cli(command, *input_args(tmp_path, command), option, value, "--out", str(out))
    assert proc.returncode == 1
    assert f"error: {message}" in proc.stderr
    assert not out.exists()


def input_args(tmp_path, command):
    """The input arguments of ``command``: the control config for a scan,
    the Hopf fixture, written to ``tmp_path``, for ``lk``."""
    if command != "lk":
        return ["--config", str(CONTROL)]
    source = tmp_path / "hopf.json"
    source.write_text(json.dumps(HOPF_EMBEDDING))
    return [str(source)]


def test_oversized_curve_exits_1_naming_the_field(tmp_path):
    doc = json.loads(CONTROL.read_text())
    doc["alpha"] = doc["alpha"][:1] * (MAX_CURVE_POINTS + 1)
    config = tmp_path / "long_alpha.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    proc = run_cli("verify-star", "--config", str(config), "--out", str(out))
    assert proc.returncode == 1
    assert f"alpha: alpha must have at most {MAX_CURVE_POINTS} points" in proc.stderr
    assert not out.exists()
    help_text = " ".join(run_cli("verify-star", "--help").stdout.split())
    assert f"hold 2 to {MAX_CURVE_POINTS} points each" in help_text


@pytest.mark.parametrize("args, code", [
    (["verify-star", "--demo", "--threads", "abc"], 1),
    (["verify-star", "--demo", "--no-such-flag"], 1),
    ([], 1),
    (["--help"], 0),
    (["verify-star", "--help"], 0),
    (["--version"], 0),
], ids=["bad-int", "unknown-flag", "no-subcommand", "help", "subcommand-help", "version"])
def test_usage_errors_exit_1_and_help_exits_0(args, code):
    """Exit 2 is a verdict (a zero-blocked witness or counter-pairs), so a
    usage error must not exit 2 as argparse's default does."""
    proc = run_cli(*args)
    assert proc.returncode == code, proc.stderr
    assert ("error:" in proc.stderr) == (code == 1)
