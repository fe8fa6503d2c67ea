"""Command-line behavior: exit codes, reports, manifests, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plgraph.cli import _manifest
from plgraph.jsonio import canonical_dumps
from plgraph.scene import control_short_arc_config

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


class TestEquatorCommand:
    def test_control_reports_counters(self, tmp_path):
        out = tmp_path / "eq.json"
        proc = run_cli("equator", "--config", str(CONTROL), "--samples", "2",
                       "--out", str(out))
        assert proc.returncode == 2
        doc = json.loads(out.read_text())
        assert doc["summary"]["counter_pair_count"] >= 1
