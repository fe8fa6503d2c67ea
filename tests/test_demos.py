"""The four demos print the same bytes: the SHA-256 of each one's stdout.

Each demo runs as the README shows it, on this checkout's sources, in about
a third of a second.  A hash here changes only if a demo's output changes
by a byte; a change that means to alter a demo records its new hash.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_STDOUT_SHA256 = {
    "01_exact_predicates.py": "c39be925f97b66b33cbda208bb661c2e11b50c4fc0036e738d7e0ad6aa4b90fd",
    "02_linking_numbers.py": "191dd768341fbcb926937d3170863b23b3f6f2301e3cbf10600a7cc36d6160a7",
    "03_panel_disks.py": "f5e1520ebfaf1a0aa959db8c08b1e5466d1dff8e74ca77568b3ce5b975ebd74e",
    "04_spiral_scene.py": "5b24f54480fde5ccd6b6956fc9eb10648cb92c552cb0107e13883ad78f2530d6",
}


def test_every_demo_has_a_hash():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_STDOUT_SHA256))
def test_demo_prints_the_recorded_bytes(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
