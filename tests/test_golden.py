"""Golden SHA-256 hashes of the four shipped scan reports and of one link
report.

The reports are the session fixtures' (no extra scan time): the star reports
serialized with every placement, the equator reports as written.  A hash here
changes only if a report changes by a byte.  Each scene's config hash is
stored too: the default config and the direction nets go through ``math``
floats before they are rounded to rationals, so a different libm can build a
different scene; the test then skips instead of comparing unrelated reports.
"""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from plgraph.exactgeom import ExactPoint
from plgraph.graphs import LinearEmbedding, SpatialGraph, validate_embedding
from plgraph.jsonio import canonical_dumps, content_hash
from plgraph.linking import pairwise_link_scan

GOLDEN = {
    "default": {
        "config": "b47d8832ade755cd81d5a8df4e23e380afa1bfb9720b5e40b225202f1724faec",
        "star": "27b1946792fc0fee07269f82aa3cbde64bba92e59c7296828dcce22b06132200",
        "equator": "e40ba4ce38fd22d38b216054ce862c6f88c03281c3acac4c50acfed3fb0c8fb1",
    },
    "control": {
        "config": "f9f17e0c50ddcf513be73759d572eeb3e6df21e3141b3d6c605e67eb0a83eb1c",
        "star": "56fb36a71b3438ff99aca0b85c4ed698837a27f03bb936c3df13d1e2c1536a30",
        "equator": "8334b8554c334a8e5e41d62e2580ac79a540a92a880ef4ae28d1294b007e413d",
    },
}


@pytest.mark.parametrize("scan", ["star", "equator"])
@pytest.mark.parametrize("scene", ["control", "default"])
def test_report_matches_golden_hash(request, scene, scan):
    cfg = request.getfixturevalue(f"{scene}_config")
    if content_hash(cfg.to_jsonable()) != GOLDEN[scene]["config"]:
        pytest.skip(f"the float constructors built a different {scene} scene on this machine")
    report = request.getfixturevalue(f"{scene}_{scan}").value
    doc = report.to_jsonable(full=True) if scan == "star" else report.to_jsonable()
    digest = hashlib.sha256(canonical_dumps(doc).encode("utf-8")).hexdigest()
    assert digest == GOLDEN[scene][scan]


LK_GOLDEN = "116d0639c806423fd298440d8c5400996a8075eb89282f2352696a3ccd90764f"


def _k7_with_hopf_pair(seed):
    """K7 at seeded rational positions (redrawn until the straight-line
    embedding is valid) plus two linked triangles beyond the plane x = 500."""
    rng = random.Random(seed)
    k7 = [f"k{i}" for i in range(7)]
    hopf = {
        "h0": (1002, 0, 0), "h1": (999, 2, 0), "h2": (999, -2, 0),
        "h3": (1001, 0, 2), "h4": (1001, 0, -2), "h5": (1004, 0, 0),
    }
    edges = list(combinations(k7, 2))
    edges += [("h0", "h1"), ("h1", "h2"), ("h2", "h0"),
              ("h3", "h4"), ("h4", "h5"), ("h5", "h3")]
    while True:
        pos = {v: ExactPoint(*(Fraction(rng.randint(-60, 60), rng.randint(1, 7))
                               for _ in range(3))) for v in k7}
        pos.update({v: ExactPoint(*c) for v, c in hopf.items()})
        emb = LinearEmbedding(SpatialGraph(list(pos), edges), pos)
        if validate_embedding(emb).valid:
            return emb


def test_link_report_matches_golden_hash():
    report = pairwise_link_scan(_k7_with_hopf_pair(5), max_cycle_len=3)
    planted = [p.linking_number for p in report.pairs if p.cycle_a[0][0] == p.cycle_b[0][0] == "h"]
    assert [abs(lk) for lk in planted] == [1]
    digest = hashlib.sha256(canonical_dumps(report.to_jsonable()).encode("utf-8")).hexdigest()
    assert digest == LK_GOLDEN
