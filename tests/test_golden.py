"""Golden SHA-256 hashes of the four shipped scan reports.

The reports are the session fixtures' (no extra scan time): the star reports
serialized with every placement, the equator reports as written.  A hash here
changes only if a report changes by a byte.  Each scene's config hash is
stored too: the default config and the direction nets go through ``math``
floats before they are rounded to rationals, so a different libm can build a
different scene; the test then skips instead of comparing unrelated reports.
"""

import hashlib

import pytest

from plgraph.jsonio import canonical_dumps, content_hash

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
