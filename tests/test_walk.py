"""The scans build full contacts only for the segments a report writes.

Every scan segment is decided by the early-exit walk
(``FanDisk.segment_kind``), and a placement keeps only those answers:
``verify_star`` makes no ``FanDisk.classify_segment`` call, which builds
every contact and crossing point.  ``StarReport.to_jsonable`` makes one per
non-disjoint segment of each entry it writes (the minimal witnesses', or
with ``full=True`` every placement's), and still writes the golden bytes.
``check_equator_claim`` makes one per pair it reports as boundary-only.
The control scene's equator check reports no boundary-only pair, so grazing
samples are planted for that count.  Calls are counted through a file, so
that the workers' calls count too.
"""

import hashlib

import pytest

from plgraph.disks import FanDisk
from plgraph.exactgeom import Segment
from plgraph.jsonio import canonical_dumps
from plgraph.verify import (
    _equator_row,
    _rim_feature,
    check_equator_claim,
    upper_sample_points,
    verify_star,
)
from test_golden import GOLDEN


@pytest.fixture
def count_full(tmp_path, monkeypatch):
    """A function returning how many ``classify_segment`` calls were made,
    in this process or in forked workers, since it was last called."""
    log = tmp_path / "classify_segment.calls"
    log.write_text("")
    original = FanDisk.classify_segment

    def counting(fan, s):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(".")
        return original(fan, s)

    monkeypatch.setattr(FanDisk, "classify_segment", counting)

    def calls():
        count = len(log.read_text())
        log.write_text("")
        return count
    return calls


def non_disjoint(placements):
    return sum(st.kind != "disjoint" for p in placements for st in p.segments)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("which", ["control", "reduced-default"])
def test_full_contacts_only_for_reported_segments(request, count_full, which, threads):
    scene = request.getfixturevalue("control_scene" if which == "control"
                                    else "reduced_default_scene")
    star = verify_star(scene, threads=threads)
    assert count_full() == 0
    witnesses = canonical_dumps(star.to_jsonable())
    reported = non_disjoint(star.witnesses())
    assert count_full() == reported
    full = canonical_dumps(star.to_jsonable(full=True))
    assert count_full() == non_disjoint(star.placements) > reported
    if which == "control":
        for doc, key in ((witnesses, "witnesses"), (full, "star")):
            assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == GOLDEN["control"][key]
    else:
        assert star.min_blocked == 1 and reported == len(star.witness_indices)
    samples = 5 if which == "control" else 10
    equator = check_equator_claim(scene, sample_count=samples, threads=threads)
    assert count_full() == len(equator.degenerate_pairs)
    if which == "control":
        digest = hashlib.sha256(canonical_dumps(equator.to_jsonable()).encode("utf-8"))
        assert digest.hexdigest() == GOLDEN["control"]["equator"]


def test_a_boundary_only_pair_gets_its_contacts(control_scene, control_equator, count_full):
    """Samples p = r + (r - x) send p -> x through a rim vertex r of the
    full cone; those the walk calls boundary-only are reported with the
    features of their full contacts, built for them alone."""
    scene, delta = control_scene, control_scene.delta_disk
    k = control_equator.value.premise_indices[0]
    x = scene.config.grid.placements(scene.v, scene.config.epsilon)[k]
    grazing = [r + (r - x) for r in delta.rim]
    grazing = [p for p in grazing if delta.segment_kind(Segment(p, x)).kind == "boundary-only"]
    assert len(grazing) >= 2
    samples = grazing[:3] + upper_sample_points(scene, 5)
    _k, blocked, counter, degenerate = _equator_row(
        scene, _rim_feature(delta, scene.c), samples, k, x)
    assert count_full() == len(degenerate) == len(grazing[:3])
    for rec, p in zip(degenerate, grazing):
        features = [list(c.feature) for c in delta.classify_segment(Segment(p, x)).contacts]
        assert rec["classification"] == "boundary-only" and rec["features"] == features
    assert blocked + len(counter) == 5
