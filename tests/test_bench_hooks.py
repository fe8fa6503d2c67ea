"""Every name the benchmark's tracer patches, and everything the benchmark
reads from a scan, still exists.

``bench/tracer.py`` wraps program functions by name, where the caller looks
them up (``_SPANNED``: owner and attribute; ``_COUNTED``: the ``exactgeom``
function and the modules that import it), and its ``_note_result`` counts
attributes of the scans' reports.  ``bench/scans.py`` checks each written
report's verdict by its summary keys.  A refactor that drops or moves one of
those names leaves the program's own tests green but breaks every benchmark
run and the benchmark's self-test, so the names are checked here.  The
tracer module is imported as it is, from its file.
"""

import importlib.util
from pathlib import Path

import pytest

from plgraph import disks, exactgeom

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("owner, attr", [(o, a) for o, a, _ in tracer._SPANNED],
                         ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a, _ in tracer._SPANNED])
def test_each_spanned_owner_holds_its_attribute(owner, attr):
    assert attr in owner.__dict__


@pytest.mark.parametrize("attr", [a for _, a, _ in tracer._COUNTED])
def test_each_counted_name_is_a_kernel_function(attr):
    assert callable(getattr(exactgeom, attr, None))


def test_install_patches_and_uninstall_restores_every_name():
    hooks = [(disks.FanDisk, "classify_segment")] + [(o, a) for o, a, _ in tracer._SPANNED]
    hooks += [(o, a) for owners, a, _ in tracer._COUNTED for o in owners]
    before = [vars(o).get(a) for o, a in hooks]
    with tracer.Tracer():
        assert vars(disks.FanDisk)["classify_segment"] is not before[0]
    assert [vars(o).get(a) for o, a in hooks] == before


# The report attributes the tracer's ``_note_result`` reads, and the summary
# keys (dotted for a nested one) of the verdict checks in ``bench/scans.py``.
STAR_ATTRIBUTES = ("placements", "evaluated_count", "skipped_count", "recheck_count")
EQUATOR_ATTRIBUTES = ("premise_indices",)
STAR_KEYS = ("min_blocked", "witness_count", "recheck.witnesses_rechecked", "recheck.all_match")
EQUATOR_KEYS = ("counter_pair_count", "vacuous", "recheck_all_match")


def summary_entry(doc, dotted):
    value = doc["summary"]
    for key in dotted.split("."):
        value = value[key]
    return value


def test_scan_reports_hold_what_the_benchmark_reads(control_star, control_equator):
    star, equator = control_star.value, control_equator.value
    counts = [getattr(star, a) for a in STAR_ATTRIBUTES[1:]]
    assert all(isinstance(c, int) for c in counts)
    assert len(star.placements) == counts[0] + counts[1] > 0
    assert len(equator.premise_indices) > 0
    star_doc = star.to_jsonable(manifest={}, full=False)
    equator_doc = equator.to_jsonable(manifest={})
    min_blocked, witnesses, rechecked, match = [summary_entry(star_doc, k) for k in STAR_KEYS]
    assert min_blocked == 0 and witnesses == rechecked > 0 and match is True
    pairs, vacuous, match = [summary_entry(equator_doc, k) for k in EQUATOR_KEYS]
    assert pairs >= 1 and vacuous is False and match is True
