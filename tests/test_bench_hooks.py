"""Every name the benchmark's tracer patches still exists.

``bench/tracer.py`` wraps program functions by name, where the caller looks
them up (``_SPANNED``: owner and attribute; ``_COUNTED``: the ``exactgeom``
function and the modules that import it).  A refactor that drops or moves
one of those names leaves the program's own tests green but breaks the
traced benchmark run and the benchmark's self-test, so the names are checked
here.  The tracer module is imported as it is, from its file.
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
