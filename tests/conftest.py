"""Shared fixtures.  The shipped scenes and their scans are built once per
session; the acceptance criteria and the module tests share them."""

import time

import pytest

from plgraph.scene import GridSpec, build_scene, control_short_arc_config, default_paper_config
from plgraph.verify import check_equator_claim, verify_star


class Timed:
    def __init__(self, value, elapsed):
        self.value = value
        self.elapsed = elapsed


@pytest.fixture(scope="session")
def default_config():
    return default_paper_config()


@pytest.fixture(scope="session")
def default_scene(default_config):
    return build_scene(default_config)


@pytest.fixture(scope="session")
def default_star(default_scene):
    t0 = time.monotonic()
    report = verify_star(default_scene)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="session")
def default_equator(default_scene):
    t0 = time.monotonic()
    report = check_equator_claim(default_scene, sample_count=60)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="session")
def control_config():
    return control_short_arc_config()


@pytest.fixture(scope="session")
def control_scene(control_config):
    return build_scene(control_config)


@pytest.fixture(scope="session")
def control_star(control_scene):
    t0 = time.monotonic()
    report = verify_star(control_scene)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="session")
def control_equator(control_scene):
    t0 = time.monotonic()
    report = check_equator_claim(control_scene, sample_count=5)
    return Timed(report, time.monotonic() - t0)


@pytest.fixture(scope="session")
def reduced_default_scene():
    """The default scene with a reduced grid: 1 shell, icosphere frequency 4."""
    cfg = default_paper_config()
    cfg.grid = GridSpec(shells=1, frequency=4)
    return build_scene(cfg)
