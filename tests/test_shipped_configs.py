"""The shipped scene configs are data; this rebuilds them from their floats.

``data/default_paper.json`` and ``data/control_short_arc.json`` hold the
rational points that :func:`sphere_point` made from the angles below.  Only
``sphere_point`` depends on the machine (its ``sin`` and ``cos`` come from
libm), so the scenes, and every report built on them, are the same on every
machine; this test checks that ``sphere_point`` still reproduces both files
here.
"""

from fractions import Fraction
from pathlib import Path
from typing import List

from float_points import sphere_point
from plgraph.exactgeom import ExactPoint
from plgraph.jsonio import canonical_dumps
from plgraph.scene import GridSpec, SceneConfig

DATA = Path(__file__).resolve().parents[1] / "src" / "plgraph" / "data"


def float_default_paper_config() -> SceneConfig:
    """The default scene from its angles (see ``default_paper_config``)."""
    turns = 3
    per_turn = 48
    m = turns * per_turn  # chords per arm
    arm_a: List[ExactPoint] = []
    for j in range(m + 1):
        s = 360.0 * turns * j / m
        colat = 30.0 + 150.0 * j / m
        arm_a.append(sphere_point(colat, s % 360.0))
    # Exact south pole at the junction.
    arm_a[-1] = ExactPoint(0, 0, -1)
    rot180 = lambda p: ExactPoint(-p.x, -p.y, p.z)
    arm_b = [rot180(p) for p in arm_a[:-1]]
    alpha = arm_a + list(reversed(arm_b))

    i0, i1 = 4, 8
    eta_prime = [alpha[i0]]
    for j in range(i0 + 1, i1):
        s = 360.0 * turns * j / m
        colat = 30.0 + 150.0 * j / m + 6.0
        eta_prime.append(sphere_point(colat, s % 360.0))
    eta_prime.append(alpha[i1])

    beta = [sphere_point(12.0, 15.0 * k) for k in range(24)]

    return SceneConfig(
        sphere_radius=Fraction(1),
        center=ExactPoint(0, 0, 0),
        alpha=alpha,
        eta_range=(i0, i1),
        eta_prime=eta_prime,
        beta=beta,
        beta_closed=False,
        a1_index=0,
        c_index=m,
        b1_index=2 * m,
        n=64,
        epsilon=Fraction(1, 100),
        grid=GridSpec(shells=4, frequency=12),
        tol=Fraction(1, 10 ** 6),
    )


def float_control_short_arc_config() -> SceneConfig:
    """The control scene from its angles (see ``control_short_arc_config``)."""
    alpha = [sphere_point(10.0, -30.0 + 5.0 * k) for k in range(13)]
    i0, i1 = 10, 12
    eta_prime = [alpha[i0], sphere_point(8.0, 27.5), alpha[i1]]
    beta = [sphere_point(170.0, 30.0 * k) for k in range(12)]
    return SceneConfig(
        sphere_radius=Fraction(1),
        center=ExactPoint(0, 0, 0),
        alpha=alpha,
        eta_range=(i0, i1),
        eta_prime=eta_prime,
        beta=beta,
        beta_closed=False,
        a1_index=2,
        c_index=6,
        b1_index=10,
        n=4,
        epsilon=Fraction(1, 100),
        grid=GridSpec(shells=2, frequency=6),
        tol=Fraction(1, 10 ** 6),
    )


def test_sphere_point_reproduces_both_shipped_files():
    for built, name in ((float_default_paper_config, "default_paper.json"),
                        (float_control_short_arc_config, "control_short_arc.json")):
        text = (DATA / name).read_text(encoding="utf-8")
        assert text == canonical_dumps(built().to_jsonable()) + "\n", name

