"""Float constructors for test fixtures.

``sphere_point`` rounds sines and cosines to rationals, so its points can
differ by a last digit from one libm to another.  Only tests use it: the
shipped scenes are stored as rationals (``src/plgraph/data``), and
``test_shipped_configs.py`` checks that it still reproduces them here.
"""

import math
from fractions import Fraction

from plgraph.exactgeom import ExactPoint
from plgraph.scene import RATIONAL_DENOM


def rationalize(x: float) -> Fraction:
    """Nearest rational with denominator RATIONAL_DENOM (half-up on
    magnitude)."""
    n = int(abs(x) * RATIONAL_DENOM + 0.5)
    return Fraction(-n if x < 0 else n, RATIONAL_DENOM)


def sphere_point(colat_deg: float, lon_deg: float) -> ExactPoint:
    """A rational point within 1/RATIONAL_DENOM of the unit sphere about the
    origin at the given angles."""
    th = math.radians(colat_deg)
    ph = math.radians(lon_deg)
    x = math.sin(th) * math.cos(ph)
    y = math.sin(th) * math.sin(ph)
    z = math.cos(th)
    return ExactPoint(*(rationalize(c) for c in (x, y, z)))
