"""Exact-arithmetic toolkit for piecewise-linear spatial graph embeddings.

Rational-coordinate geometry with tolerance-free predicates, triangle-fan
disks with panel checking, linking numbers by two independent algorithms,
and a data-driven spherical-spiral scene whose blocking property is verified
placement by placement over a deterministic grid.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryMismatchError,
    ConfigError,
    CurvesIntersectError,
    DegenerateGeometryError,
    EmbeddingInvalidError,
    FanConstructionError,
    GraphStructureError,
    NonGenericApexError,
    NonGenericDirectionError,
    PatchConstructionError,
    PLGraphError,
    SceneInvariantViolation,
    SpliceMismatchError,
)
from .exactgeom import (
    ExactPoint,
    Segment,
    Triangle,
    collinear,
    frac,
    orient3d,
    segment_segment_classify,
    segment_triangle_classify,
    triangle_triangle_intersection,
)
from .disks import (
    FanDisk,
    TriPatch,
    cone,
    disk_disk_classify,
    panel_check,
)
from .graphs import (
    LinearEmbedding,
    SpatialGraph,
    contract_edge,
    enumerate_cycles,
    expand_to_psi,
    validate_embedding,
)
from .linking import (
    ClosedPolygon,
    LinkReport,
    find_generic_apex,
    find_generic_direction,
    linking_number_cone,
    linking_number_projection,
    pairwise_link_scan,
)
from .scene import (
    GridSpec,
    Scene,
    SceneConfig,
    build_scene,
    control_short_arc_config,
    default_paper_config,
    icosphere_directions,
    segment_meets_delta_prime_interior,
    sphere_point,
)
from .verify import (
    EquatorReport,
    StarReport,
    check_equator_claim,
    star_exit_code,
    verify_star,
)

__all__ = [
    "__version__",
    # errors
    "PLGraphError", "DegenerateGeometryError", "FanConstructionError",
    "PatchConstructionError", "BoundaryMismatchError", "GraphStructureError",
    "EmbeddingInvalidError", "NonGenericDirectionError", "NonGenericApexError",
    "CurvesIntersectError", "SpliceMismatchError", "SceneInvariantViolation",
    "ConfigError",
    # exact geometry
    "ExactPoint", "Segment", "Triangle", "frac", "collinear", "orient3d",
    "segment_segment_classify", "segment_triangle_classify",
    "triangle_triangle_intersection",
    # disks
    "FanDisk", "TriPatch", "cone", "disk_disk_classify", "panel_check",
    # graphs
    "SpatialGraph", "LinearEmbedding", "validate_embedding", "contract_edge",
    "expand_to_psi", "enumerate_cycles",
    # linking
    "ClosedPolygon", "LinkReport", "linking_number_projection",
    "linking_number_cone", "pairwise_link_scan", "find_generic_direction",
    "find_generic_apex",
    # scene
    "SceneConfig", "Scene", "GridSpec", "build_scene", "default_paper_config",
    "control_short_arc_config", "sphere_point", "icosphere_directions",
    "segment_meets_delta_prime_interior",
    # verification
    "StarReport", "EquatorReport", "verify_star", "check_equator_claim",
    "star_exit_code",
]
