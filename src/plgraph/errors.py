"""Exception types raised across the package."""


class PLGraphError(Exception):
    """Base class for all package-specific errors."""


class DegenerateGeometryError(PLGraphError):
    """A primitive violates its construction invariant (zero-length segment,
    collinear triangle, rim chord through a fan apex, ...)."""


class FanConstructionError(PLGraphError):
    """A triangle fan could not be built as an embedded disk.

    ``reason`` is ``"degenerate-triangle"`` or ``"self-intersecting"``;
    ``witness`` carries the offending indices and, when available, a common
    point of the two clashing triangles.
    """

    def __init__(self, reason, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}: {witness!r}" if witness is not None else reason)


class PatchConstructionError(PLGraphError):
    """A triangulated patch between two polylines is not embedded."""


class BoundaryMismatchError(PLGraphError):
    """A disk's boundary does not equal the cycle polygon handed to panel_check."""


class GraphStructureError(PLGraphError):
    """A graph operation's combinatorial precondition failed."""


class EmbeddingInvalidError(PLGraphError):
    """A constructed straight-line embedding failed validation.

    ``witness`` is the validation witness (conflicting feature pair).
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NonGenericDirectionError(PLGraphError):
    """The projection direction is degenerate for the given curve pair."""


class NonGenericApexError(PLGraphError):
    """The cone apex is degenerate for the given curve pair."""


class CurvesIntersectError(PLGraphError):
    """Two curves handed to a linking-number routine are not disjoint."""


class SceneInvariantViolation(PLGraphError):
    """A built scene violates one of its certified invariants.

    ``witness`` carries the exact offending feature/point when available.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ConfigError(PLGraphError):
    """A configuration document is malformed.  ``field`` names the bad entry."""

    def __init__(self, message, field=None):
        self.field = field
        super().__init__(f"{field}: {message}" if field else message)


class SpliceMismatchError(ConfigError):
    """A replacement arc does not share its endpoints with the arc it
    replaces; ``field`` is ``eta_prime``."""

    def __init__(self, message):
        super().__init__(message, "eta_prime")
