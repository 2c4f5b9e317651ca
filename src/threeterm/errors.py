"""Exception types shared across the library."""


class GeometryError(ValueError):
    """Base class for all geometric/numerical errors raised by this package."""


class DomainError(GeometryError):
    """Input outside the mathematical domain of an operation."""


class DegenerateError(GeometryError):
    """Degenerate input: coincident points, common rays, vanishing denominators."""


class ConfigurationError(GeometryError):
    """Four-circle configuration violates ordering or disjointness requirements."""


class OffQuadricError(GeometryError):
    """A six-tuple required to satisfy the 3-term relation does not; it carries
    the residual, the relative residual and the tolerance that it exceeded."""

    def __init__(self, message, residual=None, relative_residual=None, tol=None):
        super().__init__(message)
        self.residual, self.relative_residual, self.tol = residual, relative_residual, tol


class NotSameOrbitError(GeometryError):
    """Two six-tuples do not lie in the same rescaling orbit.

    Carries both cross-ratio invariants so callers can report the mismatch.
    """

    def __init__(self, message, invariant_a=None, invariant_b=None):
        super().__init__(message)
        self.invariant_a = invariant_a
        self.invariant_b = invariant_b
