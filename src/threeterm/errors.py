"""Exception types shared across the library.  OffQuadricError and NotSameOrbitError
carry their margins as fields and build their message from them when it is read."""


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
    the residual, the relative residual, the tolerance that it exceeded and
    what names the tuple."""

    def __init__(self, message=None, residual=None, relative_residual=None, tol=None, what="tuple"):
        self.message, self.residual, self.relative_residual = message, residual, relative_residual
        self.tol, self.what = tol, what

    def __str__(self):
        if self.message is not None:
            return str(self.message)
        return f"{self.what} is off the quadric: relative residual {self.relative_residual}"


class NotSameOrbitError(GeometryError):
    """Two six-tuples do not lie in the same rescaling orbit; it carries both
    cross-ratio invariants and, if they agree, the pair (i, j) the solved rescaling
    misses, its deviation |q_i*q_j*a_ij - b_ij|/|b_ij| and the tolerance exceeded."""

    def __init__(self, message=None, invariant_a=None, invariant_b=None, pair=None,
                 deviation=None, tol=None):
        self.message, self.invariant_a, self.invariant_b = message, invariant_a, invariant_b
        self.pair, self.deviation, self.tol = pair, deviation, tol

    def __str__(self):
        if self.message is not None:
            return str(self.message)
        if self.pair is None:
            return f"cross-ratio invariants differ: {self.invariant_a} vs {self.invariant_b}"
        return f"no rescaling reproduces entry {self.pair[0]}{self.pair[1]} within tolerance {self.tol}"
