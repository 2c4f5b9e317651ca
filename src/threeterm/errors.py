"""Exception types shared across the library, each with the exit code that the
CLI returns for it.  OffQuadricError and NotSameOrbitError carry their margins
as fields, kept in args, and build their message from them when it is read."""


def _field_properties(cls, getter):
    """_Named's and _MarginError's field rule: a property getter(k) per k-th name of cls._fields."""
    for k, name in enumerate(cls.__dict__.get("_fields", ())):
        setattr(cls, name, property(getter(k)))


class GeometryError(ValueError):
    """Base class for all geometric/numerical errors raised by this package."""

    exit_code = 3


class DomainError(GeometryError):
    """Input outside the mathematical domain of an operation."""


class DegenerateError(GeometryError):
    """Degenerate input: coincident points, common rays, vanishing denominators."""


class ConfigurationError(GeometryError):
    """Four-circle configuration violates ordering or disjointness requirements."""


class _MarginError(GeometryError):
    """An error whose args are its fields, all of them, in the order of _fields
    (message first); each field is a read-only property over args.

    So BaseException.__new__(cls, *fields) builds a complete error without
    running any Python code, which is how the library raises one.  The public
    constructor fills the same args, and copy and pickle rebuild through it.
    """

    exit_code = 4

    def __init_subclass__(cls):
        _field_properties(cls, lambda k: lambda self: self.args[k])


class OffQuadricError(_MarginError):
    """A six-tuple required to satisfy the 3-term relation does not; it carries
    the residual, the relative residual, the tolerance that it exceeded and
    what names the tuple."""

    _fields = ("message", "residual", "relative_residual", "tol", "what")

    def __init__(self, message=None, residual=None, relative_residual=None, tol=None, what="tuple"):
        self.args = (message, residual, relative_residual, tol, what)

    def __str__(self):
        if self.message is not None:
            return str(self.message)
        return f"{self.what} is off the quadric: relative residual {self.relative_residual}"


class NotSameOrbitError(_MarginError):
    """Two six-tuples do not lie in the same rescaling orbit; it carries both
    cross-ratio invariants and, if they agree, the pair (i, j) the solved rescaling
    misses, its deviation |q_i*q_j*a_ij - b_ij|/|b_ij| and the tolerance exceeded."""

    _fields = ("message", "invariant_a", "invariant_b", "pair", "deviation", "tol")

    def __init__(self, message=None, invariant_a=None, invariant_b=None, pair=None,
                 deviation=None, tol=None):
        self.args = (message, invariant_a, invariant_b, pair, deviation, tol)

    def __str__(self):
        if self.message is not None:
            return str(self.message)
        if self.pair is None:
            return f"cross-ratio invariants differ: {self.invariant_a} vs {self.invariant_b}"
        return f"no rescaling reproduces entry {self.pair[0]}{self.pair[1]} within tolerance {self.tol}"
