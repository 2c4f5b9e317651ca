"""Four incarnations of the 3-term relation AB+CD=EF and the rescalings between them.

Chord lengths of concyclic points, exterior bitangents of tangent circles,
lambda lengths of horocycles, and Plucker minors of 2x4 matrices all satisfy
the same quadric relation; this package computes all four from a common
configuration, converts exactly between three models of the hyperbolic
plane, and solves for the torus rescaling carrying one six-tuple to another.
"""

from .errors import (
    ConfigurationError,
    DegenerateError,
    DomainError,
    GeometryError,
    NotSameOrbitError,
    OffQuadricError,
)
from .grassmann import Matrix2x4, column_permute, column_rescale, minors, reconstruct
from .horocycles import (
    EuclideanCircle,
    horocycle_from_tangency,
    horocycle_to_circle,
    lambda_length,
)
from .measurements import (
    ConcyclicConfig,
    MeasurementTable,
    bitangent_direct,
    lambda_minkowski,
    measure_all,
)
from .models import (
    BoundaryPoint,
    DiskPoint,
    HyperboloidPoint,
    LightConePoint,
    MinkowskiVec,
    UhpPoint,
    cayley_disk_to_uhp,
    cayley_uhp_to_disk,
    disk_to_hyperboloid,
    geodesic_ideal_endpoints,
    hyp_distance_crossratio,
    hyp_distance_hyperboloid,
    hyperboloid_to_disk,
    lightcone_to_boundary,
    mink_pair,
)
from .relations import (
    PAIRS,
    SixTuple,
    TorusElement,
    cross_ratio_invariant,
    cross_ratio_points,
    is_on_quadric,
    relative_residual,
    rescaling_solve,
    residual,
    torus_apply,
)
from .svg import render_svg

__all__ = [
    "BoundaryPoint",
    "ConcyclicConfig",
    "ConfigurationError",
    "DegenerateError",
    "DiskPoint",
    "DomainError",
    "EuclideanCircle",
    "GeometryError",
    "HyperboloidPoint",
    "LightConePoint",
    "Matrix2x4",
    "MeasurementTable",
    "MinkowskiVec",
    "NotSameOrbitError",
    "OffQuadricError",
    "PAIRS",
    "SixTuple",
    "TorusElement",
    "UhpPoint",
    "bitangent_direct",
    "cayley_disk_to_uhp",
    "cayley_uhp_to_disk",
    "column_permute",
    "column_rescale",
    "cross_ratio_invariant",
    "cross_ratio_points",
    "disk_to_hyperboloid",
    "geodesic_ideal_endpoints",
    "horocycle_from_tangency",
    "horocycle_to_circle",
    "hyp_distance_crossratio",
    "hyp_distance_hyperboloid",
    "hyperboloid_to_disk",
    "is_on_quadric",
    "lambda_length",
    "lambda_minkowski",
    "lightcone_to_boundary",
    "measure_all",
    "mink_pair",
    "minors",
    "reconstruct",
    "relative_residual",
    "render_svg",
    "rescaling_solve",
    "residual",
    "torus_apply",
]
