"""Four incarnations of the 3-term relation AB+CD=EF and the rescalings between them.

Chord lengths of concyclic points, exterior bitangents of tangent circles,
lambda lengths of horocycles, and Plucker minors of 2x4 matrices all satisfy
the same quadric relation; this package computes all four from a common
configuration, converts exactly between three models of the hyperbolic
plane, and solves for the torus rescaling carrying one six-tuple to another.

Only the Plucker module, grassmann, imports numpy, and it loads on first use:
its five names below resolve on first access (PEP 562), so `import threeterm`
and every submodule but grassmann and cli leave numpy unloaded.
"""

import importlib as _importlib
from types import ModuleType as _ModuleType

from .errors import (
    ConfigurationError,
    DegenerateError,
    DomainError,
    GeometryError,
    NotSameOrbitError,
    OffQuadricError,
)
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
    rescaling_fit,
    rescaling_solve,
    residual,
    torus_apply,
)
from .svg import render_svg

_GRASSMANN = ("Matrix2x4", "column_permute", "column_rescale", "minors", "reconstruct")


def __getattr__(name):
    """Load grassmann (and so numpy) on first access to one of its names."""
    if name not in _GRASSMANN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not `from . import grassmann`, whose fromlist lookup would
    # call this __getattr__ again.
    grassmann = _importlib.import_module(".grassmann", __name__)
    globals().update((n, getattr(grassmann, n)) for n in _GRASSMANN)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_GRASSMANN})


# Every name imported above, and grassmann's five, in sorted order; the
# submodules themselves are not exported.
__all__ = sorted([name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)]
                 + list(_GRASSMANN))
