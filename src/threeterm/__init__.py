"""Four incarnations of the 3-term relation AB+CD=EF and the rescalings between them.

Chord lengths of concyclic points, exterior bitangents of tangent circles,
lambda lengths of horocycles, and Plucker minors of 2x4 matrices all satisfy
the same quadric relation; this package computes all four from a common
configuration, converts exactly between three models of the hyperbolic
plane, and solves for the torus rescaling carrying one six-tuple to another.

Every public name resolves by one rule: _SOURCES below names the submodule
that defines it, which is imported on the name's first access (PEP 562).
So `import threeterm` loads no submodule, and numpy, which only grassmann
imports, loads only with grassmann.
"""

import importlib as _importlib

_SOURCES = {
    "errors": ("ConfigurationError", "DegenerateError", "DomainError", "GeometryError",
               "NotSameOrbitError", "OffQuadricError"),
    "grassmann": ("Matrix2x4", "minors", "reconstruct"),
    "horocycles": ("EuclideanCircle", "horocycle_from_tangency", "horocycle_to_circle",
                   "lambda_length"),
    "measurements": ("ConcyclicConfig", "MeasurementTable", "bitangent_direct",
                     "lambda_minkowski", "measure_all"),
    "models": ("BoundaryPoint", "DiskPoint", "HyperboloidPoint", "LightConePoint",
               "MinkowskiVec", "UhpPoint", "cayley_disk_to_uhp", "cayley_uhp_to_disk",
               "disk_to_hyperboloid", "hyp_distance_crossratio", "hyp_distance_hyperboloid",
               "hyperboloid_to_disk", "lightcone_to_boundary", "mink_pair"),
    "relations": ("PAIRS", "SixTuple", "TorusElement", "cross_ratio_invariant",
                  "cross_ratio_points", "is_on_quadric", "relative_residual", "rescaling_fit",
                  "rescaling_solve", "residual", "torus_apply"),
    "svg": ("render_svg",),
}

__all__ = sorted(name for names in _SOURCES.values() for name in names)


def __getattr__(name):
    """Import the submodule that defines name, and keep the value for later reads."""
    for module, names in _SOURCES.items():
        if name in names:
            value = getattr(_importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
