"""The package namespace: what `threeterm.__all__` exports, and where numpy loads.

Only grassmann imports numpy.  Each import below runs in a fresh interpreter,
which reports whether numpy is in sys.modules afterwards.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import threeterm

ROOT = Path(__file__).resolve().parent.parent


# The public surface, in sorted order: a name added or dropped is a change here.
PUBLIC_NAMES = [
    "BoundaryPoint", "ConcyclicConfig", "ConfigurationError", "DegenerateError", "DiskPoint",
    "DomainError", "EuclideanCircle", "GeometryError", "HyperboloidPoint", "LightConePoint",
    "Matrix2x4", "MeasurementTable", "MinkowskiVec", "NotSameOrbitError", "OffQuadricError",
    "PAIRS", "SixTuple", "TorusElement", "UhpPoint", "bitangent_direct", "cayley_disk_to_uhp",
    "cayley_uhp_to_disk", "cross_ratio_invariant", "cross_ratio_points", "disk_to_hyperboloid",
    "horocycle_from_tangency", "horocycle_to_circle", "hyp_distance_crossratio",
    "hyp_distance_hyperboloid", "hyperboloid_to_disk", "is_on_quadric", "lambda_length",
    "lambda_minkowski", "lightcone_to_boundary", "measure_all", "mink_pair", "minors",
    "reconstruct", "relative_residual", "render_svg", "rescaling_fit", "rescaling_solve",
    "residual", "torus_apply",
]


def test_public_names():
    assert threeterm.__all__ == PUBLIC_NAMES


def test_every_export_resolves_once():
    names = threeterm.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(threeterm, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from threeterm import *", namespace)
    assert set(threeterm.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(threeterm.__all__) <= set(dir(threeterm))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        threeterm.no_such_name


def numpy_loaded(code):
    """Whether numpy is in sys.modules after code runs in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script = f"{code}\nimport sys\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return {"True\n": True, "False\n": False}[proc.stdout]


@pytest.mark.parametrize("module", ["threeterm", "threeterm.errors", "threeterm.relations",
                                    "threeterm.models", "threeterm.horocycles",
                                    "threeterm.measurements", "threeterm.svg"])
def test_import_leaves_numpy_unloaded(module):
    assert not numpy_loaded(f"import {module}")


@pytest.mark.parametrize("code", [
    "import threeterm\nthreeterm.Matrix2x4",
    "from threeterm import minors",
    "import threeterm\nm = threeterm.Matrix2x4\nassert threeterm.grassmann.Matrix2x4 is m",
    "import threeterm.grassmann",
    "import threeterm.cli",
])
def test_grassmann_and_cli_load_numpy(code):
    assert numpy_loaded(code)
