"""The package namespace: what `threeterm.__all__` exports, what loads when, and what `src/` keeps.

Every public name resolves by one rule: its first read imports the submodule
that defines it, so `import threeterm` loads no submodule, and numpy, which
only grassmann imports, loads with grassmann alone.  argparse loads with the
CLI's parser, not with the cli module.  Each import below runs in a fresh
interpreter, which reports what sys.modules holds afterwards.
"""

import ast
import json
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


def run_fresh(code):
    """code run in a fresh interpreter that imports the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)


def modules_after(code):
    """The threeterm submodules, numpy, argparse and gettext in sys.modules after
    code runs in a fresh interpreter."""
    proc = run_fresh(f"{code}\nimport json, sys\nprint(json.dumps(sorted("
                     "m for m in sys.modules if m in ('numpy', 'argparse', 'gettext')"
                     " or m.startswith('threeterm.'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def numpy_loaded(code):
    """Whether numpy is in sys.modules after code runs in a fresh interpreter."""
    return "numpy" in modules_after(code)


@pytest.mark.parametrize("code,modules", [
    ("import threeterm", []),
    ("import threeterm\nthreeterm.SixTuple", ["threeterm.errors", "threeterm.relations"]),
], ids=["import", "read-SixTuple"])
def test_a_name_loads_only_its_submodule(code, modules):
    assert modules_after(code) == modules


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


def test_cli_loads_argparse_only_to_parse():
    """`import threeterm.cli` loads numpy, whose line the benchmark's import probe
    reads, but not argparse or gettext: those load with build_parser."""
    loaded = modules_after("import threeterm.cli")
    assert "numpy" in loaded
    assert "argparse" not in loaded and "gettext" not in loaded
    assert {"argparse", "gettext"} <= set(modules_after("import threeterm.cli\n"
                                                        "threeterm.cli.build_parser()"))


def test_bad_tol_exits_through_argparse_in_a_fresh_interpreter():
    """With nothing loading argparse before main, a --tol of 2 still ends in
    argparse's SystemExit(2) with positive_finite's message, and positive_finite
    called alone still raises argparse's ArgumentTypeError."""
    config = str(ROOT / "tests" / "data" / "square_config.json")
    proc = run_fresh(f"import threeterm.cli\nthreeterm.cli.main(['measure', {config!r}, '--tol', '2'])")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument --tol: must be a positive finite number below 1, got 2\n" in proc.stderr
    proc = run_fresh("import argparse, threeterm.cli\n"
                     "try:\n    threeterm.cli.positive_finite('2')\n"
                     "except argparse.ArgumentTypeError as exc:\n    print(exc)")
    assert proc.stdout == "must be a positive finite number below 1, got 2\n", proc.stderr


def _private_module_names(tree):
    """The private names (not dunders) that a module's top-level statements define."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def test_every_private_module_name_has_a_caller():
    """A private name that nothing in src/ reads is code with no caller: delete it."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted((ROOT / "src" / "threeterm").glob("*.py"))}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    unread = [(module, name) for module, tree in trees.items()
              for name in _private_module_names(tree) if name not in read]
    assert unread == []
