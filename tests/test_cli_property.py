"""A generative CLI contract: no input ends in a traceback or in exit 0 with a
non-finite value printed.

Each subcommand gets its own strategy for documents: matrices and six-tuples
scaled by 10^+-200, complex entries near the float limits, concyclic configs
with endpoint angles and extreme radii, light-cone vectors over 10^+-150, and
cross-ratio points.  `cli.main` runs in-process on each.  The only exception
allowed is argparse's SystemExit(2) for a bad --tol; the exit code is one of
0-4; on exit 0, --json output parses with a reader that rejects NaN and
Infinity, and text output (and a rendered SVG) holds no "nan" or "inf".
On exit 0 the printed answers also round-trip, read back from either output
form: the rows of `plucker reconstruct` give back the input's minors within
(tol + 8u)*max|p| + 4*eta, and the q of `rescale` gives |q_i*q_j*a_ij - b_ij| <=
tol*|b_ij| on every pair, each modulus formed without overflow (and in --json
the printed deviation of every pair, that same ratio, is within tol).  The term
4*eta, four of the smallest subnormal, allows for the products in a minor's
component that underflow, each off by up to eta/2.

`measure` on configurations that ConcyclicConfig accepts, with radii
log-uniform in [1e-300, 0.6], exits 0 or 1: the families and their checks
stay finite however small the circles.  `render` on such configurations with
two half-angles 10^-12 to 10^-3 apart exits 0, and prints each geodesic arc's
radius 480*|tan(a_j - a_i)| px within 1e-6 px + 1e-9 of it.

Example budget: 80 examples per subcommand, 480 in all, and 100 valid
configurations each for measure and render, about 5 s on a 2-vCPU host.
"""

import ast
import cmath
import io
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from threeterm.cli import main
from threeterm.errors import ConfigurationError
from threeterm.measurements import ConcyclicConfig
from threeterm.relations import DEFAULT_TOL, PAIRS
from threeterm.svg import SCALE

EXAMPLES = settings(max_examples=80, deadline=None)

_MAX, _MIN = sys.float_info.max, sys.float_info.min
# The float limits, and units that keep a product with one of them finite.
SPECIAL = (_MAX, -_MAX, _MAX / 2, math.nextafter(_MAX, 0.0), _MIN, -_MIN, 5e-324, 0.0, 1.0, -1.0)
NONFINITE = re.compile(r"nan|inf", re.IGNORECASE)
U = 2.0 ** -53  # the unit roundoff of a float
ETA = 2.0 ** -1074  # the smallest subnormal

decade = st.integers(min_value=-200, max_value=200)
mantissa = st.floats(min_value=-10.0, max_value=10.0)
real = st.one_of(
    st.builds(lambda m, k: m * 10.0 ** k, mantissa, decade),
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
)
complex_ = st.builds(complex, real, real)
scalar = st.one_of(real, complex_)
tol = st.one_of(st.none(), st.sampled_from(["1e-10", "1e-17", "1e308", "0", "-1", "nan", "inf"]))

# Complex entries whose components are finite but whose modulus (mostly)
# exceeds the float range, among entries of modulus near 1.
big = st.sampled_from((_MAX, -_MAX, _MAX / 2, -_MAX / 2, math.nextafter(_MAX, 0.0)))
near_limit = st.builds(complex, big, big)
small = st.floats(min_value=-2.0, max_value=2.0)
moderate = st.one_of(st.sampled_from((0.0, 1.0, -1.0, 1j, -1j)), small,
                     st.builds(complex, small, small))


@st.composite
def near_limit_entries(draw, n):
    """n moderate scalars, one or two of them replaced by a complex entry near the float limits."""
    values = draw(st.lists(moderate, min_size=n, max_size=n))
    for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)):
        values[k] = draw(near_limit)
    return values


def _json_value(v):
    return [v.real, v.imag] if isinstance(v, complex) else v


def _minors(x, y):
    return [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS]


@st.composite
def scaled_matrices(draw, entry=scalar):
    """Rows of a 2x4 matrix, each column scaled by its own power of ten."""
    x, y = (draw(st.lists(entry, min_size=4, max_size=4)) for _ in range(2))
    scales = [10.0 ** draw(decade) for _ in range(4)]
    return [v * s for v, s in zip(x, scales)], [v * s for v, s in zip(y, scales)]


near_limit_matrices = near_limit_entries(8).map(lambda v: (v[:4], v[4:]))
matrices = st.one_of(scaled_matrices(real), scaled_matrices(), near_limit_matrices)


@st.composite
def scaled_minors(draw):
    """The minors of a matrix, scaled by 10^k: a tuple on the quadric up to rounding."""
    p = _minors(*draw(scaled_matrices()))
    s = 10.0 ** draw(decade)
    return [v * s for v in p]


sixtuples = st.one_of(
    scaled_minors(),
    st.lists(moderate, min_size=8, max_size=8).map(lambda v: _minors(v[:4], v[4:])),
    near_limit_matrices.map(lambda rows: _minors(*rows)),
    st.lists(scalar, min_size=6, max_size=6),
    near_limit_entries(6),
)


# A square root near the limit makes q1^2 = c12*c13/c23 a modulus beyond the float range.
torus_components = st.one_of(scalar, moderate, near_limit, near_limit.map(cmath.sqrt))


@st.composite
def tuple_pairs(draw):
    """A tuple and either its image under a torus element or a second tuple."""
    a = draw(sixtuples)
    if draw(st.booleans()):
        q = [None, *(draw(torus_components) for _ in range(4))]
        return a, [q[i] * q[j] * v for (i, j), v in zip(PAIRS, a)]
    return a, draw(sixtuples)


angle = st.one_of(
    st.sampled_from([0.0, math.nextafter(0.0, 1.0), math.pi / 2,
                     math.nextafter(math.pi, 0.0), math.pi]),
    st.floats(min_value=0.0, max_value=math.pi),
)
radius = st.one_of(
    st.sampled_from([5e-324, _MIN, 1e-300, 0.5, math.nextafter(1.0, 0.0)]),
    st.builds(lambda m, k: m * 10.0 ** k, st.floats(min_value=0.1, max_value=1.0),
              st.integers(min_value=-300, max_value=0)),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def lightcone_vectors(draw):
    theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    z = draw(st.floats(min_value=0.1, max_value=10.0)) * 10.0 ** draw(st.integers(-150, 150))
    return [z * math.cos(theta), z * math.sin(theta), z]


configs = st.one_of(
    st.builds(lambda alpha, radii: {"concyclic": {"alpha": sorted(alpha), "radii": radii}},
              st.lists(angle, min_size=4, max_size=4), st.lists(radius, min_size=4, max_size=4)),
    st.builds(lambda u: {"lightcone": {"u": u}},
              st.lists(lightcone_vectors(), min_size=4, max_size=4)),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property")


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _reject(constant):
    raise ValueError(f"non-finite JSON constant {constant}")


def _check(argv, as_json, svg=None):
    """Run main(argv) and assert the contract for its outcome; the exit code
    (None for argparse's exit) and the text printed on exit 0, else None."""
    if svg is not None:
        svg.unlink(missing_ok=True)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return None, None
    assert code in (0, 1, 2, 3, 4), argv
    if code != 0:
        return code, None
    text = out.getvalue()
    if as_json:
        json.loads(text, parse_constant=_reject)
    else:
        assert not NONFINITE.search(text), (argv, text)
    if svg is not None:
        assert not NONFINITE.search(svg.read_text(encoding="utf-8")), argv
    return code, text


def _scalar(v):
    """A number read back from the output: [re, im] as a complex, a float as is."""
    return complex(*v) if isinstance(v, list) else v


def _printed_scalar(text):
    """A number printed by str(): a float, or a complex such as (1-2j)."""
    try:
        return float(text)
    except ValueError:
        return complex(text)


def _within(gap, size, bound, floor=0.0):
    """|gap| <= bound*|size| + floor, all quartered where a modulus leaves the
    float range (abs raises there for a complex)."""
    try:
        return abs(gap) <= bound * abs(size) + floor
    except OverflowError:
        return (math.hypot(gap.real * 0.25, gap.imag * 0.25)
                <= bound * math.hypot(size.real * 0.25, size.imag * 0.25) + floor * 0.25)


def _tol(tol_text):
    return DEFAULT_TOL if tol_text is None else float(tol_text)


def _flags(as_json, tol_text=None):
    return [*(["--json"] if as_json else []), *(["--tol", tol_text] if tol_text else [])]


@EXAMPLES
@given(doc=configs, as_json=st.booleans(), tol_text=tol)
def test_measure(workdir, doc, as_json, tol_text):
    _check(["measure", _write(workdir / "config.json", doc), *_flags(as_json, tol_text)], as_json)


@settings(max_examples=100, deadline=None)
@given(alpha=st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=4, max_size=4, unique=True),
       log_radii=st.lists(st.floats(min_value=-300.0, max_value=math.log10(0.6)), min_size=4, max_size=4),
       as_json=st.booleans())
def test_measure_valid_configs(workdir, alpha, log_radii, as_json):
    alpha, radii = sorted(alpha), [10.0**k for k in log_radii]
    try:
        ConcyclicConfig(alpha, radii)
    except ConfigurationError:
        assume(False)
    doc = {"concyclic": {"alpha": alpha, "radii": radii}}
    code, _ = _check(["measure", _write(workdir / "config.json", doc), *_flags(as_json)], as_json)
    assert code in (0, 1), doc


# Each geodesic, in pair order: its arc's radius, or "" where it is a line.
GEODESIC = re.compile(r'<(?:line class="geodesic"|path class="geodesic" d="M \S+ \S+ A (\S+))')


@settings(max_examples=100, deadline=None)
@given(alpha=st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=3, max_size=3,
                      unique=True),
       k=st.integers(min_value=0, max_value=2),
       log_gap=st.floats(min_value=-12.0, max_value=-3.0),
       log_radii=st.lists(st.floats(min_value=-300.0, max_value=math.log10(0.6)), min_size=4,
                          max_size=4))
def test_render_valid_configs(workdir, alpha, k, log_gap, log_radii):
    # Three half-angles and a neighbour of one of them 10^-12 to 10^-3 away,
    # so two tangency points lie close.  Each geodesic drawn as an arc has
    # the radius 480*|tan(a_j - a_i)| px, within 1e-6 px + 1e-9 of it.
    gap = 10.0 ** log_gap
    neighbour = alpha[k] + gap if alpha[k] + gap <= math.pi else alpha[k] - gap
    alpha, radii = sorted([*alpha, neighbour]), [10.0**e for e in log_radii]
    try:
        ConcyclicConfig(alpha, radii)
    except ConfigurationError:
        assume(False)
    svg = workdir / "out.svg"
    doc = {"concyclic": {"alpha": alpha, "radii": radii}}
    path = _write(workdir / "config.json", doc)
    code, _ = _check(["render", path, "--out", str(svg)], False, svg)
    assert code == 0, doc
    radii_px = GEODESIC.findall(svg.read_text(encoding="utf-8"))
    assert len(radii_px) == 6
    for (i, j), printed in zip(PAIRS, radii_px):
        if printed:
            exact = SCALE * abs(mpmath.tan(mpmath.mpf(alpha[j - 1]) - mpmath.mpf(alpha[i - 1])))
            assert abs(float(printed) - exact) <= 1e-6 + 1e-9 * exact, (doc, i, j, printed)


@EXAMPLES
@given(doc=configs)
def test_render(workdir, doc):
    svg = workdir / "out.svg"
    _check(["render", _write(workdir / "config.json", doc), "--out", str(svg)], False, svg)


@EXAMPLES
@given(pair=tuple_pairs(), as_json=st.booleans(), tol_text=tol)
def test_rescale(workdir, pair, as_json, tol_text):
    a, b = ([_json_value(v) for v in t] for t in pair)
    paths = _write(workdir / "a.json", a), _write(workdir / "b.json", b)
    _, text = _check(["rescale", *paths, *_flags(as_json, tol_text)], as_json)
    if text is None:
        return
    if as_json:
        doc = json.loads(text)
        q = [_scalar(v) for v in doc["q"]]
        # The printed deviations are the ones rescaling_solve tested.
        assert all(row["deviation"] <= _tol(tol_text) for row in doc["verification"].values())
    else:
        q = [_printed_scalar(line.split(" = ")[1]) for line in text.splitlines()[:4]]
    qs = (None, *q)
    for (i, j), av, bv in zip(PAIRS, *pair):
        assert _within(qs[i] * qs[j] * av - bv, bv, _tol(tol_text)), (pair, q, i, j)


@EXAMPLES
@given(rows=matrices, as_json=st.booleans())
def test_plucker_minors(workdir, rows, as_json):
    field = "complex" if any(isinstance(v, complex) for row in rows for v in row) else "real"
    doc = {"matrix": {"field": field, "rows": [[_json_value(v) for v in row] for row in rows]}}
    _check(["plucker", "minors", _write(workdir / "matrix.json", doc), *_flags(as_json)], as_json)


@EXAMPLES
@given(p=sixtuples, as_json=st.booleans(), tol_text=tol)
def test_plucker_reconstruct(workdir, p, as_json, tol_text):
    path = _write(workdir / "p.json", [_json_value(v) for v in p])
    _, text = _check(["plucker", "reconstruct", path, *_flags(as_json, tol_text)], as_json)
    if text is None:
        return
    if as_json:
        rows = json.loads(text)["rows"]
    else:
        rows = ast.literal_eval(text.splitlines()[0].removeprefix("rows: "))
    x, y = ([_scalar(v) for v in row] for row in rows)
    # The largest by quartered modulus: a complex entry's modulus may leave the float range.
    largest = max(p, key=lambda v: math.hypot(v.real * 0.25, v.imag * 0.25))
    bound = _tol(tol_text) + 8.0 * U
    for pair, pv, mv in zip(PAIRS, p, _minors(x, y)):
        assert _within(mv - pv, largest, bound, 4.0 * ETA), (p, rows, pair)


@EXAMPLES
@given(points=st.lists(st.lists(real, min_size=2, max_size=2), min_size=4, max_size=4),
       as_json=st.booleans())
def test_crossratio(workdir, points, as_json):
    _check(["crossratio", _write(workdir / "points.json", points), *_flags(as_json)], as_json)
