"""CLI contract: documents in, reports out, exit codes, SVG geometry."""

import json
import math
import re
from pathlib import Path

import pytest

from threeterm.cli import main

DATA = Path(__file__).parent / "data"
SCALE = 480.0
DISK_CENTER = (500.0, 500.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMeasure:
    def test_square_table_passes(self, capsys):
        code, out, _ = run(capsys, "measure", str(DATA / "square_config.json"))
        assert code == 0
        assert "[pass]" in out and "[FAIL]" not in out

    def test_square_golden_json(self, capsys):
        code, out, _ = run(capsys, "measure", str(DATA / "square_config.json"), "--json")
        assert code == 0
        golden = (DATA / "square_measure_golden.json").read_text(encoding="utf-8")
        assert out == golden

    def test_near_tangent_golden_json(self, capsys):
        # Radii from 1e-4 to 0.6 and circles 3 and 4 about 1e-6 apart, as in
        # the benchmark's near-tangent configurations.
        code, out, _ = run(capsys, "measure", str(DATA / "near_tangent.json"), "--json")
        assert code == 0
        golden = (DATA / "near_tangent_measure_golden.json").read_text(encoding="utf-8")
        assert out == golden

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "measure", str(DATA / "square_config.json"), "--json")
        report = json.loads(out)
        assert set(report["measurements"]) == {"d", "t", "lambda", "P"}
        assert all(report["pass"].values())

    def test_lightcone_payload(self, capsys):
        code, out, _ = run(
            capsys, "measure", str(DATA / "square_lightcone.json"), "--json"
        )
        assert code == 0
        report = json.loads(out)
        sq2 = math.sqrt(2)
        for got, want in zip(report["measurements"]["d"], (sq2, 2, sq2, sq2, 2, sq2)):
            assert abs(got - want) < 1e-12

    def test_tiny_radii_degeneration(self, capsys):
        code, out, _ = run(capsys, "measure", str(DATA / "tiny_radii.json"), "--json")
        assert code == 0
        report = json.loads(out)
        dev = max(
            abs(t - d)
            for t, d in zip(report["measurements"]["t"], report["measurements"]["d"])
        )
        assert dev <= 1e-8

    def test_no_table_flag(self, capsys):
        # The table is what measure prints without --json; there is no flag for it.
        with pytest.raises(SystemExit) as info:
            main(["measure", str(DATA / "square_config.json"), "--table"])
        assert info.value.code == 2
        assert "unrecognized arguments: --table" in capsys.readouterr().err

    def test_tol_flag_can_force_failure(self, capsys):
        code, out, _ = run(
            capsys, "measure", str(DATA / "square_config.json"), "--tol", "1e-17"
        )
        assert code == 1
        assert "[FAIL]" in out


class TestExitCodes:
    @pytest.mark.parametrize(
        "fixture,expected",
        [
            ("malformed.json", 2),
            ("two_payloads.json", 2),
            ("short_radii.json", 2),
            ("overlapping.json", 3),
            ("unsorted.json", 3),
        ],
    )
    def test_measure_fixtures(self, capsys, fixture, expected):
        code, _, err = run(capsys, "measure", str(DATA / fixture))
        assert code == expected
        assert err.startswith("error:")

    def test_overlap_names_the_pair(self, capsys):
        _, _, err = run(capsys, "measure", str(DATA / "overlapping.json"))
        assert "circles 1 and 2" in err

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "measure", str(DATA / "does_not_exist.json"))
        assert code == 2

    @pytest.mark.parametrize("content", [b"\xff\xfe[1, 2]", b"[" * 200000 + b"]" * 200000],
                             ids=["not_utf8", "too_deep"])
    def test_undecodable_document(self, tmp_path, capsys, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, out, err = run(capsys, "crossratio", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv,expected",
        [
            # Off the quadric (relative residual 2/3) at a scale of 1e-6.
            (("rescale", "tiny_off_quadric.json", "tiny_off_quadric.json"), 4),
            (("plucker", "reconstruct", "tiny_off_quadric.json"), 4),
            (("rescale", "square_chords.json", "infinite_entry.json"), 3),
            (("rescale", "infinite_entry.json", "square_chords.json"), 3),
            # Off the quadric at a scale of 1e-170, where the monomials underflow.
            (("plucker", "reconstruct", "underflow_off_quadric.json"), 4),
            (("rescale", "underflow_off_quadric.json", "underflow_off_quadric.json"), 4),
            # Cross-ratios that come out NaN, NaN and -Infinity.
            (("crossratio", "crossratio_infinite_point.json"), 3),
            (("crossratio", "crossratio_overflow_nan.json", "--json"), 3),
            (("crossratio", "crossratio_overflow_infinity.json", "--json"), 3),
        ],
    )
    def test_rejected_tuples(self, capsys, argv, expected):
        args = [a if not a.endswith(".json") else str(DATA / a) for a in argv]
        code, out, err = run(capsys, *args)
        assert code == expected
        assert out == ""
        assert err.startswith("error:")

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        # Read as inf, like Infinity, and rejected as non-finite.
        path = tmp_path / "big.json"
        path.write_text("[1" + "0" * 400 + ", 2, 1, 1, 2, 1]", encoding="utf-8")
        code, out, err = run(capsys, "plucker", "reconstruct", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: six-tuple has a non-finite entry")

    def test_minus_zero_integer_reads_as_zero(self, tmp_path, capsys):
        # -0 is the integer 0; only the float -0.0 carries a sign.
        path = tmp_path / "m.json"
        path.write_text('{"matrix": {"rows": [[-0, 0, 1, 2], [1, 1, 3, 5]]}}', encoding="utf-8")
        code, out, _ = run(capsys, "plucker", "minors", str(path), "--json")
        assert code == 0
        assert math.copysign(1.0, json.loads(out)["minors"][0]) == 1.0

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("plucker", "reconstruct", "underflow_off_quadric.json"),
             "tuple is off the quadric: relative residual 0.6666666666666666"),
            (("rescale", "square_chords.json", "underflow_off_quadric.json"),
             "second tuple is off the quadric: relative residual 0.6666666666666666"),
        ],
    )
    def test_off_quadric_message_gives_relative_residual(self, capsys, argv, message):
        # The plain residual of these 1e-170 entries underflows to 0.0.
        code, _, err = run(capsys, *[str(DATA / a) if a.endswith(".json") else a for a in argv])
        assert code == 4
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("tol", ["-1", "0", "1e-400", "nan", "inf", "1", "1e308"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "square_config.json", "--json"),
            ("rescale", "square_chords.json", "square_bitangents.json"),
            ("plucker", "reconstruct", "square_chords.json"),
        ],
    )
    def test_tol_must_be_positive_finite(self, capsys, argv, tol):
        args = [a if not a.endswith(".json") else str(DATA / a) for a in argv]
        with pytest.raises(SystemExit) as info:
            main([*args, f"--tol={tol}"])
        assert info.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --tol: must be a positive finite number" in err


class TestRescale:
    def test_chords_to_bitangents(self, capsys):
        code, out, _ = run(
            capsys,
            "rescale",
            str(DATA / "square_chords.json"),
            str(DATA / "square_bitangents.json"),
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        for q in doc["q"]:
            assert abs(abs(q) - math.sqrt(0.75)) < 1e-12
        for row in doc["verification"].values():
            assert row["deviation"] <= 1e-12

    def test_identical_files(self, capsys):
        code, out, _ = run(
            capsys,
            "rescale",
            str(DATA / "square_chords.json"),
            str(DATA / "square_chords.json"),
            "--json",
        )
        assert code == 0
        assert all(abs(abs(q) - 1.0) < 1e-14 for q in json.loads(out)["q"])

    def test_orbit_mismatch_reports_invariants(self, capsys):
        code, _, err = run(
            capsys,
            "rescale",
            str(DATA / "square_chords.json"),
            str(DATA / "other_orbit.json"),
        )
        assert code == 4
        assert "invariants" in err and "1.0" in err and "3.0" in err

    @pytest.mark.parametrize(
        "file_a,file_b,q",
        [
            # Entries near 1e-170 and 1e170: the invariants' products under-
            # and overflow, the invariants themselves do not.
            ("underflow_square_chords.json", "underflow_square_chords.json", 1.0),
            ("overflow_square_chords.json", "overflow_square_chords.json", 1.0),
            ("square_chords.json", "underflow_square_chords.json", 1e-85),
        ],
    )
    def test_beyond_float_range(self, capsys, file_a, file_b, q):
        code, out, _ = run(capsys, "rescale", str(DATA / file_a), str(DATA / file_b), "--json")
        assert code == 0
        for got in json.loads(out)["q"]:
            assert abs(abs(got) - q) <= 1e-12 * q

    def test_orbit_mismatch_beyond_float_range(self, capsys):
        code, out, err = run(
            capsys,
            "rescale",
            str(DATA / "overflow_square_chords.json"),
            str(DATA / "overflow_other_orbit.json"),
        )
        assert code == 4
        assert out == ""
        line = next(l for l in err.splitlines() if l.startswith("invariants: "))
        inv_a, inv_b = (float(v) for v in line.removeprefix("invariants: ").split(" vs "))
        assert inv_a == 1.0
        assert abs(inv_b - 3.0) <= 1e-15

    def test_zero_entry(self, capsys):
        code, _, _ = run(
            capsys,
            "rescale",
            str(DATA / "zero_entry.json"),
            str(DATA / "square_chords.json"),
        )
        assert code == 3


class TestPlucker:
    def test_minors_real(self, capsys):
        code, out, _ = run(
            capsys, "plucker", "minors", str(DATA / "matrix_real.json"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["minors"] == [1.0, 5.0, 7.0, -2.0, -3.0, -1.0]
        assert doc["residual"] == 0.0

    def test_minors_complex(self, capsys):
        code, out, _ = run(
            capsys, "plucker", "minors", str(DATA / "matrix_complex.json"), "--json"
        )
        assert code == 0
        doc = json.loads(out)
        residual = complex(*doc["residual"])
        assert abs(residual) < 1e-12
        assert all(isinstance(v, list) and len(v) == 2 for v in doc["minors"])

    def test_reconstruct_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "plucker", "reconstruct", str(DATA / "square_chords.json"), "--json"
        )
        assert code == 0
        assert json.loads(out)["max_minor_deviation"] <= 1e-10

    def test_reconstruct_off_quadric(self, capsys):
        code, _, err = run(
            capsys, "plucker", "reconstruct", str(DATA / "off_quadric.json")
        )
        assert code == 4
        assert "residual" in err


class TestCrossratio:
    def test_standard_points(self, capsys):
        code, out, _ = run(capsys, "crossratio", str(DATA / "crossratio_points.json"))
        assert code == 0
        assert abs(float(out.strip()) + 0.4) < 1e-14

    def test_json_mode(self, capsys):
        code, out, _ = run(
            capsys, "crossratio", str(DATA / "crossratio_points.json"), "--json"
        )
        assert code == 0
        assert json.loads(out)["cross_ratio"] == -0.4


_SQUARE = [math.sqrt(2.0), 2.0, math.sqrt(2.0), math.sqrt(2.0), 2.0, math.sqrt(2.0)]
_CONE = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
_ALPHA, _RADII = [0.1, 0.5, 1.0, 2.0], [0.1, 0.1, 0.1, 0.1]
_ROWS = [[1, 0, 2, 3], [0, 1, 5, 7]]
_POINTS = [[0, 1], [1, 1], [1, 0], [2.5, 1]]


def _concyclic(alpha=_ALPHA, radii=_RADII):
    return {"concyclic": {"alpha": alpha, "radii": radii}}


# Per document kind: wrong length, wrong nesting, a bool, and a complex value
# where a real is required (six-tuples and points may be complex).
MALFORMED = {
    "sixtuple": (("plucker", "reconstruct", "{}"), {
        "length": _SQUARE[:5],
        "nesting": [_SQUARE[:3], *_SQUARE[1:]],
        "bool": [True, *_SQUARE[1:]],
    }),
    "concyclic": (("measure", "{}"), {
        "length": _concyclic(alpha=_ALPHA[:3]),
        "nesting": _concyclic(alpha=[[0.1], 0.5, 1.0, 2.0]),
        "bool": _concyclic(radii=[0.1, True, 0.1, 0.1]),
        "complex": _concyclic(alpha=[[0.1, 0.0], 0.5, 1.0, 2.0]),
    }),
    "lightcone": (("render", "{}", "--out", "{out}"), {
        "length": {"lightcone": {"u": _CONE[:3]}},
        "nesting": {"lightcone": {"u": sum(_CONE, [])}},
        "bool": {"lightcone": {"u": [[True, 0, 1], *_CONE[1:]]}},
        "complex": {"lightcone": {"u": [[[1, 0], 0, 1], *_CONE[1:]]}},
    }),
    "matrix": (("plucker", "minors", "{}"), {
        "length": {"matrix": {"rows": [row[:3] for row in _ROWS]}},
        "nesting": {"matrix": {"rows": sum(_ROWS, [])}},
        "bool": {"matrix": {"rows": [[1, 0, 2, 3], [0, True, 5, 7]]}},
        "complex": {"matrix": {"rows": [[1, 0, [2, 1], 3], [0, 1, 5, 7]], "field": "real"}},
    }),
    "points": (("crossratio", "{}", "--json"), {
        "length": _POINTS[:3],
        "nesting": sum(_POINTS, []),
        "bool": [*_POINTS[:3], [2.5, True]],
    }),
}


@pytest.mark.parametrize("kind,case", [(k, c) for k, (_, docs) in MALFORMED.items() for c in docs])
def test_malformed_shape_exits_2(tmp_path, capsys, kind, case):
    argv, docs = MALFORMED[kind]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(docs[case]), encoding="utf-8")
    out_svg = tmp_path / "out.svg"
    code, out, err = run(capsys, *(a.format(str(path), out=out_svg) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert not out_svg.exists()


def _parse_circles(svg: str):
    pattern = r'<circle class="(\w+)" cx="([-\d.]+)" cy="([-\d.]+)" r="([-\d.]+)"/>'
    return [
        (m[0], float(m[1]), float(m[2]), float(m[3]))
        for m in re.findall(pattern, svg)
    ]


def _parse_lines(svg: str, cls: str):
    pattern = (
        rf'<line class="{cls}" x1="([-\d.]+)" y1="([-\d.]+)" '
        rf'x2="([-\d.]+)" y2="([-\d.]+)"/>'
    )
    return [tuple(map(float, m)) for m in re.findall(pattern, svg)]


def _parse_arcs(svg: str):
    pattern = (
        r'<path class="geodesic" d="M ([-\d.]+) ([-\d.]+) '
        r'A ([-\d.]+) [-\d.]+ 0 (\d) (\d) ([-\d.]+) ([-\d.]+)"/>'
    )
    return [
        {
            "start": (float(m[0]), float(m[1])),
            "radius": float(m[2]),
            "large": int(m[3]),
            "sweep": int(m[4]),
            "end": (float(m[5]), float(m[6])),
        }
        for m in re.findall(pattern, svg)
    ]


def _arc_center(arc):
    """Center of an SVG endpoint-parameterized circular arc (F.6.5, no rotation)."""
    (x1, y1), (x2, y2), r = arc["start"], arc["end"], arc["radius"]
    xp, yp = (x1 - x2) / 2.0, (y1 - y2) / 2.0
    num = r * r - xp * xp - yp * yp
    factor = math.sqrt(max(0.0, num / (xp * xp + yp * yp)))
    sign = 1.0 if arc["large"] != arc["sweep"] else -1.0
    cxp, cyp = sign * factor * yp, -sign * factor * xp
    return (cxp + (x1 + x2) / 2.0, cyp + (y1 + y2) / 2.0)


class TestRender:
    @pytest.fixture()
    def square_svg(self, tmp_path, capsys):
        out = tmp_path / "square.svg"
        code, _, _ = run(capsys, "render", str(DATA / "square_config.json"), "--out", str(out))
        assert code == 0
        return out.read_text(encoding="utf-8")

    def test_element_counts(self, square_svg):
        assert square_svg.count("<circle") == 5
        assert square_svg.count('class="chord"') == 6
        assert square_svg.count('class="bitangent"') == 6
        geodesics = square_svg.count('<path class="geodesic"') + len(
            _parse_lines(square_svg, "geodesic")
        )
        assert geodesics == 6

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", str(DATA / "square_config.json"), "--out", str(out1))
        run(capsys, "render", str(DATA / "square_config.json"), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("config,golden", [
        ("square_config.json", "square_render_golden.svg"),
        ("tiny_radii.json", "tiny_radii_render_golden.svg"),
        ("near_tangent.json", "near_tangent_render_golden.svg"),
    ])
    def test_render_matches_golden_bytes(self, tmp_path, capsys, config, golden):
        out = tmp_path / "out.svg"
        code, _, _ = run(capsys, "render", str(DATA / config), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    def test_degenerate_radii_render(self, tmp_path, capsys):
        out = tmp_path / "tiny.svg"
        code, _, _ = run(capsys, "render", str(DATA / "tiny_radii.json"), "--out", str(out))
        assert code == 0
        assert out.read_text(encoding="utf-8").count("<circle") == 5

    def test_invalid_config_exit(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "render", str(DATA / "overlapping.json"),
            "--out", str(tmp_path / "x.svg"),
        )
        assert code == 3

    def test_bitangent_endpoints_on_circles(self, square_svg):
        circles = [c for c in _parse_circles(square_svg) if c[0] == "horocycle"]
        assert len(circles) == 4
        for line in _parse_lines(square_svg, "bitangent"):
            for px, py in ((line[0], line[1]), (line[2], line[3])):
                hit = min(
                    abs(math.hypot(px - cx, py - cy) - r)
                    for _, cx, cy, r in circles
                )
                assert hit <= 1e-6 * SCALE

    def test_geodesics_meet_boundary_orthogonally(self, square_svg):
        arcs = _parse_arcs(square_svg)
        lines = _parse_lines(square_svg, "geodesic")
        assert len(arcs) + len(lines) == 6
        for arc in arcs:
            center = _arc_center(arc)
            for px, py in (arc["start"], arc["end"]):
                # endpoint must sit on the boundary circle
                assert abs(math.hypot(px - DISK_CENTER[0], py - DISK_CENTER[1]) - SCALE) <= 1e-6 * SCALE
                ax, ay = px - DISK_CENTER[0], py - DISK_CENTER[1]
                bx, by = px - center[0], py - center[1]
                cos_angle = (ax * bx + ay * by) / (math.hypot(ax, ay) * math.hypot(bx, by))
                assert abs(math.pi / 2 - math.acos(max(-1.0, min(1.0, cos_angle)))) <= 1e-6
        for line in lines:
            # straight geodesics are diameters: both endpoints antipodal on S
            mx = (line[0] + line[2]) / 2.0
            my = (line[1] + line[3]) / 2.0
            assert math.hypot(mx - DISK_CENTER[0], my - DISK_CENTER[1]) <= 1e-6 * SCALE
