"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass.
"""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import random_config
from threeterm.cli import main as cli_main
from threeterm.errors import NotSameOrbitError
from threeterm.grassmann import Matrix2x4, minors, reconstruct
from threeterm.measurements import (
    bitangent_direct,
    lambda_minkowski,
    measure_all,
)
from threeterm.models import (
    BoundaryPoint,
    DiskPoint,
    UhpPoint,
    cayley_disk_to_uhp,
    cayley_uhp_to_disk,
    disk_to_hyperboloid,
    hyp_distance_crossratio,
    hyperboloid_to_disk,
)
from threeterm.relations import (
    PAIRS,
    SixTuple,
    TorusElement,
    cross_ratio_invariant,
    cross_ratio_points,
    relative_residual,
    rescaling_solve,
    torus_apply,
)

DATA = Path(__file__).parent / "data"


def report(num: int, label: str, ok: bool):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}]: {label}")
    assert ok, f"criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def configs():
    rng = np.random.default_rng(20240601)
    return [random_config(rng) for _ in range(1000)]


def random_on_quadric(rng, complex_mode, min_entry=0.05):
    while True:
        if complex_mode:
            m = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
        else:
            m = rng.normal(size=(2, 4))
        vals = minors(Matrix2x4(m))
        if min(abs(v) for v in vals) > min_entry:
            return SixTuple(*vals)


def random_torus(rng, complex_mode):
    if complex_mode:
        return TorusElement(*(
            rng.uniform(0.5, 2.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            for _ in range(4)
        ))
    return TorusElement(*(
        rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) for _ in range(4)
    ))


def matches_plus_minus(q: TorusElement, expected, tol: float) -> bool:
    return any(
        all(
            abs(got - flip * want) <= tol * abs(want)
            for got, want in zip(q.values(), expected)
        )
        for flip in (1.0, -1.0)
    )


def test_criterion_1_four_relation_suite(configs):
    worst = 0.0
    for cfg in configs:
        table = measure_all(cfg)
        for tup in (table.d, table.t, table.lam, table.p):
            worst = max(worst, relative_residual(tup))
    report(1, f"d/t/lambda/P residuals on 1000 configs (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_2_rescaling_identities(configs):
    worst = 0.0
    for cfg in configs:
        table = measure_all(cfg)
        bitangents, lambdas = bitangent_direct(cfg), lambda_minkowski(cfg)
        for idx, (i, j) in enumerate(PAIRS):
            d_ij = table.d.values()[idx]
            t_ij = table.t.values()[idx]
            p_ij = table.p.values()[idx]
            ri, rj = cfg.r[i - 1], cfg.r[j - 1]
            # Eq: t = sqrt(1-r_i) sqrt(1-r_j) d, cross-checked via the
            # independent exterior-tangent oracle
            oracle = bitangents[idx]
            worst = max(worst, abs(t_ij - oracle) / oracle)
            expected_t = math.sqrt(1 - ri) * math.sqrt(1 - rj) * d_ij
            worst = max(worst, abs(t_ij - expected_t) / expected_t)
            # Eq: t = lambda sqrt(2 r_i) sqrt(2 r_j), lambda via the
            # Minkowski pairing path
            lam = lambdas[idx]
            expected = lam * math.sqrt(2 * ri) * math.sqrt(2 * rj)
            worst = max(worst, abs(t_ij - expected) / expected)
            # Eq: d = 2 P
            worst = max(worst, abs(d_ij - 2 * p_ij) / d_ij)
    report(2, f"Eq 7/8/9 entrywise on 1000 configs (worst {worst:.2e})", worst <= 1e-10)


def test_criterion_3_casey_to_ptolemy_degeneration():
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for _ in range(100):
        cfg = random_config(rng, radii=np.full(4, 1e-9))
        table = measure_all(cfg)
        worst = max(
            worst,
            max(abs(t - d) for t, d in zip(table.t.values(), table.d.values())),
        )
    report(3, f"r=1e-9 gives |t - d| <= 1e-8 (worst {worst:.2e})", worst <= 1e-8)


def test_criterion_4_solver_round_trip_and_mismatch():
    rng = np.random.default_rng(20240604)
    ok = True
    for k in range(1000):
        complex_mode = k % 2 == 1
        t = random_on_quadric(rng, complex_mode)
        q = random_torus(rng, complex_mode)
        recovered = rescaling_solve(t, torus_apply(q, t), tol=1e-10)
        if not matches_plus_minus(recovered, q.values(), 1e-9):
            ok = False
            break
    mismatches = 0
    while mismatches < 100 and ok:
        a = random_on_quadric(rng, complex_mode=False)
        b = random_on_quadric(rng, complex_mode=False)
        inv_a, inv_b = cross_ratio_invariant(a), cross_ratio_invariant(b)
        if abs(inv_a - inv_b) <= 1e-6 * max(abs(inv_a), abs(inv_b), 1.0):
            continue
        try:
            rescaling_solve(a, b, tol=1e-10)
            ok = False
            break
        except NotSameOrbitError:
            mismatches += 1
    report(4, "solver recovers ±q (1000 real/complex) and flags 100 mismatches", ok)


def test_criterion_5_plucker_bidirectional():
    rng = np.random.default_rng(20240605)
    ok = True
    for _ in range(1000):
        p = minors(Matrix2x4(rng.normal(size=(2, 4))))
        if relative_residual(p) > 1e-12:
            ok = False
            break

    def round_trips(p: SixTuple) -> bool:
        back = minors(reconstruct(p, tol=1e-10))
        scale = max(max(abs(v) for v in p.values()), 1.0)
        return max(abs(a - b) for a, b in zip(p.values(), back.values())) <= 1e-10 * scale

    count = 0
    while ok and count < 1000:
        p = minors(Matrix2x4(rng.normal(size=(2, 4))))
        if max(abs(v) for v in p.values()) == 0.0:
            continue
        ok = round_trips(p)
        count += 1
    count = 0
    while ok and count < 100:
        m = rng.integers(-5, 6, size=(2, 4)).astype(float)
        m[:, 1] = rng.integers(-3, 4) * m[:, 0]
        p = minors(Matrix2x4(m))
        if all(v == 0 for v in p.values()):
            continue
        ok = p.a12 == 0.0 and round_trips(p)
        count += 1
    if ok:
        zero = reconstruct(SixTuple(0, 0, 0, 0, 0, 0))
        ok = bool(np.all(zero.rows == 0.0))
    report(5, "minors on-quadric at 1e-12; reconstruction round-trips at 1e-10", ok)


def test_criterion_6_model_consistency():
    rng = np.random.default_rng(20240606)
    ok = True
    for _ in range(1000):
        radius = math.sqrt(rng.uniform(0, 0.999**2))
        phi = rng.uniform(0, 2 * math.pi)
        p = DiskPoint(radius * math.cos(phi), radius * math.sin(phi))
        q = hyperboloid_to_disk(disk_to_hyperboloid(p))
        if math.hypot(q.x - p.x, q.y - p.y) > 1e-12:
            ok = False
            break
        w = UhpPoint(rng.uniform(-4, 4), rng.uniform(0.05, 5))
        back = cayley_disk_to_uhp(cayley_uhp_to_disk(w))
        if math.hypot(back.re - w.re, back.im - w.im) > 1e-12:
            ok = False
            break
    if ok:
        for _ in range(100):
            b = BoundaryPoint(rng.uniform(0.05, 2 * math.pi - 0.05))
            back = cayley_uhp_to_disk(cayley_disk_to_uhp(b))
            if abs(back.theta - b.theta) > 1e-12:
                ok = False
                break
    exact = abs(hyp_distance_crossratio(UhpPoint(0, 1), UhpPoint(0, 2)) - math.log(2))
    ok = ok and exact <= 1e-12
    if ok:
        for _ in range(1000):
            w1 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            w2 = UhpPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
            if w1 == w2:
                continue
            dx, dy = w1.re - w2.re, w1.im - w2.im
            oracle = math.acosh(1 + (dx * dx + dy * dy) / (2 * w1.im * w2.im))
            got = hyp_distance_crossratio(w1, w2)
            if abs(got - oracle) > 1e-10 * max(oracle, 1.0):
                ok = False
                break
    report(6, "model round trips at 1e-12; distances match arccosh oracle at 1e-10", ok)


def test_criterion_7_cross_ratio_bridge():
    rng = np.random.default_rng(20240607)
    checked = 0
    ok = True
    while checked < 1000:
        m = Matrix2x4(rng.normal(size=(2, 4)))
        p = minors(m)
        if abs(p.a23 * p.a14) < 1e-3:
            continue
        lhs = cross_ratio_points(*(tuple(m.rows[:, k - 1]) for k in (1, 2, 3, 4)))
        rhs = cross_ratio_invariant(p)
        if abs(lhs - rhs) > 1e-12 * max(abs(rhs), 1.0):
            ok = False
            break
        checked += 1
    report(7, "cross-ratio of columns equals orbit invariant of minors at 1e-12", ok)


def test_criterion_8_cli_golden_and_exit_codes(tmp_path, capsys):
    code = cli_main(["measure", str(DATA / "square_config.json"), "--json"])
    out = capsys.readouterr().out
    golden = (DATA / "square_measure_golden.json").read_text(encoding="utf-8")
    ok = code == 0 and out == golden

    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    cli_main(["render", str(DATA / "square_config.json"), "--out", str(svg1)])
    cli_main(["render", str(DATA / "square_config.json"), "--out", str(svg2)])
    capsys.readouterr()
    ok = ok and svg1.read_bytes() == svg2.read_bytes()

    fixtures = [
        (["measure", str(DATA / "malformed.json")], 2),
        (["measure", str(DATA / "two_payloads.json")], 2),
        (["measure", str(DATA / "overlapping.json")], 3),
        (["measure", str(DATA / "unsorted.json")], 3),
        (["rescale", str(DATA / "zero_entry.json"), str(DATA / "square_chords.json")], 3),
        (["rescale", str(DATA / "square_chords.json"), str(DATA / "other_orbit.json")], 4),
    ]
    for argv, expected in fixtures:
        got = cli_main(argv)
        capsys.readouterr()
        ok = ok and got == expected
    report(8, "golden measure JSON, deterministic render, exit-code contract", ok)


def test_report_schema_round_trips(capsys):
    # machine-readable output parses back into the same structure
    cli_main(["measure", str(DATA / "square_config.json"), "--json"])
    report_doc = json.loads(capsys.readouterr().out)
    assert json.loads(json.dumps(report_doc)) == report_doc
