"""Seeded inputs for the benchmark workloads (stdlib only).

Every stream is a pure function of (workload, seed): the same seed gives the
same inputs in the same order, however long a run lasts.  The program only
ever sees the generated values, never the seed.
"""

from __future__ import annotations

import cmath
import math
import random

from checker import PAIRS, centres, det_minors, fsum_residual

# Radii are log-uniform over these bounds (about 3.8 decades).
R_MIN, R_MAX = 1e-4, 0.6
# Smallest half-angle separation between neighbouring tangency points,
# counted across the wrap from alpha_4 back to alpha_1 + pi as well.
MIN_HALF_ANGLE_GAP = 1e-3
# One configuration in four puts a neighbouring pair this close to tangency:
# the Euclidean gap between the circles is log-uniform over these bounds.
NEAR_TANGENT_SHARE = 0.25
TANGENT_GAP = (1e-7, 1e-3)
# Strictly above the program's own disjointness margin (1e-9).
VALID_GAP = 1e-8

# Seeded scales of on-quadric tuples, log-uniform over 16 decades.
TRIP_SCALE = (-8.0, 8.0)
# Seeded scales of off-quadric tuples.  Smaller scales are covered by the
# fixed input below.
OFF_SCALE = (-2.0, 8.0)
# The off-quadric tuple every orbit round attempts at a fixed tiny scale.
# Its relative residual is 0.67; the program accepts it (see README).
OFF_FIXED = (1e-6, 2e-6, 3e-6, 4e-6, 5e-6, 6e-6)

# One orbit round: 20 operations, always in this order (False: real, True:
# complex): 8 round trips, 11 rejections and the fixed tuple.  The host
# switches between a slow state and a fast one (op times about 0.65x) for
# spells of 0.1 s to minutes.  A quantile of the op times follows the fast
# state only once the fast share of the run exceeds the quantile's rank
# within its kind of operation.  With this mix the median sits at rank 0.91
# of the rejections and the 90th percentile at rank 0.75 of the round trips,
# where a run's fast share seldom reaches; with more round trips the median
# sat at rank 0.1-0.4 of them and moved by up to a third between runs.
ORBIT_ROUND = (
    ("trip", False), ("off", False), ("other", False), ("trip", True),
    ("off", True), ("other", True), ("trip", False), ("off", False),
    ("other", False), ("trip", True), ("off", True), ("trip", False),
    ("other", False), ("off", False), ("trip", True), ("off", True),
    ("other", True), ("trip", False), ("trip", True), ("fixed", False),
)

# One cli round: eight child processes, always in this order.
CLI_ROUND = (
    "measure_concyclic", "measure_lightcone", "rescale", "plucker_minors",
    "plucker_reconstruct", "render", "crossratio", "rescale_other_orbit",
)


def stream(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def pair_gap(alpha, r, i, j) -> float:
    (xi, yi), (xj, yj) = centres((alpha[i], alpha[j]), (r[i], r[j]))
    return math.hypot(xi - xj, yi - yj) - r[i] - r[j]


def _radius_for_gap(alpha, r, i, j, gap) -> float:
    """Radius of circle j that leaves `gap` between circles i and j (bisection)."""
    lo, hi = 0.0, 1.0
    trial = list(r)
    for _ in range(80):
        trial[j] = 0.5 * (lo + hi)
        if pair_gap(alpha, trial, i, j) > gap:
            lo = trial[j]
        else:
            hi = trial[j]
    return lo


def config(rng: random.Random):
    """A valid four-circle configuration: (alpha, radii), both 4-tuples."""
    while True:
        alpha = sorted(rng.uniform(0.0, math.pi) for _ in range(4))
        seps = [alpha[k + 1] - alpha[k] for k in range(3)] + [alpha[0] + math.pi - alpha[3]]
        if min(seps) < MIN_HALF_ANGLE_GAP:
            continue
        r = [math.exp(rng.uniform(math.log(R_MIN), math.log(R_MAX))) for _ in range(4)]
        if rng.random() < NEAR_TANGENT_SHARE:
            i = rng.randrange(4)
            j = (i + 1) % 4
            gap = math.exp(rng.uniform(*(math.log(g) for g in TANGENT_GAP)))
            r[j] = _radius_for_gap(alpha, r, i, j, gap)
        if all(0.0 < v < 1.0 for v in r) and all(
            pair_gap(alpha, r, i, j) > VALID_GAP for i, j in PAIRS
        ):
            return tuple(alpha), tuple(r)


def _entry(rng: random.Random, complex_mode: bool):
    if complex_mode:
        return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return rng.uniform(-1.0, 1.0)


def matrix(rng: random.Random, complex_mode: bool):
    """A 2x4 matrix (two rows) whose six minors span at most two decades."""
    while True:
        x = [_entry(rng, complex_mode) for _ in range(4)]
        y = [_entry(rng, complex_mode) for _ in range(4)]
        mags = [abs(m) for m in det_minors(x, y)]
        if min(mags) >= 1e-2 * max(mags):
            return x, y


def on_quadric(rng: random.Random, complex_mode: bool):
    return tuple(det_minors(*matrix(rng, complex_mode)))


def log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def torus(rng: random.Random, complex_mode: bool):
    """Four nonzero scalars with magnitudes over two decades and random signs or phases."""
    out = []
    for _ in range(4):
        mag = log_uniform(rng, -1.0, 1.0)
        if complex_mode:
            out.append(cmath.rect(mag, rng.uniform(-math.pi, math.pi)))
        else:
            out.append(mag if rng.random() < 0.5 else -mag)
    return tuple(out)


def invariant(t):
    return t[0] * t[5] / (t[3] * t[2])


def off_quadric(rng: random.Random, complex_mode: bool):
    """Entries of magnitude 0.1..1 (times a scale) with relative residual at least 0.1."""
    while True:
        t = []
        for _ in range(6):
            mag = log_uniform(rng, -1.0, 0.0)
            if complex_mode:
                t.append(cmath.rect(mag, rng.uniform(-math.pi, math.pi)))
            else:
                t.append(mag if rng.random() < 0.5 else -mag)
        if fsum_residual(t) >= 0.1:
            s = log_uniform(rng, *OFF_SCALE)
            return tuple(v * s for v in t)


def orbit_op(rng: random.Random, kind: str, complex_mode: bool) -> dict:
    if kind == "trip":
        s = log_uniform(rng, *TRIP_SCALE)
        a = tuple(v * s for v in on_quadric(rng, complex_mode))
        return {"kind": kind, "a": a, "q": torus(rng, complex_mode)}
    if kind == "other":
        a = on_quadric(rng, complex_mode)
        while True:
            b = on_quadric(rng, complex_mode)
            ia, ib = invariant(a), invariant(b)
            if abs(ia - ib) > 1e-3 * max(abs(ia), abs(ib), 1.0):
                break
        sa, sb = log_uniform(rng, *TRIP_SCALE), log_uniform(rng, *TRIP_SCALE)
        return {"kind": kind, "a": tuple(v * sa for v in a), "b": tuple(v * sb for v in b)}
    if kind == "off":
        return {"kind": kind, "t": off_quadric(rng, complex_mode)}
    return {"kind": "fixed", "t": OFF_FIXED}


def orbit_round(rng: random.Random):
    return [orbit_op(rng, kind, cm) for kind, cm in ORBIT_ROUND]


def points(rng: random.Random):
    """Four finite projective points (x, y), y != 0, with distinct ratios x/y."""
    while True:
        pts = [(rng.uniform(-3.0, 3.0), rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 2.0))
               for _ in range(4)]
        z = [x / y for x, y in pts]
        if min(abs(z[i] - z[j]) for i in range(4) for j in range(i + 1, 4)) > 1e-2:
            return pts


def cli_round(rng: random.Random, index: int) -> dict:
    """Inputs of one cli round; odd rounds use complex matrices and tuples."""
    complex_mode = index % 2 == 1
    other = orbit_op(rng, "other", False)
    return {
        "measure_concyclic": config(rng),
        "measure_lightcone": config(rng),
        "rescale": orbit_op(rng, "trip", False),
        "plucker_minors": matrix(rng, complex_mode),
        "plucker_reconstruct": orbit_op(rng, "trip", complex_mode)["a"],
        "render": config(rng),
        "crossratio": points(rng),
        "rescale_other_orbit": (other["a"], other["b"]),
    }
