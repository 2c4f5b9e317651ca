"""Independent checks of the program's outputs (stdlib only, plus mpmath for samples).

Nothing here calls the program or shares its code.  Expected values come from
the configuration by separate routes: circle centres computed here, the
light-cone pairing in closed form, 2x2 determinants, `math.fsum`, and a
50-digit mpmath reference on a sample.  Every check raises `CheckError` with
a message naming what disagreed.

Tolerances and their basis:
- FAMILY_RTOL: each expected value is a handful of flops from the inputs.
  The generated configurations keep every condition number below 1e4, so
  a correct double result agrees to better than 1e-11; 1e-9 leaves margin.
- QUADRIC_RTOL: the three monomials of a reported family are summed exactly
  with `math.fsum`; reported values carry a few ulps each, so a family on
  the quadric has relative residual below 1e-14.
- PX_TOL: SVG coordinates are printed with 6 decimals, i.e. to 5e-7 px.
"""

from __future__ import annotations

import math

FAMILY_RTOL = 1e-9
QUADRIC_RTOL = 1e-12
MP_RTOL = 1e-12
PX_TOL = 1e-4
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LABELS = tuple(f"{i + 1}{j + 1}" for i, j in PAIRS)
FAMILIES = ("d", "t", "lambda", "P")
IDENTITIES = ("chord_bitangent", "bitangent_lambda", "chord_plucker")
EPS = 2.0 ** -52
# Exit codes from the contract in the cli module docstring that the workloads expect.
EXIT_OK, EXIT_ORBIT = 0, 4

SVG_NS = "{http://www.w3.org/2000/svg}"
SCALE, CENTER = 480.0, 500.0


class CheckError(AssertionError):
    """An output of the program disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def close(got, want, rtol: float, what: str, atol: float = 0.0) -> None:
    err = abs(got - want)
    require(err <= atol + rtol * abs(want), f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- families

def tangency(alpha):
    return [(math.cos(2.0 * a), math.sin(2.0 * a)) for a in alpha]


def centres(alpha, r):
    return [((1.0 - ri) * x, (1.0 - ri) * y) for (x, y), ri in zip(tangency(alpha), r)]


def expected_families(alpha, r) -> dict:
    """The four six-tuples computed by independent routes."""
    c = centres(alpha, r)
    z = [(1.0 / ri - 1.0) / math.sqrt(2.0) for ri in r]
    cols = [(math.cos(a), math.sin(a)) for a in alpha]
    fam = {"d": [], "t": [], "lambda": [], "P": []}
    for i, j in PAIRS:
        fam["d"].append(2.0 * math.sin(alpha[j] - alpha[i]))
        dx, dy = c[i][0] - c[j][0], c[i][1] - c[j][1]
        fam["t"].append(math.sqrt(dx * dx + dy * dy - (r[i] - r[j]) ** 2))
        # -<u_i, u_j> for u = z (cos 2a, sin 2a, 1) is z_i z_j (1 - cos 2(a_j - a_i)).
        pairing = 2.0 * z[i] * z[j] * math.sin(alpha[j] - alpha[i]) ** 2
        fam["lambda"].append(math.sqrt(pairing))
        fam["P"].append(cols[i][0] * cols[j][1] - cols[j][0] * cols[i][1])
    return fam


def fsum_residual(t) -> float:
    """Relative residual of a12*a34 + a14*a23 - a13*a24, summed exactly."""
    mono = (t[0] * t[5], t[2] * t[3], -(t[1] * t[4]))
    if any(isinstance(m, complex) for m in mono):
        res = abs(complex(math.fsum(m.real for m in mono), math.fsum(m.imag for m in mono)))
    else:
        res = abs(math.fsum(mono))
    top = max(abs(m) for m in mono)
    return res / top if top else res


def check_report(report: dict, alpha, r, tol: float) -> None:
    """A `build_report` result (or `measure --json` output) for configuration (alpha, r)."""
    cfg = report["config"]
    for k in range(4):
        close(cfg["alpha"][k], alpha[k], 1e-13, f"config alpha[{k}]", atol=1e-15)
        close(cfg["radii"][k], r[k], 1e-12, f"config radius[{k}]")
    require(report["tolerance"] == tol, "tolerance not echoed")
    want = expected_families(alpha, r)
    meas = report["measurements"]
    require(sorted(meas) == sorted(FAMILIES), f"families {sorted(meas)}")
    for name in FAMILIES:
        got = meas[name]
        require(len(got) == 6, f"{name} has {len(got)} entries")
        for k in range(6):
            close(got[k], want[name][k], FAMILY_RTOL, f"{name}_{LABELS[k]}")
        require(fsum_residual(got) <= QUADRIC_RTOL, f"{name} misses the quadric")
    # The families are torus rescalings of one another: q_i q_j a_ij = b_ij.
    q_t = [math.sqrt(1.0 - ri) for ri in r]
    q_l = [1.0 / math.sqrt(2.0 * ri) for ri in r]
    for k, (i, j) in enumerate(PAIRS):
        close(q_t[i] * q_t[j] * meas["d"][k], meas["t"][k], FAMILY_RTOL, f"t = q q d at {LABELS[k]}")
        close(q_l[i] * q_l[j] * meas["t"][k], meas["lambda"][k], FAMILY_RTOL,
              f"lambda = q q t at {LABELS[k]}")
        close(0.5 * meas["d"][k], meas["P"][k], FAMILY_RTOL, f"P = d/2 at {LABELS[k]}")
    for name in FAMILIES:
        got = report["residuals"][name]
        require(0.0 <= got <= tol, f"residual {name} = {got!r}")
    for name in IDENTITIES:
        got = report["identities"][name]
        require(0.0 <= got <= tol, f"identity {name} = {got!r}")
    require(report["pass"] == {n: True for n in FAMILIES + IDENTITIES}, "pass flags")


def mp_reference(report: dict, alpha, r) -> None:
    """50-digit check of the reported families and residuals."""
    import mpmath as mp

    with mp.workdps(50):
        a = [mp.mpf(v) for v in alpha]
        rr = [mp.mpf(v) for v in r]
        z = [(1 / ri - 1) / mp.sqrt(2) for ri in rr]
        ref = {"d": [], "t": [], "lambda": [], "P": []}
        for i, j in PAIRS:
            d = 2 * mp.sin(a[j] - a[i])
            ci = [(1 - rr[i]) * mp.cos(2 * a[i]), (1 - rr[i]) * mp.sin(2 * a[i])]
            cj = [(1 - rr[j]) * mp.cos(2 * a[j]), (1 - rr[j]) * mp.sin(2 * a[j])]
            t = mp.sqrt((ci[0] - cj[0]) ** 2 + (ci[1] - cj[1]) ** 2 - (rr[i] - rr[j]) ** 2)
            ref["d"].append(d)
            ref["t"].append(t)
            ref["lambda"].append(mp.sqrt(z[i] * z[j] * (1 - mp.cos(2 * (a[j] - a[i])))))
            ref["P"].append(mp.cos(a[i]) * mp.sin(a[j]) - mp.cos(a[j]) * mp.sin(a[i]))
        for name in FAMILIES:
            f = ref[name]
            exact = abs(f[0] * f[5] + f[2] * f[3] - f[1] * f[4]) / abs(f[1] * f[4])
            require(exact < mp.mpf(10) ** -40, f"mp reference {name} misses the quadric")
            got = report["measurements"][name]
            for k in range(6):
                err = abs(mp.mpf(got[k]) - f[k]) / abs(f[k])
                require(err <= MP_RTOL, f"{name}_{LABELS[k]} off the 50-digit value by {float(err):.2e}")
            # The reported residual is |a12 a34 + a14 a23 - a13 a24|, evaluated in
            # double, over a scale no smaller than the largest monomial M.  The
            # double sum is within gamma_3 * (sum of |monomials|) of the exact sum
            # of the same doubles (Higham, 3.1), which bounds it from above.
            g = [mp.mpf(v) for v in got]
            mono = (g[0] * g[5], g[2] * g[3], g[1] * g[4])
            exact = abs(mono[0] + mono[1] - mono[2])
            bound = 3 * EPS / (1 - 3 * EPS) * sum(abs(m) for m in mono)
            require(mp.mpf(report["residuals"][name]) <= (exact + bound) / max(abs(m) for m in mono),
                    f"reported residual of {name} above its rounding bound")


# ------------------------------------------------------------------- SVG

def px(p):
    return (CENTER + SCALE * p[0], CENTER - SCALE * p[1])


def _f(el, name) -> float:
    return float(el.get(name))


def _near(p, q, what, tol=PX_TOL):
    require(math.hypot(p[0] - q[0], p[1] - q[1]) <= tol, f"{what}: {p} vs {q}")


def check_svg(document: str, alpha, r, t_values) -> None:
    """Element counts, coordinates and labels of a rendered configuration."""
    import xml.etree.ElementTree as ET  # here, so that gen and the set-up probe stay light

    root = ET.fromstring(document.encode("utf-8"))
    require(root.tag == SVG_NS + "svg", "root element is not svg")
    require(root.get("viewBox") == "0 0 1000 1000", "viewBox")
    circles = root.findall(SVG_NS + "circle")
    lines = root.findall(SVG_NS + "line")
    chords = [e for e in lines if e.get("class") == "chord"]
    bitangents = [e for e in lines if e.get("class") == "bitangent"]
    geodesics = [e for e in root if e.get("class") == "geodesic"]
    labels = root.findall(SVG_NS + "text")
    require(len(circles) == 5, f"{len(circles)} circles")
    require(len(chords) == 6 and len(bitangents) == 6, "chord or bitangent count")
    require(len(geodesics) == 6, f"{len(geodesics)} geodesics")
    require(len(labels) == 12, f"{len(labels)} labels")

    boundary = circles[0]
    _near((_f(boundary, "cx"), _f(boundary, "cy")), (CENTER, CENTER), "boundary centre")
    close(_f(boundary, "r"), SCALE, 0.0, "boundary radius", atol=PX_TOL)
    cs = centres(alpha, r)
    for k, el in enumerate(circles[1:]):
        _near((_f(el, "cx"), _f(el, "cy")), px(cs[k]), f"circle {k + 1} centre")
        close(_f(el, "r"), SCALE * r[k], 0.0, f"circle {k + 1} radius", atol=PX_TOL)

    label_at = {el.text: (_f(el, "x"), _f(el, "y")) for el in labels}
    require(sorted(label_at) == sorted([f"d{s}" for s in LABELS] + [f"t{s}" for s in LABELS]),
            "label texts")
    tp = tangency(alpha)
    for k, (i, j) in enumerate(PAIRS):
        el = chords[k]
        a, b = (_f(el, "x1"), _f(el, "y1")), (_f(el, "x2"), _f(el, "y2"))
        _near(a, px(tp[i]), f"chord {LABELS[k]} start")
        _near(b, px(tp[j]), f"chord {LABELS[k]} end")
        _near(label_at[f"d{LABELS[k]}"], ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), "chord label")

        el = bitangents[k]
        p, q = (_f(el, "x1"), _f(el, "y1")), (_f(el, "x2"), _f(el, "y2"))
        _check_bitangent(p, q, px(cs[i]), px(cs[j]), SCALE * r[i], SCALE * r[j],
                         SCALE * t_values[k], LABELS[k])
        _near(label_at[f"t{LABELS[k]}"], ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2), "bitangent label")

        _check_geodesic(geodesics[k], alpha[i], alpha[j], LABELS[k])


def _check_bitangent(p, q, ci, cj, ri, rj, length, label):
    """p, q touch circles i, j; the line is tangent to both with both on one side; outer one."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    seg = math.hypot(dx, dy)
    close(seg, length, 1e-7, f"bitangent {label} length", atol=PX_TOL)
    close(math.hypot(p[0] - ci[0], p[1] - ci[1]), ri, 0.0, f"bitangent {label} start radius", atol=PX_TOL)
    close(math.hypot(q[0] - cj[0], q[1] - cj[1]), rj, 0.0, f"bitangent {label} end radius", atol=PX_TOL)
    nx, ny = -dy / seg, dx / seg
    si = (ci[0] - p[0]) * nx + (ci[1] - p[1]) * ny
    sj = (cj[0] - p[0]) * nx + (cj[1] - p[1]) * ny
    close(abs(si), ri, 0.0, f"bitangent {label} tangent to circle i", atol=PX_TOL)
    close(abs(sj), rj, 0.0, f"bitangent {label} tangent to circle j", atol=PX_TOL)
    require(si * sj > 0.0, f"bitangent {label} is not exterior")
    # The other exterior bitangent is the mirror image in the line of centres;
    # the drawn one has its midpoint farther from the disk centre.
    mx, my = (p[0] + q[0]) / 2 - CENTER, (p[1] + q[1]) / 2 - CENTER
    ux, uy = cj[0] - ci[0], cj[1] - ci[1]
    un = math.hypot(ux, uy)
    ux, uy = ux / un, uy / un
    ox, oy = ci[0] - CENTER, ci[1] - CENTER
    rel = (mx - ox, my - oy)
    along = rel[0] * ux + rel[1] * uy
    mirror = (ox + 2 * along * ux - rel[0], oy + 2 * along * uy - rel[1])
    require(math.hypot(mx, my) >= math.hypot(*mirror) - PX_TOL, f"bitangent {label} is the inner one")


def _check_geodesic(el, ai, aj, label):
    """An arc of the circle orthogonal to the unit circle through A_i = e^{2i a_i}
    and A_j, drawn inside the disk.

    That circle has centre e^{i(a_i + a_j)} / cos(a_j - a_i) and radius
    |tan(a_j - a_i)|.  Near a diameter both are ill-conditioned: an input
    error of one ulp moves the radius by about eps * radius relatively, which
    sets the relative tolerance.
    """
    half = aj - ai
    pi_, pj = px((math.cos(2 * ai), math.sin(2 * ai))), px((math.cos(2 * aj), math.sin(2 * aj)))
    if el.tag == SVG_NS + "line":
        require(abs(math.cos(half)) < 1e-9, f"geodesic {label} drawn as a diameter")
        return
    require(el.tag == SVG_NS + "path", f"geodesic {label} element {el.tag}")
    tok = el.get("d").split()
    require(tok[0] == "M" and tok[3] == "A" and tok[6:8] == ["0", "0"] and len(tok) == 11,
            f"geodesic {label} path {el.get('d')!r}")
    x1, y1, rx, ry, sweep, x2, y2 = (float(tok[k]) for k in (1, 2, 4, 5, 8, 9, 10))
    _near((x1, y1), pi_, f"geodesic {label} start")
    _near((x2, y2), pj, f"geodesic {label} end")
    unit_radius = abs(math.tan(half))
    radius = SCALE * unit_radius
    rtol = 1e-9 + 16 * EPS * unit_radius
    mx, my = px((math.cos(ai + aj) / math.cos(half), math.sin(ai + aj) / math.cos(half)))
    require(rx == ry, f"geodesic {label} radii differ")
    close(rx, radius, rtol, f"geodesic {label} radius", atol=PX_TOL)
    for x, y in ((x1, y1), (x2, y2)):
        close(math.hypot(x - mx, y - my), radius, rtol, f"geodesic {label} on its circle",
              atol=PX_TOL)
    # Walk from the start around that centre in the direction of the sweep
    # flag (1: increasing screen angle).  The arc drawn must be the minor one
    # and its middle must lie inside the unit disk.
    t1, t2 = math.atan2(y1 - my, x1 - mx), math.atan2(y2 - my, x2 - mx)
    span = (t2 - t1) % (2.0 * math.pi) if sweep == 1 else -((t1 - t2) % (2.0 * math.pi))
    require(abs(span) <= math.pi + 1e-6, f"geodesic {label} is the major arc")
    mid = (mx + radius * math.cos(t1 + span / 2), my + radius * math.sin(t1 + span / 2))
    require(math.hypot(mid[0] - CENTER, mid[1] - CENTER) < SCALE,
            f"geodesic {label} leaves the disk")


# ------------------------------------------------------------------ orbit

def det_minors(x, y):
    return [x[i] * y[j] - x[j] * y[i] for i, j in PAIRS]


def _scale(t) -> float:
    return max(abs(v) for v in t)


def check_round_trip(a, q, b, q_solved, rows, p) -> None:
    """b = torus(q) a; q_solved = +-q; rows rebuild b; p = minors(rows)."""
    for k, (i, j) in enumerate(PAIRS):
        close(b[k], q[i] * q[j] * a[k], 1e-12, f"torus_apply entry {LABELS[k]}")
    sign = 1.0 if abs(q_solved[0] - q[0]) <= abs(q_solved[0] + q[0]) else -1.0
    for k in range(4):
        close(q_solved[k], sign * q[k], FAMILY_RTOL, f"rescaling q{k + 1}")
    for k, (i, j) in enumerate(PAIRS):
        close(q_solved[i] * q_solved[j] * a[k], b[k], FAMILY_RTOL, f"q_i q_j a_ij at {LABELS[k]}")
    check_rebuilt(b, rows, p)


def check_rebuilt(b, rows, p=None) -> None:
    """The 2x2 minors of `rows` equal b (and the program's minors `p`, if given)."""
    size = _scale(b)
    own = det_minors(rows[0], rows[1])
    for k in range(6):
        close(own[k], b[k], 0.0, f"rebuilt minor {LABELS[k]}", atol=FAMILY_RTOL * size)
        if p is not None:
            close(p[k], own[k], 0.0, f"minors() entry {LABELS[k]}", atol=1e-13 * size)


def check_minors_output(rows, minors_out, residual_out) -> None:
    own = det_minors(rows[0], rows[1])
    size = _scale(own)
    for k in range(6):
        close(minors_out[k], own[k], 0.0, f"minor {LABELS[k]}", atol=1e-13 * size)
    require(abs(residual_out) <= 1e-12 * size * size, f"minors residual {residual_out!r}")


# -------------------------------------------------------------------- cli

def scalar(v):
    """A cli JSON scalar: a number, or [re, im]."""
    return complex(v[0], v[1]) if isinstance(v, list) else v


def lightcone_doc(alpha, r) -> dict:
    """Light-cone vectors u = z (cos 2a, sin 2a, 1) with z = (1/r - 1)/sqrt(2)."""
    u = []
    for a, ri in zip(alpha, r):
        z = (1.0 / ri - 1.0) / math.sqrt(2.0)
        u.append([z * math.cos(2.0 * a), z * math.sin(2.0 * a), z])
    return {"lightcone": {"u": u}}


def cross_ratio(pts) -> float:
    """(z1 - z2)(z3 - z4) / ((z2 - z3)(z1 - z4)) for z = x/y."""
    z = [x / y for x, y in pts]
    return (z[0] - z[1]) * (z[2] - z[3]) / ((z[1] - z[2]) * (z[0] - z[3]))
