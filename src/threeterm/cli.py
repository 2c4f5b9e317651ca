"""Command-line front end.

Subcommands: measure, rescale, plucker minors, plucker reconstruct, render,
crossratio.  Input documents are JSON; complex numbers are written as
[re, im] pairs.  Exit codes: 0 success, 1 relation failure beyond tolerance,
2 unparseable document or a --tol that is not a positive finite number below 1
(a relative tolerance of 1 or more accepts almost any tuple), 3 invalid
configuration or degenerate values (a non-finite cross-ratio, or any result
that is not finite: no run prints a NaN or an infinity), 4 quadric/orbit
failure (off-quadric input, cross-ratio mismatch), 141 (128 + SIGPIPE) when
the reader of stdout has gone before all of it was written.
Without --json, measure prints a table (it has no --table flag).

run() is the process entry, for `python -m threeterm.cli` and the threeterm
script: it exits with main()'s code, or 141 on a closed stdout, and freezes
the collector on the way out.
main(argv) has no process-wide effect and is safe to call in-process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from .errors import DegenerateError, GeometryError, NotSameOrbitError, OffQuadricError
from .grassmann import Matrix2x4, minors, reconstruct
from .measurements import (
    ConcyclicConfig,
    bitangent_direct,
    lambda_minkowski,
    measure_all,
)
from .relations import (
    DEFAULT_TOL,
    PAIRS,
    SixTuple,
    TorusElement,
    cross_ratio_points,
    relative_residual,
    rescaling_solve,
    residual,
    torus_apply,
)
from .svg import render_svg

EXIT_OK = 0
EXIT_RELATION_FAILURE = 1
EXIT_PARSE = 2
EXIT_INVALID_CONFIG = 3
EXIT_ORBIT = 4
EXIT_BROKEN_PIPE = 128 + 13  # a shell's code for a process that SIGPIPE ended


def positive_finite(text: str) -> float:
    """Parse a --tol value; argparse exits 2 unless it is a relative tolerance,
    positive and below 1."""
    tol = float(text)
    if not 0.0 < tol < 1.0:
        raise argparse.ArgumentTypeError(f"must be a positive finite number below 1, got {text}")
    return tol


class DocumentError(ValueError):
    """Unparseable or schema-violating input document (exit code 2)."""


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            # Integers read as floats, one beyond the float range as inf, and
            # -0 as 0.0, the float of int("-0").
            return json.load(fh, parse_int=lambda text: float(text) + 0.0)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    # A JSONDecodeError, bytes that are not UTF-8, or nesting too deep to decode.
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def _scalar(obj, what: str):
    """A JSON number (read as a float, never a bool), or [re, im] for a complex value."""
    if type(obj) is float:
        return obj
    if isinstance(obj, list) and len(obj) == 2 and type(obj[0]) is type(obj[1]) is float:
        return complex(*obj)
    raise DocumentError(f"{what}: expected a number or [re, im], got {obj!r}")


def _real(obj, what: str) -> float:
    value = _scalar(obj, what)
    if isinstance(value, complex):
        raise DocumentError(f"{what}: expected a real number, got {obj!r}")
    return value


def _array(obj, shape: tuple[int, ...], what: str, scalar=_scalar) -> list:
    """obj as nested lists of the given shape, each entry read by scalar."""
    n, *inner = shape
    if not isinstance(obj, list) or len(obj) != n:
        raise DocumentError(f"{what}: expected an array of {n}, got {obj!r}")
    if inner:
        return [_array(v, inner, what, scalar) for v in obj]
    return [scalar(v, what) for v in obj]


def _json_scalar(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


def _read_sixtuple(path: str) -> SixTuple:
    doc = _load_json(path)
    return SixTuple(*_array(doc, (6,), f"{path}: six-tuple (order 12,13,14,23,24,34)"))


def _payload(path: str, kinds: tuple[str, ...]) -> tuple[str, dict]:
    """The kind and payload of a document holding exactly one payload object, one of kinds."""
    doc = _load_json(path)
    found = [k for k in ("concyclic", "lightcone", "matrix") if isinstance(doc, dict) and k in doc]
    if len(found) != 1 or found[0] not in kinds or not isinstance(doc[found[0]], dict):
        raise DocumentError(f"{path}: expected one payload, {' or '.join(kinds)}; got {found}")
    return found[0], doc[found[0]]


def _read_config(path: str) -> ConcyclicConfig:
    kind, payload = _payload(path, ("concyclic", "lightcone"))
    if kind == "lightcone":
        if "u" not in payload:
            raise DocumentError(f"{path}: lightcone payload needs a 'u' field")
        return ConcyclicConfig.from_lightcone(_array(payload["u"], (4, 3), f"{path} u", _real))
    if set(payload) != {"alpha", "radii"}:
        raise DocumentError(f"{path}: concyclic payload needs 'alpha' and 'radii' only")
    return ConcyclicConfig(_array(payload["alpha"], (4,), f"{path} alpha", _real),
                           _array(payload["radii"], (4,), f"{path} radii", _real))


def _read_matrix(path: str) -> Matrix2x4:
    _, payload = _payload(path, ("matrix",))
    if "rows" not in payload:
        raise DocumentError(f"{path}: matrix payload needs a 'rows' field")
    field = payload.get("field", "real")
    if field not in ("real", "complex"):
        raise DocumentError(f"{path}: field must be 'real' or 'complex', got {field!r}")
    scalar = _real if field == "real" else _scalar
    return Matrix2x4(_array(payload["rows"], (2, 4), f"{path} matrix rows", scalar))


def _max_rel_dev(lhs, rhs) -> float:
    """The largest entrywise deviation |l - r| / max(|l|, |r|, 1)."""
    worst = 0.0
    for l, r in zip(lhs, rhs):
        scale = abs(l)
        if abs(r) > scale:
            scale = abs(r)
        dev = abs(l - r) / (scale if scale > 1.0 else 1.0)
        if dev > worst:
            worst = dev
    return worst


def _modulus(z) -> float:
    """|z|, or inf where a complex modulus exceeds the float range (abs raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _dump(doc: dict) -> str:
    """doc as indented JSON, checked in text mode too: a NaN or infinite value
    raises DegenerateError (exit 3), so no run prints one."""
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise DegenerateError("a result is not finite") from None


def build_report(cfg: ConcyclicConfig, tol: float) -> dict:
    """Measurements, relation residuals, and rescaling-identity deviations.

    Residuals are relative to the largest quadric monomial; identity
    deviations are entrywise relative, each family checked against an
    independent computation path (direct bitangent oracle, light-cone
    lambda carried to t by the torus element sqrt(2 r_i), minors vs chord).
    """
    d, t, lam, p = measure_all(cfg)
    residuals = {"d": relative_residual(d), "t": relative_residual(t),
                 "lambda": relative_residual(lam), "P": relative_residual(p)}
    r1, r2, r3, r4 = cfg.r
    lambda_to_t = TorusElement(math.sqrt(2.0 * r1), math.sqrt(2.0 * r2),
                               math.sqrt(2.0 * r3), math.sqrt(2.0 * r4))
    identities = {
        "chord_bitangent": _max_rel_dev(t, bitangent_direct(cfg)),
        "bitangent_lambda": _max_rel_dev(t, torus_apply(lambda_to_t, lambda_minkowski(cfg))),
        "chord_plucker": _max_rel_dev(d, [2.0 * v for v in p]),
    }
    return {
        "config": {"alpha": list(cfg.alpha), "radii": list(cfg.r)},
        "tolerance": tol,
        "measurements": {"d": list(d), "t": list(t), "lambda": list(lam), "P": list(p)},
        "residuals": residuals,
        "identities": identities,
        "pass": {name: value <= tol for name, value in (*residuals.items(), *identities.items())},
    }


def _print_measure_table(report: dict) -> None:
    print(f"tolerance: {report['tolerance']:g}")
    print("pair:      " + "  ".join(f"{i}{j}".rjust(12) for i, j in PAIRS))
    for name in ("d", "t", "lambda", "P"):
        row = "  ".join(f"{v:12.9f}" for v in report["measurements"][name])
        print(f"{name:>7}:   {row}")
    print("relation residuals (relative):")
    for name in ("d", "t", "lambda", "P"):
        flag = "pass" if report["pass"][name] else "FAIL"
        print(f"  {name:>7}: {report['residuals'][name]:.3e}  [{flag}]")
    print("rescaling identities (max entrywise deviation):")
    for name in ("chord_bitangent", "bitangent_lambda", "chord_plucker"):
        flag = "pass" if report["pass"][name] else "FAIL"
        print(f"  {name}: {report['identities'][name]:.3e}  [{flag}]")


def cmd_measure(args) -> int:
    cfg = _read_config(args.config)
    report = build_report(cfg, args.tol)
    text = _dump(report)
    if args.json:
        print(text)
    else:
        _print_measure_table(report)
    return EXIT_OK if all(report["pass"].values()) else EXIT_RELATION_FAILURE


def cmd_rescale(args) -> int:
    a, b = _read_sixtuple(args.file_a), _read_sixtuple(args.file_b)
    q = rescaling_solve(a, b, tol=args.tol)
    qs = (None, *q)
    verification = {}
    for (i, j), av, bv in zip(PAIRS, a, b):
        product = qs[i] * qs[j]
        ratio = bv / av
        verification[f"{i}{j}"] = {
            "q_i_q_j": _json_scalar(product),
            "c_ij": _json_scalar(ratio),
            "deviation": _modulus(product - ratio),
        }
    text = _dump({"q": [_json_scalar(v) for v in q], "verification": verification})
    if args.json:
        print(text)
    else:
        for k, value in enumerate(q, start=1):
            print(f"q{k} = {value}")
        print("pair   q_i*q_j              c_ij                 |deviation|")
        for key, row in verification.items():
            print(f"{key:>4}   {row['q_i_q_j']!s:<20} {row['c_ij']!s:<20} {row['deviation']:.3e}")
    return EXIT_OK


def cmd_plucker_minors(args) -> int:
    p = minors(_read_matrix(args.file))
    doc = {
        "minors": [_json_scalar(v) for v in p],
        "residual": _json_scalar(residual(p)),
        "relative_residual": relative_residual(p),
    }
    text = _dump(doc)
    if args.json:
        print(text)
    else:
        print("minors (12,13,14,23,24,34):", doc["minors"])
        print("residual:", doc["residual"])
    return EXIT_OK


def cmd_plucker_reconstruct(args) -> int:
    p = _read_sixtuple(args.file)
    matrix = reconstruct(p, tol=args.tol)
    rows = [[_json_scalar(v) for v in row] for row in matrix.entries]
    check = minors(matrix)
    doc = {
        "rows": rows,
        "max_minor_deviation": max(_modulus(pv - cv) for pv, cv in zip(p, check)),
    }
    text = _dump(doc)
    if args.json:
        print(text)
    else:
        print("rows:", rows)
        print("max minor deviation:", doc["max_minor_deviation"])
    return EXIT_OK


def cmd_render(args) -> int:
    document = render_svg(_read_config(args.config))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(document)
    return EXIT_OK


def cmd_crossratio(args) -> int:
    points = _array(_load_json(args.file), (4, 2), f"{args.file}: four [x, y] points")
    value = cross_ratio_points(*points)
    if args.json:
        print(json.dumps({"cross_ratio": _json_scalar(value)}))
    else:
        print(value)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threeterm",
        description="Measure, verify, and rescale the four incarnations of AB+CD=EF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", help="measure a four-circle configuration")
    measure.add_argument("config", help="JSON config document (concyclic or lightcone)")
    measure.add_argument("--tol", type=positive_finite, default=DEFAULT_TOL)
    measure.add_argument("--json", action="store_true")
    measure.set_defaults(func=cmd_measure)

    rescale = sub.add_parser("rescale", help="solve b_ij = q_i q_j a_ij for q")
    rescale.add_argument("file_a", help="six-tuple JSON array (order 12,13,14,23,24,34)")
    rescale.add_argument("file_b", help="six-tuple JSON array")
    rescale.add_argument("--tol", type=positive_finite, default=DEFAULT_TOL)
    rescale.add_argument("--json", action="store_true")
    rescale.set_defaults(func=cmd_rescale)

    plucker = sub.add_parser("plucker", help="minors of a matrix / matrix from minors")
    plucker_sub = plucker.add_subparsers(dest="plucker_command", required=True)
    pminors = plucker_sub.add_parser("minors")
    pminors.add_argument("file", help="matrix config document")
    pminors.add_argument("--json", action="store_true")
    pminors.set_defaults(func=cmd_plucker_minors)
    precon = plucker_sub.add_parser("reconstruct")
    precon.add_argument("file", help="six-tuple JSON array")
    precon.add_argument("--tol", type=positive_finite, default=DEFAULT_TOL)
    precon.add_argument("--json", action="store_true")
    precon.set_defaults(func=cmd_plucker_reconstruct)

    render = sub.add_parser("render", help="render a configuration to SVG")
    render.add_argument("config", help="JSON config document (concyclic or lightcone)")
    render.add_argument("--out", required=True, help="output SVG path")
    render.set_defaults(func=cmd_render)

    crossratio = sub.add_parser("crossratio", help="cross-ratio of four projective points")
    crossratio.add_argument("file", help="JSON array of four [x, y] points")
    crossratio.add_argument("--json", action="store_true")
    crossratio.set_defaults(func=cmd_crossratio)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NotSameOrbitError) and exc.invariant_a is not None:
            print(f"invariants: {exc.invariant_a} vs {exc.invariant_b}", file=sys.stderr)
        if isinstance(exc, DocumentError):
            return EXIT_PARSE
        if isinstance(exc, (NotSameOrbitError, OffQuadricError)):
            return EXIT_ORBIT
        return EXIT_INVALID_CONFIG


def run() -> None:
    """The process entry: exit with main()'s code for sys.argv, or with 141
    when stdout is a pipe whose reader has gone."""
    try:
        try:
            code = main()
        finally:
            sys.stdout.flush()  # so that a closed pipe raises here, not at shutdown
    except BrokenPipeError:
        # The signal module's recipe: stdout onto devnull, so that the flush at
        # shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    finally:
        # Shutdown would walk the ~24 000 objects left from import (numpy's
        # mostly) in a full collection, 20-30 ms of a start.  Frozen objects are
        # skipped; atexit hooks, the flush of stdout and stderr and module
        # teardown still run in order.  os._exit would skip finalizers.
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
