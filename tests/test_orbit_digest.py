"""The library's orbit path, pinned: one digest of its outputs on seeded inputs.

The inputs are whole rounds of `bench/gen.orbit_round`, the benchmark's
`orbit` stream: round trips (torus_apply, rescaling_solve, reconstruct,
minors), pairs from different orbits, and off-quadric tuples.  Every output
is encoded to the bit: each scalar as the hex form of its parts, each
rejection as its type, message and `residual`.  Like
`tests/cli_contract.json` for the CLI, the digest was taken from the code
before a rewrite and must not move with it.  Regenerate it only for a
deliberate change of output, printing `orbit_lines()`'s digest.
"""

import hashlib
from pathlib import Path

import pytest

from threeterm.errors import GeometryError
from threeterm.grassmann import minors, reconstruct
from threeterm.relations import SixTuple, TorusElement, is_on_quadric, rescaling_solve, torus_apply

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 9)
ROUNDS = 25
TOL = 1e-10
DIGEST = "e1503c5c0c7c414dc1f610107112d61c05e891b9fd07e5a59dcaa73f498241c1"


def enc(v) -> str:
    """A float or complex scalar's exact bits, its type and the sign of a zero included."""
    if isinstance(v, complex):
        return f"c{v.real.hex()},{v.imag.hex()}"
    return f"f{v.hex()}"


def outcome(call) -> str:
    """One line for call's result: a verdict, a tuple, or a matrix with its minors."""
    try:
        out = call()
    except GeometryError as exc:
        res = getattr(exc, "residual", None)
        return f"{type(exc).__name__}|{exc}|{None if res is None else enc(res)}"
    if isinstance(out, bool):
        return repr(out)
    if isinstance(out, (SixTuple, TorusElement)):
        return " ".join(enc(v) for v in out)
    rows = out.rows
    return f"{rows.dtype} " + " ".join(enc(v) for row in rows.tolist() for v in row) \
        + " | " + " ".join(enc(v) for v in minors(out))


def op_lines(spec) -> list[str]:
    kind = spec["kind"]
    if kind == "trip":
        a = SixTuple(*spec["a"])
        b = torus_apply(TorusElement(*spec["q"]), a)
        return [outcome(lambda: b), outcome(lambda: rescaling_solve(a, b)),
                outcome(lambda: reconstruct(b))]
    if kind == "other":
        a, b = SixTuple(*spec["a"]), SixTuple(*spec["b"])
        return [outcome(lambda: rescaling_solve(a, b))]
    t = SixTuple(*spec["t"])
    return [outcome(lambda: is_on_quadric(t, TOL)), outcome(lambda: rescaling_solve(t, t)),
            outcome(lambda: reconstruct(t))]


def orbit_lines(gen) -> list[str]:
    lines = []
    for seed in SEEDS:
        rng = gen.stream("orbit", seed)
        for _ in range(ROUNDS):
            for spec in gen.orbit_round(rng):
                lines += op_lines(spec)
    return lines


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import gen

    return gen


def test_orbit_outputs_match_digest(gen):
    lines = orbit_lines(gen)
    assert len(lines) == len(SEEDS) * ROUNDS * 50
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
