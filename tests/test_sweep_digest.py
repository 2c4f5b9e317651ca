"""The library's sweep path, pinned: one digest of its outputs on seeded inputs.

The inputs are `bench/gen.config` configurations, the benchmark's `sweep`
stream.  Every second one has its first half-angle moved to 0 or its last to
pi, the two ends of the range: boundary angles 0 and 2*pi, which are the
same point, so the fourth horocycle takes the wrapped tangency point (1, 0).
Each configuration contributes `build_report`'s JSON (sorted keys, so every
float as repr prints it) and `render_svg`'s document, or, for one the moves
made invalid, the rejection's type and message.  Like `test_orbit_digest.py`,
the digest was taken from the code before a rewrite and must not move with
it.  Regenerate it only for a deliberate change of output, printing
`sweep_digest()`.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from threeterm.cli import build_report
from threeterm.errors import ConfigurationError
from threeterm.measurements import ConcyclicConfig
from threeterm.svg import render_svg

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (9001, 9002)
PER_SEED = 500
TOL = 1e-10
DIGEST = "9efb9d22a3205c6be73309c8737a36aac184074de13ee0e3e21a902a54b7f0e9"


def sweep_digest(gen) -> tuple[str, int]:
    """The SHA-256 over every configuration's outputs, and how many moved to an end were valid."""
    digest, ends = hashlib.sha256(), 0
    for seed in SEEDS:
        rng = gen.stream("sweep", seed)
        for k in range(PER_SEED):
            alpha, r = gen.config(rng)
            if k % 4 == 1:
                alpha = (0.0, *alpha[1:])
            elif k % 4 == 3:
                alpha = (*alpha[:3], math.pi)
            try:
                cfg = ConcyclicConfig(alpha, r)
            except ConfigurationError as exc:
                digest.update(f"{type(exc).__name__}|{exc}\n".encode())
                continue
            ends += k % 2
            digest.update(json.dumps(build_report(cfg, TOL), sort_keys=True).encode())
            digest.update(render_svg(cfg).encode())
    return digest.hexdigest(), ends


@pytest.fixture
def gen(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import gen

    return gen


def test_sweep_outputs_match_digest(gen):
    digest, ends = sweep_digest(gen)
    assert ends >= len(SEEDS) * PER_SEED // 4
    assert digest == DIGEST
