"""Smoke test of the benchmark: every workload for a few operations, every check on.

The package's own suite does not collect this file (its pytest testpaths is
`tests/`).  Run it from the repository root with

    python -m pytest -q bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent


def test_smoke_runs_every_workload_with_checks_on():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=BENCH.parent,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = {}
    for line in proc.stdout.splitlines():
        head, _, body = line.partition(": ")
        results[head] = json.loads(body)
    assert sorted(results) == ["smoke cli trace=0", "smoke orbit trace=0", "smoke orbit trace=1",
                               "smoke sweep trace=0"]
    round_size = len(gen.ORBIT_ROUND)
    for head, result in results.items():
        assert result["correct"], head
        assert result["metrics"], head
        # Only the orbit workload has a failing slice: one fixed tuple per round.
        if "orbit" in head:
            assert result["attempted"] % round_size == 0
            assert result["failed"] * round_size == result["attempted"]
        else:
            assert result["failed"] == 0, head


def test_without_package_source_exits_nonzero(tmp_path):
    """In a directory holding only the benchmark there is no program to run."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
