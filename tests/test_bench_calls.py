"""The benchmark can still call the package: one traced round of `sweep` and `orbit`.

`bench/workloads.py` calls the package by name and patches some of its
functions and methods to time them (see `workloads.calls` and
`workloads.instrument`).  This runs one round of each in-process workload
with those patches on and every check of `bench/checker.py`, so a change
that removes a name the benchmark uses fails here, not only in the slow
`bench/test_smoke.py`.  Every call name the traced run reports on
(`run.SWEEP_CALLS`, `run.ORBIT_CALLS`) must record a span: the traced run
takes a median over the operations that called each one.  The traced run
also times `import threeterm.cli` and requires numpy in it; that probe runs
here too.
"""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import spans
    import workloads

    return run, spans, workloads


@pytest.mark.parametrize("name", ["sweep", "orbit"])
def test_one_traced_round(bench, name):
    run, spans, workloads = bench
    prog = workloads.load_program(ROOT / "src")
    tracer = spans.Tracer()
    api = workloads.calls(prog, tracer)
    workloads.instrument(tracer, prog)
    try:
        workload = workloads.make(name, 1, prog, api, ROOT / "src")
        failed = 0
        for spec in workload.next_round():
            failed += workload.check(spec, workload.op(spec))
    finally:
        tracer.restore()
    assert failed == 0
    assert tracer.spans and None not in tracer.spans
    reported = run.SWEEP_CALLS if name == "sweep" else run.ORBIT_CALLS
    assert set(reported) <= {span[1] for span in tracer.spans}


def test_import_probe(bench):
    # The traced run reads `import threeterm.cli` from -X importtime and
    # requires a numpy line in it; a tree whose start-up drops numpy fails here.
    run, _, _ = bench
    import_ms, numpy_ms = run.import_times(reps=1)
    assert import_ms > 0 and numpy_ms > 0
