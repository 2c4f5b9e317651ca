"""Benchmark of threeterm: end-to-end metrics per workload, or per-layer metrics when traced.

    python3 bench/run.py --workload {sweep,orbit,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from `src/`.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  `--smoke` runs every workload for a
few operations, untraced and traced, with every check on.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checker
import hostspeed
import workloads
from spans import Tracer, median_over_ops, per_op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep", "orbit", "cli")
# Each run makes at least this many operations, so that its 90th percentile
# has ten samples beyond it.
MIN_OPS = 100
# Set-up is measured this many times per run, after one warm-up, at even
# intervals across the timed phase (between rounds, so no op overlaps a
# probe), and the median reported.
SETUP_REPS = 15
SWEEP_LAYERS = ("cli", "measurements", "horocycles", "models", "svg")
ORBIT_LAYERS = ("relations", "grassmann")
SWEEP_CALLS = ("measurements.config", "measurements.measure_all", "measurements.bitangent_direct",
               "measurements.lambda_minkowski", "horocycles.horocycle", "horocycles.lambda_length",
               "relations.relative_residual", "cli.build_report", "svg.render")
ORBIT_CALLS = ("relations.torus_apply", "relations.rescaling_solve", "relations.is_on_quadric",
               "grassmann.matrix", "grassmann.minors", "grassmann.reconstruct")
CLI_SUBCOMMANDS = ("measure", "rescale", "plucker_minors", "plucker_reconstruct", "render",
                   "crossratio")


def child_env() -> dict:
    return workloads.child_env(SRC)


def make(name, seed, prog, api):
    return workloads.make(name, seed, prog, api, SRC, str(OUT / f"cli-{os.getpid()}"))


def pct(values, q):
    """The q-th percentile (q in 1..99) of the values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ------------------------------------------------------------------ set-up

def setup_once(name, seed) -> float:
    """Seconds from starting a fresh interpreter to the end of the workload's first op.

    Scaled to the nominal host speed by a reference start taken just after
    the probe (see hostspeed.py).
    """
    env = child_env()
    if name == "cli":
        wl = workloads.Cli(seed, None, SRC, str(OUT / f"setup-{os.getpid()}"))
        spec = wl.next_round()[0]
        t0 = time.perf_counter_ns()
        proc = subprocess.run(wl.command(spec[1]), capture_output=True, text=True, env=env,
                              timeout=workloads.CHILD_TIMEOUT_S)
        elapsed = time.perf_counter_ns() - t0
        ref = hostspeed.start_time()
        wl.check(spec, proc)
        return hostspeed.scale_start(elapsed * 1e-9, ref)
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), name, str(seed), str(SRC)]
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=workloads.CHILD_TIMEOUT_S)
    ref = hostspeed.start_time()
    checker.require(proc.returncode == 0, f"set-up probe failed: {proc.stderr}")
    return hostspeed.scale_start((int(proc.stdout.split()[-1]) - t0) * 1e-9, ref)


class SetupProbes:
    """Fresh-interpreter set-up times, spread evenly over `seconds`."""

    def __init__(self, name, seed, reps, seconds):
        self.name, self.seed, self.reps, self.seconds = name, seed, reps, seconds
        self.times, self.errors = [], []
        self._once()  # warm the bytecode and file caches

    def _once(self) -> float:
        try:
            return setup_once(self.name, self.seed)
        except checker.CheckError as exc:
            self.errors.append(f"{self.name} set-up: {exc}")
            return float("nan")

    def __call__(self, elapsed):
        if len(self.times) < self.reps and elapsed >= len(self.times) * self.seconds / self.reps:
            self.times.append(self._once())

    def median(self) -> float:
        while len(self.times) < self.reps:
            self.times.append(self._once())
        return statistics.median(self.times)


def peak_rss_mib(hwm_file) -> float:
    """The largest peak RSS among the children: the set-up probes, and for `cli` every op.

    Each probe runs a fixed number of operations, so the figure does not
    grow with the op count of the timed loop, whose bookkeeping lives in
    this process.
    """
    with open(hwm_file, encoding="ascii") as fh:
        return max(int(line) for line in fh) / 1024.0


# ------------------------------------------------------------ end to end

def end_to_end(name, seed, seconds, min_ops=MIN_OPS, setup_reps=SETUP_REPS):
    hwm_file = OUT / f"hwm-{os.getpid()}.txt"
    hwm_file.unlink(missing_ok=True)
    os.environ["BENCH_HWM_FILE"] = str(hwm_file)
    probes = SetupProbes(name, seed, setup_reps, seconds)
    prog = workloads.load_program(SRC)
    wl = make(name, seed, prog, workloads.calls(prog))
    refs = []
    raw, attempted, failed, errors, _ = workloads.run_pass(wl, seconds, min_ops,
                                                           between=probes, refs=refs)
    times = hostspeed.scale(raw, refs, wl.half_window, wl.nominal_ns)
    setup = probes.median()
    rss = peak_rss_mib(hwm_file)
    del os.environ["BENCH_HWM_FILE"]
    errors += probes.errors + finish(wl)
    metrics = {
        "ops_per_s": (len(times) / (sum(times) * 1e-9), "op/s"),
        "op_p50_us": (statistics.median(times) * 1e-3, "us"),
        "op_p90_us": (pct(times, 90) * 1e-3, "us"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    return attempted, failed, errors, metrics


def finish(wl):
    try:
        wl.finish()
    except checker.CheckError as exc:
        return [f"{wl.name}: {exc}"]
    return []


# ----------------------------------------------------------------- traced

def probe_times(cmd, reps):
    out = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=workloads.CHILD_TIMEOUT_S)
        out.append((time.perf_counter_ns() - t0, proc))
        checker.require(proc.returncode == 0, f"{cmd} failed: {proc.stderr}")
    return out


def import_times(reps=3):
    """(cumulative import of threeterm.cli, numpy's part of it) in ms, from -X importtime."""
    totals, numpy = [], []
    cmd = [sys.executable, "-X", "importtime", "-c", "import threeterm.cli"]
    for _, proc in probe_times(cmd, reps):
        total = numpy_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, module = int(parts[1]), parts[2]
            if module.startswith(" threeterm"):  # top level: one space after the bar
                total += cumulative
            if module.strip() == "numpy" and not numpy_us:
                numpy_us = cumulative
        checker.require(total > 0 and numpy_us > 0, "no threeterm or numpy line in -X importtime")
        totals.append(total * 1e-3)
        numpy.append(numpy_us * 1e-3)
    return statistics.median(totals), statistics.median(numpy)


def cli_main_probes(wl, tracer, api, rounds):
    """In-process `cli.main(argv)` with output captured, checked like a child's."""
    for _ in range(rounds):
        for spec in wl.next_round():
            tracer.op += 1
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = api.main(spec[1])
            wl.check(spec, SimpleNamespace(returncode=code, stdout=out.getvalue(),
                                           stderr=err.getvalue()))


def traced(name, seed, seconds, cli_rounds=2, main_rounds=10):
    """Per-layer metrics: traced passes of every workload, plus `name` untraced for the overhead."""
    share = seconds / 4.0
    OUT.mkdir(exist_ok=True)
    prog = workloads.load_program(SRC)
    plain = make(name, seed, prog, workloads.calls(prog))
    base_refs = []
    base_raw, attempted, failed, errors, _ = workloads.run_pass(plain, share, 1, refs=base_refs)
    errors += finish(plain)
    base_times = hostspeed.scale(base_raw, base_refs, plain.half_window, plain.nominal_ns)

    tracer = Tracer()
    # The direct calls are wrapped before the internal call sites are
    # patched, so a direct call of a patched function records one span.
    api = workloads.calls(prog, tracer)
    workloads.instrument(tracer, prog)
    passes = {}
    try:
        for wname in WORKLOADS:
            wl = make(wname, seed, prog, api)
            span_name = (lambda spec: f"cli.wall.{spec[0]}") if wname == "cli" else None
            min_ops = cli_rounds * len(workloads.gen.CLI_ROUND) if wname == "cli" else 1
            refs = [] if wname == name else None
            times, att, fail, errs, ops = workloads.run_pass(
                wl, share, min_ops, tracer=tracer, max_ops=2000, span_name=span_name, refs=refs)
            errors += errs + finish(wl)
            passes[wname] = SimpleNamespace(wl=wl, times=times, ops=ops)
            if wname == name:
                attempted += att
                failed += fail
                traced_times = hostspeed.scale(times, refs, wl.half_window, wl.nominal_ns)
        main_ops_start = tracer.op
        cli_main_probes(passes["cli"].wl, tracer, api, main_rounds)
        main_ops = range(main_ops_start + 1, tracer.op + 1)
    except checker.CheckError as exc:
        errors.append(f"traced: {exc}")
        return attempted, failed, errors, {}
    finally:
        tracer.restore()
    tracer.dump(OUT / f"spans-{name}.jsonl")

    metrics = {}
    sweep, orbit, cli = passes["sweep"], passes["orbit"], passes["cli"]
    # Orbit's figures are medians over its round trips: the cheaper rejections
    # are 11 of its 20 operations and would otherwise set every median.
    orbit_round = workloads.gen.ORBIT_ROUND
    trips = [op for i, op in enumerate(orbit.ops) if orbit_round[i % len(orbit_round)][0] == "trip"]
    for ops, names, layers in ((sweep.ops, SWEEP_CALLS, SWEEP_LAYERS),
                               (trips, ORBIT_CALLS, ORBIT_LAYERS)):
        incl, calls, self_ns = per_op(tracer.spans, set(ops))
        for n in names:
            used = [op for op in ops if calls[op].get(n)]
            metrics[f"{n}_us"] = (median_over_ops(incl, n, used), "us")
        for layer in layers:
            metrics[f"{layer}.self_us"] = (median_over_ops(self_ns, layer, ops), "us")
        if ops is sweep.ops:
            metrics["models.minkowski_vec_count"] = (
                median_over_ops(calls, "models.MinkowskiVec", ops, scale=1), "count")
    metrics["svg.document_bytes"] = (statistics.median(sweep.wl.doc_bytes), "B")

    incl, _, _ = per_op(tracer.spans, set(main_ops))
    metrics["cli.build_parser_us"] = (median_over_ops(incl, "cli.build_parser", main_ops), "us")
    metrics["cli.main_us"] = (median_over_ops(incl, "cli.main", main_ops), "us")
    by_sub = {}
    for spec_sub, t in zip(cli.wl.history, cli.times):
        by_sub.setdefault(spec_sub, []).append(t)
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.wall.{sub}_ms"] = (statistics.median(by_sub[sub]) * 1e-6, "ms")
    import_ms, numpy_ms = import_times()
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.import_numpy_ms"] = (numpy_ms, "ms")
    bare = probe_times([sys.executable, "-c", "pass"], 5)
    metrics["cli.interpreter_ms"] = (statistics.median(t for t, _ in bare) * 1e-6, "ms")

    # Both passes scaled to the nominal host speed, since they run ten seconds apart.
    base, with_spans = statistics.median(base_times), statistics.median(traced_times)
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - base) / base, "%")
    return attempted, failed, errors, metrics


# ------------------------------------------------------------------- main

def result_line(attempted, failed, errors, metrics) -> str:
    return json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def smoke() -> int:
    """Every workload for a few operations, untraced and traced, every check on.

    Also checks that the metric names match BENCHMARK.json, when it is there.
    """
    workloads.MP_EVERY = 1
    spec_file = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_file.read_text()) if spec_file.is_file() else None
    few = {"sweep": 20, "orbit": 40, "cli": 8}
    runs = [(name, 0, end_to_end(name, 1, 0.0, min_ops=few[name], setup_reps=1))
            for name in WORKLOADS]
    runs.append(("orbit", 1, traced("orbit", 1, 0.0, cli_rounds=1, main_rounds=1)))
    bad = False
    for name, trace, (attempted, failed, errors, metrics) in runs:
        for line in errors:
            print(line, file=sys.stderr)
        if spec is not None:
            want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if set(metrics) != want:
                errors.append(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ want)}")
                print(errors[-1], file=sys.stderr)
        bad = bad or bool(errors)
        print(f"smoke {name} trace={trace}: " + result_line(attempted, failed, errors, metrics))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "threeterm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'threeterm'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        try:
            return smoke()
        finally:
            cleanup()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        run = traced if args.trace else end_to_end
        attempted, failed, errors, metrics = run(args.workload, args.seed, args.seconds)
    finally:
        cleanup()
    for line in errors[:20]:
        print(line, file=sys.stderr)
    print(result_line(attempted, failed, errors, metrics))
    return 0


def cleanup() -> None:
    for pattern in ("cli-*", "setup-*", "hwm-*"):
        for path in OUT.glob(pattern):
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
