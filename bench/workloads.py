"""The three workloads: seeded operations, the program calls they time, and their checks.

Each workload yields whole rounds of operations.  `op` is the timed part
and calls only the program; `check` runs afterwards, untimed, against
`checker`, and returns 1 for an operation of the known failing slice, else
0.  Any other disagreement raises `checker.CheckError`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import checker
import gen
import hostspeed
from checker import CheckError, require

TOL = 1e-10
# Every 64th sweep configuration is also checked against mpmath at 50 digits.
MP_EVERY = 64
CHILD_TIMEOUT_S = 60


# Put on PYTHONPATH of every child that runs the program: see hwm/sitecustomize.py.
HWM_HOOK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hwm")


def child_env(src) -> dict:
    """Environment of a child process that imports the package from `src`."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join((HWM_HOOK, str(src))))


def load_program(src):
    """Import the package from `src` (a source tree, not an installed copy)."""
    sys.path.insert(0, str(src))
    from threeterm import cli, errors, grassmann, horocycles, measurements, models, relations, svg

    return SimpleNamespace(cli=cli, errors=errors, grassmann=grassmann, horocycles=horocycles,
                           measurements=measurements, models=models, relations=relations, svg=svg)


def calls(prog, tracer=None):
    """The program entry points the operations call, wrapped in spans when traced."""
    entries = {
        "config": ("measurements.config", prog.measurements.ConcyclicConfig),
        "build_report": ("cli.build_report", prog.cli.build_report),
        "render_svg": ("svg.render", prog.svg.render_svg),
        "torus_apply": ("relations.torus_apply", prog.relations.torus_apply),
        "rescaling_solve": ("relations.rescaling_solve", prog.relations.rescaling_solve),
        "is_on_quadric": ("relations.is_on_quadric", prog.relations.is_on_quadric),
        "reconstruct": ("grassmann.reconstruct", prog.grassmann.reconstruct),
        "minors": ("grassmann.minors", prog.grassmann.minors),
        "main": ("cli.main", prog.cli.main),
    }
    if tracer is None:
        return SimpleNamespace(**{k: fn for k, (_, fn) in entries.items()})
    return SimpleNamespace(**{k: tracer.wrap(name, fn) for k, (name, fn) in entries.items()})


def instrument(tracer, prog) -> None:
    """Wrap the calls the program makes internally, where it looks them up."""
    sites = [
        (prog.cli, "measure_all", "measurements.measure_all"),
        (prog.cli, "bitangent_direct", "measurements.bitangent_direct"),
        (prog.cli, "lambda_minkowski", "measurements.lambda_minkowski"),
        (prog.cli, "relative_residual", "relations.relative_residual"),
        (prog.cli, "build_parser", "cli.build_parser"),
        (prog.measurements.ConcyclicConfig, "horocycle", "horocycles.horocycle"),
        (prog.measurements, "lambda_length", "horocycles.lambda_length"),
        (prog.models.MinkowskiVec, "__post_init__", "models.MinkowskiVec"),
        (prog.models.LightConePoint, "__post_init__", "models.LightConePoint"),
        (prog.models.BoundaryPoint, "__post_init__", "models.BoundaryPoint"),
        (prog.relations, "is_on_quadric", "relations.is_on_quadric"),
        (prog.grassmann, "is_on_quadric", "relations.is_on_quadric"),
        (prog.grassmann.Matrix2x4, "__post_init__", "grassmann.matrix"),
    ]
    for owner, attr, name in sites:
        tracer.patch(owner, attr, name)


def make(name, seed, prog, api, src, workdir=None):
    """The workload `name` on seed `seed`; `workdir` holds the `cli` workload's input files."""
    if name == "sweep":
        return Sweep(seed, prog, api)
    if name == "orbit":
        return Orbit(seed, prog, api)
    return Cli(seed, prog, src, workdir)


class Sweep:
    """Validate a configuration, build its full report, render it."""

    name = "sweep"
    # The host-speed reference run before each op, its nominal time, and the
    # ops on each side whose reference times scale an op (see hostspeed.py):
    # about 50 ms of the loop.
    reference, nominal_ns, half_window = staticmethod(hostspeed.kernel_time), hostspeed.KERNEL_NS, 16

    def __init__(self, seed, prog, api):
        self.rng = gen.stream("sweep", seed)
        self.prog, self.api = prog, api
        self.index = 0
        self.mp_samples = []
        self.doc_bytes = []

    def next_round(self):
        return [gen.config(self.rng)]

    def op(self, spec):
        cfg = self.api.config(*spec)
        return cfg, self.api.build_report(cfg, TOL), self.api.render_svg(cfg)

    def check(self, spec, out) -> int:
        alpha, r = spec
        cfg, report, document = out
        checker.check_report(report, alpha, r, TOL)
        checker.check_svg(document, alpha, r, report["measurements"]["t"])
        require(self.prog.svg.render_svg(cfg) == document, "second render differs")
        self.doc_bytes.append(len(document.encode("utf-8")))
        if self.index % MP_EVERY == 0:
            self.mp_samples.append((report, alpha, r))
        self.index += 1
        return 0

    def finish(self) -> None:
        """Deferred 50-digit checks (mpmath is imported only after the timed phase)."""
        for sample in self.mp_samples:
            checker.mp_reference(*sample)


class Orbit:
    """Rescale, solve back, rebuild a matrix; reject other orbits and off-quadric tuples."""

    name = "orbit"
    reference, nominal_ns, half_window = staticmethod(hostspeed.kernel_time), hostspeed.KERNEL_NS, 16

    def __init__(self, seed, prog, api):
        self.rng = gen.stream("orbit", seed)
        self.prog, self.api = prog, api
        self.SixTuple = prog.relations.SixTuple
        self.TorusElement = prog.relations.TorusElement
        self.errors = prog.errors

    def next_round(self):
        return gen.orbit_round(self.rng)

    def op(self, spec):
        api, kind = self.api, spec["kind"]
        if kind == "trip":
            a = self.SixTuple(*spec["a"])
            b = api.torus_apply(self.TorusElement(*spec["q"]), a)
            q = api.rescaling_solve(a, b)
            m = api.reconstruct(b)
            return b, q, m, api.minors(m)
        if kind == "other":
            try:
                return api.rescaling_solve(self.SixTuple(*spec["a"]), self.SixTuple(*spec["b"]))
            except self.errors.NotSameOrbitError as exc:
                return exc
        t = self.SixTuple(*spec["t"])
        outcomes = [api.is_on_quadric(t, TOL)]
        for solve in (lambda: api.rescaling_solve(t, t), lambda: api.reconstruct(t)):
            try:
                outcomes.append(solve())
            except self.errors.OffQuadricError as exc:
                outcomes.append(exc)
        return outcomes

    def check(self, spec, out) -> int:
        kind = spec["kind"]
        if kind == "trip":
            b, q, m, p = out
            checker.check_round_trip(spec["a"], spec["q"], b.values(), q.values(),
                                     m.rows.tolist(), p.values())
            return 0
        if kind == "other":
            require(isinstance(out, self.errors.NotSameOrbitError),
                    f"different orbits accepted: {spec}")
            checker.close(out.invariant_a, gen.invariant(spec["a"]), 1e-9, "invariant a")
            checker.close(out.invariant_b, gen.invariant(spec["b"]), 1e-9, "invariant b")
            return 0
        t = spec["t"]
        rejected = out[0] is False and all(
            isinstance(o, self.errors.OffQuadricError) for o in out[1:])
        if not rejected:
            # Only the fixed tiny-scale tuple may be accepted (the known fault).
            require(kind == "fixed", f"off-quadric tuple accepted: {t} -> {out}")
            return 1
        mono = (t[0] * t[5], t[2] * t[3], t[1] * t[4])
        want = checker.fsum_residual(t) * max(abs(v) for v in mono)
        for exc in out[1:]:
            checker.close(abs(exc.residual), want, 0.0, "OffQuadricError.residual",
                          atol=4 * checker.EPS * sum(abs(v) for v in mono))
        return 0

    def finish(self) -> None:
        pass


def _num(v):
    return [v.real, v.imag] if isinstance(v, complex) else v


class Cli:
    """One fresh `python -m threeterm.cli` process per operation, one at a time."""

    name = "cli"
    # An op is a process start.  A reference start (about as long as an op)
    # is made before every REF_EVERY-th op; an op is scaled by the two or
    # three made within half_window ops of it, about three seconds of the loop.
    REF_EVERY = 4
    nominal_ns, half_window = hostspeed.START_NS, REF_EVERY

    def __init__(self, seed, prog, src, workdir):
        self.rng = gen.stream("cli", seed)
        self.prog = prog
        self.workdir = workdir
        self.round = 0
        self.history = []
        self.env = child_env(src)
        self.ref_calls = 0
        os.makedirs(workdir, exist_ok=True)

    def _write(self, name, doc) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def next_round(self):
        inp = gen.cli_round(self.rng, self.round)
        self.round += 1
        w = self._write
        specs = []
        alpha, r = inp["measure_concyclic"]
        doc = {"concyclic": {"alpha": list(alpha), "radii": list(r)}}
        specs.append(("measure", ["measure", w("concyclic.json", doc), "--json"],
                      checker.EXIT_OK, inp["measure_concyclic"]))
        specs.append(("measure", ["measure", w("lightcone.json", checker.lightcone_doc(
            *inp["measure_lightcone"])), "--json"], checker.EXIT_OK, inp["measure_lightcone"]))
        trip = inp["rescale"]
        b = [trip["q"][i] * trip["q"][j] * v for (i, j), v in zip(gen.PAIRS, trip["a"])]
        specs.append(("rescale", ["rescale", w("a.json", list(trip["a"])), w("b.json", b),
                                  "--json"], checker.EXIT_OK, (trip["a"], trip["q"], b)))
        x, y = inp["plucker_minors"]
        field = "complex" if isinstance(x[0], complex) else "real"
        mdoc = {"matrix": {"rows": [[_num(v) for v in x], [_num(v) for v in y]], "field": field}}
        specs.append(("plucker_minors", ["plucker", "minors", w("matrix.json", mdoc), "--json"],
                      checker.EXIT_OK, (x, y)))
        p = inp["plucker_reconstruct"]
        specs.append(("plucker_reconstruct", ["plucker", "reconstruct",
                                              w("p.json", [_num(v) for v in p]), "--json"],
                      checker.EXIT_OK, p))
        alpha, r = inp["render"]
        out = os.path.join(self.workdir, "render.svg")
        if os.path.exists(out):
            os.remove(out)
        doc = {"concyclic": {"alpha": list(alpha), "radii": list(r)}}
        specs.append(("render", ["render", w("render.json", doc), "--out", out],
                      checker.EXIT_OK, (alpha, r, out)))
        pts = inp["crossratio"]
        specs.append(("crossratio", ["crossratio", w("points.json", [list(q) for q in pts]),
                                     "--json"], checker.EXIT_OK, pts))
        a, b = inp["rescale_other_orbit"]
        specs.append(("rescale", ["rescale", w("oa.json", list(a)), w("ob.json", list(b))],
                      checker.EXIT_ORBIT, None))
        return specs

    def reference(self):
        self.ref_calls += 1
        return hostspeed.start_time() if self.ref_calls % self.REF_EVERY == 1 else None

    def command(self, argv):
        return [sys.executable, "-m", "threeterm.cli", *argv]

    def op(self, spec):
        self.history.append(spec[0])
        return subprocess.run(self.command(spec[1]), capture_output=True, text=True,
                              env=self.env, timeout=CHILD_TIMEOUT_S)

    def check(self, spec, proc) -> int:
        sub, argv, want_code, ctx = spec
        require(proc.returncode == want_code,
                f"{' '.join(argv)} exited {proc.returncode}, expected {want_code}: {proc.stderr}")
        if want_code != checker.EXIT_OK:
            require(proc.stderr.startswith("error: ") and proc.stdout == "",
                    f"{sub} failure output: {proc.stderr!r}")
            return 0
        if sub == "render":
            self._check_render(*ctx)
            return 0
        doc = json.loads(proc.stdout)
        if sub == "measure":
            checker.check_report(doc, ctx[0], ctx[1], TOL)
        elif sub == "rescale":
            a, q, b = ctx
            q_solved = [checker.scalar(v) for v in doc["q"]]
            sign = 1.0 if abs(q_solved[0] - q[0]) <= abs(q_solved[0] + q[0]) else -1.0
            for k in range(4):
                checker.close(q_solved[k], sign * q[k], checker.FAMILY_RTOL, f"rescale q{k + 1}")
            for label in checker.LABELS:
                require(doc["verification"][label]["deviation"] <= 1e-9, f"deviation {label}")
        elif sub == "plucker_minors":
            checker.check_minors_output(ctx, [checker.scalar(v) for v in doc["minors"]],
                                        checker.scalar(doc["residual"]))
        elif sub == "plucker_reconstruct":
            rows = [[checker.scalar(v) for v in row] for row in doc["rows"]]
            checker.check_rebuilt(ctx, rows)
            require(doc["max_minor_deviation"] <= checker.FAMILY_RTOL * max(abs(v) for v in ctx),
                    "max_minor_deviation")
        elif sub == "crossratio":
            checker.close(checker.scalar(doc["cross_ratio"]), checker.cross_ratio(ctx), 1e-9,
                          "cross ratio")
        return 0

    def _check_render(self, alpha, r, path):
        with open(path, encoding="utf-8", newline="") as fh:
            document = fh.read()
        t = checker.expected_families(alpha, r)["t"]
        checker.check_svg(document, alpha, r, t)
        cfg = self.prog.measurements.ConcyclicConfig(alpha, r)
        require(self.prog.svg.render_svg(cfg) == document, "cli render differs from library render")

    def finish(self) -> None:
        pass


def run_pass(workload, seconds, min_ops, tracer=None, max_ops=None, span_name=None,
             between=None, refs=None):
    """Whole rounds until `seconds` have passed and at least `min_ops` ops ran.

    `between(elapsed_s)`, if given, is called after every round, outside
    the op timers.  `refs`, if given, receives for each op the time of the
    workload's host-speed reference run just before it, or None.
    Returns (op times in ns, attempted, failed, errors, op ids).
    """
    times, errors, op_ids = [], [], []
    attempted = failed = 0
    op = workload.op
    clock = time.perf_counter_ns
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for spec in workload.next_round():
            timed = op
            if tracer is not None:
                tracer.op += 1
                op_ids.append(tracer.op)
                timed = tracer.wrap(span_name(spec) if span_name else "op", op)
            if refs is not None:
                refs.append(workload.reference())
            t0 = clock()
            try:
                out = timed(spec)
            except Exception as exc:  # an unexpected error is a wrong result
                times.append(clock() - t0)
                attempted += 1
                failed += 1
                errors.append(f"{workload.name}: {type(exc).__name__}: {exc}")
                continue
            times.append(clock() - t0)
            attempted += 1
            try:
                failed += workload.check(spec, out)
            except (CheckError, KeyError, IndexError, TypeError, ValueError) as exc:
                # A malformed output (missing key, bad JSON) is a wrong result too.
                failed += 1
                errors.append(f"{workload.name}: {type(exc).__name__}: {exc}")
        if between is not None:
            between(time.perf_counter() - start)
        done = attempted >= min_ops and time.perf_counter() >= deadline
        if done or (max_ops is not None and attempted >= max_ops):
            return times, attempted, failed, errors, op_ids
