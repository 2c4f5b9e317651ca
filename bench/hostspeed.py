"""Host-speed references: fixed work timed beside every operation.

The shared host switches between a slow and a fast state (the same work
takes about 0.6x the time in the fast one) in spells of 0.1 s to minutes,
longer than a run.  A quantile of raw op times then jumps between the two
states' values as the fast share of a run crosses its rank.  So each timed
operation is preceded, outside its timer, by a reference that shares no
code with the program, and the op's time is scaled by the reference's
nominal time over its median time in a window of neighbouring ops: the
op's time on a host on which the reference takes its nominal time (about
its median on this machine).  A change to the program moves the scaled
times as it moves the raw ones; a change of the host's state moves both
the op and the reference and cancels.

Two references, each of the same kind of work as the ops it scales:
- `kernel_time`, plain Python like the program's (float math, small objects
  with attributes, string formatting, a dict), for in-process ops;
- `start_time`, a fresh interpreter importing numpy (a dependency, not the
  program), for process starts: the `cli` ops and the set-up probes, whose
  time is mostly interpreter start and imports, numpy's above all.  The
  in-process kernel does not track these: its time halved and doubled
  between set-up probes whose time stayed within 10%.  Nor does a start
  importing only stdlib modules: numpy's import and the `cli` ops slowed
  by a third over some minutes while such a start kept its time.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time

# Nominal reference times (ns), about their medians on this machine: scaled
# times are op times on a host where the references take this long.
KERNEL_NS = 100_000
START_NS = 200_000_000
START_CMD = (sys.executable, "-c", "import numpy")
# Without the peak-memory hook: the reference is not the program.
_START_ENV = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "BENCH_HWM_FILE")}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y


def kernel():
    acc = 0.0
    pts = []
    for i in range(110):
        p = _Point(math.sin(i * 0.1), math.sqrt(i + 1.0))
        pts.append(p)
        acc += p.x * p.y
    text = ",".join(f"{p.x:.3f}" for p in pts[:30])
    return acc, len(text), {i: p for i, p in enumerate(pts)}


def kernel_time() -> int:
    """Time (ns) of one kernel run."""
    t0 = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - t0


def start_time() -> int:
    """Time (ns) of one reference interpreter start."""
    t0 = time.perf_counter_ns()
    subprocess.run(START_CMD, env=_START_ENV, capture_output=True, check=True, timeout=60)
    return time.perf_counter_ns() - t0


def scale(times, refs, half_window, nominal_ns):
    """Op times scaled to the nominal host speed.

    `refs[i]` is the reference time taken just before op i, or None; op i is
    scaled by the median of those of ops i-half_window .. i+half_window.
    """
    n = len(times)
    out = []
    for i, t in enumerate(times):
        window = refs[max(0, i - half_window):min(n, i + half_window + 1)]
        local = statistics.median([r for r in window if r is not None])
        out.append(t * nominal_ns / local)
    return out


def scale_start(seconds: float, ref_ns: int) -> float:
    """A process-start timing (s) scaled by a start reference taken beside it."""
    return seconds * START_NS / ref_ns
