"""Peak-memory hook for the benchmark's child processes.

The benchmark puts this directory on PYTHONPATH of every process that runs
the program, so Python imports this module at start-up.  When
BENCH_HWM_FILE names a file, the process appends its peak resident set
size (VmHWM, KiB) to it at exit.  VmHWM counts only this process's own
address space; `ru_maxrss` would also count the parent's, which a child
inherits up to its exec.  Without the variable the hook does nothing.
"""

import atexit
import os

_PATH = os.environ.get("BENCH_HWM_FILE")


def _report() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(_PATH, "a", encoding="ascii") as out:
                    out.write(line.split()[1] + "\n")
                return


if _PATH:
    atexit.register(_report)
