"""Set-up probe for the in-process workloads.

Run as `python3 bench/probe.py <sweep|orbit> <seed> <src>` in a fresh
interpreter.  It loads the package from `src` and builds the workload on the
seed, as the timed loop does, runs the workload's first operation (the same
one the timed loop starts with and checks) and records
`time.perf_counter_ns()` at its end.  That clock is CLOCK_MONOTONIC, shared
with the parent, which subtracts the moment it started this process.

It then runs the following operations up to RSS_OPS in all, so that its
peak resident memory, which it reports at exit through hwm/sitecustomize.py,
covers a fixed amount of the program's work.  Last it prints the recorded
time.
"""

import sys
import time

RSS_OPS = 40


def main() -> None:
    workload, seed, src = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    if workload not in ("sweep", "orbit"):
        sys.exit(f"no probe for workload {workload!r}")
    import workloads

    prog = workloads.load_program(src)
    wl = workloads.make(workload, seed, prog, workloads.calls(prog), src)
    pending = wl.next_round()
    wl.op(pending.pop(0))
    end = time.perf_counter_ns()
    for _ in range(RSS_OPS - 1):
        if not pending:
            pending = wl.next_round()
        wl.op(pending.pop(0))
    print(end)


if __name__ == "__main__":
    main()
