"""In-memory spans for the traced run.

A `Tracer` wraps callables so that each call records one span
(op, name, start_ns, end_ns, parent).  Wrappers are installed at the
places the program looks its functions up (module globals and class
attributes), so nested calls inside the program are timed too; `restore()`
puts every original back.  Nothing is written until `dump()`.

A span's layer is the first dotted part of its name (`relations.is_on_quadric`
belongs to `relations`).  Its self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_op(spans, ops=None):
    """{op: {name: inclusive ns, ...}} and {op: {layer: self ns}} for the given ops."""
    children = defaultdict(int)
    for _op, _name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    incl = defaultdict(lambda: defaultdict(int))
    calls = defaultdict(lambda: defaultdict(int))
    self_ns = defaultdict(lambda: defaultdict(int))
    for idx, (op, name, start, end, _parent) in enumerate(spans):
        if ops is not None and op not in ops:
            continue
        incl[op][name] += end - start
        calls[op][name] += 1
        self_ns[op][name.split(".")[0]] += end - start - children[idx]
    return incl, calls, self_ns


def median_over_ops(table, key, ops, scale=1e-3):
    """Median over ops of table[op][key] (missing counts as 0), times scale."""
    return statistics.median(table[op].get(key, 0) for op in ops) * scale
