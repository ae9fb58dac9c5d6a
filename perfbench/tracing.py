"""Outside-in spans around the public boundaries of the vspc modules.

The tracer replaces module and class attributes with timing wrappers; nothing
under src/ is edited.  Each span records its name, start, end, parent (the
index of the enclosing span in `spans`) and the trace id of the operation it
belongs to.  Spans stay in memory until `dump` writes them out, one JSON
object per line, in `spans` order.  A wrapped boundary that a later version of the
program stops calling simply reads zero calls.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

COUNTERS = ("bytes", "points")   # span attributes that add up across calls


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace_id = None
        self.active = False
        self._stack = []
        self._restore = []

    def _traced(self, fn, name_of, describe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = {"name": name_of(args) if callable(name_of) else name_of,
                    "trace": tracer.trace_id,
                    "parent": tracer._stack[-1] if tracer._stack else None}
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
            if describe is not None:
                span.update(describe(args, result))
            return result

        return traced

    def wrap(self, owner, attr, name_of, describe=None):
        """Replace owner.attr by a traced version until `restore` is called.

        A missing attribute is skipped: the boundary then reads zero calls.
        """
        original = vars(owner).get(attr)    # the class's own function, not a bound method
        if original is None:
            return
        setattr(owner, attr, self._traced(original, name_of, describe))
        self._restore.append((owner, attr, original))

    def wrap_callable(self, fn, name, describe=None):
        """A traced copy of fn, for callables the program receives as arguments."""
        return self._traced(fn, name, describe)

    def restore(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self, trace_id):
        """Per span name in one trace: calls, total ms, self ms and summed counters."""
        child_s = defaultdict(float)
        for s in self.spans:
            if s["trace"] == trace_id and s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if s["trace"] != trace_id:
                continue
            agg = out[s["name"]]
            agg["calls"] += 1
            agg["ms"] += 1e3 * (s["end"] - s["start"])
            agg["self_ms"] += 1e3 * (s["end"] - s["start"] - child_s[i])
            for key in COUNTERS:
                agg[key] += s.get(key, 0)
        return out

    def values(self, trace_id, name, key):
        return [s[key] for s in self.spans if s["trace"] == trace_id and s["name"] == name]

def install(tracer, vspc):
    """Wrap every public boundary the per-layer metrics are read from."""
    cli, diagnostics, exact, flowmap, solver = (
        vspc.cli, vspc.diagnostics, vspc.exact, vspc.flowmap, vspc.solver)
    snapshot_bytes = lambda args, result: {"bytes": os.path.getsize(args[0])}
    for owner in (solver, cli):
        tracer.wrap(owner, "simulate", "solver.simulate")
    tracer.wrap(solver, "adaptive_dt", "solver.adaptive_dt")
    tracer.wrap(diagnostics, "record", "diagnostics.record")
    for owner in (diagnostics, cli):
        tracer.wrap(owner, "certificate_bundle", "diagnostics.certificate_bundle")
    tracer.wrap(cli, "write_records_csv", "diagnostics.write_records_csv")
    tracer.wrap(cli, "read_records_csv", "diagnostics.read_records_csv")
    tracer.wrap(cli, "write_snapshot", "fields.write_snapshot", snapshot_bytes)
    tracer.wrap(cli, "read_snapshot", "fields.read_snapshot")
    tracer.wrap(cli, "parse_run_config", "cli.parse_run_config")
    tracer.wrap(cli, "cmd_run", "cli.run")
    tracer.wrap(cli, "cmd_criterion_report", "cli.criterion_report")
    tracer.wrap(exact, "manufactured", "exact.manufactured")
    tracer.wrap(flowmap.SnapshotSampler, "add", lambda a: f"flowmap.add.{a[0].method}")
    tracer.wrap(flowmap.SnapshotSampler, "sample", lambda a: f"flowmap.sample.{a[0].method}",
                lambda args, result: {"points": len(result[0])})
    tracer.wrap(flowmap, "evolve_jacobian",
                lambda a: f"flowmap.evolve_jacobian.{a[1].method}")
    tracer.wrap(flowmap, "compare_with_eulerian", "flowmap.compare")
