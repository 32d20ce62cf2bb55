"""In-memory span tracer wrapped around the package's public functions.

``Tracer.install`` replaces every public function of the measured modules
by a wrapper, both in the module that defines it and wherever another
``branchlink`` module imported it by name.  While the tracer is active each
call records a span ``[name, parent, start, end, input]``; spans stay in
memory until the run writes them out.  A layer's self time is its span's
duration minus the time its child spans cover.

A few wrappers also record exact size counters from their arguments or
results (``COUNTERS``); counting is switched on only for a fixed, seeded
set of inputs, so the counters repeat exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# name -> (counter, how to read it from (args, result), how to aggregate)
COUNTERS = {
    "plumbing.assemble_full_resolution": [("plumbing.vertices", lambda a, r: r.n, "sum")],
    "detcalc.build_intersection_matrix": [("detcalc.dimA", lambda a, r: r.n, "sum")],
    "qres.compute_qresolution": [("qres.census_points", lambda a, r: len(r.census), "sum")],
    "plumbing.h1_link": [("plumbing.h1_link.matrix_dim", lambda a, r: a[0].n, "sum")],
    "splice.splice_from_plumbing": [
        ("splice.cut_pieces", lambda a, r: len(r.weights), "sum"),
        ("splice.max_weight", lambda a, r: max(r.weights.values()), "max"),
    ],
}
COUNTER_NAMES = [c for specs in COUNTERS.values() for c, _, _ in specs]


class Tracer:
    def __init__(self, modules):
        """``modules`` maps a short layer name to the module it measures."""
        self.modules = dict(modules)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active = False
        self.counting = False
        self.input_id = None
        self.counters = {name: 0 for name in COUNTER_NAMES}
        self.counter_errors: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: list[str] = []

    def public_functions(self):
        for short, mod in self.modules.items():
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    yield f"{short}.{attr}", fn

    def install(self) -> None:
        originals = {}
        for name, fn in self.public_functions():
            originals[id(fn)] = self._wrap(name, fn)
            self.wrapped.append(name)
        targets = {id(mod): mod for mod in self.modules.values()}
        for key, mod in list(sys.modules.items()):
            if mod is not None and (key == "branchlink" or key.startswith("branchlink.")):
                targets[id(mod)] = mod
        for mod in targets.values():
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, self.stack[-1] if self.stack else -1, clock(), 0.0, self.input_id]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                self.stack.pop()
            if self.counting:
                for counter, read, how in counters:
                    self._count(counter, read, how, args, result)
            return result

        return wrapper

    def _count(self, counter, read, how, args, result) -> None:
        try:
            value = read(args, result)
        except (AttributeError, TypeError, ValueError, IndexError):
            self.counter_errors.add(counter)
            return
        if how == "max":
            self.counters[counter] = max(self.counters[counter], value)
        else:
            self.counters[counter] += value

    @contextmanager
    def span(self, name: str, input_id):
        """A root span around one input's traced pass."""
        self.input_id = input_id
        self.stack.clear()
        rec = [name, -1, time.perf_counter(), 0.0, input_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.active = True
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self.active = False
            self.stack.clear()

    def table(self) -> dict[str, dict]:
        """Per-name calls, total seconds and self seconds over all spans."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for i, (name, _, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[i]
        return out
