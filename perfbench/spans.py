"""In-memory span tracer that wraps cuspdim's public functions from outside.

`Tracer.install` rebinds every `cuspdim.*` module attribute that refers to
a traced function (so `flows.delta_weighted`, `covering.make_lattice` and
`cuspdim.orbit_profile` all point at the same wrapper), and `uninstall`
puts the originals back.  Nothing under `src/` is edited.  A span is
(id, name, start, end, parent, op, thread, counts); spans recorded in a
`rng.chunked_map` pool thread get the enclosing `chunked_map` span as
their parent.  Counts are derived only from arguments and return values.
"""

import contextlib
import functools
import gzip
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

TRACED_MODULES = ("lattices", "flows", "haar", "rng", "covering")
POOL_FUNCTION = "rng.chunked_map"
ROOT_SPAN = "bench.op"


def _q_evaluated(b):
    q, w = int(b["q_bound"]), b["w"]
    return q if w.n == 1 else (2 * q + 1) ** w.n - 1


def _cylinders(b):
    N, depth = int(b["N"]), int(b["depth"])
    return 0 if N == 1 else N**depth + N ** (depth - 1)


# name -> fn(bound arguments, return value) -> {counter: value}
COUNTERS = {
    "flows.orbit_profile": lambda b, r: {"t_samples": len(r.ts)},
    "flows.direct_bad_constant": lambda b, r: {"q_evaluated": _q_evaluated(b)},
    "haar.sample_batch": lambda b, r: {"accepted": int(b["count"]), "proposed": int(r[3])},
    "haar.delta2_batch": lambda b, r: {"rows": len(b["B"])},
    "haar.core_inclusion_check": lambda b, r: {"pairs": int(r.pairs)},
    "rng.chunked_map": lambda b, r: {"chunks": len(r)},
    "covering.sup_delta_flow_batch": lambda b, r: {"rows": len(b["h"])},
    "covering.survivor_cover": lambda b, r: {
        "boxes_evaluated": int(r.total_boxes) - 1,
        "boxes_kept": sum(int(lv.count) for lv in r.levels[1:]),
    },
    "covering.cf_digit_oracle": lambda b, r: {"cylinders": _cylinders(b)},
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    thread: int
    counts: dict

    @property
    def dur(self):
        return self.end - self.start


def traced_functions():
    """{function: dotted name} for cli.main and every public function of TRACED_MODULES."""
    out = {importlib.import_module("cuspdim.cli").main: "cli.main"}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"cuspdim.{short}")
        for name, obj in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                out[obj] = f"{short}.{name}"
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._bindings = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @contextlib.contextmanager
    def root(self, op):
        """The benchmark's own span around one op; program spans are recorded only inside one."""
        self.op = op
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, ROOT_SPAN, t0, t1, None, op, threading.get_ident(), {}))
            self.op = None

    def _record(self, name, fn, sig, args, kwargs, pool_arg):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        if pool_arg:
            args = (self._pool_child(args[0], sid),) + tuple(args[1:])
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span = Span(sid, name, t0, perf_counter(), parent, self.op, threading.get_ident(), {})
            stack.pop()
            self.spans.append(span)
        counter = COUNTERS.get(name)
        if counter is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts.update(counter(bound.arguments, result))
        return result

    def _pool_child(self, fn, sid):
        def child(*args):
            stack = self._stack()
            stack.append(sid)
            try:
                return fn(*args)
            finally:
                stack.pop()

        return child

    def _wrap(self, fn, name):
        pool_arg = name == POOL_FUNCTION
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # outside an op (checks, set-up): not recorded
                return fn(*args, **kwargs)
            return self._record(name, fn, sig, args, kwargs, pool_arg)

        return wrapper

    def install(self):
        targets = traced_functions()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cuspdim" or modname.startswith("cuspdim.")):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._bindings.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self):
        for mod, attr, val in reversed(self._bindings):
            setattr(mod, attr, val)
        self._bindings.clear()

    def write(self, path):
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.op, s.thread, s.counts]) + "\n")


def union_length(intervals, lo, hi):
    """Total length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{span id: duration minus the union of its children's intervals}."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.dur - union_length(children[s.id], s.start, s.end) for s in spans}


def untraced_frac(spans):
    """Share of the traced op time that no cuspdim span covers: the benchmark's own work inside its ops."""
    selfs = self_times(spans)
    ops = [s for s in spans if s.name == ROOT_SPAN]
    return sum(selfs[s.id] for s in ops) / sum(s.dur for s in ops)


def layer_stats(spans, passes):
    """Per-name sums over `passes` traced passes, reported per pass.

    Returns {name: {"calls", "busy_s", "self_s", "p50_ms", <counters>}}.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name, group in by_name.items():
        row = {
            "calls": len(group) / passes,
            "busy_s": sum(s.dur for s in group) / passes,
            "self_s": sum(selfs[s.id] for s in group) / passes,
            "p50_ms": statistics.median(s.dur for s in group) * 1e3,
        }
        totals = defaultdict(int)
        for s in group:
            for k, v in s.counts.items():
                totals[k] += v
        row.update({k: v / passes for k, v in totals.items()})
        out[name] = row
    return out
