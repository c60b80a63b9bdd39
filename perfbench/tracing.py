"""In-memory tracing of framelink's public functions, installed from outside.

The library has no hooks, so a traced run replaces each public function (and
each framelink module's import of it under the same name) with a wrapper
that times the call on a stack.  A call's self time is its duration minus
the time of the wrapped calls it made.  Layer-boundary calls are also kept
as spans (name, start, end, parent, request); the scalar and algebra
operations are only counted and timed, because they run up to thousands of
times per request.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

from framelink import algebra, braids, cli, esystem, invariants, quotients, scalars, trace

# (owner, attribute, metric prefix, keep spans)
_FUNCTIONS = (
    (braids, "parse_braid", "braids.parse", True),
    (algebra, "map_to_algebra", "algebra.map", True),
    (trace.Tracer, "trace", "trace.trace", True),
    (esystem, "build_solution", "esystem.solution", True),
    (invariants, "invariant", "invariants.invariant", True),
    (quotients, "admissible", "quotients.admissible", True),
    (quotients, "trace_vanishes_on_ideal", "quotients.scan", True),
    (quotients, "ideal_inclusion", "quotients.inclusion", True),
    (cli, "main", "cli.main", True),
    (cli, "cache_get", "cli.cache_get", True),
    (cli, "cache_put", "cli.cache_put", True),
    (scalars.RatFunc, "__mul__", "scalars.ratfunc_mul", False),
    (scalars.RatFunc, "__rmul__", "scalars.ratfunc_mul", False),
    (scalars.RatFunc, "__add__", "scalars.ratfunc_add", False),
    (scalars.RatFunc, "__radd__", "scalars.ratfunc_add", False),
    (scalars.RatFunc, "substitute", "scalars.substitute", False),
    (algebra.AlgebraElement, "__mul__", "algebra.mul", False),
)


class Recorder:
    """Call stack, per-name totals, spans and free counters of one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[list] = []   # [child seconds, span id]
        self._next_id = 0

    def wrap(self, fn, name: str, keep_span: bool, on_return=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            if keep_span:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[0]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                if keep_span:
                    self.spans.append((frame[1], name, t0, t1,
                                       parent[1] if parent else -1, self.request))
            if on_return is not None:
                on_return(self, args, out)
            return out
        return wrapper

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": req}) + "\n")


def _count_image_terms(rec: Recorder, args, out) -> None:
    rec.counters["algebra.image_terms"] += len(out.terms)


def _count_cache_lookup(rec: Recorder, args, out) -> None:
    rec.counters["cli.cache_lookups"] += 1
    rec.counters["cli.cache_hits"] += out is not None
    try:
        rec.counters["cli.cache_bytes_read"] += os.path.getsize(args[0])
    except OSError:
        pass


_ON_RETURN = {"algebra.map": _count_image_terms, "cli.cache_get": _count_cache_lookup}


class installed:
    """Context manager: wrap every function in _FUNCTIONS, restore on exit.

    A module-level function is replaced in every framelink module that holds
    it under the same name, because the library imports names directly
    (``from .algebra import map_to_algebra``).
    """

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple] = []

    def __enter__(self) -> Recorder:
        modules = [m for name, m in sys.modules.items()
                   if name == "framelink" or name.startswith("framelink.")]
        for owner, attr, name, keep in _FUNCTIONS:
            original = owner.__dict__[attr]
            wrapper = self.rec.wrap(original, name, keep, _ON_RETURN.get(name))
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                if vars(target).get(attr) is original:
                    self._undo.append((target, attr, original))
                    setattr(target, attr, wrapper)
        return self.rec

    def __exit__(self, *exc) -> None:
        for target, key, value in reversed(self._undo):
            setattr(target, key, value)
        self._undo.clear()
