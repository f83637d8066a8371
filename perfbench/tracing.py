"""Spans recorded from outside braidrack, around calls into its layers.

`instrument` replaces selected public functions and engine methods of the
imported braidrack modules with wrappers that open a span per call.  The
program's own code is not changed; a function imported by name into another
module (``from .linalg import rank``) is replaced there too, because the
wrapper is installed wherever the original object is bound.

Spans stay in memory and are returned at the end of the worker process.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Spans as dicts: id, parent, name, detail, start, end (seconds)."""

    def __init__(self):
        self.spans = []
        # next() on a count and list.append are single bytecode-level
        # operations in CPython, so pool threads may record concurrently.
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name, detail=None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid,
                "parent": parent,
                "name": name,
                "detail": detail,
                "start": start - self._t0,
                "end": end - self._t0,
                "thread": threading.get_ident(),
            })


def _degrees(engine, up_to):
    """Degrees an engine's extend(up_to) call builds: "n" or "a..b"."""
    lo = max(engine.basis) + 1
    if lo > up_to:
        return None
    return str(up_to) if lo == up_to else "%d..%d" % (lo, up_to)


def _targets():
    from braidrack import (
        classify, cli, hurwitz, linalg, nichols, percolate, presentations, verify,
    )

    functions = [
        (verify, "verify_paper", None),
        (percolate, "minimal_plague", None),
        (nichols, "cubic_kernel", None),
        (presentations, "quotient_dims", None),
        (presentations, "relation_in_kernel", None),
        (linalg, "rank", None),
        (linalg, "row_reduce", None),
        (classify, "search", None),
        (hurwitz, "census", None),
        (hurwitz, "orbits", None),
        (cli, "main", None),
    ]
    for name, fn in vars(verify).items():
        if name.startswith("check_") and inspect.isfunction(fn):
            # check_new_example runs once per named certificate
            detail = (lambda report, name, *a, **k: name) if name == "check_new_example" else None
            functions.append((verify, name, detail))
    methods = [
        (nichols.NicholsEngine, "extend", _degrees),
        (presentations.QuotientEngine, "extend", _degrees),
    ]
    return functions, methods


def instrument(tracer):
    """Wrap the layer entry points so each call records a span."""
    functions, methods = _targets()
    modules = [m for n, m in sys.modules.items() if n == "braidrack" or n.startswith("braidrack.")]
    for module, attr, detail in functions:
        original = getattr(module, attr)
        wrapped = _wrap(tracer, original, "%s.%s" % (module.__name__.split(".")[-1], attr), detail)
        for m in modules:
            for bound_name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, bound_name, wrapped)
    for cls, attr, detail in methods:
        original = getattr(cls, attr)
        name = "%s.%s.%s" % (cls.__module__.split(".")[-1], cls.__name__, attr)
        setattr(cls, attr, _wrap(tracer, original, name, detail))


def _wrap(tracer, fn, name, detail):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, detail(*args, **kwargs) if detail else None):
            return fn(*args, **kwargs)

    return traced


def self_times(spans):
    """Seconds per span name not covered by that span's own children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
