"""In-memory span tracing of the ``kashin`` modules, from outside them.

:class:`Tracer` replaces every public function of each ``kashin`` module
with a timing wrapper by rebinding the module attribute, in every module
that holds a reference to it.  Calls made inside the package go through
module attributes too (``frames.analysis`` calls ``linalg.idft``), so the
wrappers see the whole call tree without any change to the package.
The package source is never touched; :meth:`Tracer.uninstall` puts the
original functions back.

A span is ``[name, start_ns, end_ns, parent, root, attrs]``.  ``parent``
and ``root`` are span indices (-1 for none); ``attrs`` holds a few facts
about the call (frame kind and shape, transform length, model tag) taken
from its arguments, so layers can be split by the path they take.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import time
import types

PREFIX = "kashin."


def _frame_attrs(frame) -> dict:
    return {"kind": frame.kind, "n": frame.n, "N": frame.N}


# call facts recorded per span name, computed from the call's positional
# arguments (the benchmark passes these positionally)
ANNOTATORS = {
    "frames.analysis": lambda a: _frame_attrs(a[0]),
    "frames.synthesis": lambda a: _frame_attrs(a[0]),
    "linalg.dft": lambda a: {"N": len(a[0])},
    "linalg.idft": lambda a: {"N": len(a[0])},
    "uncertainty.up_estimate": lambda a: {**_frame_attrs(a[0]), "supports": a[2]},
    # supports of width floor(delta*N), as uncertainty.support_width counts
    "uncertainty.up_check_exact": lambda a: {
        **_frame_attrs(a[0]),
        "supports": math.comb(a[0].N, int(math.floor(a[1] * a[0].N + 1e-9))),
    },
    "quantize.distortion_experiment": lambda a: {"model": a[4].tag},
    "cli.run": lambda a: {"command": a[0][0]},
}


class Tracer:
    """Collects spans from patched package functions and from the
    benchmark's own :meth:`span` blocks."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []
        self._modules: list[types.ModuleType] = []

    def _open(self, name: str, attrs) -> list:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        root = self.spans[parent][4] if parent >= 0 else index
        rec = [name, 0, 0, parent, root, attrs]
        self.spans.append(rec)
        self._stack.append(index)
        return rec

    def _wrap(self, fn):
        name = f"{fn.__module__[len(PREFIX):]}.{fn.__name__}"
        annotate = ANNOTATORS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, annotate(args) if annotate else None)
            rec[1] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                self._stack.pop()

        return wrapper

    def install(self, modules) -> None:
        """Patch the public functions of ``modules`` (kashin modules)."""
        self._modules = list(modules)
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(PREFIX)
                    or obj.__name__.startswith("_")
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block with the original functions in place, so the
        benchmark's own checks leave no spans; a no-op when not installed."""
        if not self._patched:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install(self._modules)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A span opened by the benchmark itself (an op, a set-up, a CLI
        sample); package spans inside it become its descendants."""
        rec = self._open(name, attrs)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def write(self, path) -> None:
        """Write every span, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so children of a span never overlap and
    their durations add up to the time they cover.
    """
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out
