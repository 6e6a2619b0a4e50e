"""Per-layer tracing from outside the library.

``Tracer.installed`` rebinds the names that library callers look up (for
example ``protocol.smooth_sensitivity_unbiased``, which ``run_two_step``
reads from the protocol module's globals) to timing or counting wrappers,
and restores the originals on exit.  Nothing under ``src/`` is edited.

A timed wrapper records one span per call.  Spans nest through a stack, so
a name's self time is its spans' duration minus the part covered by timed
children; self times therefore partition the traced run without double
counting.  Counting wrappers add no span: their time stays in the caller's
self time.  They are used for functions called once per triangle or per
target, where a timed span would cost more than the work it measures.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter
from typing import Callable

PACKAGE = "lwdp_triangles"
TIMED = "timed"
COUNTED = "counted"


class Tracer:
    """Span stack, per-name [calls, self seconds], and result hooks."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.absent: set[str] = set()
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        for entry in self.stats.values():
            entry[0] = 0
            entry[1] = 0.0

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def timed(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        entry = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry[0] += 1
                entry[1] += elapsed - covered[0]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        entry = self.stats.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            entry[0] += 1
            return fn(*args, **kwargs)

        return counting

    @contextlib.contextmanager
    def installed(self, bindings):
        """Rebind every ``(spec, name, kind, on_result)`` binding for the block.

        ``spec`` is ``"module:attr"`` or ``"module:Class.attr"`` inside the
        package; ``kind`` is ``TIMED`` or ``COUNTED``.  A spec that no
        longer resolves marks ``name`` absent instead of failing.
        """
        undo = []
        try:
            for spec, name, kind, on_result in bindings:
                target = _resolve(spec)
                if target is None:
                    self.absent.add(name)
                    continue
                owner, attr, original = target
                if kind == TIMED:
                    wrapper = self.timed(name, original, on_result)
                else:
                    wrapper = self.counted(name, original)
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _resolve(spec: str):
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original
