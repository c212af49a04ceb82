"""Outside-in tracing: spans around the public functions of each minerlab
module, recorded from the benchmark's own files.

:func:`traced` swaps every binding of a listed function in the minerlab
modules (including ``from x import f`` copies) for a wrapper that records a
span, and restores the originals on exit.  Spans stay in memory; the runner
writes them out at the end.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
from dataclasses import dataclass
from time import perf_counter_ns

# The layers are minerlab's modules; each lists the public functions whose
# calls mark its boundary.  ``costs`` is absent: no CLI op calls it, and its
# model figures are read directly.
LAYERS = {
    "cli": ("main",),
    "header": ("header_from_hex", "serialize_header", "decode_nbits", "meets_target"),
    "kernel": ("prepare_header_work", "scan", "complete_nonce"),
    "sha256": ("sha256d", "compress"),
    "rewards": ("cumulative_supply", "total_emission", "reward_original",
                "reward_proposed", "schedule_table", "first_lower_height"),
}


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str  # "<layer>.<function>"
    start_ns: int
    end_ns: int
    op: int | None  # index of the op being timed when the span opened

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Span recorder. A span's parent is the innermost open span of its own
    thread; spans opened by the kernel's worker threads hang off the span
    the main thread is blocked in."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced_call(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self.op))

        traced_call.__wrapped__ = fn
        return traced_call


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on every minerlab module for the duration."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "minerlab" or n.startswith("minerlab.")]
    wrappers = {}
    for layer, names in LAYERS.items():
        module = sys.modules[f"minerlab.{layer}"]
        for name in names:
            fn = getattr(module, name)
            wrappers[id(fn)] = tracer.wrap(f"{layer}.{name}", fn)
    swapped = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers and callable(value):
                swapped.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
    try:
        yield tracer
    finally:
        for module, attr, value in swapped:
            setattr(module, attr, value)


def covered_ns(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    return {
        s.sid: (s.end_ns - s.start_ns
                - covered_ns(children.get(s.sid, []), s.start_ns, s.end_ns)) / 1e9
        for s in spans
    }
