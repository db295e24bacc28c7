"""Spans recorded from outside the program, by wrapping the functions it calls.

``Tracer.install`` replaces each named call site (a module attribute) with a
wrapper that records one span per call: its name, start, end, parent span,
thread, the thread's CPU time and the operation it belongs to.  The span
name is the defining module and function (``aep_fit.fit_aep``), so the same
function reached through two call sites aggregates under one name.

A span's parent is the innermost open span on its own thread.  Work handed
to a pool thread starts with an empty stack there; its parent is then the
innermost open span of the thread that installed the tracer, which is the
one blocked waiting on the pool.  Work in child processes is not seen.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    site: str
    parent: int | None
    thread: int
    op: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    # Kept only for names in Tracer.keep, and only when the call returned.
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def wait(self) -> float:
        """Wall time the thread spent not running: waiting for the GIL or a core."""
        return max(0.0, self.seconds - self.cpu)


class Tracer:
    """Wraps call sites; ``keep`` names the spans whose arguments and result are kept."""

    def __init__(self, sites: list[tuple[str, str]], keep: frozenset = frozenset()):
        self.sites = sites
        self.keep = keep
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._home = threading.get_ident()

    def install(self) -> None:
        for module_name, attr in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{module_name}.{attr}"))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, site: str):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        kept = name in self.keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            span = Span(next(self._ids), name, site, parent, thread, self.op,
                        time.perf_counter())
            stack.append(span.id)
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.cpu = time.thread_time() - cpu
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if kept:
                span.args, span.kwargs, span.result = args, kwargs, result
            return result

        return traced


def self_seconds(span: Span, spans: list[Span]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    children = sorted((c.start, c.end) for c in spans if c.parent == span.id)
    covered, reach = 0.0, span.start
    for start, end in children:
        start, end = max(start, reach), min(end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.seconds - covered
