"""Span tracing of maskwire's public functions, installed from outside.

``Tracer`` wraps every public module-level function and public
classmethod of the loaded ``maskwire`` modules.  A function is replaced
in every module namespace that bound it, because ``cli`` imports with
``from .preimage import ...`` and the gadget lambdas look up
``maskwire.gadgets`` globals at call time.  ``ZqElem`` creations are
counted through its ``__post_init__``.  Leaving the ``with`` block puts
every original object back, so an untraced run pays nothing.

Each call records one span: id, name, start, end, parent id, thread id,
and the size of what it returned.  A span's parent is the innermost
span open on the same thread; on a worker thread with nothing open it is
the innermost span open on the thread that installed the tracer, which
is the one that handed the work over.  Spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Optional

PACKAGE = "maskwire"
STATS = ("calls", "busy_s", "self_s", "items", "bytes")


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    items: int  # elements of a returned array
    bytes: int  # nbytes of a returned array, or length of returned text


def result_size(result: Any) -> tuple[int, int]:
    """(items, bytes) of a return value: arrays by nbytes, text by UTF-8 length."""
    nbytes = getattr(result, "nbytes", None)
    if nbytes is not None:
        return int(result.size), int(nbytes)
    if isinstance(result, tuple) and all(isinstance(part, str) for part in result):
        return 0, sum(len(part.encode()) for part in result)
    return 0, 0


def span_name(fn: Callable) -> str:
    """``<module>.<qualname>`` with the package prefix dropped."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


def _package_modules() -> list[types.ModuleType]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Tracer:
    """Context manager that records a span for each traced call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.created = 0  # ZqElem objects built while installed
        self._ids = itertools.count(1)
        self._creations = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _swap(self, owner: Any, attr: str, new: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._root_stack
        modules = _package_modules()
        wrappers: dict[Callable, Callable] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or not obj.__module__.startswith(PACKAGE)
                ):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj)
                self._swap(mod, attr, wrappers[obj])
        for mod in modules:
            for cls in list(vars(mod).values()):
                if not isinstance(cls, type) or cls.__module__ != mod.__name__:
                    continue
                for attr, desc in list(vars(cls).items()):
                    if isinstance(desc, classmethod) and not attr.startswith("_"):
                        self._swap(cls, attr, classmethod(self._wrap(desc.__func__)))
        zq = sys.modules[f"{PACKAGE}.modring"].ZqElem
        post_init = zq.__dict__["__post_init__"]
        creations = self._creations

        def counted_post_init(obj: Any) -> None:
            next(creations)
            post_init(obj)

        self._swap(zq, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        # itertools.count hands out 0, 1, ...: the next value is the tally.
        self.created = next(self._creations)
        self._creations = itertools.count()

    def _parent(self, stack: list[int]) -> Optional[int]:
        if stack:
            return stack[-1]
        if stack is self._root_stack:
            return None
        try:
            return self._root_stack[-1]
        except IndexError:
            return None

    def _wrap(self, fn: Callable) -> Callable:
        name = span_name(fn)
        local = self._local
        ids = self._ids
        record = self.spans.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = self._parent(stack)
            span_id = next(ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                record(
                    Span(
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        threading.get_ident(),
                        *result_size(result),
                    )
                )

        return traced


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    total = 0.0
    reach = lo  # everything in [lo, reach] is already counted
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def layer_stats(spans: Iterable[Span]) -> dict[str, dict[str, float]]:
    """Span name -> {calls, busy_s, self_s, items, bytes}, summed over spans."""
    spans = list(spans)
    own = self_times(spans)
    stats: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(STATS, 0))
    for s in spans:
        row = stats[s.name]
        row["calls"] += 1
        row["busy_s"] += s.end - s.start
        row["self_s"] += own[s.id]
        row["items"] += s.items
        row["bytes"] += s.bytes
    return dict(stats)
