"""Outside-in span tracer: wraps functions where their callers look them up.

A wrapped name records one span per call (name, start, end, parent span,
thread, error class, optional extra data) in memory.  ``Tracer.restore``
puts every original object back, so the program is unchanged after the
traced run.  Nothing here edits the program's source.
"""

from __future__ import annotations

import functools
import threading
import time


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "thread", "error", "extra")

    def __init__(self, name, t0, parent, thread):
        self.name = name
        self.t0 = t0
        self.t1 = None
        self.parent = parent
        self.thread = thread
        self.error = None
        self.extra = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {"name": self.name, "t0": self.t0, "t1": self.t1,
                "parent": self.parent, "thread": self.thread,
                "error": self.error, "extra": self.extra}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        span = cls(d["name"], d["t0"], d["parent"], d["thread"])
        span.t1, span.error, span.extra = d["t1"], d["error"], d["extra"]
        return span


class Tracer:
    """Records spans for the functions given to ``wrap``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._patched = []  # (owner, attr, original descriptor)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, extra=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``owner`` is a module or a class; for a class the raw descriptor is
        wrapped, so classmethods stay classmethods.  ``extra(args, kwargs,
        result)`` may return data stored on the span.
        """
        raw = vars(owner)[attr]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapper = self._wrapper(fn, name, extra)
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patched.append((owner, attr, raw))

    def _wrapper(self, fn, name, extra):
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(name, time.perf_counter(),
                        stack[-1] if stack else None, threading.get_ident())
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        return traced

    def restore(self) -> None:
        """Put back every wrapped name, last wrapped first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def total(spans, name: str) -> float:
    return sum(s.seconds for s in spans if s.name == name)


def within(spans, outer: Span) -> list:
    """Spans of ``outer``'s thread that lie inside its interval."""
    return [s for s in spans if s is not outer and s.thread == outer.thread
            and s.t0 >= outer.t0 and s.t1 <= outer.t1]


def self_seconds(spans, outer: Span) -> float:
    """``outer``'s duration minus the time its direct children cover."""
    index = spans.index(outer)
    return outer.seconds - sum(s.seconds for s in spans if s.parent == index)
