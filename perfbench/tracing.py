"""In-memory spans for the traced benchmark run, and the arithmetic on them.

A span has a name, a start, an end, a parent span and an operation id; all
spans of one operation share that id.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the union of its children's
intervals, clipped to the span itself.

``Tracer.patched`` rebinds public functions of the evshare modules for the
duration of a ``with`` block, so that calls made by one module into another
(``frontier`` into ``solver``, ``cli`` into ``charging``) are traced without
changing any file of the program.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int          # id of the enclosing span, or None
    op: object           # operation id shared by every span of one operation
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children):
    """Span duration minus the part of it that its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - union_length([(s, e) for s, e in clipped if e > s])


def children_of(spans):
    """Map span id -> list of its direct child spans."""
    kids = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


class Tracer:
    """Collects spans from one single-threaded run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name, **attrs):
        record = Span(len(self.spans), name, self.clock(), 0.0,
                      self._stack[-1].id if self._stack else None, self.op, attrs)
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, name, fn, describe=None):
        """``fn`` with a span around every call; ``describe`` maps the result to attrs."""
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record.attrs.update(describe(result))
                return result
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Rebind ``(module, attribute, span name, describe)`` targets inside the block."""
        saved = []
        try:
            for module, attr, name, describe in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, describe))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
