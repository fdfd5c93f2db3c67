"""Benchmark-side spans around public calls into ``repro``.

The program is not instrumented: :class:`Recorder` swaps wrappers onto
public methods and functions of ``repro`` for the duration of a traced
op and puts the originals back afterwards, so an untraced op runs the
unmodified code.  ``repro.telemetry`` stays off throughout.

Each span records name, start, end, parent span and op id, in memory.
A call made on a worker thread (the sharded engine's shard pool) has no
span open on its own thread; its parent is the span open on the main
thread, which is blocked waiting for that worker.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int          # 0 = no parent
    name: str
    t0: int              # perf_counter_ns
    t1: int
    op: str
    obj: int             # id() of the receiving object, 0 for functions
    meta: object = None

    @property
    def seconds(self) -> float:
        return (self.t1 - self.t0) * 1e-9


class Recorder:
    """Installs span wrappers on ``targets`` while a traced region runs.

    ``targets`` lists ``(owner, attribute, span_name, meta_fn)``; the
    owner is a class or module, ``meta_fn(args)`` (or ``None``) extracts
    a small annotation from the call's arguments.  Constructor targets
    (``__init__``) also remember each constructed object (weakly), so
    counters on public attributes can be read after the run.
    """

    def __init__(self, targets) -> None:
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.objects: dict[str, list] = defaultdict(list)
        self.op = ""
        self._ids = itertools.count(1)
        self._main = threading.main_thread()
        self._main_stack: list[tuple] = []
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, meta_fn in self.targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, attr, name, meta_fn,
                                            is_method=isinstance(owner, type)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, fn, attr, name, meta_fn, is_method):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            obj = args[0] if is_method and args else None
            return rec.call(name, attr, obj, fn, args, kwargs, meta_fn)

        return wrapper

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, attr, obj, fn, args, kwargs, meta_fn=None):
        stack = self._stack()
        # A subclass method calling its wrapped base (super().spmv) is
        # one layer call, not two.
        if obj is not None and stack and stack[-1][1] is obj and stack[-1][2] == attr:
            return fn(*args, **kwargs)
        if stack:
            parent = stack[-1][0]
        else:
            parent = self._main_stack[-1][0] if self._main_stack else 0
        sid = next(self._ids)
        stack.append((sid, obj, attr))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            meta = meta_fn(args) if meta_fn is not None else None
            if attr == "__init__" and obj is not None:
                self.objects[name].append(weakref.ref(obj))
            self.spans.append(
                Span(sid, parent, name, t0, t1, self.op,
                     id(obj) if obj is not None else 0, meta)
            )

    def region(self, op: str, name: str = "bench.op"):
        """Context manager: install wrappers and open a root span."""
        return _Region(self, op, name)


class _Region:
    def __init__(self, rec: Recorder, op: str, name: str) -> None:
        self.rec, self.op, self.name = rec, op, name

    def __enter__(self):
        rec = self.rec
        rec.op = self.op
        rec.install()
        self.sid = next(rec._ids)
        rec._main_stack.append((self.sid, None, self.name))
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter_ns()
        rec = self.rec
        rec._main_stack.pop()
        rec.uninstall()
        rec.spans.append(Span(self.sid, 0, self.name, self.t0, t1, self.op, 0))


# -- derivations ---------------------------------------------------------


def _union(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def children_of(spans) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    return kids


def self_seconds(span: Span, kids: dict[int, list[Span]]) -> float:
    """Duration minus the part of it that child spans cover."""
    covered = _union(
        (max(c.t0, span.t0), min(c.t1, span.t1))
        for c in kids.get(span.sid, ())
        if c.t1 > span.t0 and c.t0 < span.t1
    )
    return (span.t1 - span.t0 - covered) * 1e-9


def attributed_seconds(root: Span, kids: dict[int, list[Span]]) -> dict[str, float]:
    """Split a root span's wall time among the innermost open spans.

    At each instant the time goes to the open spans that have no open
    child then; when several run concurrently (shards on a thread pool)
    it is split evenly, so the shares add up to the root's duration
    exactly.
    """
    tree: list[Span] = []
    todo = [root]
    while todo:
        s = todo.pop()
        tree.append(s)
        todo.extend(kids.get(s.sid, ()))
    cuts = sorted({root.t0, root.t1, *(
        min(max(t, root.t0), root.t1) for s in tree for t in (s.t0, s.t1)
    )})
    out: dict[str, float] = defaultdict(float)
    for a, b in zip(cuts, cuts[1:]):
        open_ = [s for s in tree if s.t0 <= a and s.t1 >= b]
        if not open_:
            continue
        ids = {s.sid for s in open_}
        leaves = [
            s for s in open_
            if not any(c.sid in ids for c in kids.get(s.sid, ()))
        ]
        share = (b - a) * 1e-9 / len(leaves)
        for s in leaves:
            out[s.name] += share
    return out
