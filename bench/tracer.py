"""Spans and counters around calls into a package, installed from outside it.

A wrapper replaces a module or class attribute looked up by name, and
`Tracer.restore` puts the original object back, so the traced package is not
edited.  A name the package does not have is recorded as absent instead of
raising, so the trace survives refactors that remove or rename internals.

Every wrapped call opens a frame on a stack; the frame's duration minus the
time its child frames cover is its self time.  Calls, busy time and self time
are summed per name.  Frames of coarse calls are also kept as spans (run id,
span id, parent id, name, start, end) and written out at the end.  Hot calls,
made hundreds of thousands of times per pass, are only summed: that keeps the
trace small and the wrapper cheap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# after(name, args, kwargs, result) runs once the wrapped call has returned
After = Callable[[str, tuple, dict, object], None]

CALLS, BUSY, SELF, OPEN, NAME = range(5)  # fields of a per-name stat list


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # work done at a boundary: rows, points, ...
        self.absent: list[str] = []  # frame names whose target is missing
        self._stats: dict[str, list] = {}
        self._stack: list[list] = []  # [stat, start ns, child ns, span id, parent id]
        self._next_id = 0
        self._patched: list[tuple] = []

    def stat(self, name: str) -> list:
        """[calls, busy ns, self ns, open frames, name] of one name, created on first use."""
        found = self._stats.get(name)
        if found is None:
            found = self._stats[name] = [0, 0, 0, 0, name]
        return found

    def calls(self, name: str) -> int:
        return self.stat(name)[CALLS]

    def busy_s(self, name: str) -> float:
        return self.stat(name)[BUSY] / 1e9

    def self_s(self, name: str) -> float:
        return self.stat(name)[SELF] / 1e9

    def layer_self_s(self, prefix: str) -> float:
        """Summed self time of every frame named `prefix` or `prefix.*`, in seconds."""
        return sum(stat[SELF] for name, stat in self._stats.items()
                   if name == prefix or name.startswith(prefix + ".")) / 1e9

    def _push(self, stat: list, keep_span: bool) -> list:
        span_id = 0
        if keep_span:
            self._next_id += 1
            span_id = self._next_id
        parent_id = self._stack[-1][3] if self._stack else 0
        frame = [stat, time.perf_counter_ns(), 0, span_id, parent_id]
        self._stack.append(frame)
        stat[OPEN] += 1
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter_ns()
        stat, start, child_ns, span_id, parent_id = frame
        duration = end - start
        stat[CALLS] += 1
        stat[BUSY] += duration
        stat[SELF] += duration - child_ns
        stat[OPEN] -= 1
        stack = self._stack
        # a generator's frame can close while a frame its consumer opened is on top
        depth = len(stack) - 1
        while stack[depth] is not frame:
            depth -= 1
        del stack[depth]
        if depth:
            stack[depth - 1][2] += duration
        if span_id:
            self.spans.append((self.run_id, span_id, parent_id, stat[NAME], start, end))

    def span(self, name: str | Callable[[tuple, dict], str], keep_span: bool = True,
             after: After | None = None, names: tuple[str, ...] = ()):
        """Wrapper factory: a frame per call, named `name` or name(args, kwargs).

        A callable name must return one of `names`.
        """
        for each in (name,) if isinstance(name, str) else names:
            self.stat(each)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stat = self._stats[name if isinstance(name, str) else name(args, kwargs)]
                frame = self._push(stat, keep_span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._pop(frame)
                if after is not None:
                    after(stat[NAME], args, kwargs, result)
                return result
            return wrapper
        return make

    def span_iter(self, name: str):
        """Wrapper factory for a generator function: one frame from first item to exhaustion.

        Calls the consumer makes between items fall inside the frame.
        """
        stat = self.stat(name)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self._push(stat, True)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    self._pop(frame)
            return wrapper
        return make

    def install(self, target: str, make: Callable, names: tuple[str, ...]) -> None:
        """Replace "module:attr" or "module:Class.attr" with make(original).

        `names` are the frame names the wrapper produces; they are recorded as
        absent when the target does not exist.
        """
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        owner = importlib.import_module(module_name)
        try:
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (AttributeError, KeyError):
            self.absent.extend(names)
            return
        setattr(owner, attr, make(original))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every replaced attribute back, last installed first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "absent": self.absent,
            "span_fields": ["run_id", "span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "stat_fields": ["calls", "busy_ns", "self_ns"],
            "stats": {name: stat[:OPEN] for name, stat in self._stats.items()},
            "counts": self.counts,
        }), encoding="utf-8")
