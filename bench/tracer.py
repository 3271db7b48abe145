"""A span tracer that lives outside the program it measures.

Wrappers installed around functions and methods open a span on entry and
close it on exit.  Every span is folded into an aggregate keyed by
(name, parent name): call count, total time, and self time, which is the
span's duration minus the time its child spans cover.  Only spans marked
coarse are also kept one by one, with their id, parent id, start and end,
so memory stays bounded when hot leaf calls run into the hundreds of
thousands.  The coarse spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.stats = {}  # (name, parent name) -> [count, total, self]
        self.counters = defaultdict(float)
        self.spans = []  # coarse spans: (id, parent id, name, start, end)
        # open frames: [name, start, time covered by children, span id, coarse ancestor id]
        self._stack = []
        self._next_id = 1

    def enter(self, name, coarse=False):
        top = self._stack[-1] if self._stack else None
        ancestor = top[4] if top else None
        span_id = None
        if coarse:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, self.clock(), 0.0, span_id, span_id if coarse else ancestor]
        self._stack.append(frame)
        return frame

    def leave(self, frame):
        end = self.clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        key = (frame[0], parent[0] if parent else None)
        agg = self.stats.get(key)
        if agg is None:
            self.stats[key] = [1, dur, dur - frame[2]]
        else:
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - frame[2]
        if frame[3] is not None:
            self.spans.append((frame[3], parent[4] if parent else None, frame[0], frame[1], end))

    def wrap(self, fn, name, coarse=False, pre=None, post=None, errors=()):
        """Span ``name`` around ``fn``.

        ``pre(*args, **kwargs)`` runs before the span opens and its value
        is passed as the first argument of ``post(state, result, *args,
        **kwargs)``, which runs after it closes.  Exceptions of the types in
        ``errors`` are counted under ``<name>.errors`` and re-raised.
        """
        enter, leave, counters = self.enter, self.leave, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(*args, **kwargs) if pre is not None else None
            frame = enter(name, coarse)
            try:
                result = fn(*args, **kwargs)
            except errors:
                counters[name + ".errors"] += 1
                raise
            finally:
                leave(frame)
            if post is not None:
                post(state, result, *args, **kwargs)
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        """Span ``name`` around each step of the generator ``fn`` returns;
        items yielded are counted under ``<name>.elems``."""
        enter, leave, counters = self.enter, self.leave, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                counters[name + ".elems"] += 1
                yield item

        return wrapper

    def stats_list(self):
        return [[name, parent, *agg] for (name, parent), agg in self.stats.items()]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
